"""Independent oracles used to derive expected values in the tests.

These deliberately avoid the library's own code paths: golden-section and
grid minimization, central finite differences, exact second differences of
quadratics, brute-force sums, CSV artifacts formatted one cell at a time, and
the run loop written with lists, one allocation per row.
"""

import numpy as np

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, lo, hi, tol=1e-12, max_iter=200):
    """Minimize a unimodal scalar function on [lo, hi]."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if abs(b - a) < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def grid_min(f, lo, hi, coarse=20001, refine=3):
    """Brute-force scalar minimization by successive grid refinement."""
    a, b = lo, hi
    for _ in range(refine):
        xs = np.linspace(a, b, coarse)
        vals = np.array([f(x) for x in xs])
        i = int(np.argmin(vals))
        a = xs[max(i - 1, 0)]
        b = xs[min(i + 1, coarse - 1)]
    return 0.5 * (a + b)


def central_diff_gradient(f, x, h=1e-6):
    """Central finite-difference gradient."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def quadratic_hessian(f, n):
    """Hessian of a quadratic ``f`` on R^n from exact second differences.

    For a quadratic, ``f(e_i + e_j) - f(e_i) - f(e_j) + f(0)`` equals the
    Hessian entry ``(i, j)`` with no truncation error (``e_i + e_i = 2 e_i``
    on the diagonal).  Only values of ``f`` are used, never its structure.
    """
    eye = np.eye(n)
    f0 = f(np.zeros(n))
    fi = np.array([f(eye[i]) for i in range(n)])
    hess = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            hess[i, j] = hess[j, i] = f(eye[i] + eye[j]) - fi[i] - fi[j] + f0
    return hess


def svd_smax_sq(mat):
    """Squared largest singular value of ``mat`` from a full SVD."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    return float(np.linalg.svd(mat, compute_uv=False)[0]) ** 2 if mat.size else 0.0


def l1_dual_bound(mat, vec, lam, x, half):
    """Dual objective ``y'theta - ||theta||^2/2`` at the rescaled residual of
    ``x`` for ``c ||M x - v||^2 + lam ||x||_1`` (``c`` = 1/2 or 1), written
    as ``(1/2)||A x - y||^2 + lam ||x||_1`` with ``A``, ``y`` scaled by
    ``sqrt(2c)``; a lower bound on the minimum for every ``x``."""
    root = 1.0 if half else np.sqrt(2.0)
    a, y = root * np.asarray(mat, dtype=float), root * np.asarray(vec, dtype=float)
    theta = y - a @ x
    theta /= max(1.0, np.max(np.abs(a.T @ theta)) / lam)
    return float(y @ theta) - 0.5 * float(theta @ theta)


def gap_rounding_floor(mat, vec, x, half):
    """First-order rounding bound ``c (m + n + 1) eps (|M||x|)'(|M||x| + |v|)``
    of a duality gap evaluated in double precision (``c`` = 1 half-scaled, 2
    unscaled)."""
    mat = np.asarray(mat, dtype=float)
    ax = np.abs(mat) @ np.abs(x)
    c = 1.0 if half else 2.0
    return c * (sum(mat.shape) + 1) * np.finfo(float).eps * float(ax @ (ax + np.abs(vec)))


def l1_ray_point(lam, s, w, target, d):
    """Point on the ray from the exact prox of ``s lam ||.||_1`` at which the
    prox-subproblem gap reaches 0.95 * target, by a full sort-and-scan.

    Every kink t_j = -x_j / d_j (x_j d_j < 0) is sorted and the gap phi is
    summed up to each one, with no shortcut for the first segment, and the
    gap at the point is evaluated in expanded form.  The arithmetic is
    written out term by term so that a faster solve must match it to the
    bit.  Returns ``(point, gap, residual)``.
    """
    x = np.sign(w) * np.maximum(np.abs(w) - s * lam, 0.0)
    xw, dd = float(d @ (x - w)), float(d @ d)
    curv = dd / s
    crossing = np.sign(x) * d < 0.0
    kinks = -x[crossing] / d[crossing]
    order = np.argsort(kinks)
    lefts = np.concatenate(([0.0], kinks[order]))
    jumps = np.concatenate(([0.0], 2.0 * lam * np.abs(d[crossing])[order]))
    slope0 = xw / s + lam * float(np.where(x == 0.0, np.abs(d), np.sign(x) * d).sum())
    slopes = slope0 + curv * lefts + np.cumsum(jumps)
    widths = np.diff(lefts)
    phis = np.concatenate(([0.0], np.cumsum((slopes[:-1] + 0.5 * curv * widths) * widths)))
    aim = 0.95 * target
    i = int(np.searchsorted(phis, aim)) - 1
    rest, p = aim - phis[i], slopes[i]
    t = lefts[i] + 2.0 * rest / (p + np.sqrt(p * p + 2.0 * curv * rest))
    step = t * d
    moved = x + step
    l1_change = np.where(
        x == 0.0,
        np.abs(step),
        np.where(np.sign(moved) == np.sign(x), np.sign(x) * step, np.abs(moved) - np.abs(x)),
    )
    gap = lam * float(l1_change.sum()) + (2.0 * t * xw + t * t * dd) / (2.0 * s)
    return x + step, gap, step


def _fmt(x):
    if x is None:
        return ""
    x = float(x)
    if np.isnan(x):
        return ""
    return "%.17g" % x


def trace_csv_text(trace, f_star=None):
    """``trace.csv`` formatted cell by cell, one row per k."""
    t = trace.num_steps
    eps1n = trace.eps1_norms()
    resn = trace.res_norms()
    changes = trace.x_change()
    lines = ["iter,f,f_gap,step,eps1_norm,eps2,res_norm,x_change"]
    for k in range(t + 1):
        f_gap = "" if f_star is None else _fmt(trace.fvals[k] - f_star)
        if k < t:
            step_cols = [
                _fmt(trace.steps[k]),
                _fmt(eps1n[k]),
                _fmt(trace.eps2[k]),
                _fmt(resn[k]),
            ]
        else:
            step_cols = ["", "", "", ""]
        change = _fmt(changes[k - 1]) if k >= 1 else ""
        lines.append(",".join([str(k), _fmt(trace.fvals[k]), f_gap] + step_cols + [change]))
    return "\n".join(lines) + "\n"


# the fixed bounds.csv schema documented in the README
BOUNDS_HEADER = (
    "iter,f_gap,thm_basic_det,cor_basic_det,thm_basic_rand,thm_basic_stat,thm_acc_det,"
    "cor_acc_det,thm_acc_rand,schmidt_basic,schmidt_acc,"
    "prob_thm_basic_rand,prob_thm_basic_stat,prob_thm_acc_rand"
)


def bounds_csv_text(series_list, f_gap):
    """``bounds.csv`` formatted cell by cell."""
    names = BOUNDS_HEADER.split(",")[2:]
    bound_names = [n for n in names if not n.startswith("prob_")]
    prob_names = [n[len("prob_"):] for n in names if n.startswith("prob_")]
    by_name = {s.name: s for s in series_list}
    lines = [BOUNDS_HEADER]
    for k in range(len(f_gap)):
        row = [str(k), _fmt(f_gap[k])]
        for name in bound_names:
            s = by_name.get(name)
            row.append(_fmt(s.values[k]) if s is not None else "")
        for name in prob_names:
            s = by_name.get(name)
            row.append(_fmt(s.probability[k]) if s is not None else "")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def comparison_csv_text(series_list, f_gap, baseline_name):
    """``comparison.csv`` formatted cell by cell."""
    by_name = {s.name: s for s in series_list}
    baseline = by_name.get(baseline_name)
    ours = [s for s in series_list if s.name != baseline_name]
    header = ["iter", "f_gap"] + [s.name for s in series_list] + [f"imprv_{s.name}" for s in ours]
    lines = [",".join(header)]
    for k in range(len(f_gap)):
        row = [str(k), _fmt(f_gap[k])]
        row += [_fmt(s.values[k]) for s in series_list]
        row += ["" if baseline is None else _fmt(baseline.values[k] - s.values[k]) for s in ours]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _reference_grad(problem, y):
    quad = problem.smooth
    g = quad.mat.T @ (quad.mat @ y - quad.vec)
    return g if quad.half else 2.0 * g


def _reference_ray_solve(h, s, w, target_eps2, d, abs_d, d_dot_d):
    """The list-based loop's ray solve: ``(point, residual, (x, t, d'(x - w)))``."""
    if s <= 0:
        raise ValueError("prox stepsize must be positive")
    if target_eps2 < 0:
        raise ValueError("target gap must be nonnegative")
    w = np.asarray(w, dtype=float)
    x = np.sign(w) * np.maximum(np.abs(w) - s * h.lam, 0.0)
    if target_eps2 == 0.0:
        return x, np.zeros_like(w), (x, 0.0, 0.0)
    d_dot_xw = float(d @ (x - w))
    curv = d_dot_d / s
    signed_d = np.sign(x) * d
    crossing = signed_d < 0.0
    kinks = -x[crossing] / d[crossing]
    l1_slope = np.where(x == 0.0, abs_d, signed_d)
    slope0 = d_dot_xw / s + h.lam * float(l1_slope.sum())
    aim = 0.95 * target_eps2
    left, rest, p = 0.0, aim, slope0
    if kinks.size:
        k_min = kinks.min()
        if not (slope0 + 0.5 * curv * k_min) * k_min >= aim:
            order = np.argsort(kinks)
            lefts = np.concatenate(([0.0], kinks[order]))
            jumps = np.concatenate(([0.0], 2.0 * h.lam * abs_d[crossing][order]))
            slopes = slope0 + curv * lefts + np.cumsum(jumps)
            widths = np.diff(lefts)
            phis = np.concatenate(([0.0], np.cumsum((slopes[:-1] + 0.5 * curv * widths) * widths)))
            i = int(np.searchsorted(phis, aim)) - 1
            left, rest, p = lefts[i], aim - phis[i], slopes[i]
    t = left + 2.0 * rest / (p + np.sqrt(p * p + 2.0 * curv * rest))
    residual = t * d
    return x + residual, residual, (x, t, d_dot_xw)


@np.errstate(over="ignore", invalid="ignore")
def reference_run(problem, config, x0, accelerated):
    """``solvers._run`` as a list-based loop: every row appended as it is
    made, ``isfinite`` tested at each step, the gradient, prox and ray solve
    written out here, the stacks formed from the lists at the end.  Returns
    the same ``RunTrace``, or raises the same error, to the bit."""
    from proxcert.errors import (
        FixedPointFormat,
        GradientErrorSpec,
        checked_gaps,
        draw_tape,
        inner_solver_prox,
        quantize_quadratic,
        quantized_gradient,
        ray_constants,
    )
    from proxcert.problems import StepsizePolicy, as_vector, backtrack_stepsize
    from proxcert.solvers import RunTrace, _next_alpha

    x0 = as_vector(x0, problem.n, "x0")
    gspec, pspec = config.grad_error, config.prox_error
    tape = draw_tape(gspec, pspec, problem.n, config.max_iters, config.seed)
    relative = isinstance(gspec, GradientErrorSpec) and gspec.model == "relative"
    quad_q = quantize_quadratic(gspec, problem.smooth) if isinstance(gspec, FixedPointFormat) else None
    inner = pspec is not None and pspec.mode == "inner_solver"
    policy = config.stepsize or StepsizePolicy.constant(1.0 / problem.lipschitz)
    if tape.targets is not None:
        abs_d, d_dot_d = ray_constants(tape.directions)
    rays = []
    xs, ys = [x0], []
    steps, betas, alphas, eps2s, eps1s, ress = [], [], [], [], [], []
    zero = np.zeros(problem.n)
    status = "iteration-cap"
    s, x_prev, x, g_x, alpha_k = policy.s0, x0, x0, None, 1.0
    try:
        for k in range(config.max_iters):
            beta_k, y = 0.0, x
            if k > 0:
                alpha_prev, alpha_k = alpha_k, _next_alpha(config.momentum, k, alpha_k)
                if accelerated:
                    beta_k = (alpha_prev - 1.0) / alpha_k
                    y = x + beta_k * (x - x_prev)
            if quad_q is not None:
                noisy = eps1 = quantized_gradient(gspec, quad_q, y)
            elif tape.kappa is not None:
                g = _reference_grad(problem, y)
                eps1 = tape.kappa[k] * g if relative else tape.kappa[k]
                noisy = g + eps1
            else:
                noisy, eps1 = _reference_grad(problem, y), zero
            g_next = None
            if policy.mode == "backtracking":
                g_y = None if accelerated else g_x
                s, z, g_z = backtrack_stepsize(problem, s, y, noisy, policy.eta, g_probe=g_y)
            w = y - s * noisy
            if tape.targets is not None:
                x_next, r, ray = _reference_ray_solve(
                    problem.reg, s, w, tape.targets[k], tape.directions[k], abs_d[k], d_dot_d[k]
                )
                rays.append(ray)
                gap = None
            elif inner:
                x_next, gap, r = inner_solver_prox(problem.reg, s, w, pspec.eps0)
            elif policy.mode == "backtracking":
                x_next, gap, r, g_next = z, 0.0, zero, g_z
            else:
                lam_s = s * problem.reg.lam
                x_next, gap, r = np.sign(w) * np.maximum(np.abs(w) - lam_s, 0.0), 0.0, zero
            if accelerated:
                ys.append(y)
            steps.append(s)
            betas.append(beta_k)
            alphas.append(alpha_k)
            eps1s.append(eps1)
            eps2s.append(gap)
            ress.append(r)
            xs.append(x_next)
            if not np.isfinite(x_next).all():
                status = "non-finite-iterate"
                break
            if config.abstol > 0 and float(np.linalg.norm(x_next - x)) <= config.abstol:
                status = "converged"
                break
            x_prev, x, g_x = x, x_next, g_next
    finally:
        if rays:
            stacked = tuple(zip(*rays))
            eps2s = checked_gaps(problem.reg, steps, stacked, tape.directions, d_dot_d, tape.targets)
    xs = np.asarray(xs)
    ys = np.asarray(ys) if accelerated else None
    fvals = problem.f_values(xs)
    if status == "non-finite-iterate":
        fvals[-1] = np.nan
    eps1s = np.asarray(eps1s)
    if quad_q is not None:
        eps1s = eps1s - problem.smooth.grads(ys if accelerated else xs[: len(steps)])
    return RunTrace(
        xs=xs,
        ys=ys,
        steps=np.asarray(steps),
        betas=np.asarray(betas),
        alphas=np.asarray(alphas),
        fvals=fvals,
        eps1=eps1s,
        eps2=np.asarray(eps2s),
        res=np.asarray(ress),
        status=status,
    )
