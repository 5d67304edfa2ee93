"""Independent oracles used to derive expected values in the tests.

These deliberately avoid the library's own code paths: golden-section and
grid minimization, central finite differences, exact second differences of
quadratics, brute-force sums, the MPC objective by explicit simulation and
its unregularized minimizer in closed form, CSV artifacts formatted one cell
at a time, problem files written with the standard library's ``json``, and
the run loop written with lists, one allocation per row.
"""

import dataclasses
import json
import math

import numpy as np

from proxcert.problems import OracleError, as_vector

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


def simulate_states(spec, u_moves):
    """Rollout oracle: propagate the dynamics from ``spec.x0`` and stack the
    states x(1)..x(N_p).  Moves beyond the control horizon are zero, matching
    the Phi structure."""
    model = spec.model
    x = spec.x0
    u_moves = as_vector(u_moves, spec.n_moves, "U")
    p = model.n_inputs
    states = []
    for step in range(spec.n_p):
        u = u_moves[step * p : (step + 1) * p] if step < spec.n_c else np.zeros(p)
        x = model.a @ x + model.b @ u
        states.append(x)
    return np.concatenate(states)


def rollout_objective(spec, u_moves):
    """Quadratic MPC objective (no l1 term) evaluated by explicit simulation:
    the regulator weighs the states' distance from zero."""
    err = simulate_states(spec, u_moves)
    q_full = np.tile(spec.q_step, spec.n_p)
    r_full = np.tile(spec.r_step, spec.n_c)
    return float(err @ (q_full * err)) + float(u_moves @ (r_full * u_moves))


def lqr_closed_form(mpc, x0):
    """Closed-form quadratic (l2-regularized) control solution.

    Solves the weighted stationarity system
    ``(Phi' Q Phi + R) U = -Phi' Q Psi x0``.
    """
    psi, phi = mpc.prediction_matrices()
    q_full = mpc.output_weight()
    r_full = mpc.input_weight()
    x0 = as_vector(x0, psi.shape[1], "x0")
    normal = phi.T @ q_full @ phi + r_full
    try:
        np.linalg.cholesky(normal)
    except np.linalg.LinAlgError as exc:
        raise OracleError("normal matrix is not positive definite") from exc
    rhs = -phi.T @ (q_full @ (psi @ x0))
    return np.linalg.solve(normal, rhs)


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


def diverging(problem):
    """``problem`` with its L declared 1000 times too small: the run's 1000/L step diverges."""
    return dataclasses.replace(problem, lipschitz=problem.lipschitz / 1000)


def problem_to_json(problem):
    """The JSON document of a quadratic + l1 composite problem, in the schema
    ``problem_from_json`` reads."""
    quad = problem.smooth
    doc = {
        "n": problem.n,
        "M": [float(t) for t in quad.mat.ravel(order="C")],
        "v": [float(t) for t in quad.vec],
        "scale": 0.5 if quad.half else 1.0,
        "lambda": problem.reg.lam,
    }
    return json.dumps(doc)


def _reference_grad(problem, y):
    quad = problem.smooth
    g = quad.mat.T @ (quad.mat @ y - quad.vec)
    return g if quad.half else 2.0 * g


def reference_quantize(fmt, x):
    """``fmt.quantize`` in value units, as the formula that
    ``test_bits_match_where_signbit_and_clip`` pins: round ``|x| 2^F`` half
    up, restore the sign with a ``where(signbit)`` product, clip to the
    dynamic range in ulps and scale back."""
    y = np.asarray(x, dtype=float) * 2.0**fmt.frac
    q = np.floor(np.abs(y) + 0.5) * np.where(np.signbit(y), -1.0, 1.0)
    lo, hi = fmt.dynamic_range()
    return np.clip(q, lo * 2.0**fmt.frac, hi * 2.0**fmt.frac) * 2.0**-fmt.frac


def reference_quantized_gradient(fmt, mat_q, vec_q, half, x):
    """``Q(c M_q'(M_q Q(x) - v_q))`` in value units, c = 1 half-scaled and 2
    unscaled, with ``M_q``, ``v_q`` already quantized by
    :func:`reference_quantize`; no binary point is folded anywhere."""
    g = mat_q.T.dot(mat_q.dot(reference_quantize(fmt, x)) - vec_q)
    return reference_quantize(fmt, g if half else 2.0 * g)


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
        ray_constants,
    )
    from proxcert.problems import as_vector
    from proxcert.solvers import RunTrace

    x0 = as_vector(x0, problem.n, "x0")
    gspec, pspec = config.grad_error, config.prox_error
    tape = draw_tape(gspec, pspec, problem.n, config.max_iters, config.seed)
    relative = isinstance(gspec, GradientErrorSpec) and gspec.model == "relative"
    quantized = isinstance(gspec, FixedPointFormat)
    if quantized:
        quad = problem.smooth
        mat_q, vec_q = reference_quantize(gspec, quad.mat), reference_quantize(gspec, quad.vec)
    inner = pspec is not None and pspec.mode == "inner_solver"
    # the largest admissible step, 1/((1 + delta) L) under relative errors
    s = 1.0 / (problem.lipschitz * (1.0 + (gspec.bound if relative else 0.0)))
    if tape.targets is not None:
        abs_d, d_dot_d = ray_constants(tape.directions)
    rays = []
    xs, ys = [x0], []
    steps, betas, alphas, eps2s, eps1s, ress = [], [], [], [], [], []
    zero = np.zeros(problem.n)
    status = "iteration-cap"
    x_prev, x, alpha_k = x0, x0, 1.0
    try:
        for k in range(config.max_iters):
            beta_k, y = 0.0, x
            if k > 0:
                # FISTA: alpha_k^2 - alpha_k = alpha_{k-1}^2
                alpha_prev = alpha_k
                alpha_k = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * alpha_prev * alpha_prev))
                if accelerated:
                    beta_k = (alpha_prev - 1.0) / alpha_k
                    y = x + beta_k * (x - x_prev)
            if quantized:
                noisy = eps1 = reference_quantized_gradient(gspec, mat_q, vec_q, quad.half, y)
            elif tape.kappa is not None:
                g = _reference_grad(problem, y)
                eps1 = tape.kappa[k] * g if relative else tape.kappa[k]
                noisy = g + eps1
            else:
                noisy, eps1 = _reference_grad(problem, y), zero
            w = y - s * noisy
            if tape.targets is not None:
                x_next, r, ray = _reference_ray_solve(
                    problem.reg, s, w, tape.targets[k], tape.directions[k], abs_d[k], d_dot_d[k]
                )
                rays.append(ray)
                gap = None
            elif inner:
                x_next, gap, r = inner_solver_prox(problem.reg, s, w, pspec.eps0)
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
            x_prev, x = x, x_next
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
    if quantized:
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
