"""Independent oracles used to derive expected values in the tests.

These deliberately avoid the library's own code paths: golden-section and
grid minimization, central finite differences, exact second differences of
quadratics, brute-force sums, and CSV artifacts formatted one cell at a time.
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
