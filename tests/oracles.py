"""Independent oracles used to derive expected values in the tests.

These deliberately avoid the library's own code paths: golden-section and
grid minimization, central finite differences, exact second differences of
quadratics, and brute-force sums.
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
