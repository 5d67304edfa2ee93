"""Synthetic LASSO instance generation.

Instances are ``(1/2)||Ax - y||^2 + lam ||x||_1`` with i.i.d. standard normal
``A`` and ``y`` from a planted sparse signal plus Gaussian noise.  Everything
is reproducible from the seed.
"""

from __future__ import annotations

import numpy as np

from ..problems import CompositeProblem, QuadraticSmooth


def gen_lasso(n=100, m=500, sparsity=None, noise=0.01, lam=None, seed=0):
    """Random LASSO with planted support, as the ``CompositeProblem`` of
    ``A``, ``y`` and ``lam`` (1/2-scaled smooth part); the planted signal is
    ``meta["x_true"]``.

    ``sparsity`` is the planted support size (default 10% of n); entries are
    unit magnitude with random sign.  ``lam`` defaults to
    ``0.1 * ||A'y||_inf``.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    if sparsity is None:
        sparsity = max(1, round(0.1 * n))
    if not 0 <= sparsity <= n:
        raise ValueError("sparsity must lie in [0, n]")
    x_true = np.zeros(n)
    support = rng.choice(n, size=sparsity, replace=False)
    x_true[support] = rng.choice([-1.0, 1.0], size=sparsity)
    y = a @ x_true
    if noise > 0:
        y = y + noise * rng.standard_normal(m)
    if lam is None:
        lam = 0.1 * float(np.abs(a.T @ y).max())
    return CompositeProblem.from_quadratic(
        QuadraticSmooth(a, y, half=True), float(lam), meta={"x_true": x_true}
    )
