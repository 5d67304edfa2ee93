"""Synthetic LASSO instance generation.

Instances are ``(1/2)||Ax - y||^2 + lam ||x||_1`` with i.i.d. standard normal
``A`` and ``y`` from a planted sparse signal plus Gaussian noise.  Everything
is reproducible from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..problems import CompositeProblem, QuadraticSmooth


@dataclass(frozen=True)
class LassoInstance:
    a: np.ndarray
    y: np.ndarray
    lam: float
    x_true: np.ndarray

    @property
    def n(self):
        return self.a.shape[1]

    @property
    def m(self):
        return self.a.shape[0]


def gen_lasso(n=100, m=500, sparsity=None, noise=0.01, lam=None, seed=0):
    """Random LASSO with planted support.

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
    return LassoInstance(a=a, y=y, lam=float(lam), x_true=x_true)


def lasso_problem(instance):
    """CompositeProblem for an instance (1/2-scaled smooth part)."""
    quad = QuadraticSmooth(instance.a, instance.y, half=True)
    return CompositeProblem.from_quadratic(quad, instance.lam)
