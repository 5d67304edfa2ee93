"""Composite problems and their exact oracles.

A composite problem is ``f(x) = g(x) + h(x)`` with ``g`` smooth convex
(Lipschitz gradient, constant ``L``) and ``h`` convex, possibly nonsmooth,
with an exact proximal operator.  Everything here is the exact,
double-precision reference path; error injection lives in
:mod:`proxcert.errors`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class OracleError(RuntimeError):
    """An oracle returned non-finite values or a linear solve failed."""


def as_vector(x, n=None, name="x"):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {x.shape}")
    if n is not None and x.shape[0] != n:
        raise ValueError(f"{name} has dimension {x.shape[0]}, expected {n}")
    return x


def power_iteration(mat, iters=200, rtol=1e-10, seed=0, return_converged=False):
    """Largest eigenvalue of ``mat.T @ mat`` (squared top singular value).

    Runs at most ``iters`` iterations, stopping early once the Rayleigh
    quotient changes by less than ``rtol`` relatively.  The estimate lies
    below the eigenvalue; no L is taken from it.
    """
    mat = np.asarray(mat, dtype=float)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(mat.shape[1])
    w /= np.linalg.norm(w)
    lam = 0.0
    converged = False
    for _ in range(iters):
        z = mat.T @ (mat @ w)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            lam, converged = 0.0, True
            break
        w = z / nz
        lam_new = w @ (mat.T @ (mat @ w))
        if abs(lam_new - lam) <= rtol * max(abs(lam_new), 1.0):
            lam, converged = lam_new, True
            break
        lam = lam_new
    return (lam, converged) if return_converged else lam


def lambda_max_bound(top, dim):
    """Upper bound on ``sigma_max(M)^2`` from ``top``, the ``eigvalsh`` maximum
    of the Gram matrix ``M'M`` or ``MM'`` of an ``m x n`` M, ``dim = max(m, n)``.

    Forming and eigensolving the Gram matrix typically move ``top`` by a few
    units of ``dim * eps * sigma_max(M)^2``, so ``top * (1 + 4 dim eps)`` keeps
    the 1/L stepsize premise, at most 4.4e-13 relative high for ``dim <= 500``.
    The margin is a typical-case one, checked against the SVD on tall, wide,
    rank-deficient and badly scaled matrices, not a worst-case proof: in the
    worst case forming the Gram matrix errs by up to ``dim * eps * ||M||_F^2``,
    up to ``min(m, n)`` times more.
    """
    # np.maximum keeps a NaN top (an overflowing Gram matrix) for the caller to see
    return np.maximum(top, 0.0) * (1.0 + 4.0 * dim * np.finfo(float).eps)


def symmetric_sqrt(mat):
    """(H^{1/2}, H^{-1/2}) of a symmetric PSD matrix via eigendecomposition.

    Eigenvalues below ``1e-12 * lambda_max`` are clamped to that floor so the
    inverse root stays finite on numerically rank-deficient inputs.
    """
    mat = np.asarray(mat, dtype=float)
    sym = 0.5 * (mat + mat.T)
    w, v = np.linalg.eigh(sym)
    if w[-1] <= 0.0:
        raise OracleError("matrix is not positive semidefinite")
    w = np.maximum(w, 1e-12 * w[-1])
    root = np.sqrt(w)
    return (v * root) @ v.T, (v / root) @ v.T


@dataclass(frozen=True)
class QuadraticSmooth:
    """Smooth part ``||M x - v||^2``, or the 1/2-scaled variant.

    ``half=False`` is the unscaled convention (condensed control objective);
    ``half=True`` is the usual least-squares ``(1/2)||Mx - v||^2``.
    """

    mat: np.ndarray
    vec: np.ndarray
    half: bool = False

    def __post_init__(self):
        mat = np.atleast_2d(np.asarray(self.mat, dtype=float))
        vec = as_vector(self.vec, mat.shape[0], "v")
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "vec", vec)

    @property
    def n(self):
        return self.mat.shape[1]

    def value(self, x):
        r = self.mat.dot(x) - self.vec
        q = float(r.dot(r))
        return 0.5 * q if self.half else q

    def grad(self, x):
        # .dot runs the BLAS gemv that @ runs, with less dispatch per call
        g = self.mat.T.dot(self.mat.dot(x) - self.vec)
        return g if self.half else 2.0 * g

    def values(self, xs):
        """``value`` at each row of ``xs``.

        A stacked matrix-vector product rather than one matrix-matrix
        product: each row is summed as ``value`` sums a single point, so the
        results match it to the bit, where a blocked product would move the
        last bits that an ``f - f*`` gap magnifies.
        """
        r = np.matmul(self.mat, xs[:, :, None])[:, :, 0] - self.vec
        q = np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0]
        return 0.5 * q if self.half else q

    def grads(self, xs):
        """``grad`` at each row of ``xs`` (stacked like ``values``)."""
        r = np.matmul(self.mat, xs[:, :, None]) - self.vec[:, None]
        g = np.matmul(self.mat.T, r)[:, :, 0]
        return g if self.half else 2.0 * g

    @np.errstate(over="ignore", invalid="ignore")  # an overflowing Gram gives no finite L
    def lipschitz(self):
        """``sigma_max(M)^2`` (times 2 unscaled), from the smaller Gram matrix
        ``M'M`` or ``MM'`` and raised to an upper bound by ``lambda_max_bound``."""
        m, n = self.mat.shape
        gram = self.mat.T @ self.mat if m >= n else self.mat @ self.mat.T
        smax_sq = lambda_max_bound(np.linalg.eigvalsh(gram)[-1], max(m, n))
        return smax_sq if self.half else 2.0 * smax_sq


@dataclass(frozen=True)
class L1Term:
    """Nonsmooth part ``lam * ||x||_1`` with closed-form prox."""

    lam: float = 0.0

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("l1 weight must be nonnegative")

    def value(self, x):
        return self.lam * float(np.abs(x).sum())

    def value_delta(self, base, direction, t):
        """``value(base + t*direction) - value(base)``, evaluated piecewise.

        On coordinates that do not cross zero the difference is exactly
        ``t * d_j * sign(base_j)``, avoiding the catastrophic cancellation of
        subtracting two near-equal l1 values (needed when targeting prox
        gaps near machine precision).  Row by row: ``base`` and
        ``direction`` are ``(..., n)``, ``t`` and the result ``(...)``.
        """
        base = np.asarray(base, dtype=float)
        step = np.asarray(t)[..., None] * np.asarray(direction, dtype=float)
        moved = base + step
        sign = np.sign(base)
        terms = np.where(
            base == 0.0,
            np.abs(step),
            np.where(np.sign(moved) == sign, sign * step, np.abs(moved) - np.abs(base)),
        )
        return self.lam * terms.sum(axis=-1)

    def prox(self, s, y, out=None):
        """``sign(y) max(|y| - s lam, 0)``, written into ``out`` when given."""
        if s <= 0:
            raise ValueError("prox stepsize must be positive")
        t = s * self.lam
        y = np.asarray(y, dtype=float)
        mag = np.abs(y, out=out)
        np.maximum(np.subtract(mag, t, out=mag), 0.0, out=mag)
        return np.multiply(np.sign(y), mag, out=mag)


@dataclass
class CompositeProblem:
    """The pair (g, h) plus the gradient Lipschitz constant.

    ``smooth`` needs ``value``/``grad``; ``reg`` needs ``value``/``prox``.
    """

    n: int
    smooth: QuadraticSmooth
    reg: L1Term
    lipschitz: float
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_quadratic(cls, quad, lam, meta=None, lipschitz=None):
        """``quad + lam ||.||_1``; L is ``quad.lipschitz()`` unless already known.
        Raises ``ValueError`` when L is not positive and finite (an all-zero
        M, or one whose Gram matrix overflows)."""
        L = quad.lipschitz() if lipschitz is None else lipschitz
        if not 0 < L < np.inf:
            raise ValueError(f"L must be positive and finite, got {L}")
        return cls(n=quad.n, smooth=quad, reg=L1Term(lam), lipschitz=L, meta=meta or {})

    def grad(self, x):
        x = as_vector(x, self.n)
        return self.smooth.grad(x)

    def f_value(self, x):
        x = as_vector(x, self.n)
        return float(self.smooth.value(x)) + float(self.reg.value(x))

    def f_values(self, xs):
        """``f_value`` at each row of ``xs``."""
        return self.smooth.values(xs) + self.reg.lam * np.abs(xs).sum(axis=1)

    def duality_gap(self, x):
        """``f(x)`` minus a lower bound on min f from the residual at ``x``.

        ``f`` is ``(1/2)||A x - y||^2 + lam ||x||_1`` with ``(A, y) = sqrt(c) (M, v)``,
        ``c = 1`` half-scaled and 2 unscaled, and ``r = v - M x``.  With ``lam > 0``,
        ``theta = sqrt(c) r / s``, ``s = max(1, c ||M'r||_inf / lam)``, is dual
        feasible, so ``||y||^2/2 - ||y - theta||^2/2 <= f*`` (Fercoq, Gramfort &
        Salmon, ICML 2015), with equality at the optimum.  Its distance to f is
        summed as ``lam ||x||_1 - (c/s) x'M'r + (c/2)(1 - 1/s)^2 ||r||^2``: every
        term scales with f, where the difference of two ``||v||^2``-sized terms
        would round by ``eps ||v||^2``.  With ``lam = 0``, theta is the part of
        the residual orthogonal to range(M), and the gap is ``(c/2) ||P r||^2``,
        P the projection onto range(M) (rank cut at ``lstsq``'s default): exactly
        ``f(x) - f*``.
        """
        quad, lam = self.smooth, self.reg.lam
        c = 1.0 if quad.half else 2.0
        x = as_vector(x, self.n)
        r = quad.vec - quad.mat @ x
        if lam == 0.0:
            proj = quad.mat @ np.linalg.lstsq(quad.mat, r, rcond=None)[0]
            return 0.5 * c * float(proj @ proj)
        g = quad.mat.T @ r
        s = max(1.0, c * float(np.abs(g).max()) / lam)
        shrink = 0.5 * c * (1.0 - 1.0 / s) ** 2 * float(r @ r)
        return lam * float(np.abs(x).sum()) - c / s * float(x @ g) + shrink

    def gap_rounding(self, x):
        """First-order bound on the rounding error of ``duality_gap(x)`` in double
        precision: forming ``r`` and ``M'r`` moves ``c x'M'r`` by at most
        ``c (m + n + 1) eps (|M||x|)'(|M||x| + |v|)``.  At ``lam = 0`` the same
        allowance serves: the projection's first-order error is proportional
        to ``||P r||``, which vanishes at a solution."""
        quad = self.smooth
        m, n = quad.mat.shape
        ax = np.abs(quad.mat) @ np.abs(as_vector(x, self.n))
        c = 1.0 if quad.half else 2.0
        return c * (m + n + 1) * np.finfo(float).eps * float(ax @ (ax + np.abs(quad.vec)))


def problem_from_json(doc):
    """The composite problem of a JSON document: ``str``, ``bytes`` or a decoded dict.

    Text is decoded with ``orjson``: the same doubles as the standard
    library's ``json``, several times faster on a large ``M``.  L is always
    computed from ``M``; keys the format does not define, ``"L"`` among them,
    are ignored.  Raises ``ValueError`` on malformed or non-finite data, an
    ``n`` that is not a positive integer and, from ``from_quadratic``, an L
    that is not positive and finite.
    """
    if not isinstance(doc, dict):
        import orjson  # here only: a process that decodes no problem file never loads it

        doc = orjson.loads(doc)
    n = float(doc["n"])
    if not (n.is_integer() and n >= 1):
        raise ValueError(f"n must be a positive integer, got {doc['n']!r}")
    n = int(n)
    v = np.asarray(doc["v"], dtype=float)
    mat = np.asarray(doc["M"], dtype=float).reshape(len(v), n)
    scale = float(doc.get("scale", 1.0))
    if scale not in (0.5, 1.0):
        raise ValueError("scale must be 0.5 or 1.0")
    lam = float(doc.get("lambda", 0.0))
    for name, value in (("M", mat), ("v", v), ("lambda", lam)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")
    return CompositeProblem.from_quadratic(QuadraticSmooth(mat, v, half=scale == 0.5), lam)
