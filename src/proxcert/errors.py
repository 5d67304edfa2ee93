"""Computational-error models: gradient noise, suboptimal prox, quantization.

Two gradient-error models are supported.  Under the absolute model the
injected noise satisfies ``|eps1_j| <= delta`` componentwise; under the
relative model ``|eps1_j| <= delta * |grad_j|`` (noise proportional to the
gradient magnitude).  Proximal errors are expressed as a suboptimality gap
``eps2`` of the prox subproblem, with the residual vector
``r = returned point - exact prox``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .problems import OracleError, as_vector


def sample_truncated_gaussian(lo, hi, shape, rng):
    """Standard normal conditioned on [lo, hi], drawn by inverse CDF.

    The inverse-CDF route has bounded runtime at arbitrarily narrow
    truncations, unlike rejection sampling.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    p_lo, p_hi = ndtr(lo), ndtr(hi)
    u = rng.uniform(p_lo, p_hi, size=shape)
    return np.clip(ndtri(u), lo, hi)


def truncated_gaussian_mean(lo, hi):
    """Exact mean of the standard normal truncated to [lo, hi]."""
    phi = lambda t: np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)
    return (phi(lo) - phi(hi)) / (ndtr(hi) - ndtr(lo))


@dataclass(frozen=True)
class GradientErrorSpec:
    """Description of the gradient-error injector.

    model: "absolute" (fixed-point flavour) or "relative" (floating-point
        flavour, noise scaled by |grad|).
    mode: "random" draws truncated-Gaussian multipliers each call;
        "deterministic" walks a preset schedule of vectors or magnitudes.
    delta: machine precision (componentwise bound).
    lo/hi: optional truncation override for the random mode; defaults to the
        symmetric interval [-delta, delta].  Asymmetric intervals deliberately
        break the zero-mean assumption (used as a biased control).
    """

    model: str = "absolute"
    mode: str = "random"
    delta: float = 0.0
    schedule: Optional[Sequence] = None
    lo: Optional[float] = None
    hi: Optional[float] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.model not in ("absolute", "relative"):
            raise ValueError(f"unknown error model {self.model!r}")
        if self.mode not in ("random", "deterministic"):
            raise ValueError(f"unknown error mode {self.mode!r}")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.mode == "deterministic" and self.schedule is None:
            raise ValueError("deterministic mode needs a schedule")


class GradientErrorSampler:
    """Stateful injector; equal seeds produce identical error streams."""

    def __init__(self, spec, rng):
        self.spec = spec
        self.rng = rng

    def inject(self, true_grad, k):
        """Return (noisy_grad, eps1) for iteration k."""
        spec = self.spec
        true_grad = np.asarray(true_grad, dtype=float)
        if spec.mode == "deterministic":
            if k >= len(spec.schedule):
                raise ValueError(f"deterministic error schedule exhausted at k={k}")
            entry = spec.schedule[k]
            if np.ndim(entry) == 0:
                mag = float(entry)
                if spec.model == "absolute":
                    eps1 = np.full_like(true_grad, mag)
                else:
                    eps1 = mag * true_grad
            else:
                eps1 = as_vector(entry, true_grad.shape[0], "scheduled eps1")
                if spec.model == "relative":
                    eps1 = eps1 * true_grad
        else:
            lo = -spec.delta if spec.lo is None else spec.lo
            hi = spec.delta if spec.hi is None else spec.hi
            if lo == hi:
                eps1 = np.zeros_like(true_grad)
            else:
                kappa = sample_truncated_gaussian(lo, hi, true_grad.shape, self.rng)
                eps1 = kappa if spec.model == "absolute" else kappa * true_grad
        return true_grad + eps1, eps1


@dataclass(frozen=True)
class ProxErrorSpec:
    """Description of the proximal-error injector.

    mode "exact": no error.  "target_gap": construct a point whose prox
    subproblem suboptimality hits a target gap (scheduled, or drawn from a
    truncated Gaussian on [0, eps0]); the residual direction is either a
    fresh sign-symmetrized random unit vector or a fixed one.  "inner_solver":
    run a deliberately small-stepped ISTA on the prox subproblem and stop
    once the measured gap falls below eps0, emulating early termination of an
    inner solver.
    """

    mode: str = "exact"
    eps0: float = 0.0
    schedule: Optional[Sequence[float]] = None
    direction: str = "random_symmetric"
    max_inner: int = 2000
    seed: Optional[int] = None

    def __post_init__(self):
        if self.mode not in ("exact", "target_gap", "inner_solver"):
            raise ValueError(f"unknown prox-error mode {self.mode!r}")
        if self.direction not in ("random_symmetric", "fixed"):
            raise ValueError(f"unknown residual direction policy {self.direction!r}")
        if self.eps0 < 0:
            raise ValueError("eps0 must be nonnegative")


def _gap_along(h, s, w, x_exact, direction, t):
    """Suboptimality of x_exact + t*direction in the prox subproblem.

    Evaluated in expanded form (no large-term cancellation):
    ``h(x+td) - h(x) + (2 t d'(x-w) + t^2 ||d||^2) / (2s)``.
    """
    if hasattr(h, "value_delta"):
        dh = h.value_delta(x_exact, direction, t)
    else:
        dh = h.value(x_exact + t * direction) - h.value(x_exact)
    quad = (2.0 * t * float(direction @ (x_exact - w)) + t * t * float(direction @ direction)) / (
        2.0 * s
    )
    return dh + quad


def approx_prox(h, s, w, target_eps2, rng=None, direction="random_symmetric", max_bisect=200):
    """A point in the eps2-suboptimal prox set of ``s*h`` at ``w``.

    Returns ``(x, realized_gap, residual)``.  The point is found by moving
    away from the exact prox along a unit direction and bisecting the exactly
    evaluated gap until it lands in ``[0.9, 1.0] * target_eps2`` (the gap is
    monotone along the ray by strong convexity of the subproblem).
    """
    if s <= 0:
        raise ValueError("prox stepsize must be positive")
    if target_eps2 < 0:
        raise ValueError("target gap must be nonnegative")
    w = np.asarray(w, dtype=float)
    x_exact = h.prox(s, w)
    if target_eps2 == 0.0:
        return x_exact, 0.0, np.zeros_like(w)
    if direction == "fixed":
        d = np.ones_like(w) / np.sqrt(w.shape[0])
    else:
        if rng is None:
            raise ValueError("random_symmetric direction needs an rng")
        d = rng.standard_normal(w.shape)
        norm = np.linalg.norm(d)
        if norm == 0.0:
            d = np.ones_like(w)
            norm = np.linalg.norm(d)
        d = d / norm
        if rng.random() < 0.5:  # exact sign symmetry
            d = -d
    # strong convexity (modulus 1/s) guarantees gap(t_hi) >= target
    lo, hi = 0.0, np.sqrt(2.0 * s * target_eps2) * (1.0 + 1e-9)
    gap_hi = _gap_along(h, s, w, x_exact, d, hi)
    if 0.9 * target_eps2 <= gap_hi <= target_eps2:
        t, gap = hi, gap_hi
    else:
        t = gap = None
        for _ in range(max_bisect):
            mid = 0.5 * (lo + hi)
            gap_mid = _gap_along(h, s, w, x_exact, d, mid)
            if gap_mid > target_eps2:
                hi = mid
            elif gap_mid < 0.9 * target_eps2:
                lo = mid
            else:
                t, gap = mid, gap_mid
                break
        if t is None:
            raise OracleError("approx_prox bisection failed to land in the gap window")
    residual = t * d
    return x_exact + residual, gap, residual


def inner_solver_prox(h, s, w, tol, max_inner=2000):
    """Early-terminated ISTA on the prox subproblem.

    The subproblem smooth part is ``||z - w||^2 / (2s)`` (gradient Lipschitz
    constant 1/s); a half stepsize ``s/2`` is used on purpose so termination
    at tolerance ``tol`` leaves a genuine residual rather than landing on the
    exact prox in one step.  Returns ``(z, realized_gap, residual)``.
    """
    if s <= 0:
        raise ValueError("prox stepsize must be positive")
    w = np.asarray(w, dtype=float)
    x_exact = h.prox(s, w)
    g_min = h.value(x_exact) + float((x_exact - w) @ (x_exact - w)) / (2.0 * s)
    step = 0.5 * s
    z = w.copy()
    gap = h.value(z) + 0.0 - g_min
    for _ in range(max_inner):
        if gap <= tol:
            break
        z = h.prox(step, z - step * (z - w) / s)
        gap = h.value(z) + float((z - w) @ (z - w)) / (2.0 * s) - g_min
    gap = max(gap, 0.0)
    return z, gap, z - x_exact


class ProxErrorSampler:
    """Stateful wrapper applying a ProxErrorSpec per iteration."""

    def __init__(self, spec, rng):
        self.spec = spec
        self.rng = rng

    def apply(self, h, s, w, k):
        spec = self.spec
        if spec.mode == "exact":
            x = h.prox(s, w)
            return x, 0.0, np.zeros_like(np.asarray(w, dtype=float))
        if spec.mode == "inner_solver":
            return inner_solver_prox(h, s, w, spec.eps0, spec.max_inner)
        if spec.schedule is not None:
            if k >= len(spec.schedule):
                raise ValueError(f"prox error schedule exhausted at k={k}")
            target = float(spec.schedule[k])
        elif spec.eps0 > 0:
            target = float(sample_truncated_gaussian(0.0, spec.eps0, (), self.rng))
        else:
            target = 0.0
        return approx_prox(h, s, w, target, rng=self.rng, direction=spec.direction)


_FMT_RE = re.compile(r"^([su])(\d+)\.(\d+)$")


@dataclass(frozen=True)
class FixedPointFormat:
    """Fixed-point number format: total width W bits, F of them fractional.

    Unsigned dynamic range is [0, 2^I - 2^-F] with I = W - F; the signed
    (two's complement) range is [-2^(I-1), 2^(I-1) - 2^-F].
    """

    width: int
    frac: int
    signed: bool = True
    rounding: str = "nearest"

    def __post_init__(self):
        if not (self.width > self.frac >= 0):
            raise ValueError(f"need W > F >= 0, got W={self.width}, F={self.frac}")
        if self.rounding not in ("nearest", "floor"):
            raise ValueError(f"unknown rounding mode {self.rounding!r}")

    @classmethod
    def parse(cls, text, rounding="nearest"):
        m = _FMT_RE.match(text.strip())
        if not m:
            raise ValueError(f"malformed fixed-point format {text!r} (expected e.g. 's8.4')")
        sign, width, frac = m.group(1) == "s", int(m.group(2)), int(m.group(3))
        return cls(width, frac, signed=sign, rounding=rounding)

    def __str__(self):
        return f"{'s' if self.signed else 'u'}{self.width}.{self.frac}"

    @property
    def integer_bits(self):
        return self.width - self.frac

    @property
    def ulp(self):
        return 2.0 ** (-self.frac)

    def dynamic_range(self):
        if self.signed:
            lo = -(2.0 ** (self.integer_bits - 1))
            hi = 2.0 ** (self.integer_bits - 1) - self.ulp
        else:
            lo = 0.0
            hi = 2.0**self.integer_bits - self.ulp
        return lo, hi

    def quantize(self, x):
        """Round to the nearest representable value; out-of-range saturates.

        Nearest mode rounds ties half away from zero.
        """
        scalar = np.ndim(x) == 0
        y = np.asarray(x, dtype=float) * 2.0**self.frac
        if self.rounding == "nearest":
            q = np.floor(np.abs(y) + 0.5) * np.where(np.signbit(y), -1.0, 1.0)
        else:
            q = np.floor(y)
        if self.signed:
            lo_i, hi_i = -(2.0 ** (self.width - 1)), 2.0 ** (self.width - 1) - 1.0
        else:
            lo_i, hi_i = 0.0, 2.0**self.width - 1.0
        q = np.clip(q, lo_i, hi_i) * 2.0 ** (-self.frac)
        return float(q) if scalar else q


def quantized_gradient(fmt, quad, x):
    """Gradient of a quadratic smooth term with inputs and output quantized.

    Emulates a reduced-precision gradient evaluation: the matrix, offset and
    point are stored in ``fmt`` and the computed gradient is written back in
    ``fmt``.  Returns ``(noisy_grad, eps1)`` with ``eps1`` measured against
    the exact gradient at the unquantized point.
    """
    exact = quad.grad(np.asarray(x, dtype=float))
    mat_q = fmt.quantize(quad.mat)
    vec_q = fmt.quantize(quad.vec)
    x_q = fmt.quantize(np.asarray(x, dtype=float))
    g = mat_q.T @ (mat_q @ x_q - vec_q)
    if not quad.half:
        g = 2.0 * g
    g_q = fmt.quantize(g)
    return g_q, g_q - exact
