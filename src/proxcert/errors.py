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
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .problems import OracleError, QuadraticSmooth, as_vector


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
    mode: "random" draws truncated-Gaussian multipliers for every step;
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

    def __post_init__(self):
        if self.model not in ("absolute", "relative"):
            raise ValueError(f"unknown error model {self.model!r}")
        if self.mode not in ("random", "deterministic"):
            raise ValueError(f"unknown error mode {self.mode!r}")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.mode == "deterministic" and self.schedule is None:
            raise ValueError("deterministic mode needs a schedule")


@dataclass(frozen=True)
class ProxErrorSpec:
    """Description of the proximal-error injector.

    mode "exact": no error.  "target_gap": construct a point whose prox
    subproblem suboptimality hits a target gap (scheduled, or drawn from a
    truncated Gaussian on [0, eps0]); the residual direction is either a
    sign-symmetrized random unit vector per step or a fixed one.
    "inner_solver": run a deliberately small-stepped ISTA on the prox
    subproblem and stop once the measured gap falls below eps0, emulating
    early termination of an inner solver.
    """

    mode: str = "exact"
    eps0: float = 0.0
    schedule: Optional[Sequence[float]] = None
    direction: str = "random_symmetric"

    def __post_init__(self):
        if self.mode not in ("exact", "target_gap", "inner_solver"):
            raise ValueError(f"unknown prox-error mode {self.mode!r}")
        if self.direction not in ("random_symmetric", "fixed"):
            raise ValueError(f"unknown residual direction policy {self.direction!r}")
        if self.eps0 < 0:
            raise ValueError("eps0 must be nonnegative")


class ErrorTape(NamedTuple):
    """The random and scheduled errors of one run; row k serves step k.

    ``kappa[T, n]``: gradient multipliers (the absolute model adds row k to
    the gradient, the relative model multiplies the gradient by it).
    ``targets[T]``: prox-gap targets; ``directions[T, n]``: signed unit
    residual directions.  A kind the run does not have is None.
    """

    kappa: Optional[np.ndarray]
    targets: Optional[np.ndarray]
    directions: Optional[np.ndarray]


def _schedule(schedule, steps, what):
    if len(schedule) < steps:
        raise ValueError(f"{what} schedule has {len(schedule)} entries, the run needs {steps}")
    return schedule[:steps]


def _gradient_multipliers(spec, n, steps, seed_seq):
    if spec.mode == "deterministic":
        rows = _schedule(spec.schedule, steps, "gradient error")
        as_row = lambda e: as_vector(np.full(n, e) if np.ndim(e) == 0 else e, n, "scheduled eps1")
        return np.array([as_row(e) for e in rows])
    lo = -spec.delta if spec.lo is None else spec.lo
    hi = spec.delta if spec.hi is None else spec.hi
    if lo == hi:
        return None
    # one (T, n) draw consumes the stream exactly as T draws of n would
    return sample_truncated_gaussian(lo, hi, (steps, n), np.random.default_rng(seed_seq))


def _prox_targets_and_directions(spec, n, steps, seed_seq):
    rng = np.random.default_rng(seed_seq)
    if spec.schedule is not None:
        targets = np.array(_schedule(spec.schedule, steps, "prox error"), dtype=float)
    elif spec.eps0 > 0:
        targets = sample_truncated_gaussian(0.0, spec.eps0, steps, rng)
    else:
        return None, None
    if spec.direction == "fixed":
        return targets, np.broadcast_to(np.ones(n) / np.sqrt(n), (steps, n))
    directions = rng.standard_normal((steps, n))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    directions[rng.random(steps) < 0.5] *= -1.0  # exact sign symmetry
    return targets, directions


def draw_tape(grad_spec, prox_spec, n, steps, seed):
    """The :class:`ErrorTape` of a ``steps``-step run, drawn before its first step.

    ``SeedSequence(seed)`` spawns two streams: the first feeds the gradient
    multipliers, the second the prox-gap targets and then the directions.
    Quantized gradients and inner-solver proxes depend on the iterate, so
    they stay off the tape.  A schedule shorter than ``steps`` is rejected.
    """
    grad_seq, prox_seq = np.random.SeedSequence(seed).spawn(2)
    kappa = targets = directions = None
    if isinstance(grad_spec, GradientErrorSpec):
        kappa = _gradient_multipliers(grad_spec, n, steps, grad_seq)
    if prox_spec is not None and prox_spec.mode == "target_gap":
        targets, directions = _prox_targets_and_directions(prox_spec, n, steps, prox_seq)
    return ErrorTape(kappa, targets, directions)


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


def approx_prox(h, s, w, target_eps2, direction):
    """A point in the eps2-suboptimal prox set of ``s*h`` at ``w``.

    Returns ``(x, realized_gap, residual)``.  The point is found by moving
    away from the exact prox along the unit vector ``direction`` and bisecting
    the exactly evaluated gap until it lands in ``[0.9, 1.0] * target_eps2``
    (the gap is monotone along the ray by strong convexity of the subproblem).
    """
    if s <= 0:
        raise ValueError("prox stepsize must be positive")
    if target_eps2 < 0:
        raise ValueError("target gap must be nonnegative")
    w = np.asarray(w, dtype=float)
    x_exact = h.prox(s, w)
    if target_eps2 == 0.0:
        return x_exact, 0.0, np.zeros_like(w)
    # strong convexity (modulus 1/s) guarantees gap(t_hi) >= target
    lo, hi = 0.0, np.sqrt(2.0 * s * target_eps2) * (1.0 + 1e-9)
    gap_hi = _gap_along(h, s, w, x_exact, direction, hi)
    if 0.9 * target_eps2 <= gap_hi <= target_eps2:
        t, gap = hi, gap_hi
    else:
        t = gap = None
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            gap_mid = _gap_along(h, s, w, x_exact, direction, mid)
            if gap_mid > target_eps2:
                hi = mid
            elif gap_mid < 0.9 * target_eps2:
                lo = mid
            else:
                t, gap = mid, gap_mid
                break
        if t is None:
            raise OracleError("approx_prox bisection failed to land in the gap window")
    residual = t * direction
    return x_exact + residual, gap, residual


def inner_solver_prox(h, s, w, tol):
    """Early-terminated ISTA on the prox subproblem.

    The subproblem smooth part is ``||z - w||^2 / (2s)`` (gradient Lipschitz
    constant 1/s); a half stepsize ``s/2`` is used on purpose so termination
    at tolerance ``tol`` (or after 2000 steps) leaves a genuine residual
    rather than landing on the exact prox in one step.  Returns
    ``(z, realized_gap, residual)``.
    """
    if s <= 0:
        raise ValueError("prox stepsize must be positive")
    w = np.asarray(w, dtype=float)
    x_exact = h.prox(s, w)
    g_min = h.value(x_exact) + float((x_exact - w) @ (x_exact - w)) / (2.0 * s)
    step = 0.5 * s
    z = w.copy()
    gap = h.value(z) + 0.0 - g_min
    for _ in range(2000):
        if gap <= tol:
            break
        z = h.prox(step, z - step * (z - w) / s)
        gap = h.value(z) + float((z - w) @ (z - w)) / (2.0 * s) - g_min
    gap = max(gap, 0.0)
    return z, gap, z - x_exact


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


def quantize_quadratic(fmt, quad):
    """``quad`` with its matrix and offset stored in ``fmt``, once per run."""
    return QuadraticSmooth(fmt.quantize(quad.mat), fmt.quantize(quad.vec), half=quad.half)


def quantized_gradient(fmt, quad_q, x, exact):
    """Gradient of a quadratic smooth term with inputs and output quantized.

    Emulates a reduced-precision gradient evaluation: ``quad_q`` comes from
    :func:`quantize_quadratic`, the point is stored in ``fmt`` and the
    computed gradient is written back in ``fmt``.  Returns
    ``(noisy_grad, eps1)`` with ``eps1`` measured against ``exact``, the
    exact gradient at the unquantized point.
    """
    g_q = fmt.quantize(quad_q.grad(fmt.quantize(x)))
    return g_q, g_q - exact
