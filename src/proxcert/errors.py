"""Computational-error models: gradient noise, suboptimal prox, quantization.

Two gradient-error models are supported.  Under the absolute model the
injected noise satisfies ``|eps1_j| <= delta`` componentwise; under the
relative model ``|eps1_j| <= delta * |grad_j|`` (noise proportional to the
gradient magnitude).  Proximal errors are expressed as a suboptimality gap
``eps2`` of the prox subproblem, with the residual vector
``r = returned point - exact prox``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .problems import OracleError, QuadraticSmooth, as_vector


def sample_truncated_gaussian(lo, hi, shape, rng):
    """Standard normal conditioned on [lo, hi], drawn by inverse CDF.

    The inverse-CDF route has bounded runtime at arbitrarily narrow
    truncations, unlike rejection sampling.  ``scipy.special`` is imported
    here, at the first draw, so that runs without random errors never load
    scipy.
    """
    from scipy.special import ndtr, ndtri

    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    p_lo, p_hi = ndtr(lo), ndtr(hi)
    u = rng.uniform(p_lo, p_hi, size=shape)
    return np.clip(ndtri(u), lo, hi)


def truncated_gaussian_mean(lo, hi):
    """Exact mean ``(phi(lo) - phi(hi)) / (Phi(hi) - Phi(lo))`` of the standard
    normal truncated to the scalar interval [lo, hi].

    Neither difference is formed by subtraction where it would cancel.  The
    density difference is ``phi(lo) (1 - exp(-(hi - lo)(hi + lo)/2))``,
    through ``expm1``.  The mass is a sum of two ``erf`` terms when the
    interval straddles 0, else a difference of ``erf`` terms near 0 and of
    ``erfc`` terms in the tail.  On [0, h] both are accurate to a few ulps
    at any h > 0, where the plain differences give 0.0 for h <= 1e-8.
    """
    phi_lo = math.exp(-0.5 * lo * lo) / math.sqrt(2.0 * math.pi)
    num = phi_lo * -math.expm1(-0.5 * (hi - lo) * (hi + lo))
    # the density is even: the mass depends on |lo|, |hi| and whether [lo, hi] holds 0
    a, b = sorted((abs(lo) / math.sqrt(2.0), abs(hi) / math.sqrt(2.0)))
    if lo < 0.0 < hi:
        mass = 0.5 * (math.erf(a) + math.erf(b))
    elif math.erf(a) <= 0.5:
        mass = 0.5 * (math.erf(b) - math.erf(a))
    else:
        mass = 0.5 * (math.erfc(a) - math.erfc(b))
    return num / mass


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
    A run with neither kind gets the empty tape without seeding anything.
    """
    on_grad = isinstance(grad_spec, GradientErrorSpec)
    on_prox = prox_spec is not None and prox_spec.mode == "target_gap"
    if not (on_grad or on_prox):
        return ErrorTape(None, None, None)
    grad_seq, prox_seq = np.random.SeedSequence(seed).spawn(2)
    kappa = targets = directions = None
    if on_grad:
        kappa = _gradient_multipliers(grad_spec, n, steps, grad_seq)
    if on_prox:
        targets, directions = _prox_targets_and_directions(prox_spec, n, steps, prox_seq)
    return ErrorTape(kappa, targets, directions)


def _gap_along(h, s, x_exact, direction, t, d_dot_xw, d_dot_d):
    """Suboptimality of x_exact + t*direction in the prox subproblem at w.

    Row by row: ``x_exact`` and ``direction`` are ``(..., n)``, the others
    ``(...)`` or scalars.  Evaluated in expanded form (no large-term
    cancellation): ``h(x+td) - h(x) + (2 t d'(x-w) + t^2 ||d||^2) / (2s)``,
    given ``d_dot_xw = d'(x-w)`` and ``d_dot_d = ||d||^2``.
    """
    quad = (2.0 * t * d_dot_xw + t * t * d_dot_d) / (2.0 * s)
    return h.value_delta(x_exact, direction, t) + quad


def ray_constants(directions):
    """``(|d|, d'd)`` of each row of ``directions`` ``(T, n)``: the part of
    :func:`ray_solve` that depends only on the direction.  ``d'd`` is a
    stacked product, which gives ``float(d @ d)`` of each row to the bit."""
    return np.abs(directions), np.matmul(directions[:, None, :], directions[:, :, None])[:, 0, 0]


def ray_solve(h, s, w, target_eps2, d, abs_d, d_dot_d, x, out):
    """The point of :func:`approx_prox`, before its gap check.

    The point lies on the ray ``x + t*d`` from the exact prox ``x`` along
    the unit vector ``d`` (``abs_d``, ``d_dot_d``: its
    :func:`ray_constants`), at the t where the subproblem gap phi(t)
    reaches 0.95 * target_eps2.  For ``h = lam ||.||_1``, phi is convex and
    piecewise quadratic in t: its curvature is ``||d||^2 / s`` and its
    slope jumps by ``2 lam |d_j|`` at each kink ``t_j = -x_j / d_j`` with
    ``x_j d_j < 0``.  When phi stays below the aim up to the first kink,
    sorting the kinks and summing phi up to each one finds the segment that
    reaches it (the sort-and-scan of the l1-ball projection, Duchi et al.,
    ICML 2008); otherwise the first segment does.  One quadratic on that
    segment gives t.  Writes the exact prox into the array ``x`` and the
    point into ``out`` and returns ``(t, d'(x - w))``: with ``x``, what
    :func:`checked_gaps` needs.  The residual is ``t*d``; a zero target
    leaves ``x`` itself in ``out``, with t = 0 and a +0.0 residual.
    """
    if s <= 0:
        raise ValueError("prox stepsize must be positive")
    if target_eps2 < 0:
        raise ValueError("target gap must be nonnegative")
    h.prox(s, w, out=x)
    if target_eps2 == 0.0:
        np.copyto(out, x)
        return 0.0, 0.0
    # ``out`` serves as scratch until the point is written
    d_dot_xw = float(d.dot(np.subtract(x, w, out=out)))
    curv = d_dot_d / s
    signed_d = np.multiply(np.sign(x, out=out), d, out=out)
    crossing = signed_d < 0.0  # coordinates that reach zero at t_j = -x_j / d_j > 0
    # phi'(0+): the l1 slope of coordinate j is |d_j| at x_j = 0, sign(x_j) d_j elsewhere
    l1_slope = signed_d
    np.copyto(l1_slope, abs_d, where=x == 0.0)
    slope0 = d_dot_xw / s + h.lam * float(np.add.reduce(l1_slope))
    aim = 0.95 * target_eps2
    left, rest, p = 0.0, aim, slope0  # the first segment, [0, first kink]
    # the first kink is -max(x_j / d_j) over the crossing j; fmax skips the
    # NaN it starts from, which is left only when no coordinate crosses
    k_min = -float(np.fmax.reduce(np.divide(x, d, out=out), where=crossing, initial=np.nan))
    if k_min == k_min and not (slope0 + 0.5 * curv * k_min) * k_min >= aim:
        # phi(first kink) < aim
        kinks = -x[crossing] / d[crossing]
        order = np.argsort(kinks)
        lefts = np.concatenate(([0.0], kinks[order]))  # left ends of the segments
        jumps = np.concatenate(([0.0], 2.0 * h.lam * abs_d[crossing][order]))
        slopes = slope0 + curv * lefts + np.cumsum(jumps)  # phi' just right of each left end
        widths = np.diff(lefts)
        phis = np.concatenate(([0.0], np.cumsum((slopes[:-1] + 0.5 * curv * widths) * widths)))
        i = int(np.searchsorted(phis, aim)) - 1  # phis[i] < aim <= phis[i + 1]
        left, rest, p = lefts[i], aim - phis[i], slopes[i]
    root = p * p + 2.0 * curv * rest
    # NaN once the iterates diverge, which math.sqrt passes on as np.sqrt
    # does; below 0 math.sqrt would raise, so that gives NaN too.  The
    # division stays a float64 one: inf, not ZeroDivisionError, at 0
    root = math.sqrt(root) if root >= 0.0 else math.nan
    t = left + 2.0 * rest / np.float64(p + root)
    np.add(x, np.multiply(d, t, out=out), out=out)
    return t, d_dot_xw


def checked_gaps(h, steps, rays, directions, d_dot_d, targets):
    """The realized gaps of :func:`ray_solve` steps 0, 1, ...

    ``rays`` is ``(x, t, d_dot_xw)``, stacked over the steps solved: the
    exact prox points ``(k, n)`` and the returns of :func:`ray_solve`.
    Step j was solved at ``steps[j]`` along ``directions[j]`` (with
    ``d_dot_d[j]``) for ``targets[j]``; these may run past the last step.
    One stacked :func:`_gap_along` call evaluates every gap, a zero
    target's as +0.0.  A gap outside ``[0.9, 1] * target`` raises
    :class:`OracleError` for the first such step, named when there is more
    than one.
    """
    x, t, d_dot_xw = map(np.asarray, rays)
    k = len(t)
    s, d, d_dot_d, targets = (np.asarray(a)[:k] for a in (steps, directions, d_dot_d, targets))
    live = targets != 0.0
    gaps = np.zeros(k)
    gaps[live] = _gap_along(h, s[live], x[live], d[live], t[live], d_dot_xw[live], d_dot_d[live])
    bad = np.flatnonzero(~((0.9 * targets <= gaps) & (gaps <= targets)))
    if bad.size:
        i = bad[0]
        where = f" at step {i}" if k > 1 else ""
        raise OracleError(
            f"approx_prox gap {gaps[i]:.6g} outside [0.9, 1] x target {targets[i]:.6g}{where}"
        )
    return gaps


# ray_solve divides x_j / d_j at every j, crossing or not: a direction with
# zero entries, which no tape holds, divides by zero where its mask drops it
@np.errstate(divide="ignore", invalid="ignore")
def approx_prox(h, s, w, target_eps2, direction):
    """A point in the eps2-suboptimal prox set of ``s*h`` at ``w``.

    Returns ``(x, realized_gap, residual)``: the point of :func:`ray_solve`
    along the unit vector ``direction``, whose gap :func:`checked_gaps`
    evaluates exactly; outside ``[0.9, 1.0] * target_eps2`` it raises
    :class:`OracleError`.
    """
    w = np.asarray(w, dtype=float)
    d = np.asarray(direction, dtype=float)
    abs_d, d_dot_d = ray_constants(d[None])
    x, point = np.empty_like(w), np.empty_like(w)
    t, d_dot_xw = ray_solve(h, s, w, target_eps2, d, abs_d[0], d_dot_d[0], x, point)
    gap = checked_gaps(h, [s], ([x], [t], [d_dot_xw]), d[None], d_dot_d, [target_eps2])[0]
    return point, gap, t * d if target_eps2 else np.zeros_like(w)


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

    def __post_init__(self):
        if not (self.width > self.frac >= 0):
            raise ValueError(f"need W > F >= 0, got W={self.width}, F={self.frac}")

    @classmethod
    def parse(cls, text):
        m = _FMT_RE.match(text.strip())
        if not m:
            raise ValueError(f"malformed fixed-point format {text!r} (expected e.g. 's8.4')")
        sign, width, frac = m.group(1) == "s", int(m.group(2)), int(m.group(3))
        return cls(width, frac, signed=sign)

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
        """Round to the nearest representable value, ties half away from
        zero; out-of-range saturates."""
        scalar = np.ndim(x) == 0
        y = np.asarray(x, dtype=float) * 2.0**self.frac
        # a +-1 factor, unlike copysign(|q|, y), leaves NaNs positive
        q = np.floor(np.abs(y) + 0.5) * np.copysign(1.0, y)
        if self.signed:
            lo_i, hi_i = -(2.0 ** (self.width - 1)), 2.0 ** (self.width - 1) - 1.0
        else:
            lo_i, hi_i = 0.0, 2.0**self.width - 1.0
        # maximum(lo, q) keeps q's -0.0 against lo = 0.0, as a clip does
        q = np.minimum(np.maximum(lo_i, q), hi_i) * 2.0 ** (-self.frac)
        return float(q) if scalar else q


def quantize_quadratic(fmt, quad):
    """``quad`` with its matrix and offset stored in ``fmt``, once per run."""
    return QuadraticSmooth(fmt.quantize(quad.mat), fmt.quantize(quad.vec), half=quad.half)


def quantized_gradient(fmt, quad_q, x):
    """Gradient of a quadratic smooth term with inputs and output quantized.

    Emulates a reduced-precision gradient evaluation: ``quad_q`` comes from
    :func:`quantize_quadratic`, the point is stored in ``fmt`` and the
    computed gradient is written back in ``fmt``.  Its error against the
    exact gradient is formed by the caller (a run forms every step's eps1
    at once, after its loop).
    """
    return fmt.quantize(quad_q.grad(fmt.quantize(x)))
