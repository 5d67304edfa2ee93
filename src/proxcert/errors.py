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

from .problems import OracleError, as_vector


# Cephes normal-distribution coefficients (S. L. Moshier, 1989), as scipy ships them
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_MAXLOG = 7.09782712893383996843E2
_SQRT1_2 = 0.70710678118654752440
# ndtri, central branch exp(-2) < y <= 1 - exp(-2)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# ndtri tails, in z = 1/x with x = sqrt(-2 log y): (P1, Q1) for x < 8, (P2, Q2) beyond
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
# erf for |x| < 1
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
# erfc for 1 <= z: (EP, EQ) for z < 8, (ER, ES) beyond
_EP = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
       4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
       9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_EQ = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
       9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
       1.65666309194161350182E3, 5.57535340817727675546E2)
_ER = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
       6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ES = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
       1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)


def _polevl(x, coef):
    """Cephes ``polevl``: Horner from ``coef[0]``, on a float or an array."""
    ans = coef[0] * x
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef):
    """Cephes ``p1evl``: ``polevl`` with an implicit leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _erf(x):
    """Cephes ``erf`` for ``|x| < 1``."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _ndtr(a):
    """Cephes ``ndtr``, the standard normal CDF of a float, bit for bit."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    # y = erfc(z) / 2
    if z < 1.0:
        y = 0.5 * (1.0 - _erf(z))
    elif z * z > _MAXLOG:
        y = 0.0
    else:
        p, q = (_EP, _EQ) if z < 8.0 else (_ER, _ES)
        y = 0.5 * (math.exp(-z * z) * _polevl(z, p) / _p1evl(z, q))
    return 1.0 - y if x > 0 else y


def _ndtri_central(y):
    """``ndtri`` on ``exp(-2) < y <= 1 - exp(-2)``."""
    y = y - 0.5
    y2 = y * y
    return (y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI


def _libm_log(a):
    """libm's ``log`` element by element; ``np.log`` can differ in the last bit."""
    return np.array([math.log(v) for v in a.tolist()])


def _ndtri(y):
    """Cephes ``ndtri``, the inverse normal CDF, of an array in [0, 1], bit for bit."""
    # Cephes flips y > 1 - exp(-2) to 1 - y before its central test; no
    # flipped y passes it, as 1 - (1 - exp(-2)) == exp(-2) in doubles
    central = (y > _EXP_M2) & (y <= 1.0 - _EXP_M2)
    if central.all():
        return _ndtri_central(y)
    upper = y > 1.0 - _EXP_M2
    x = np.full_like(y, np.inf)  # stays at y = 0 and y = 1
    x[central] = _ndtri_central(y[central])
    # tails in t = min(y, 1 - y), negated below 1/2
    t = np.where(upper, 1.0 - y, y)
    tail = ~central & (t > 0.0)
    r = np.sqrt(-2.0 * _libm_log(t[tail]))
    z = 1.0 / r
    x1 = np.where(r < 8.0, z * _polevl(z, _P1) / _p1evl(z, _Q1),
                  z * _polevl(z, _P2) / _p1evl(z, _Q2))
    x[tail] = r - _libm_log(r) / r - x1
    return np.where(upper | central, x, -x)


def sample_truncated_gaussian(lo, hi, shape, rng):
    """Standard normal conditioned on [lo, hi], drawn by inverse CDF.

    The inverse-CDF route has bounded runtime at arbitrarily narrow
    truncations, unlike rejection sampling.  ``_ndtr``/``_ndtri`` port the
    Cephes ``ndtr``/``ndtri`` and give scipy's bits without loading scipy;
    the tails call libm's ``log`` (``math.log``): ``np.log`` can differ in
    the last bit, and the port with it by a few ulps.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    u = rng.uniform(_ndtr(lo), _ndtr(hi), size=shape)
    return np.clip(_ndtri(u), lo, hi)


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

    @property
    def bound(self):
        """The delta the errors meet: ``delta``, or for a deterministic spec
        the larger of ``delta`` and the schedule's largest |entry|."""
        if self.mode == "random":
            return self.delta
        return max([self.delta] + [float(np.max(np.abs(e))) for e in self.schedule])


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
# widest format of the exact domain: at W <= 64 no value, product or sum of
# quantized_gradient leaves float64's normal range, where scaling by a power
# of two commutes with rounding
MAX_WIDTH = 64
# the rounding kernel's operands are 0-d arrays: a ufunc takes one about
# 0.25 us faster than a Python float, which it converts on every call
_ONE, _HALF = np.array(1.0), np.array(0.5)


@dataclass(frozen=True)
class FixedPointFormat:
    """Fixed-point number format: total width W bits, F of them fractional.

    Unsigned dynamic range is [0, 2^I - 2^-F] with I = W - F; the signed
    (two's complement) range is [-2^(I-1), 2^(I-1) - 2^-F].  A value is held
    as an integer count of ulps (2^-F); W is at most :data:`MAX_WIDTH`.
    """

    width: int
    frac: int
    signed: bool = True

    def __post_init__(self):
        if not (self.width > self.frac >= 0):
            raise ValueError(f"need W > F >= 0, got W={self.width}, F={self.frac}")
        if self.width > MAX_WIDTH:
            raise ValueError(f"fixed-point format {self} is wider than {MAX_WIDTH} bits")
        if self.signed:
            lo, hi = -(2.0 ** (self.width - 1)), 2.0 ** (self.width - 1) - 1.0
        else:
            lo, hi = 0.0, 2.0**self.width - 1.0
        # 2^F, 2^-F and the saturation limits in ulps, as kernel operands
        for name, value in (("_scale", 2.0**self.frac), ("_ulp", 2.0**-self.frac),
                            ("_lo", lo), ("_hi", hi)):
            object.__setattr__(self, name, np.array(value))

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
    def ulp(self):
        return 2.0 ** (-self.frac)

    def dynamic_range(self):
        """``(lo, hi)``: the saturation limits of :meth:`round_ulps`, in value units."""
        return float(self._lo * self._ulp), float(self._hi * self._ulp)

    def round_ulps(self, a):
        """Round the float64 array ``a``, a value in ulps, in place to the
        nearest integer, ties half away from zero, and saturate it at the
        format's limits; returns ``a``."""
        # a +-1 factor, unlike copysign(|q|, a), leaves NaNs positive
        sign = np.copysign(_ONE, a)
        np.floor(np.add(np.abs(a, out=a), _HALF, out=a), out=a)
        a *= sign
        # maximum(lo, a) keeps a's -0.0 against lo = 0.0, as a clip does
        return np.minimum(np.maximum(self._lo, a, out=a), self._hi, out=a)

    def quantize(self, x):
        """Round to the nearest representable value, ties half away from
        zero; out-of-range saturates."""
        q = self.round_ulps(np.multiply(x, self._scale, out=np.empty_like(x, dtype=float)))
        q *= self._ulp
        return q if q.ndim else float(q)


class QuantizedQuadratic(NamedTuple):
    """A quadratic's matrix M_q and offset v_q stored in a fixed-point format,
    with the binary points folded into two scaled copies of M_q.

    ``lo = M_q 2^-F`` takes a point in ulps to ``M_q x`` in value units;
    ``hi = c 2^F M_q`` (c = 1 half-scaled, 2 unscaled) takes a residual in
    value units to the gradient in ulps; ``vec = v_q``.
    """

    lo: np.ndarray
    hi: np.ndarray
    vec: np.ndarray


def quantize_quadratic(fmt, quad):
    """``quad`` with its matrix and offset stored in ``fmt``, once per run,
    as a :class:`QuantizedQuadratic`."""
    hi = fmt.round_ulps(quad.mat * fmt._scale)  # M_q in ulps: 2^F M_q
    lo = hi * (fmt._ulp * fmt._ulp)
    if not quad.half:
        hi *= 2.0
    return QuantizedQuadratic(lo, hi, fmt.quantize(quad.vec))


def quantized_gradient(fmt, quad_q, x, out=None):
    """Gradient of a quadratic smooth term with inputs and output quantized.

    Emulates a reduced-precision evaluation of ``Q(c M_q'(M_q Q(x) - v_q))``
    on the integer grid: ``x`` is rounded in ulps, the two folded matrices of
    ``quad_q`` (from :func:`quantize_quadratic`) absorb the scale factors, and
    the gradient is rounded in ulps and written back in ``fmt`` (into ``out``
    if given).  Inside the format domain every intermediate is its value-unit
    counterpart times an exact power of two, so the bits are those of the
    value-unit formula.  Its error against the exact gradient is formed by the
    caller (a run forms every step's eps1 at once, after its loop).
    """
    lo, hi, vec = quad_q
    r = lo.dot(fmt.round_ulps(x * fmt._scale))
    r -= vec
    g = fmt.round_ulps(hi.T.dot(r, out=out))
    g *= fmt._ulp
    return g
