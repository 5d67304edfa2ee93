"""Per-iteration evaluation of every convergence bound, plus validity checks.

Bounds come in two families.  Running bounds consume the realized error
sequences recorded in a trace (the deterministic theorems and their
corollaries); a-priori bounds are computable from parameters alone (the
probabilistic theorems).  Deterministic running bounds must dominate the
observed suboptimality on every valid run; probabilistic ones are checked by
Monte-Carlo coverage.  The basic probabilistic series hold for a Fejer-monotone
run, and ``fejer_monotone`` reports whether a run was one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np


@dataclass
class BoundParams:
    """Constants feeding the bound formulas.

    ``s`` is the effective (constant) stepsize, ``dist0 = ||x* - x0||``.
    ``m_grad`` is the sup of the gradient sup-norm over iterates (1 under the
    absolute error model).
    """

    s: float
    lipschitz: float
    dist0: float
    n: int
    delta: float = 0.0
    eps0: float = 0.0
    gamma: float = 3.0
    m_grad: Optional[float] = None
    eps2_mean: Optional[float] = None

    def __post_init__(self):
        if self.s <= 0 or self.lipschitz <= 0:
            raise ValueError("stepsize and Lipschitz constant must be positive")
        if min(self.dist0, self.delta, self.eps0, self.eps2_mean or 0.0) < 0:
            raise ValueError("error magnitudes must be nonnegative")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")

    @classmethod
    def from_trace(cls, problem, trace, x_star, model="absolute", **overrides):
        """Fill trace-derived defaults: the least stored step (a directory
        made before every run had one constant step may hold several) and
        the realized gradient sup (x1.05 safety)."""
        s = float(trace.steps.min())
        dist0 = float(np.linalg.norm(x_star - trace.xs[0]))
        if model == "absolute":
            m_grad = 1.0
        else:
            pts = trace.xs if trace.ys is None else np.vstack([trace.xs, trace.ys])
            m_grad = 1.05 * float(np.abs(problem.smooth.grads(pts)).max())
        params = cls(
            s=s,
            lipschitz=problem.lipschitz,
            dist0=dist0,
            n=problem.n,
            m_grad=m_grad,
        )
        return replace(params, **overrides) if overrides else params


def u_sequence(trace, x_star):
    """Momentum-residual vectors u^{i+1} aligned with step index i.

    ``U[i] = x* - x^{i+1} + (1 - alpha_i)(x^{i+1} - x^i)``; with alpha_0 = 1
    this gives u^1 = x* - x^1.
    """
    x_star = np.asarray(x_star, dtype=float)
    diffs = np.diff(trace.xs, axis=0)
    return x_star - trace.xs[1:] + (1.0 - trace.alphas)[:, None] * diffs


def error_increments(trace, x_star, s):
    """Per-step terms of the cumulative error sum the theorems bound.

    ``nu_i . (x* - x^{i+1})``, or ``alpha_i nu_i . u^{i+1}`` for an
    accelerated run (one with ``trace.ys``), with ``nu_i = eps1^i - r^{i+1} / s``
    at the run's stepsize ``s``.
    """
    x_star = np.asarray(x_star, dtype=float)
    nu = trace.eps1 - trace.res / s
    if trace.ys is not None:
        return trace.alphas * np.einsum("ij,ij->i", nu, u_sequence(trace, x_star))
    return np.einsum("ij,ij->i", nu, x_star - trace.xs[1:])


def _w_terms(trace, s):
    """||eps1^i|| + sqrt(2 eps2^i / s) per step."""
    return trace.eps1_norms() + np.sqrt(2.0 * trace.eps2 / s)


# ---------------------------------------------------------------------------
# basic (ergodic) bounds
# ---------------------------------------------------------------------------


def bound_basic_det_series(trace, params, x_star):
    """Right-hand side of the basic deterministic theorem for every k.

    Includes the negative terms (residual energies and the distance of the
    last iterate), so this is the tightest running form.
    """
    s = params.s
    x_star = np.asarray(x_star, dtype=float)
    cross = error_increments(trace, x_star, s)
    res_sq = np.einsum("ij,ij->i", trace.res, trace.res)
    last_dist_sq = np.einsum("ij,ij->i", x_star - trace.xs[1:], x_star - trace.xs[1:])
    ks = np.arange(trace.num_steps)
    total = (
        np.cumsum(trace.eps2)
        + np.cumsum(cross)
        + params.dist0**2 / (2.0 * s)
        - np.cumsum(res_sq) / (2.0 * s)
        - last_dist_sq / (2.0 * s)
    )
    return total / (ks + 1)


def bound_basic_det_corollary_series(trace, params):
    """A-priori corollary of the basic theorem: the negative terms and the
    second-order error terms are dropped, and each cross term is bounded by
    ``dist0 (||eps1^i|| + sqrt(2 eps2^i / s))``."""
    s = params.s
    w = _w_terms(trace, s)
    w[0] = 0.0  # corollary cross sums start at i = 1
    total = (
        np.cumsum(trace.eps2)
        + np.cumsum(w) * params.dist0
        + params.dist0**2 / (2.0 * s)
    )
    return total / np.arange(1, trace.num_steps + 1)


def bound_basic_random(params, k, eps2_partial_sum):
    """Probabilistic ergodic bound for random errors, at k or an array of k.

    ``eps2_partial_sum`` is the sum of the first k proximal errors (realized,
    or ``k * E[eps2]`` a-priori; one sum per k).  The martingale radius
    carries the gradient-error term ``sqrt(n) m_grad delta`` and the prox
    term ``sqrt(2 eps0 / s)``.  Returns ``(value, probability)``, one probability for all k.
    """
    k = np.asarray(k)
    if np.any(k < 1):
        raise ValueError("bound defined for k >= 1")
    if params.m_grad is None:
        raise ValueError("m_grad is required")
    g, s, d = params.gamma, params.s, params.dist0
    base_term = math.sqrt(params.n) * params.m_grad * abs(params.delta)
    eps_sum = np.asarray(eps2_partial_sum, dtype=float)
    prox_term = math.sqrt(2.0 * params.eps0 / s)
    mid = (g / np.sqrt(k)) * (base_term + prox_term) * d
    value = eps_sum / k + mid + d * d / (2.0 * s * k)
    prob = max(0.0, 1.0 - 2.0 * math.exp(-(g * g) / 2.0))
    return value, prob


def bound_basic_random_series(trace, params):
    """(values, probabilities) arrays over k = 0..T-1 (k = 0 is NaN)."""
    values = np.full(trace.num_steps, np.nan)
    probs = np.full(trace.num_steps, np.nan)
    values[1:], probs[1:] = bound_basic_random(
        params, np.arange(1, trace.num_steps), np.cumsum(trace.eps2)[:-1]
    )
    return values, probs


def bound_basic_stationary(params, k):
    """Stationary-mean bound: constant floor E[eps2] plus O(1/sqrt(k)) + O(1/k),
    at k or an array of k."""
    k = np.asarray(k)
    if np.any(k < 1):
        raise ValueError("bound defined for k >= 1")
    if params.eps2_mean is None:
        raise ValueError("eps2_mean is required")
    if params.m_grad is None:
        raise ValueError("m_grad is required")
    g, s, d = params.gamma, params.s, params.dist0
    value = (
        params.eps2_mean
        + (g / np.sqrt(k))
        * (params.eps0 / 2.0 + math.sqrt(params.n) * params.m_grad * abs(params.delta) * d)
        + d * d / (2.0 * s * k)
    )
    prob = max(0.0, 1.0 - 4.0 * math.exp(-(g * g) / 2.0))
    return value, prob


def bound_basic_stationary_series(trace, params):
    values = np.full(trace.num_steps, np.nan)
    probs = np.full(trace.num_steps, np.nan)
    values[1:], probs[1:] = bound_basic_stationary(params, np.arange(1, trace.num_steps))
    return values, probs


# ---------------------------------------------------------------------------
# accelerated bounds
# ---------------------------------------------------------------------------


def _acc_det(trace, params, cross):
    """Accelerated deterministic form for a given per-step cross term."""
    weighted_eps2 = trace.alphas**2 * trace.eps2
    total = np.cumsum(weighted_eps2) + np.cumsum(cross) + params.dist0**2 / (2.0 * params.s)
    return total / trace.alphas**2


def bound_acc_det_series(trace, params, x_star):
    """Accelerated deterministic theorem: error-weighted momentum residuals."""
    return _acc_det(trace, params, error_increments(trace, x_star, params.s))


def bound_acc_det_corollary_series(trace, params):
    """A-priori Cauchy-Schwarz form: ``||u^{i+1}||`` replaced by dist0."""
    w = _w_terms(trace, params.s)
    return _acc_det(trace, params, trace.alphas * params.dist0 * w)


def bound_acc_random_series(trace, params, x_star):
    """Running probabilistic accelerated bound (theorem weights i, not alpha_i).

    Needs realized eps2 and the u-sequence; the expectation in the first term
    uses ``params.eps2_mean`` when set, otherwise the realized sum.  The
    i-weighted sums presume the momentum sequence grows no faster than the
    iteration counter; a warning is emitted when the trace's alphas exceed i
    beyond the first two indices (the standard rules never do).
    """
    s, g = params.s, params.gamma
    if params.m_grad is None:
        raise ValueError("m_grad is required")
    t = trace.num_steps
    if t > 3 and np.any(trace.alphas[3:] > np.arange(3, t)):
        import warnings

        warnings.warn(
            "momentum sequence exceeds the iteration counter; the i-weighted "
            "probabilistic sums are not an upper bound for this rule",
            RuntimeWarning,
            stacklevel=2,
        )
    useq = u_sequence(trace, x_star)
    u_sq = np.einsum("ij,ij->i", useq, useq)  # ||u^{i+1}||^2 at index i
    idx = np.arange(t)
    i_sq_eps2 = idx**2 * trace.eps2
    if params.eps2_mean is not None:
        s2_mean = params.eps2_mean * np.cumsum(idx.astype(float) ** 2)
    else:
        s2_mean = np.cumsum(i_sq_eps2)
    # sums over i = 1..k of i^2 ||u^i||^2 (and variants); u^i = useq[i-1]
    u_shift_sq = np.concatenate([[0.0], u_sq[:-1]])
    i2u = np.cumsum(idx**2 * u_shift_sq)
    i4e2 = np.cumsum(idx.astype(float) ** 4 * trace.eps2**2)
    i2ue = np.cumsum(idx**2 * u_shift_sq * trace.eps2)
    s_eps2 = s2_mean + 0.5 * g * np.sqrt(i4e2)
    s_eps1 = g * abs(params.delta) * params.m_grad * np.sqrt(params.n * i2u)
    s_r = g * np.sqrt(2.0 / s * i2ue)
    values = (s_eps2 + s_eps1 + s_r + params.dist0**2 / (2.0 * s)) / trace.alphas**2
    prob = np.full(t, max(0.0, 1.0 - 6.0 * math.exp(-(g * g) / 2.0)))
    return values, prob


# ---------------------------------------------------------------------------
# baseline bounds from prior work
# ---------------------------------------------------------------------------


def bound_schmidt_basic_series(trace, params):
    """Baseline ergodic bound (L/2k)[dist0 + 2 A_k + sqrt(2 B_k)]^2."""
    L = params.lipschitz
    t = trace.num_steps
    w = trace.eps1_norms() / L + np.sqrt(2.0 * trace.eps2 / L)
    b = trace.eps2 / L
    w[0] = b[0] = 0.0  # sums run i = 1..k
    a_k = np.cumsum(w)
    b_k = np.cumsum(b)
    ks = np.arange(t).astype(float)
    with np.errstate(divide="ignore"):
        values = (L / (2.0 * ks)) * (params.dist0 + 2.0 * a_k + np.sqrt(2.0 * b_k)) ** 2
    values[0] = np.nan
    return values


def bound_schmidt_acc_series(trace, params):
    """Baseline accelerated bound (2L/(k+1)^2)[dist0 + 2 A~_k + sqrt(2 B~_k)]^2."""
    L = params.lipschitz
    t = trace.num_steps
    idx = np.arange(t).astype(float)
    w = idx * (trace.eps1_norms() / L + np.sqrt(2.0 * trace.eps2 / L))
    b = idx**2 * trace.eps2 / L
    a_k = np.cumsum(w)
    b_k = np.cumsum(b)
    return (2.0 * L / (idx + 1.0) ** 2) * (params.dist0 + 2.0 * a_k + np.sqrt(2.0 * b_k)) ** 2


# ---------------------------------------------------------------------------
# series assembly and validity checking
# ---------------------------------------------------------------------------

TARGETS = ("ergodic_incl", "ergodic", "iterate_next", "iterate")


@dataclass(frozen=True)
class SeriesRow:
    """One entry of the ``SERIES`` catalogue.

    ``evaluate(trace, params, x_star)`` returns the values (deterministic
    rows), ``(values, probabilities)`` (probabilistic rows), or None when
    the run's parameters do not define the series.  A gated row takes part
    in strict validity gating.
    """

    name: str
    variant: str
    target: str
    gated: bool
    probabilistic: bool
    evaluate: Callable


# every bound series, in bounds.csv column order; the evaluators look the
# bound functions up when called, so a rebound module attribute is used
SERIES = (
    SeriesRow("thm_basic_det", "basic", "ergodic_incl", True, False,
              lambda trace, params, x_star: bound_basic_det_series(trace, params, x_star)),
    SeriesRow("cor_basic_det", "basic", "ergodic_incl", False, False,
              lambda trace, params, x_star: bound_basic_det_corollary_series(trace, params)),
    SeriesRow("thm_basic_rand", "basic", "ergodic", False, True,
              lambda trace, params, x_star: bound_basic_random_series(trace, params)),
    SeriesRow("thm_basic_stat", "basic", "ergodic", False, True,
              lambda trace, params, x_star: None if params.eps2_mean is None
              else bound_basic_stationary_series(trace, params)),
    SeriesRow("thm_acc_det", "accelerated", "iterate_next", True, False,
              lambda trace, params, x_star: bound_acc_det_series(trace, params, x_star)),
    SeriesRow("cor_acc_det", "accelerated", "iterate_next", False, False,
              lambda trace, params, x_star: bound_acc_det_corollary_series(trace, params)),
    SeriesRow("thm_acc_rand", "accelerated", "iterate_next", False, True,
              lambda trace, params, x_star: bound_acc_random_series(trace, params, x_star)),
    SeriesRow("schmidt_basic", "basic", "ergodic", False, False,
              lambda trace, params, x_star: bound_schmidt_basic_series(trace, params)),
    SeriesRow("schmidt_acc", "accelerated", "iterate", False, False,
              lambda trace, params, x_star: bound_schmidt_acc_series(trace, params)),
)
SERIES_NAMES = tuple(row.name for row in SERIES)


@dataclass
class BoundSeries:
    """One named bound evaluated along a trace.

    ``target`` names the observable the bound dominates: the mean of
    x^1..x^{k+1} ("ergodic_incl"), the mean of x^1..x^k ("ergodic"), the next
    iterate x^{k+1} ("iterate_next"), or the current iterate x^k ("iterate").
    """

    name: str
    values: np.ndarray
    probability: np.ndarray
    target: str
    a_priori: bool = False
    params: Optional[BoundParams] = None
    gate: bool = True  # participates in strict validity gating


@dataclass
class ObservedGaps:
    """Suboptimality of each bound target along a trace."""

    ergodic_incl: np.ndarray
    ergodic: np.ndarray
    iterate_next: np.ndarray
    iterate: np.ndarray

    @classmethod
    def from_trace(cls, problem, trace, f_star):
        t = trace.num_steps
        erg_incl = problem.f_values(trace.ergodic_averages()) - f_star  # mean x^1..x^{k+1}
        erg = np.full(t, np.nan)
        erg[1:] = erg_incl[:-1]  # mean x^1..x^k at index k
        iterate_next = trace.fvals[1:] - f_star
        iterate = trace.fvals[:-1] - f_star
        return cls(erg_incl, erg, iterate_next, iterate)

    def for_target(self, target):
        if target not in TARGETS:
            raise ValueError(f"unknown target {target!r}")
        return getattr(self, target)


@dataclass
class ValidityReport:
    name: str
    checked: int
    violations: int


def check_bound_validity(series, observed):
    """Count iterations where the observed gap exceeds the bound (strictly).

    Deterministic series must report zero violations on valid runs; for
    probabilistic series the count feeds Monte-Carlo coverage aggregation.
    """
    gaps = observed.for_target(series.target)
    mask = np.isfinite(series.values) & np.isfinite(gaps)
    excess = gaps[mask] - series.values[mask]
    return ValidityReport(
        name=series.name,
        checked=int(mask.sum()),
        violations=int(np.sum(excess > 0)),
    )


def fejer_monotone(trace, x_star):
    """True when ||x^k - x*|| <= ||x^0 - x*|| along the whole trace."""
    dists = np.linalg.norm(trace.xs - np.asarray(x_star)[None, :], axis=1)
    return bool(np.all(dists <= dists[0] * (1.0 + 1e-12)))


def evaluate_all_series(trace, params, x_star, variant):
    """The ``SERIES`` rows of a run variant, evaluated along the trace, in
    CSV-column order."""
    ones = np.ones(trace.num_steps)
    out = []
    for row in SERIES:
        if row.variant != variant:
            continue
        result = row.evaluate(trace, params, x_star)
        if result is None:
            continue
        values, probability = result if row.probabilistic else (result, ones)
        out.append(BoundSeries(row.name, values, probability, row.target, gate=row.gated))
    return out
