"""Per-iteration evaluation of every convergence bound, plus validity checks.

Bounds come in two families.  Running bounds consume the realized error
sequences recorded in a trace (the deterministic theorems and their
corollaries); a-priori bounds are computable from parameters alone (the
probabilistic theorems).  Deterministic running bounds must dominate the
observed suboptimality on every valid run; probabilistic ones are checked by
Monte-Carlo coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

SERIES_NAMES = (
    "thm_basic_det",
    "cor_basic_det",
    "thm_basic_rand",
    "thm_basic_stat",
    "thm_acc_det",
    "cor_acc_det",
    "thm_acc_rand",
    "schmidt_basic",
    "schmidt_acc",
)


@dataclass
class BoundParams:
    """Constants feeding the bound formulas.

    ``s`` is the effective (constant) stepsize, ``dist0 = ||x* - x0||``.
    ``m_grad`` is the sup of the gradient sup-norm over iterates (1 under the
    absolute error model).  ``(c1, c2, rho, k0)`` are the quasi-Fejer corollary
    constants; ``p`` is the Fejer-monotonicity probability (taken as 1 in
    verified monotone regimes unless overridden).
    """

    s: float
    lipschitz: float
    dist0: float
    n: int
    delta: float = 0.0
    eps0: float = 0.0
    gamma: float = 3.0
    p: float = 1.0
    m_grad: Optional[float] = None
    eps2_mean: Optional[float] = None
    c1: Optional[float] = None
    c2: Optional[float] = None
    rho: Optional[float] = None
    k0: int = 0

    def __post_init__(self):
        if self.s <= 0 or self.lipschitz <= 0:
            raise ValueError("stepsize and Lipschitz constant must be positive")
        if min(self.dist0, self.delta, self.eps0, self.eps2_mean or 0.0) < 0:
            raise ValueError("error magnitudes must be nonnegative")
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must lie in (0, 1]")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")

    @classmethod
    def from_trace(cls, problem, trace, x_star, model="absolute", **overrides):
        """Fill trace-derived defaults: min accepted stepsize, realized
        gradient sup (x1.05 safety), quasi-Fejer constants (L, 1, final step
        norm, 0)."""
        s = float(trace.steps.min())
        dist0 = float(np.linalg.norm(x_star - trace.xs[0]))
        if model == "absolute":
            m_grad = 1.0
        else:
            pts = trace.xs if trace.ys is None else np.vstack([trace.xs, trace.ys])
            m_grad = 1.05 * float(np.abs(problem.smooth.grads(pts)).max())
        changes = trace.x_change()
        rho = float(changes[-1]) if len(changes) else 0.0
        params = cls(
            s=s,
            lipschitz=problem.lipschitz,
            dist0=dist0,
            n=problem.n,
            m_grad=m_grad,
            c1=problem.lipschitz,
            c2=1.0,
            rho=rho,
            k0=0,
        )
        return replace(params, **overrides) if overrides else params

    @property
    def c_rho(self):
        """Quasi-Fejer constant sqrt(2 c2 rho / s) + s c1 L rho."""
        c1 = self.lipschitz if self.c1 is None else self.c1
        c2 = 1.0 if self.c2 is None else self.c2
        rho = 0.0 if self.rho is None else self.rho
        return math.sqrt(2.0 * c2 * rho / self.s) + self.s * c1 * self.lipschitz * rho


def u_sequence(trace, x_star):
    """Momentum-residual vectors u^{i+1} aligned with step index i.

    ``U[i] = x* - x^{i+1} + (1 - alpha_i)(x^{i+1} - x^i)``; with alpha_0 = 1
    this gives u^1 = x* - x^1.
    """
    x_star = np.asarray(x_star, dtype=float)
    diffs = np.diff(trace.xs, axis=0)
    return x_star - trace.xs[1:] + (1.0 - trace.alphas)[:, None] * diffs


def error_increments(trace, x_star, s, accelerated):
    """Per-step terms of the cumulative error sum the theorems bound.

    ``nu_i . (x* - x^{i+1})``, or ``alpha_i nu_i . u^{i+1}`` for an
    accelerated run, with ``nu_i = eps1^i - r^{i+1} / s``; ``s`` is the
    stepsize, or one per step.
    """
    x_star = np.asarray(x_star, dtype=float)
    nu = trace.eps1 - trace.res / np.reshape(s, (-1, 1))
    if accelerated:
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
    cross = error_increments(trace, x_star, s, accelerated=False)
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


def bound_basic_det_corollary_series(trace, params, x_star=None, variant="full"):
    """Quasi-Fejer corollary of the basic theorem.

    ``variant="full"`` keeps the negative terms and the absolutely-summable
    error recursion (needs x_star and the (c1, c2, rho, k0) constants);
    ``variant="approx"`` drops second-order terms, leaving the a-priori
    friendly form.
    """
    if variant not in ("full", "approx"):
        raise ValueError(f"unknown corollary variant {variant!r}")
    s = params.s
    t = trace.num_steps
    ks = np.arange(t)
    w = _w_terms(trace, s)
    w_from_1 = w.copy()
    w_from_1[0] = 0.0  # corollary cross sums start at i = 1
    base = (
        np.cumsum(trace.eps2)
        + np.cumsum(w_from_1) * params.dist0
        + params.dist0**2 / (2.0 * s)
    )
    if variant == "approx":
        return base / (ks + 1)
    if x_star is None:
        raise ValueError("full corollary variant needs x_star")
    x_star = np.asarray(x_star, dtype=float)
    res_sq = np.einsum("ij,ij->i", trace.res, trace.res)
    last_dist_sq = np.einsum("ij,ij->i", x_star - trace.xs[1:], x_star - trace.xs[1:])
    # E^j = ||r^j|| + s ||eps1^{j-1}||, j >= 1 (step arrays are 0-based)
    e_seq = trace.res_norms() + s * trace.eps1_norms()
    cum_e = np.concatenate([[0.0], np.cumsum(e_seq)[:-1]])  # sum_{j=1}^{i} E^j at index i
    recursion = w_from_1 * (cum_e + ks * params.c_rho)
    total = base - (np.cumsum(res_sq) + last_dist_sq) / (2.0 * s) + np.cumsum(recursion)
    values = total / (ks + 1)
    if params.k0 > 0:
        values[: params.k0] = np.nan
    return values


def bound_basic_random(params, k, eps2_partial_sum, variant="stated"):
    """Probabilistic ergodic bound for random errors, at k or an array of k.

    ``eps2_partial_sum`` is the sum of the first k proximal errors (realized,
    or ``k * E[eps2]`` a-priori; one sum per k).  Variants: "stated" (theorem
    form), "approx" (large-n form dropping the prox term), "sharp"
    (per-iteration eps2 inside the martingale radius; pass the eps2 sequence
    instead of the partial sums).  Returns ``(value, probability)``.
    """
    k = np.asarray(k)
    if np.any(k < 1):
        raise ValueError("bound defined for k >= 1")
    if params.m_grad is None:
        raise ValueError("m_grad is required")
    g, s, d = params.gamma, params.s, params.dist0
    base_term = math.sqrt(params.n) * params.m_grad * abs(params.delta)
    if variant in ("stated", "approx"):
        eps_sum = np.asarray(eps2_partial_sum, dtype=float)
        prox_term = math.sqrt(2.0 * params.eps0 / s) if variant == "stated" else 0.0
        mid = (g / np.sqrt(k)) * (base_term + prox_term) * d
    elif variant == "sharp":
        eps_seq = np.asarray(eps2_partial_sum, dtype=float)
        eps_sum = np.cumsum(eps_seq)[k - 1]
        radius = np.sqrt(np.cumsum((base_term + np.sqrt(2.0 * eps_seq / s)) ** 2)[k - 1])
        mid = g * d * radius / k
    else:
        raise ValueError(f"unknown variant {variant!r}")
    value = eps_sum / k + mid + d * d / (2.0 * s * k)
    prob = params.p**k * (1.0 - 2.0 * math.exp(-(g * g) / 2.0))
    return value, prob


def bound_basic_random_series(trace, params, variant="stated"):
    """(values, probabilities) arrays over k = 0..T-1 (k = 0 is NaN)."""
    values = np.full(trace.num_steps, np.nan)
    probs = np.full(trace.num_steps, np.nan)
    arg = trace.eps2 if variant == "sharp" else np.cumsum(trace.eps2)[:-1]
    values[1:], probs[1:] = bound_basic_random(
        params, np.arange(1, trace.num_steps), arg, variant
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
    prob = params.p**k * (1.0 - 4.0 * math.exp(-(g * g) / 2.0))
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
    return _acc_det(trace, params, error_increments(trace, x_star, params.s, accelerated=True))


def bound_acc_det_corollary_series(trace, params, x_star=None, variant="full"):
    """Cauchy-Schwarz form; "approx" replaces ||u^{i+1}|| by dist0."""
    if variant not in ("full", "approx"):
        raise ValueError(f"unknown corollary variant {variant!r}")
    w = _w_terms(trace, params.s)
    if variant == "approx":
        return _acc_det(trace, params, trace.alphas * params.dist0 * w)
    if x_star is None:
        raise ValueError("full corollary variant needs x_star")
    u_norms = np.linalg.norm(u_sequence(trace, x_star), axis=1)
    return _acc_det(trace, params, trace.alphas * u_norms * w)


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
    prob = np.full(t, 1.0 - 6.0 * math.exp(-(g * g) / 2.0))
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
    a_priori: bool
    params: BoundParams
    gate: bool = True  # participates in strict validity gating

    @property
    def deterministic(self):
        finite = self.probability[np.isfinite(self.probability)]
        return bool(np.all(finite >= 1.0)) if len(finite) else True


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
    max_excess: float
    first_violation: Optional[int]

    @property
    def ok(self):
        return self.violations == 0


def check_bound_validity(series, observed):
    """Count iterations where the observed gap exceeds the bound (strictly).

    Deterministic series must report zero violations on valid runs; for
    probabilistic series the count feeds Monte-Carlo coverage aggregation.
    """
    gaps = observed.for_target(series.target)
    mask = np.isfinite(series.values) & np.isfinite(gaps)
    excess = gaps[mask] - series.values[mask]
    violations = int(np.sum(excess > 0))
    return ValidityReport(
        name=series.name,
        checked=int(mask.sum()),
        violations=violations,
        max_excess=float(excess.max()) if len(excess) else 0.0,
        first_violation=int(np.flatnonzero(mask)[np.argmax(excess > 0)])
        if violations
        else None,
    )


def fejer_monotone(trace, x_star):
    """True when ||x^k - x*|| <= ||x^0 - x*|| along the whole trace."""
    dists = np.linalg.norm(trace.xs - np.asarray(x_star)[None, :], axis=1)
    return bool(np.all(dists <= dists[0] * (1.0 + 1e-12)))


def evaluate_all_series(trace, params, x_star, variant):
    """All bound series applicable to a run variant, CSV-column order."""
    t = trace.num_steps
    ones = np.ones(t)
    out = []
    if variant == "basic":
        out.append(
            BoundSeries(
                "thm_basic_det",
                bound_basic_det_series(trace, params, x_star),
                ones,
                "ergodic_incl",
                False,
                params,
            )
        )
        out.append(
            BoundSeries(
                "cor_basic_det",
                bound_basic_det_corollary_series(trace, params, x_star, "approx"),
                ones,
                "ergodic_incl",
                False,
                params,
                gate=False,
            )
        )
        rnd, rnd_p = bound_basic_random_series(trace, params)
        out.append(
            BoundSeries("thm_basic_rand", rnd, rnd_p, "ergodic", True, params, gate=False)
        )
        if params.eps2_mean is not None:
            st, st_p = bound_basic_stationary_series(trace, params)
            out.append(
                BoundSeries("thm_basic_stat", st, st_p, "ergodic", True, params, gate=False)
            )
        out.append(
            BoundSeries(
                "schmidt_basic",
                bound_schmidt_basic_series(trace, params),
                ones,
                "ergodic",
                False,
                params,
                gate=False,
            )
        )
    else:
        out.append(
            BoundSeries(
                "thm_acc_det",
                bound_acc_det_series(trace, params, x_star),
                ones,
                "iterate_next",
                False,
                params,
            )
        )
        out.append(
            BoundSeries(
                "cor_acc_det",
                bound_acc_det_corollary_series(trace, params, x_star, "approx"),
                ones,
                "iterate_next",
                False,
                params,
                gate=False,
            )
        )
        rnd, rnd_p = bound_acc_random_series(trace, params, x_star)
        out.append(
            BoundSeries("thm_acc_rand", rnd, rnd_p, "iterate_next", False, params, gate=False)
        )
        out.append(
            BoundSeries(
                "schmidt_acc",
                bound_schmidt_acc_series(trace, params),
                ones,
                "iterate",
                False,
                params,
                gate=False,
            )
        )
    return out
