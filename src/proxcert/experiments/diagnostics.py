"""Statistical validation suites: martingale drift and concentration coverage.

The martingale diagnostic estimates the conditional mean of the cumulative
error-term increments by binning on the running sum; symmetric injectors
should show no drift, deliberately biased ones should.  The coverage suites
draw bounded-increment martingales / bounded i.i.d. sums and compare the
empirical tail exceedance with the stated concentration bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..bounds import error_increments
from ..solvers import SolverConfig, run

BINS = 10  # equal-probability bins of the martingale diagnostic


@dataclass
class DiagnosticReport:
    name: str
    trials: int
    statistics: dict
    thresholds: dict
    status: str  # "pass" | "fail" | "inconclusive"
    details: list = field(default_factory=list)


def martingale_diagnostic(
    problem,
    grad_spec,
    prox_spec,
    trials,
    k_max,
    x_star,
    seed=0,
    variant="basic",
):
    """Monte-Carlo zero-drift check of the cumulative error term.

    Runs start from 0.  Pools (T_{k-1}, dT_k) pairs over iterations and
    trials, bins them into ``BINS`` equal-probability bins on T_{k-1}, and
    flags drift when any bin's mean increment exceeds ``4 / sqrt(bin count)``
    increment standard deviations.  Fewer than 100 trials or under 30 pairs
    per bin is inconclusive.
    """
    x0 = np.zeros(problem.n)
    seeds = np.random.SeedSequence(seed).generate_state(trials)
    befores, incrs = [], []
    for trial_seed in seeds:
        config = SolverConfig(
            variant=variant,
            max_iters=k_max,
            grad_error=grad_spec,
            prox_error=prox_spec,
            seed=int(trial_seed),
        )
        trace = run(problem, config, x0)
        incr = error_increments(trace, x_star, trace.steps, variant == "accelerated")
        befores.append(np.concatenate([[0.0], np.cumsum(incr)[:-1]]))  # T_{k-1}
        incrs.append(incr)
    before = np.concatenate(befores)
    incr = np.concatenate(incrs)
    std = float(incr.std())
    if std == 0.0:
        # zero errors: the term is identically zero
        return DiagnosticReport(
            name=f"martingale-{variant}",
            trials=trials,
            statistics={"max_drift_ratio": 0.0, "increment_std": 0.0},
            thresholds={"max_drift_ratio": 0.0, "min_trials": 100, "min_bin_count": 30},
            status="pass",
        )
    edges = np.quantile(before, np.linspace(0.0, 1.0, BINS + 1))
    which = np.clip(np.searchsorted(edges, before, side="right") - 1, 0, BINS - 1)
    bin_means, bin_counts = [], []
    for b in range(BINS):
        sel = which == b
        cnt = int(sel.sum())
        bin_counts.append(cnt)
        bin_means.append(float(incr[sel].mean()) if cnt else 0.0)
    min_count = min(bin_counts)
    ratio = max(abs(m) for m in bin_means) / std
    threshold = 4.0 / np.sqrt(max(min_count, 1))
    stats = {
        "max_drift_ratio": ratio,
        "increment_std": std,
        "min_bin_count": min_count,
        "pairs": int(len(incr)),
    }
    thresholds = {"max_drift_ratio": threshold, "min_trials": 100, "min_bin_count": 30}
    if trials < 100 or min_count < 30:
        status = "inconclusive"
    else:
        status = "pass" if ratio <= threshold else "fail"
    return DiagnosticReport(
        name=f"martingale-{variant}",
        trials=trials,
        statistics=stats,
        thresholds=thresholds,
        status=status,
        details=[{"bin": b, "count": bin_counts[b], "mean": bin_means[b]} for b in range(BINS)],
    )


def _coverage_report(name, gammas, trials, tail):
    """Per-gamma coverage report; ``tail(gamma)`` is the (empirical,
    theoretical) exceedance.  A gamma passes when the empirical rate is at
    most the theoretical one plus 3 binomial sigmas."""
    stats, details = {}, []
    for gamma in gammas:
        empirical, theoretical = tail(gamma)
        theo = min(theoretical, 1.0)
        limit = theoretical + 3.0 * np.sqrt(theo * (1.0 - theo) / trials)
        stats[f"gamma={gamma}"] = empirical
        details.append(
            {"gamma": gamma, "empirical": empirical, "theoretical": theoretical, "limit": limit}
        )
    return DiagnosticReport(
        name=name,
        trials=trials,
        statistics=stats,
        thresholds={d["gamma"]: d["limit"] for d in details},
        status="pass" if all(d["empirical"] <= d["limit"] for d in details) else "fail",
        details=details,
    )


def azuma_coverage(c_schedule, gammas, trials, seed=0):
    """Tail coverage of bounded-increment martingales.

    Samples Rademacher martingales with |increment_i| <= c_i and compares
    Pr(|E_k - E_0| > gamma * sqrt(sum c_i^2)) against 2 exp(-gamma^2 / 2).
    """
    c = np.asarray(c_schedule, dtype=float)
    if np.any(c < 0):
        raise ValueError("increment bounds must be nonnegative")
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=(trials, len(c)))
    sums = signs @ c
    radius = float(np.sqrt((c**2).sum()))
    return _coverage_report(
        "azuma-coverage",
        gammas,
        trials,
        lambda g: (float(np.mean(np.abs(sums) > g * radius)), 2.0 * np.exp(-(g**2) / 2.0)),
    )


def hoeffding_coverage(lo, hi, k, gammas, trials, seed=0):
    """Tail coverage of bounded i.i.d. sums.

    Uniform[lo, hi] summands; deviation threshold t = gamma sqrt(k) (hi-lo)/2
    gives the bound 2 exp(-gamma^2/2).  A degenerate range (hi == lo) makes
    the bound vacuous.
    """
    if hi < lo:
        raise ValueError("need hi >= lo")
    rng = np.random.default_rng(seed)
    draws = rng.uniform(lo, hi, size=(trials, k)) if hi > lo else np.full((trials, k), lo)
    dev = np.abs(draws.sum(axis=1) - k * (lo + hi) / 2.0)
    return _coverage_report(
        "hoeffding-coverage",
        gammas,
        trials,
        lambda g: (
            float(np.mean(dev >= g * np.sqrt(k) * (hi - lo) / 2.0)),
            2.0 if hi == lo else 2.0 * np.exp(-(g**2) / 2.0),
        ),
    )
