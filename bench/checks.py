"""Output checks made apart from the program.

Every function here works on plain numpy arrays or on files a run left
behind, so the self-test can feed it corrupted copies.  Nothing here calls
into ``proxcert``: objectives, dual bounds, ergodic means and the dynamics
are recomputed with numpy alone.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

# The program's f* must lie at most this far above the certified dual bound:
# an absolute part for every problem, plus a relative part for the condensed
# MPC at N=10, whose reference stops with duality gaps up to 6.2e-6
# (2.4e-8 of f*) on initial states drawn from [-1, 1]^7.
F_STAR_ABS_TOL = 5e-7
F_STAR_REL_TOL_MPC10 = 1e-7
# Rounding allowance when comparing f* with a bound it must not fall below.
F_STAR_FLOOR_SLACK = 1e-12
# Condensed objective differences against the rollout, relative to its size.
ROLLOUT_REL_TOL = 1e-9
# Re-simulated closed-loop states against the reported ones.
RESIM_REL_TOL = 1e-12
# Reported deterministic bound against the benchmark's recomputation.
BOUND_REL_TOL = 1e-9
# Allowance on the residual lemma for the last bits of sqrt(2 s eps2).
RESIDUAL_REL_SLACK = 1e-9


def l1_objective(mat, vec, lam, xs, half):
    """``c * ||M x - v||^2 + lam * ||x||_1`` for each row of ``xs``."""
    xs = np.atleast_2d(xs)
    r = xs @ mat.T - vec
    quad = np.einsum("ij,ij->i", r, r)
    return (0.5 if half else 1.0) * quad + lam * np.abs(xs).sum(axis=1)


def dual_lower_bound(mat, vec, lam, x, half):
    """Certified lower bound on min f by rescaling the residual at ``x``.

    For ``(1/2)||A x - y||^2 + lam ||x||_1`` the point
    ``theta = r / max(1, ||A' r||_inf / lam)`` with ``r = y - A x`` is dual
    feasible and ``D(theta) = ||y||^2/2 - ||y - theta||^2/2 <= f*``
    (Fercoq, Gramfort & Salmon, ICML 2015).  The unscaled form
    ``||M x - v||^2`` is the same problem with ``A = sqrt(2) M``,
    ``y = sqrt(2) v``.
    """
    a, y = (mat, vec) if half else (np.sqrt(2.0) * mat, np.sqrt(2.0) * vec)
    r = y - a @ x
    scale = max(1.0, float(np.abs(a.T @ r).max()) / lam) if lam > 0 else 1.0
    theta = r / scale
    return 0.5 * float(y @ y) - 0.5 * float((y - theta) @ (y - theta))


def f_star_tolerance(f_star, mpc_horizon=None):
    rel = F_STAR_REL_TOL_MPC10 if mpc_horizon == 10 else 0.0
    return F_STAR_ABS_TOL + rel * abs(f_star)


def f_star_certified(f_star, lower, tol):
    """The program's f* lies in ``[lower, lower + tol]``."""
    slack = F_STAR_FLOOR_SLACK * max(1.0, abs(lower))
    return bool(lower - slack <= f_star <= lower + tol)


def ergodic_incl_means(xs):
    """Mean of x^1..x^{k+1} for k = 0..T-1."""
    return np.cumsum(xs[1:], axis=0) / np.arange(1, len(xs))[:, None]


def dominates(bound, gap):
    """Every finite bound value is at least the gap at the same k."""
    mask = np.isfinite(bound)
    return bool(mask.any() and np.all(bound[mask] >= gap[mask]))


def fista_alphas(t):
    """alpha_0 = 1, alpha_k = (1 + sqrt(1 + 4 alpha_{k-1}^2)) / 2."""
    alphas = np.empty(t)
    a = 1.0
    for k in range(t):
        alphas[k] = a
        a = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * a * a))
    return alphas


def det_bound(xs, eps1, eps2, res, s, x_star, accelerated):
    """The deterministic theorems' right-hand sides for k = 0..T-1, from the
    realized errors eps1, eps2, residuals r and iterates x^0..x^T.

    Basic (ergodic mean of x^1..x^{k+1}):
    ``(sum eps2 + sum <eps1 - r/s, x* - x^{i+1}> + ||x* - x^0||^2/2s
    - sum ||r||^2/2s - ||x* - x^{k+1}||^2/2s) / (k+1)``.
    Accelerated (x^{k+1}): ``(sum a_i^2 eps2 + sum a_i <eps1 - r/s, u^{i+1}>
    + ||x* - x^0||^2/2s) / a_k^2`` with
    ``u^{i+1} = x* - x^{i+1} + (1 - a_i)(x^{i+1} - x^i)``.
    """
    d0_sq = float((x_star - xs[0]) @ (x_star - xs[0]))
    nu = eps1 - res / s
    if not accelerated:
        to_star = x_star - xs[1:]
        total = (
            np.cumsum(eps2)
            + np.cumsum(np.einsum("ij,ij->i", nu, to_star))
            + d0_sq / (2.0 * s)
            - np.cumsum(np.einsum("ij,ij->i", res, res)) / (2.0 * s)
            - np.einsum("ij,ij->i", to_star, to_star) / (2.0 * s)
        )
        return total / np.arange(1, len(eps2) + 1)
    alphas = fista_alphas(len(eps2))
    u = x_star - xs[1:] + (1.0 - alphas)[:, None] * np.diff(xs, axis=0)
    total = (
        np.cumsum(alphas**2 * eps2)
        + np.cumsum(alphas * np.einsum("ij,ij->i", nu, u))
        + d0_sq / (2.0 * s)
    )
    return total / alphas**2


def same_bound(reported, recomputed):
    """The reported bound column equals the recomputed one at every k."""
    scale = np.maximum(np.abs(recomputed), 1.0)
    if len(reported) != len(recomputed):
        return False
    return bool(np.all(np.abs(reported - recomputed) <= BOUND_REL_TOL * scale))


def step_contract(res, eps2, steps, eps1, delta, eps0):
    """Per-step error contract of the absolute-random / target-gap models:
    ``||r|| <= sqrt(2 s eps2)``, ``0 <= eps2 <= eps0``, ``|eps1_j| <= delta``."""
    res_norm = np.linalg.norm(res, axis=1)
    radius = np.sqrt(2.0 * steps * np.maximum(eps2, 0.0))
    return bool(
        np.all(res_norm <= radius * (1.0 + RESIDUAL_REL_SLACK))
        and np.all(eps2 >= 0.0)
        and np.all(eps2 <= eps0)
        and np.all(np.abs(eps1) <= delta)
    )


def fejer(xs, x_star):
    dists = np.linalg.norm(xs - x_star, axis=1)
    return bool(np.all(dists <= dists[0] * (1.0 + 1e-12)))


def violation_limit(theoretical, trials):
    """``theoretical + 3 sigma`` of a binomial rate over ``trials``."""
    return theoretical + 3.0 * np.sqrt(theoretical * (1.0 - theoretical) / trials)


def resimulation_errors(a, b, states, controls):
    """Per-step mismatch between reported x^{t+1} and ``A x^t + B u^t``,
    relative to the state size."""
    predicted = states[:-1] @ a.T + controls @ b.T
    scale = np.maximum(1.0, np.abs(states[1:]).max(axis=1))
    return np.abs(predicted - states[1:]).max(axis=1) / scale


def regulated(states, fraction):
    return bool(np.linalg.norm(states[-1]) <= fraction * np.linalg.norm(states[0]))


def rollout_cost(model_a, model_b, q_step, r_step, lam, x0, moves, n_p, n_c):
    """Rollout cost plus ``lam ||U||_1`` for each move sequence row, by
    explicit simulation (zero setpoint, zero moves past the control horizon)."""
    moves = np.atleast_2d(moves)
    p = model_b.shape[1]
    k = moves.shape[0]
    x = np.tile(np.asarray(x0, dtype=float), (k, 1))
    cost = np.zeros(k)
    for step in range(n_p):
        u = moves[:, step * p : (step + 1) * p] if step < n_c else np.zeros((k, p))
        x = x @ model_a.T + u @ model_b.T
        cost += (x * x) @ q_step
    u_all = moves.reshape(k, n_c, p)
    cost += np.einsum("kcp,p->k", u_all * u_all, r_step)
    return cost + lam * np.abs(moves).sum(axis=1)


def differences_match(f_reported, f_independent, rel_tol=ROLLOUT_REL_TOL):
    """``f(x^k) - f(x^0)`` agree between the two evaluations."""
    d_rep = f_reported - f_reported[0]
    d_ind = f_independent - f_independent[0]
    scale = max(1.0, float(np.abs(f_independent).max()))
    return bool(np.all(np.abs(d_rep - d_ind) <= rel_tol * scale))


# ---------------------------------------------------------------------------
# run-directory checks (certify)
# ---------------------------------------------------------------------------


def read_run_dir(path, n):
    """Summary, trace.csv rows, bounds.csv columns and iterates of a run."""
    with open(os.path.join(path, "summary.json")) as fh:
        summary = json.load(fh)
    with open(os.path.join(path, "trace.csv"), newline="") as fh:
        trace_rows = list(csv.DictReader(fh))
    with open(os.path.join(path, "bounds.csv"), newline="") as fh:
        bound_rows = list(csv.DictReader(fh))
    with open(os.path.join(path, "iterates.bin"), "rb") as fh:
        raw = fh.read()
    with np.load(os.path.join(path, "trace.npz")) as data:
        errors = {key: data[key] for key in ("eps1", "eps2", "res", "steps")}
    return {
        "summary": summary,
        "trace_rows": trace_rows,
        "bound_rows": bound_rows,
        "errors": errors,
        "iterates_bytes": len(raw),
        "xs": np.frombuffer(raw, dtype="<f8").reshape(-1, n) if len(raw) % (8 * n) == 0 else None,
    }


def column(rows, name):
    return np.array([float(r[name]) if r[name] != "" else np.nan for r in rows])


def check_run_dir(run, n, problem, accelerated, x_star, f_lower, f_tol, rollout=None):
    """Failed check names for one certification run (empty when all pass).

    ``problem`` is ``(M, v, lam, half)`` of the solved problem, ``x_star``
    the reference point the bound is stated for and ``f_lower`` the
    benchmark's dual bound on f*.  ``rollout``, given for MPC runs, maps the
    iterates to rollout cost plus the l1 term.
    """
    failed = []
    summary = run["summary"]
    t = int(summary["iterations"])
    if summary.get("gated_violations") != 0:
        failed.append("gated_violations")
    if not f_star_certified(float(summary["f_star"]), f_lower, f_tol):
        failed.append("f_star")
    rows_ok = len(run["trace_rows"]) == t + 1
    if not rows_ok:
        failed.append("trace_rows")
    if run["iterates_bytes"] != (t + 1) * n * 8 or run["xs"] is None:
        failed.append("iterates_size")
        return failed
    xs = run["xs"]
    mat, vec, lam, half = problem
    if accelerated:
        gated = column(run["bound_rows"], "thm_acc_det")
        gap = l1_objective(mat, vec, lam, xs[1:], half) - f_lower  # iterate_next
    else:
        gated = column(run["bound_rows"], "thm_basic_det")
        gap = l1_objective(mat, vec, lam, ergodic_incl_means(xs), half) - f_lower
    if len(gated) != t or not dominates(gated, gap):
        failed.append("gated_bound")
    err = run["errors"]
    s = float(err["steps"].min())
    recomputed = det_bound(xs, err["eps1"], err["eps2"], err["res"], s, x_star, accelerated)
    if not same_bound(gated, recomputed):
        failed.append("gated_bound_value")
    if rollout is not None and rows_ok:
        f_csv = column(run["trace_rows"], "f")
        if not differences_match(f_csv, rollout(xs)):
            failed.append("rollout")
    return failed
