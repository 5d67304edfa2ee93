"""The three benchmark workloads: inputs, operations and their checks.

Each workload builds every input from the seed in its constructor (the
set-up that ``setup_s`` times), then runs whole rounds of operations through
``run_round``.  An operation is timed alone; the checks that follow it are
not.  The program is reached only through ``proxcert.*`` attributes looked
up at call time, so the tracer's wrappers see every call.  Each workload
imports only the modules it uses, inside its constructor, so that
``setup_s`` counts no import the workload does not need.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import proxcert

import checks

clock = time.perf_counter


def make_lasso(rng, n, m):
    """``(1/2)||A x - y||^2 + lam ||x||_1`` with a planted sparse signal:
    A i.i.d. standard normal (m x n), round(0.1 n) entries of +-1, noise
    0.01, ``lam = 0.1 ||A' y||_inf``."""
    a = rng.standard_normal((m, n))
    x_true = np.zeros(n)
    support = rng.choice(n, size=max(1, round(0.1 * n)), replace=False)
    x_true[support] = rng.choice([-1.0, 1.0], size=len(support))
    y = a @ x_true + 0.01 * rng.standard_normal(m)
    return a, y, 0.1 * float(np.abs(a.T @ y).max())


def timed(fn):
    """(seconds, result); the result is None when the operation raised."""
    t0 = clock()
    try:
        result = fn()
    except Exception:  # an op that raises is a failed op, not a crash
        secs = clock() - t0
        traceback.print_exc(file=sys.stderr)
        return secs, None
    return clock() - t0, result


def certified_reference(problem, mat, vec, lam, half, mpc_horizon=None):
    """The program's (x*, f*) plus the benchmark's dual bound and the
    verdict of the f* check."""
    x_star, f_star = proxcert.reference_solution(problem)
    lower = checks.dual_lower_bound(mat, vec, lam, x_star, half)
    ok = checks.f_star_certified(f_star, lower, checks.f_star_tolerance(f_star, mpc_horizon))
    return x_star, f_star, lower, ok


class Coverage:
    """Criterion-5 Monte-Carlo sweep: one op is one certified trial."""

    block_ops = 50  # op_tail_ms at p80
    N, M = 20, 50
    ITERS, DELTA, EPS0, GAMMA = 300, 1e-3, 1e-4, 3.0

    def __init__(self, seed, workdir):
        import proxcert.bounds  # noqa: F401
        self.seed = seed
        a, y, lam = make_lasso(np.random.default_rng([seed, 0]), self.N, self.M)
        self.data = (a, y, lam, True)
        self.problem = proxcert.CompositeProblem.from_quadratic(
            proxcert.QuadraticSmooth(a, y, half=True), lam
        )
        self.x_star, self.f_star, self.f_lower, self.f_star_ok = certified_reference(
            self.problem, a, y, lam, True
        )
        self.gspec = proxcert.GradientErrorSpec(model="absolute", mode="random", delta=self.DELTA)
        self.pspec = proxcert.ProxErrorSpec(mode="target_gap", eps0=self.EPS0)
        self.trials = 0
        self.rand_violations = 0

    def _trial(self, config):
        problem, x_star = self.problem, self.x_star
        bounds = proxcert.bounds
        trace = proxcert.run_basic(problem, config, np.zeros(problem.n))
        monotone = bounds.fejer_monotone(trace, x_star)
        params = bounds.BoundParams.from_trace(
            problem, trace, x_star, model="absolute", delta=self.DELTA, eps0=self.EPS0,
            gamma=self.GAMMA,
        )
        rand_vals, rand_prob = bounds.bound_basic_random_series(trace, params)
        det_vals = bounds.bound_basic_det_series(trace, params, x_star)
        observed = bounds.ObservedGaps.from_trace(problem, trace, self.f_star)
        det = bounds.BoundSeries(
            "thm_basic_det", det_vals, np.ones(trace.num_steps), "ergodic_incl", False, params
        )
        rand = bounds.BoundSeries(
            "thm_basic_rand", rand_vals, rand_prob, "ergodic", True, params, gate=False
        )
        reports = [bounds.check_bound_validity(s, observed) for s in (det, rand)]
        return trace, monotone, det_vals, rand_vals, reports

    def check_trial(self, trace, monotone, det_vals, rand_vals, reports):
        """(names of the failed checks, whether thm_basic_rand was exceeded)
        for one trial, measured with the benchmark's own objective."""
        a, y, lam, half = self.data
        gap_incl = checks.l1_objective(a, y, lam, checks.ergodic_incl_means(trace.xs), half)
        gap_incl -= self.f_lower
        gap = np.concatenate([[np.nan], gap_incl[:-1]])  # mean of x^1..x^k at k
        s = float(trace.steps.min())
        recomputed = checks.det_bound(
            trace.xs, trace.eps1, trace.eps2, trace.res, s, self.x_star, False
        )
        verdicts = {
            "f_star": self.f_star_ok,
            "fejer": monotone and checks.fejer(trace.xs, self.x_star),
            "det_bound": checks.dominates(det_vals, gap_incl) and reports[0].violations == 0,
            "det_bound_value": checks.same_bound(det_vals, recomputed),
            "step_contract": checks.step_contract(
                trace.res, trace.eps2, trace.steps, trace.eps1, self.DELTA, self.EPS0
            ),
        }
        failed = [name for name, ok in verdicts.items() if not ok]
        return failed, bool(np.any(gap[1:] > rand_vals[1:]))

    def run_round(self, mark):
        i = self.trials
        self.trials += 1
        config = proxcert.SolverConfig(
            variant="basic",
            max_iters=self.ITERS,
            grad_error=self.gspec,
            prox_error=self.pspec,
            seed=int(np.random.SeedSequence([self.seed, 1, i]).generate_state(1)[0]),
        )
        mark()
        secs, out = timed(lambda: self._trial(config))
        if out is None:
            return [(secs, False)]
        failed, violated = self.check_trial(*out)
        if failed:
            print(f"coverage trial {i}: failed checks {failed}", file=sys.stderr)
        self.rand_violations += violated
        return [(secs, not failed)]

    def finish(self):
        """thm_basic_rand coverage: violation rate within 2e^{-g^2/2} + 3 sigma."""
        theo = 2.0 * np.exp(-(self.GAMMA**2) / 2.0)
        rate = self.rand_violations / max(self.trials, 1)
        return rate <= checks.violation_limit(theo, max(self.trials, 1))


@dataclass
class Slot:
    """One certification of the cycle and what its checks need."""

    argv: list
    out: str
    n: int
    data: tuple  # (M, v, lam, half) of the solved problem
    accelerated: bool
    x_star: np.ndarray
    f_lower: float
    f_star_ok: bool
    horizon: Optional[int] = None
    rollout: Optional[Callable] = None


class Certify:
    """A fixed cycle of in-process ``proxcert.cli.main`` certifications."""

    block_ops = 36  # three cycles; op_tail_ms at p72.2
    N, M = 100, 500
    # (name, [errors] settings); each runs basic and accelerated on `solve`
    ERROR_MODELS = (
        ("exact", {}),
        ("abs_gap", {"delta": "1e-3", "eps0": "1e-4"}),
        ("relative", {"grad_model": "relative", "delta": "1e-3"}),
        ("fixed_s16.8", {"format": "s16.8"}),
        ("inner", {"solver_tol": "1e-6"}),
    )
    SOLVE_ITERS = 100
    # (variant, horizon, iterations) of the `mpc` runs
    MPC_RUNS = (("basic", 10, 300), ("accelerated", 2, 20))
    MPC_ERRORS = {"delta": "1e-3", "eps0": "1e-4"}

    def __init__(self, seed, workdir):
        import proxcert.cli  # noqa: F401
        import proxcert.experiments  # noqa: F401
        self.seed = seed
        self.cycles = 0
        os.makedirs(workdir, exist_ok=True)
        self.problems = []  # per variant: (path, data, x_star, f_lower, f_star_ok)
        for k, variant in enumerate(("basic", "accelerated")):
            a, y, lam = make_lasso(np.random.default_rng([seed, 10 + k]), self.N, self.M)
            path = os.path.join(workdir, f"problem-{variant}.json")
            doc = {"n": self.N, "M": a.ravel().tolist(), "v": y.tolist(), "scale": 0.5,
                   "lambda": lam}
            with open(path, "w") as fh:
                json.dump(doc, fh)
            problem = proxcert.CompositeProblem.from_quadratic(
                proxcert.QuadraticSmooth(a, y, half=True), lam
            )
            x_star, _, lower, ok = certified_reference(problem, a, y, lam, True)
            self.problems.append((path, (a, y, lam, True), x_star, lower, ok))
        self.slots = []
        for name, errors in self.ERROR_MODELS:
            for k, variant in enumerate(("basic", "accelerated")):
                path, data, x_star, lower, ok = self.problems[k]
                out = os.path.join(workdir, f"solve-{name}-{variant}")
                ini = self._write_ini(
                    out + ".ini",
                    {"run": {"out": out, "iters": self.SOLVE_ITERS}, "problem": {"file": path},
                     "solver": {"variant": variant}, "errors": errors},
                )
                self.slots.append(
                    Slot(["solve", "--config", ini], out, self.N, data, k == 1, x_star, lower, ok)
                )
        rng = np.random.default_rng([seed, 20])
        for variant, horizon, iters in self.MPC_RUNS:
            x0 = rng.uniform(-1.0, 1.0, 7)
            spec = proxcert.experiments.spacecraft_mpc(n_p=horizon, x0=x0)
            problem = proxcert.experiments.mpc_to_lasso(spec)
            mat, vec, lam = problem.smooth.mat, problem.smooth.vec, problem.reg.lam
            x_star, _, lower, ok = certified_reference(problem, mat, vec, lam, False, horizon)
            out = os.path.join(workdir, f"mpc-{horizon}-{variant}")
            ini = self._write_ini(
                out + ".ini",
                {"run": {"out": out, "iters": iters}, "solver": {"variant": variant},
                 "mpc": {"n_p": horizon, "x0": ",".join(repr(float(v)) for v in x0)},
                 "errors": self.MPC_ERRORS},
            )

            def rollout(xs, spec=spec):
                return checks.rollout_cost(
                    spec.model.a, spec.model.b, spec.q_step, spec.r_step, spec.lam, spec.x0, xs,
                    spec.n_p, spec.n_c,
                )

            self.slots.append(
                Slot(["mpc", "--config", ini], out, problem.n, (mat, vec, lam, False),
                     variant == "accelerated", x_star, lower, ok, horizon, rollout)
            )

    @staticmethod
    def _write_ini(path, sections):
        lines = []
        for sec, values in sections.items():
            lines.append(f"[{sec}]")
            lines.extend(f"{k} = {v}" for k, v in values.items())
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return path

    @staticmethod
    def check_slot(slot, code, run=None):
        """Names of the failed checks of one certification (empty when all pass)."""
        if code != 0:
            return ["exit_code"]
        if run is None:
            run = checks.read_run_dir(slot.out, slot.n)
        tol = checks.f_star_tolerance(float(run["summary"]["f_star"]), slot.horizon)
        failed = checks.check_run_dir(
            run, slot.n, slot.data, slot.accelerated, slot.x_star, slot.f_lower, tol, slot.rollout
        )
        return failed if slot.f_star_ok else ["reference_f_star"] + failed

    def run_round(self, mark):
        seed = str(self.seed * 1000 + self.cycles)
        self.cycles += 1
        results = []
        for slot in self.slots:
            argv = slot.argv + ["--seed", seed]
            with contextlib.redirect_stdout(io.StringIO()):
                mark()
                secs, code = timed(lambda: proxcert.cli.main(argv))
            try:
                failed = self.check_slot(slot, code)
            except (OSError, ValueError, KeyError):
                traceback.print_exc(file=sys.stderr)
                failed = ["unreadable_run_dir"]
            if failed:
                print(f"certify {slot.out}: failed checks {failed}", file=sys.stderr)
            results.append((secs, not failed))
        return results

    def finish(self):
        return True


class ClosedLoop:
    """Receding-horizon spacecraft regulation: one op is one control step."""

    block_ops = 100  # four episodes; op_tail_ms at p90
    HORIZON, ITERS, FORMAT = 10, 20, "s24.12"
    STEPS = 25
    # final state norm over initial, after STEPS steps
    REGULATION_FRACTION = 0.01

    def __init__(self, seed, workdir):
        import proxcert.experiments.mpc  # noqa: F401
        self.rng = np.random.default_rng([seed, 30])
        self.spec = proxcert.experiments.spacecraft_mpc(n_p=self.HORIZON)
        proxcert.experiments.mpc_to_lasso(self.spec)  # condensation, cached Psi/Phi
        self.config = proxcert.SolverConfig(
            variant="accelerated",
            max_iters=self.ITERS,
            grad_error=proxcert.FixedPointFormat.parse(self.FORMAT),
        )

    def check_episode(self, report):
        """Per-step verdicts for one episode."""
        model = self.spec.model
        ok = np.zeros(self.STEPS, dtype=bool)
        done = len(report.controls)
        if report.status != "ok" or done != self.STEPS:
            return ok
        finite = np.array([np.all(np.isfinite(t.xs)) for t in report.traces])
        errs = checks.resimulation_errors(model.a, model.b, report.states, report.controls)
        ok[:] = finite & (errs <= checks.RESIM_REL_TOL)
        if not checks.regulated(report.states, self.REGULATION_FRACTION):
            ok[:] = False
        return ok

    def run_round(self, mark):
        x0 = self.rng.uniform(-1.0, 1.0, 7)
        mod = proxcert.experiments.mpc
        condense = mod.mpc_to_lasso
        stamps = []

        def stamped(spec):  # each condensation starts a control step
            mark()
            stamps.append(clock())
            return condense(spec)

        mod.mpc_to_lasso = stamped
        report = None
        t0 = clock()
        try:
            report = proxcert.experiments.mpc_closed_loop(self.spec, self.config, self.STEPS, x0=x0)
        except Exception:  # an episode that raises fails all its steps
            traceback.print_exc(file=sys.stderr)
        finally:
            t_end = clock()
            mod.mpc_to_lasso = condense
        if report is None or len(stamps) != self.STEPS:
            return [((t_end - t0) / self.STEPS, False)] * self.STEPS
        times = np.diff([t0] + stamps[1:] + [t_end])
        return list(zip(times.tolist(), self.check_episode(report).tolist()))

    def finish(self):
        return True


WORKLOADS = {"coverage": Coverage, "certify": Certify, "closed_loop": ClosedLoop}
