"""Show that every output check passes on real outputs and fires on corrupted ones.

    python3 bench/selftest.py

Runs one op of each workload and feeds its outputs to the checks, first
unchanged, then once per corruption (f* raised by 1e-6, a gated bound
column halved, a control perturbed, and more).  Each corruption must make
the named check fail.  Exits 1 if any check does not react as expected.
"""

from __future__ import annotations

import copy
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import proxcert  # noqa: E402

import checks  # noqa: E402
from workloads import Certify, ClosedLoop, Coverage  # noqa: E402

RESULTS = []


def expect(case, failed, check=None):
    """``failed`` lists the checks that fired; ``check`` is the one that must
    (None: nothing may fire)."""
    good = (not failed) if check is None else (check in failed)
    RESULTS.append(good)
    outcome = "nothing fires" if not failed else "fires: " + ", ".join(failed)
    print(f"{'ok  ' if good else 'FAIL'} {case}: {outcome}")


def coverage_cases(workdir):
    wl = Coverage(0, workdir)
    for label, f_star, fired in (
        ("as computed", wl.f_star, None),
        ("raised by 1e-6", wl.f_star + 1e-6, "f_star"),
        ("1e-6 below the dual bound", wl.f_lower - 1e-6, "f_star"),
    ):
        ok = checks.f_star_certified(f_star, wl.f_lower, checks.f_star_tolerance(wl.f_star))
        expect(f"coverage f* {label}", [] if ok else ["f_star"], fired)
    config = proxcert.SolverConfig(
        variant="basic", max_iters=wl.ITERS, grad_error=wl.gspec, prox_error=wl.pspec, seed=11
    )
    trace, monotone, det_vals, rand_vals, reports = wl._trial(config)

    def trial(tr, mono, det):
        return wl.check_trial(tr, mono, det, rand_vals, reports)[0]

    expect("coverage trial as computed", trial(trace, monotone, det_vals))
    expect("coverage thm_basic_det halved", trial(trace, monotone, 0.5 * det_vals), "det_bound_value")
    k = len(det_vals) // 2
    mean_k = trace.xs[1 : k + 2].mean(axis=0)
    gap_k = checks.l1_objective(*wl.data[:3], mean_k, True)[0] - wl.f_lower
    below = det_vals.copy()
    below[k] = 0.5 * gap_k
    expect("coverage thm_basic_det below the gap at one k", trial(trace, monotone, below), "det_bound")
    bad = copy.copy(trace)
    bad.eps1 = trace.eps1.copy()
    bad.eps1[7, 3] = 1.5 * wl.DELTA
    expect("coverage |eps1| above delta", trial(bad, monotone, det_vals), "step_contract")
    bad = copy.copy(trace)
    bad.eps2 = trace.eps2.copy()
    bad.eps2[5] = 0.25 * np.linalg.norm(trace.res[5]) ** 2 / (2.0 * trace.steps[5])
    expect("coverage residual beyond sqrt(2 s eps2)", trial(bad, monotone, det_vals), "step_contract")
    bad = copy.copy(trace)
    bad.xs = trace.xs.copy()
    bad.xs[-1] = wl.x_star + 2.0 * (trace.xs[0] - wl.x_star)
    expect("coverage last iterate moved away from x*", trial(bad, True, det_vals), "fejer")
    wl.trials, wl.rand_violations = 100, 0
    expect("coverage thm_basic_rand rate 0 of 100", [] if wl.finish() else ["rand_rate"])
    wl.rand_violations = 10
    expect("coverage thm_basic_rand rate 10 of 100", [] if wl.finish() else ["rand_rate"], "rand_rate")


def certify_cases(workdir):
    wl = Certify(0, workdir)
    by_out = {Path(s.out).name: s for s in wl.slots}
    for name in ("solve-exact-basic", "solve-abs_gap-accelerated", "mpc-2-accelerated", "mpc-10-basic"):
        slot = by_out[name]
        code = proxcert.cli.main(slot.argv + ["--seed", "3"])
        run = checks.read_run_dir(slot.out, slot.n)

        def corrupted(change, code=code):
            bad = copy.deepcopy(run)
            change(bad)
            return wl.check_slot(slot, code, bad)

        def set_column(column, value):
            def change(bad):
                for row in bad["bound_rows"]:
                    row[column] = value(float(row[column]))
            return change

        def set_summary(key, value):
            return lambda bad: bad["summary"].__setitem__(key, value)

        expect(f"{name} as written", wl.check_slot(slot, code, run))
        expect(f"{name} exit code 4", corrupted(lambda bad: None, code=4), "exit_code")
        gated = "thm_acc_det" if slot.accelerated else "thm_basic_det"
        halve = set_column(gated, lambda v: repr(0.5 * v))
        expect(f"{name} {gated} column halved", corrupted(halve), "gated_bound_value")
        # a bound below the measured gap at every k: the dominance check
        negative = set_column(gated, lambda v: "-1")
        expect(f"{name} {gated} column negative", corrupted(negative), "gated_bound")
        f_star = run["summary"]["f_star"]
        tol = checks.f_star_tolerance(f_star, slot.horizon)
        # at N=10 the tolerance is wider than 1e-6: see checks.F_STAR_REL_TOL_MPC10
        expect(f"{name} f* raised by 1e-6 (tolerance {tol:.2g})",
               corrupted(set_summary("f_star", f_star + 1e-6)), "f_star" if tol < 1e-6 else None)
        expect(f"{name} f* raised by twice its tolerance",
               corrupted(set_summary("f_star", f_star + 2.0 * tol)), "f_star")
        expect(f"{name} trace.csv missing a row",
               corrupted(lambda bad: bad["trace_rows"].pop()), "trace_rows")
        expect(f"{name} iterates.bin short by one value",
               corrupted(lambda bad: bad.__setitem__("iterates_bytes", bad["iterates_bytes"] - 8)),
               "iterates_size")
        expect(f"{name} one gated violation reported",
               corrupted(set_summary("gated_violations", 1)), "gated_violations")
        if slot.rollout is not None:

            def move_f(bad):
                row = bad["trace_rows"][len(bad["trace_rows"]) // 2]
                row["f"] = repr(float(row["f"]) * (1.0 + 1e-6))

            expect(f"{name} one f(x^k) off by 1e-6 relative", corrupted(move_f), "rollout")


def closed_loop_cases(workdir):
    wl = ClosedLoop(0, workdir)
    x0 = wl.rng.uniform(-1.0, 1.0, 7)
    report = proxcert.experiments.mpc_closed_loop(wl.spec, wl.config, wl.STEPS, x0=x0)

    def failed_steps(rep):
        bad_steps = np.flatnonzero(~wl.check_episode(rep))
        return [f"step {t}" for t in bad_steps]

    expect("closed_loop episode as run", failed_steps(report))
    bad = copy.copy(report)
    bad.controls = report.controls.copy()
    bad.controls[5, 2] += 1e-6
    expect("closed_loop control 5 perturbed by 1e-6", failed_steps(bad), "step 5")
    bad = copy.copy(report)
    bad.controls = 0.5 * report.controls
    states = [x0]
    for u in bad.controls:
        states.append(wl.spec.model.a @ states[-1] + wl.spec.model.b @ u)
    bad.states = np.asarray(states)
    expect("closed_loop halved controls, states consistent", failed_steps(bad), "step 0")
    bad = copy.copy(report)
    bad.traces = list(report.traces)
    broken = copy.copy(report.traces[3])
    broken.xs = report.traces[3].xs.copy()
    broken.xs[-1, 0] = np.nan
    bad.traces[3] = broken
    expect("closed_loop solve 3 not finite", failed_steps(bad), "step 3")


def main():
    workdir = HERE / "output" / f"selftest-{time.time_ns()}"
    try:
        coverage_cases(str(workdir / "coverage"))
        certify_cases(str(workdir / "certify"))
        closed_loop_cases(str(workdir / "closed_loop"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{sum(RESULTS)}/{len(RESULTS)} cases reacted as expected")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
