"""The benchmark's tracer wraps public ``proxcert`` names and its workloads
call them, some by position; deleting, renaming or re-signing one of them
must fail here rather than only in a benchmark run."""

from pathlib import Path

import proxcert.problems
import proxcert.solvers

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    run_basic = proxcert.solvers.run_basic
    f_value = proxcert.problems.CompositeProblem.__dict__["f_value"]
    t = tracer.Tracer()
    try:
        t.install()
        assert proxcert.solvers.run_basic is not run_basic
    finally:
        t.uninstall()
    assert proxcert.solvers.run_basic is run_basic
    assert proxcert.problems.CompositeProblem.__dict__["f_value"] is f_value


def test_coverage_trial_passes_its_checks(monkeypatch, tmp_path, capsys):
    # one criterion-5 trial of the benchmark's coverage workload, which calls
    # the bound functions by position; a trial that raises or fails a check
    # reports False
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    coverage = workloads.Coverage(1, str(tmp_path))
    [(secs, ok)] = coverage.run_round(lambda: None)
    assert ok and secs > 0, capsys.readouterr().err
    assert coverage.trials == 1
