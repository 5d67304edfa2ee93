"""The benchmark's tracer wraps public ``proxcert`` names; deleting or
renaming one of them must fail here rather than only in a traced run."""

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
