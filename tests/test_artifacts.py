import dataclasses

import numpy as np
import pytest

from proxcert import (
    BoundParams,
    GradientErrorSpec,
    ProxErrorSpec,
    SolverConfig,
    run_accelerated,
    run_basic,
)
from proxcert.artifacts import (
    load_trace_npz, save_trace_npz, write_bounds_csv, write_comparison_csv, write_trace_csv,
)
from proxcert.bounds import BoundSeries, ObservedGaps, evaluate_all_series
from proxcert.solvers import RunTrace

from oracles import bounds_csv_text, comparison_csv_text, diverging, trace_csv_text

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1, -1.0 / 3.0]


def runs(problem):
    """A basic, an accelerated (noisy) and a diverged run."""
    noisy = dict(
        grad_error=GradientErrorSpec(model="absolute", mode="random", delta=1e-3),
        prox_error=ProxErrorSpec(mode="target_gap", eps0=1e-4),
        seed=2,
    )
    x0 = np.zeros(problem.n)
    yield run_basic(problem, SolverConfig(max_iters=40), x0)
    yield run_accelerated(problem, SolverConfig(max_iters=40, **noisy), x0)
    diverged = run_basic(diverging(problem), SolverConfig(max_iters=2000), x0)
    assert diverged.status == "non-finite-iterate"
    yield diverged


def planted(trace):
    """The trace with every special value planted in its step and f columns."""
    def plant(a):
        a = np.array(a, dtype=float)
        flat = a.reshape(len(a), -1)
        flat[: len(SPECIAL), 0] = SPECIAL[: len(flat)]
        return a

    return dataclasses.replace(
        trace,
        fvals=plant(trace.fvals),
        steps=plant(trace.steps),
        eps1=plant(trace.eps1),
        eps2=plant(trace.eps2),
        res=plant(trace.res),
        xs=plant(trace.xs),
    )


def special_series(t):
    values = np.resize(np.array(SPECIAL), t)
    return BoundSeries("thm_basic_rand", values, values[::-1].copy(), "ergodic", True, None)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the diverged run overflows
class TestCsvWritersMatchPerCellOracle:
    """The column-at-a-time writers give the bytes of the per-cell loops."""

    def check(self, path, text):
        assert path.read_bytes() == text.encode()

    def test_trace_csv(self, tmp_path, small_lasso, small_lasso_ref):
        _, f_star = small_lasso_ref
        path = tmp_path / "trace.csv"
        for trace in runs(small_lasso):
            for tr in (trace, planted(trace)):
                for fs in (f_star, None, -0.0):
                    write_trace_csv(path, tr, fs)
                    self.check(path, trace_csv_text(tr, fs))

    def test_bounds_and_comparison_csv(self, tmp_path, small_lasso, small_lasso_ref):
        x_star, f_star = small_lasso_ref
        bounds, comparison = tmp_path / "bounds.csv", tmp_path / "comparison.csv"
        for trace in runs(small_lasso):
            params = BoundParams.from_trace(small_lasso, trace, x_star, model="absolute")
            series = evaluate_all_series(trace, params, x_star)
            gaps = ObservedGaps.from_trace(small_lasso, trace, f_star)
            gap = gaps.iterate_next if trace.ys is not None else gaps.ergodic_incl
            baseline = "schmidt_acc" if trace.ys is not None else "schmidt_basic"
            with_special = [special_series(len(gap))] + series[1:]
            cases = [series, series[::2], [], with_special, [s for s in series if s.gate]]
            for lst in cases:
                for g in (gap, np.resize(np.array(SPECIAL), len(gap))):
                    write_bounds_csv(bounds, lst, g)
                    self.check(bounds, bounds_csv_text(lst, g))
                    for base in (baseline, "absent"):
                        write_comparison_csv(comparison, lst, g, base)
                        self.check(comparison, comparison_csv_text(lst, g, base))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the diverged run overflows
def test_trace_npz_round_trip(tmp_path, small_lasso):
    # every array of a basic, an accelerated and a diverged run comes back
    # to the bit; a basic run has no ys
    path = tmp_path / "trace.npz"
    for trace in runs(small_lasso):
        save_trace_npz(path, trace)
        loaded = load_trace_npz(path)
        assert loaded.status == "loaded"
        for name in (f.name for f in dataclasses.fields(RunTrace) if f.name != "status"):
            stored, back = getattr(trace, name), getattr(loaded, name)
            if name == "ys" and stored is None:
                assert back is None
                continue
            assert (back.dtype, back.shape) == (stored.dtype, stored.shape), name
            assert back.tobytes() == stored.tobytes(), name
