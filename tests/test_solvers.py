import math

import numpy as np
import pytest

from proxcert import (
    CompositeProblem,
    FixedPointFormat,
    GradientErrorSpec,
    L1Term,
    OracleError,
    ProxErrorSpec,
    QuadraticSmooth,
    SolverConfig,
    StepsizePolicy,
    run_accelerated,
    run_basic,
)
from proxcert.problems import problem_from_json
import proxcert.errors as errors
import proxcert.solvers as solvers
from proxcert.errors import draw_tape
from proxcert.experiments import gen_lasso, lasso_problem, mpc_to_lasso, spacecraft_mpc
from proxcert.solvers import alpha_series, reference_solution

from oracles import gap_rounding_floor, grid_min, l1_dual_bound, reference_run


def separable_problem(c, lam):
    """g = (1/2)||x - c||^2 + lam ||x||_1; optimum soft(c, lam), L = 1."""
    c = np.asarray(c, dtype=float)
    quad = QuadraticSmooth(np.eye(len(c)), c, half=True)
    return CompositeProblem.from_quadratic(quad, lam)


def counted(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records each call; returns the record."""
    calls = []
    fn = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(a) or fn(*a, **k))
    return calls


def pc_from_quad(quad):
    return CompositeProblem.from_quadratic(quad, 0.0)


class TestAlphaSequence:
    def test_fista_first_value_is_golden_root(self):
        # closed root of a^2 - a - 1 = 0
        assert alpha_series("fista", 1)[-1] == pytest.approx(1.6180339887, abs=1e-9)

    def test_linear_example(self):
        assert alpha_series("linear", 3)[-1] == 2.5

    def test_fista_recursion_holds_to_1e12(self):
        a = alpha_series("fista", 10_000)
        resid = a[1:] ** 2 - a[1:] - a[:-1] ** 2
        scale = np.maximum(1.0, a[:-1] ** 2)
        assert np.abs(resid / scale).max() <= 1e-12

    def test_alpha0_is_one(self):
        for rule in ("fista", "linear", "none"):
            assert alpha_series(rule, 0)[-1] == 1.0

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            alpha_series("nesterov", 3)


class TestRunBasic:
    def test_converges_to_coordinatewise_optimum(self):
        c = np.array([1.5, -0.4])
        lam = 0.5
        prob = separable_problem(c, lam)
        # independent oracle: per-coordinate grid minimization of the KKT objective
        oracle = np.array(
            [grid_min(lambda t, cj=cj: 0.5 * (t - cj) ** 2 + lam * abs(t), -3, 3) for cj in c]
        )
        expected = np.sign(c) * np.maximum(np.abs(c) - lam, 0)
        assert np.allclose(oracle, expected, atol=1e-8)
        cfg = SolverConfig(variant="basic", max_iters=400)
        trace = run_basic(prob, cfg, np.zeros(2))
        assert np.allclose(trace.xs[-1], expected, atol=1e-8)

    def test_zero_errors_give_zero_error_columns(self, small_lasso):
        cfg = SolverConfig(variant="basic", max_iters=30)
        trace = run_basic(small_lasso, cfg, np.zeros(small_lasso.n))
        assert np.all(trace.eps1 == 0.0)
        assert np.all(trace.eps2 == 0.0)
        assert np.all(trace.res == 0.0)

    def test_zero_errors_monotone_f(self, small_lasso):
        cfg = SolverConfig(variant="basic", max_iters=100)
        trace = run_basic(small_lasso, cfg, np.zeros(small_lasso.n))
        assert np.all(np.diff(trace.fvals) <= 1e-12)

    def test_constant_prox_error_leaves_floor(self, small_lasso, small_lasso_ref):
        x_star, f_star = small_lasso_ref
        eps0 = 1e-3
        pspec = ProxErrorSpec(mode="target_gap", schedule=tuple([eps0] * 600))
        cfg = SolverConfig(variant="basic", max_iters=600, prox_error=pspec, seed=2)
        trace = run_basic(small_lasso, cfg, np.zeros(small_lasso.n))
        tail = trace.fvals[300:] - f_star
        # stagnates near a positive floor rather than converging to zero
        assert tail.min() > 1e-7
        exact = run_basic(
            small_lasso, SolverConfig(variant="basic", max_iters=600), np.zeros(small_lasso.n)
        )
        assert tail.min() > 100 * (exact.fvals[300:] - f_star).min()

    def test_trace_residual_lemma_rowwise(self, small_lasso):
        pspec = ProxErrorSpec(mode="target_gap", eps0=1e-4)
        cfg = SolverConfig(variant="basic", max_iters=50, prox_error=pspec, seed=5)
        trace = run_basic(small_lasso, cfg, np.zeros(small_lasso.n))
        assert np.all(
            trace.res_norms() <= np.sqrt(2 * trace.steps * trace.eps2) + 1e-10
        )

    def test_abstol_stop(self, small_lasso):
        cfg = SolverConfig(variant="basic", max_iters=10_000, abstol=1e-6)
        trace = run_basic(small_lasso, cfg, np.zeros(small_lasso.n))
        assert trace.status == "converged"
        assert trace.num_steps < 10_000
        assert trace.x_change()[-1] <= 1e-6

    def test_non_finite_iterate_reports_partial_trace(self, small_lasso):
        # wildly oversized stepsize diverges to overflow
        cfg = SolverConfig(
            variant="basic",
            stepsize=StepsizePolicy.constant(1e6),
            max_iters=10_000,
        )
        trace = run_basic(small_lasso, cfg, np.ones(small_lasso.n))
        assert trace.status == "non-finite-iterate"
        assert trace.num_steps < 10_000


class TestRunAccelerated:
    def test_error_free_rate(self, small_lasso, small_lasso_ref):
        x_star, f_star = small_lasso_ref
        s = 1.0 / small_lasso.lipschitz
        cfg = SolverConfig(variant="accelerated", max_iters=21)
        trace = run_accelerated(small_lasso, cfg, np.zeros(small_lasso.n))
        d2 = np.linalg.norm(x_star) ** 2
        k = 20
        assert trace.fvals[k + 1] - f_star <= d2 / (2 * s * trace.alphas[k] ** 2)

    def test_error_free_rate_pure_quadratic(self, rng):
        # strongly convex quadratic, no nonsmooth part
        mat = rng.standard_normal((8, 4)) + 2 * np.eye(8, 4)
        vec = rng.standard_normal(8)
        quad = QuadraticSmooth(mat, vec, half=True)
        prob = pc_from_quad(quad)
        x_star, *_ = np.linalg.lstsq(mat, vec, rcond=None)
        f_star = prob.f_value(x_star)
        s = 1.0 / prob.lipschitz
        trace = run_accelerated(
            prob, SolverConfig(variant="accelerated", max_iters=21), np.zeros(4)
        )
        k = 20
        d2 = np.linalg.norm(x_star) ** 2
        assert trace.fvals[k + 1] - f_star <= d2 / (2 * s * trace.alphas[k] ** 2)

    def test_beta_zero_recovers_basic(self, small_lasso):
        gspec = GradientErrorSpec(model="absolute", mode="random", delta=1e-3)
        pspec = ProxErrorSpec(mode="target_gap", eps0=1e-5)
        kw = dict(max_iters=40, grad_error=gspec, prox_error=pspec, seed=9)
        acc = run_accelerated(
            small_lasso,
            SolverConfig(variant="accelerated", momentum="none", **kw),
            np.zeros(small_lasso.n),
        )
        bas = run_basic(
            small_lasso, SolverConfig(variant="basic", **kw), np.zeros(small_lasso.n)
        )
        assert np.array_equal(acc.xs, bas.xs)
        assert np.array_equal(acc.eps1, bas.eps1)
        assert np.array_equal(acc.eps2, bas.eps2)

    def test_constant_prox_error_worse_than_basic_at_large_k(
        self, small_lasso, small_lasso_ref
    ):
        _, f_star = small_lasso_ref
        pspec = ProxErrorSpec(mode="target_gap", eps0=1e-4)
        kw = dict(max_iters=400, prox_error=pspec, seed=4)
        acc = run_accelerated(
            small_lasso, SolverConfig(variant="accelerated", **kw), np.zeros(small_lasso.n)
        )
        bas = run_basic(
            small_lasso, SolverConfig(variant="basic", **kw), np.zeros(small_lasso.n)
        )
        acc_tail = (acc.fvals[-50:] - f_star).mean()
        bas_tail = (bas.fvals[-50:] - f_star).mean()
        assert acc_tail > bas_tail

    def test_momentum_point_recorded(self, small_lasso):
        cfg = SolverConfig(variant="accelerated", max_iters=10)
        trace = run_accelerated(small_lasso, cfg, np.zeros(small_lasso.n))
        assert trace.ys is not None and trace.ys.shape == (10, small_lasso.n)
        # y^0 = x^0 and y^k = x^k + beta_k (x^k - x^{k-1})
        assert np.array_equal(trace.ys[0], trace.xs[0])
        k = 5
        expected = trace.xs[k] + trace.betas[k] * (trace.xs[k] - trace.xs[k - 1])
        assert np.allclose(trace.ys[k], expected)


class TestDeterminism:
    def test_identical_seeds_bitwise_identical(self, small_lasso):
        gspec = GradientErrorSpec(model="relative", mode="random", delta=0.1)
        pspec = ProxErrorSpec(mode="target_gap", eps0=1e-5)
        cfg = SolverConfig(
            variant="accelerated", max_iters=60, grad_error=gspec, prox_error=pspec, seed=77
        )
        t1 = run_accelerated(small_lasso, cfg, np.zeros(small_lasso.n))
        t2 = run_accelerated(small_lasso, cfg, np.zeros(small_lasso.n))
        assert np.array_equal(t1.xs, t2.xs)
        assert np.array_equal(t1.eps1, t2.eps1)
        assert np.array_equal(t1.res, t2.res)
        assert np.array_equal(t1.fvals, t2.fvals)

    def test_different_seeds_differ(self, small_lasso):
        gspec = GradientErrorSpec(model="absolute", mode="random", delta=0.1)
        mk = lambda seed: run_basic(
            small_lasso,
            SolverConfig(variant="basic", max_iters=20, grad_error=gspec, seed=seed),
            np.zeros(small_lasso.n),
        )
        assert not np.array_equal(mk(1).xs, mk(2).xs)


class TestRunReadsTape:
    @pytest.mark.parametrize("variant", ["basic", "accelerated"])
    def test_trace_errors_come_from_the_tape(self, small_lasso, variant):
        gspec = GradientErrorSpec(model="relative", mode="random", delta=0.1)
        pspec = ProxErrorSpec(mode="target_gap", eps0=1e-5)
        cfg = SolverConfig(
            variant=variant, max_iters=40, grad_error=gspec, prox_error=pspec, seed=9
        )
        runner = run_accelerated if variant == "accelerated" else run_basic
        trace = runner(small_lasso, cfg, np.zeros(small_lasso.n))
        tape = draw_tape(gspec, pspec, small_lasso.n, 40, 9)
        points = trace.xs[:-1] if trace.ys is None else trace.ys
        grads = np.array([small_lasso.grad(y) for y in points])
        assert np.array_equal(trace.eps1, tape.kappa * grads)
        assert np.all(trace.eps2 >= 0.9 * tape.targets) and np.all(trace.eps2 <= tape.targets)
        # r = t d with t > 0: the residual points along the tape's direction
        along = np.einsum("ij,ij->i", trace.res, tape.directions)
        assert np.all(along > 0)
        assert np.allclose(trace.res, along[:, None] * tape.directions, rtol=0, atol=1e-15)


class TestQuantizedRun:
    """A quantized run forms every step's eps1 from stacked exact gradients."""

    @pytest.mark.parametrize("variant", ["basic", "accelerated", "backtracking"])
    @pytest.mark.parametrize("shape", [(50, 20), (30, 60)])
    def test_eps1_equals_per_step_gradients(self, variant, shape):
        m, n = shape
        problem = lasso_problem(gen_lasso(n=n, m=m, seed=11))
        fmt = FixedPointFormat.parse("s16.8")
        stepsize = None
        if variant == "backtracking":
            stepsize = StepsizePolicy.backtracking(20.0 / problem.lipschitz, eta=0.5)
        cfg = SolverConfig(
            variant="accelerated" if variant == "accelerated" else "basic",
            stepsize=stepsize, max_iters=60, grad_error=fmt,
        )
        trace = solvers.run(problem, cfg, np.zeros(n))
        quad_q = errors.quantize_quadratic(fmt, problem.smooth)
        points = trace.xs[:-1] if trace.ys is None else trace.ys
        for k, y in enumerate(points):
            g_q = errors.quantized_gradient(fmt, quad_q, y)
            assert (g_q - problem.grad(y)).tobytes() == trace.eps1[k].tobytes()
            w = y - trace.steps[k] * g_q
            assert problem.prox(trace.steps[k], w).tobytes() == trace.xs[k + 1].tobytes()


class TestDeferredGapCheck:
    """A target-gap run checks its realized gaps once, after its loop."""

    @pytest.mark.parametrize("setting", ["basic", "accelerated", "backtracking", "schedule"])
    def test_every_step_equals_approx_prox(self, small_lasso, setting):
        gspec = GradientErrorSpec(model="absolute", mode="random", delta=1e-3)
        pspec = ProxErrorSpec(mode="target_gap", eps0=1e-4)
        if setting == "schedule":  # every third target is 0.0: the exact prox
            pspec = ProxErrorSpec(mode="target_gap", schedule=[1e-5, 0.0, 1e-9] * 20)
        stepsize = None
        if setting == "backtracking":
            stepsize = StepsizePolicy.backtracking(20.0 / small_lasso.lipschitz, eta=0.5)
        cfg = SolverConfig(
            variant="accelerated" if setting == "accelerated" else "basic", stepsize=stepsize,
            max_iters=60, grad_error=gspec, prox_error=pspec, seed=4,
        )
        trace = solvers.run(small_lasso, cfg, np.zeros(small_lasso.n))
        assert trace.num_steps == 60
        tape = draw_tape(gspec, pspec, small_lasso.n, 60, 4)
        points = trace.xs[:-1] if trace.ys is None else trace.ys
        for k, y in enumerate(points):
            s = trace.steps[k]
            w = y - s * (small_lasso.grad(y) + trace.eps1[k])
            x, gap, r = errors.approx_prox(
                small_lasso.reg, s, w, tape.targets[k], tape.directions[k]
            )
            assert x.tobytes() == trace.xs[k + 1].tobytes()
            assert np.float64(gap).tobytes() == trace.eps2[k].tobytes()
            assert r.tobytes() == trace.res[k].tobytes()
        if setting == "schedule":
            exact = trace.xs[2::3]  # x^{k+1} of the zero-target steps k = 1, 4, ...
            assert np.signbit(exact[exact == 0.0]).any()  # the soft threshold's -0.0 kept
            assert np.all(trace.res[1::3] == 0.0) and not np.signbit(trace.res[1::3]).any()

    def test_out_of_window_run_names_the_first_step(self, small_lasso):
        # the diverging stepsize-1000 LASSO: step 4 is the first whose point
        # misses the window; fixed directions keep the tape's rows the same
        # at every run length
        pspec = ProxErrorSpec(mode="target_gap", schedule=[1e-5] * 50, direction="fixed")
        config = lambda iters: SolverConfig(
            stepsize=StepsizePolicy.constant(1000.0), max_iters=iters, prox_error=pspec
        )
        with pytest.raises(OracleError, match=r"^approx_prox gap .* at step 4$"):
            run_basic(small_lasso, config(50), np.zeros(small_lasso.n))
        with pytest.raises(OracleError, match=r"at step 4$"):
            run_basic(small_lasso, config(5), np.zeros(small_lasso.n))
        trace = run_basic(small_lasso, config(4), np.zeros(small_lasso.n))
        assert np.all((0.9e-5 <= trace.eps2) & (trace.eps2 <= 1e-5))


class TestBacktrackingRuns:
    def test_stepsize_never_increases_and_descent_holds(self, small_lasso):
        s0 = 8.0 / small_lasso.lipschitz
        cfg = SolverConfig(
            variant="basic",
            stepsize=StepsizePolicy.backtracking(s0, eta=0.5),
            max_iters=60,
        )
        trace = run_basic(small_lasso, cfg, np.zeros(small_lasso.n))
        assert np.all(np.diff(trace.steps) <= 0)
        g = small_lasso.smooth
        for k in range(trace.num_steps):
            x, z, s = trace.xs[k], trace.xs[k + 1], trace.steps[k]
            delta = z - x
            lhs = g.value(z)
            rhs = g.value(x) + g.grad(x) @ delta + delta @ delta / (2 * s)
            assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))

    def test_one_prox_per_trial_stepsize(self, small_lasso, monkeypatch):
        # the accepted backtracking candidate is the next iterate: with
        # eta = 1/2 a step that shrinks s j times tries j + 1 stepsizes, and
        # no step proxes once more
        calls = counted(monkeypatch, L1Term, "prox")
        s0 = 20.0 / small_lasso.lipschitz
        cfg = SolverConfig(stepsize=StepsizePolicy.backtracking(s0, eta=0.5), max_iters=50)
        trace = run_basic(small_lasso, cfg, np.zeros(small_lasso.n))
        shrinks = np.log2(s0 / trace.steps[-1])
        assert shrinks >= 2 and shrinks == round(shrinks)
        assert len(calls) == trace.num_steps + round(shrinks)


class TestFvals:
    """``RunTrace.fvals``, evaluated once per run, equals f at each iterate."""

    @staticmethod
    def settings(problem):
        target = ProxErrorSpec(mode="target_gap", eps0=1e-4)
        big = StepsizePolicy.constant(1000.0 / problem.lipschitz)
        return {
            "exact": {},
            "target_gap": {"prox_error": target},
            "relative": {
                "grad_error": GradientErrorSpec(model="relative", mode="random", delta=1e-3)
            },
            "s16.8": {"grad_error": FixedPointFormat.parse("s16.8")},
            "inner_solver": {"prox_error": ProxErrorSpec(mode="inner_solver", eps0=1e-6)},
            "backtracking": {
                "stepsize": StepsizePolicy.backtracking(20.0 / problem.lipschitz),
                "prox_error": target,
            },
            "converged": {"abstol": 1e-9, "max_iters": 3000},
            "diverging": {"stepsize": big, "max_iters": 5000},
        }

    @pytest.mark.parametrize("variant", ["basic", "accelerated"])
    @pytest.mark.parametrize(
        "setting",
        ["exact", "target_gap", "relative", "s16.8", "inner_solver", "backtracking",
         "converged", "diverging"],
    )
    def test_equal_f_value_at_each_iterate(self, small_lasso, variant, setting):
        kw = {"max_iters": 200, "seed": 5, **self.settings(small_lasso)[setting]}
        trace = (run_accelerated if variant == "accelerated" else run_basic)(
            small_lasso, SolverConfig(variant=variant, **kw), np.zeros(small_lasso.n)
        )
        expected_status = {"converged": "converged", "diverging": "non-finite-iterate"}
        assert trace.status == expected_status.get(setting, "iteration-cap")
        with np.errstate(over="ignore", invalid="ignore"):
            per_point = np.array([small_lasso.f_value(x) for x in trace.xs])
        if setting == "diverging":
            assert np.isnan(trace.fvals[-1])
            per_point[-1] = np.nan
        assert trace.fvals.tobytes() == per_point.tobytes()


class TestHotPathBudget:
    """Per-step oracle calls of the run loop, counted by monkeypatched wrappers."""

    def test_target_gap_run(self, small_lasso, monkeypatch):
        f_values = counted(monkeypatch, CompositeProblem, "f_value")
        gap_evals = counted(monkeypatch, errors, "_gap_along")
        proxes = counted(monkeypatch, L1Term, "prox")
        cfg = SolverConfig(
            max_iters=300,
            grad_error=GradientErrorSpec(model="absolute", mode="random", delta=1e-3),
            prox_error=ProxErrorSpec(mode="target_gap", eps0=1e-4),
            seed=1,
        )
        trace = run_basic(small_lasso, cfg, np.zeros(small_lasso.n))
        assert trace.num_steps == 300
        # no gap evaluation per step: one stacked call checks all 300 rows
        assert (len(f_values), len(gap_evals), len(proxes)) == (0, 1, 300)
        assert gap_evals[0][2].shape == (300, small_lasso.n)

    @pytest.mark.parametrize("variant", ["basic", "accelerated"])
    def test_quantized_run(self, small_lasso, monkeypatch, variant):
        quantizes = counted(monkeypatch, FixedPointFormat, "quantize")
        grads = counted(monkeypatch, CompositeProblem, "grad")
        stacked = counted(monkeypatch, QuadraticSmooth, "grads")
        cfg = SolverConfig(
            variant=variant, max_iters=40, grad_error=FixedPointFormat.parse("s16.8")
        )
        (run_accelerated if variant == "accelerated" else run_basic)(
            small_lasso, cfg, np.zeros(small_lasso.n)
        )
        assert len(quantizes) == 2 * 40 + 2
        # no exact gradient per step: one stacked call forms all 40 eps1 rows
        assert (len(grads), len(stacked)) == (0, 1)
        assert stacked[0][1].shape == (40, small_lasso.n)

    @pytest.mark.parametrize(
        "variant, prox, probes",
        [("basic", "exact", 1), ("accelerated", "exact", 100), ("basic", "target_gap", 100)],
    )
    def test_backtracking_run(self, small_lasso, monkeypatch, variant, prox, probes):
        # each trial stepsize evaluates g once at its candidate z; g(probe) is
        # evaluated only where the probe is not the previous step's accepted
        # z: at x^0, at every momentum point, and after every inexact prox
        values = counted(monkeypatch, QuadraticSmooth, "value")
        s0 = 20.0 / small_lasso.lipschitz
        cfg = SolverConfig(
            variant=variant,
            stepsize=StepsizePolicy.backtracking(s0, eta=0.5),
            max_iters=100,
            prox_error=ProxErrorSpec(mode=prox, eps0=1e-4 if prox == "target_gap" else 0.0),
        )
        trace = (run_accelerated if variant == "accelerated" else run_basic)(
            small_lasso, cfg, np.zeros(small_lasso.n)
        )
        shrinks = round(np.log2(s0 / trace.steps[-1]))
        assert trace.num_steps == 100 and shrinks == 4
        assert len(values) == probes + 100 + shrinks


REFERENCE_PROBLEMS = {
    "lasso20x50": lambda: lasso_problem(gen_lasso(n=20, m=50, seed=7)),
    "lasso500x100": lambda: lasso_problem(gen_lasso(n=100, m=500, seed=3)),
    "mpc10": lambda: mpc_to_lasso(spacecraft_mpc(n_p=10, n_c=10)),
}
NOISE = GradientErrorSpec(model="absolute", mode="random", delta=1e-3)
TARGET_GAP = ProxErrorSpec(mode="target_gap", eps0=1e-4)
# name -> (stepsize as a multiple of 1/L, backtracking, SolverConfig fields)
REFERENCE_CASES = {
    "absolute": (1.0, False, dict(grad_error=NOISE, prox_error=TARGET_GAP)),
    "relative": (1.0, False, dict(
        grad_error=GradientErrorSpec(model="relative", mode="random", delta=1e-3),
        prox_error=TARGET_GAP,
    )),
    "zero_targets": (1.0, False, dict(prox_error=ProxErrorSpec(
        mode="target_gap", schedule=[0.0 if k % 3 == 0 else 1e-5 for k in range(60)]
    ))),
    "fixed_direction": (1.0, False, dict(
        grad_error=NOISE, prox_error=ProxErrorSpec(mode="target_gap", eps0=1e-4, direction="fixed")
    )),
    "backtracking": (20.0, True, dict(grad_error=NOISE, prox_error=TARGET_GAP)),
    "quantized": (1.0, False, dict(grad_error=FixedPointFormat.parse("s16.8"))),
    "inner_solver": (1.0, False, dict(prox_error=ProxErrorSpec(mode="inner_solver", eps0=1e-6))),
    "abstol": (1.0, False, dict(abstol=1e-6, max_iters=2000)),
    "diverging": (1000.0, False, dict(grad_error=NOISE, max_iters=2000)),
    "diverging_target_gap": (1000.0, False, dict(grad_error=NOISE, prox_error=TARGET_GAP,
                                                 max_iters=2000)),
}


class TestReferenceLoop:
    """Every trace field, to the bit, and every error, word for word, against
    ``oracles.reference_run``, the list-based loop."""

    @pytest.fixture(scope="class")
    def problems(self):
        return {name: build() for name, build in REFERENCE_PROBLEMS.items()}

    @pytest.mark.parametrize("problem_name", sorted(REFERENCE_PROBLEMS))
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    @pytest.mark.parametrize("variant", ["basic", "accelerated"])
    def test_matches_reference_loop(self, problems, problem_name, case, variant):
        problem = problems[problem_name]
        scale, backtracking, fields = REFERENCE_CASES[case]
        s0 = scale / problem.lipschitz
        policy = StepsizePolicy.backtracking(s0) if backtracking else StepsizePolicy.constant(s0)
        fields = {"max_iters": 60, **fields}
        cfg = SolverConfig(variant=variant, stepsize=policy, seed=5, **fields)
        accelerated = variant == "accelerated"
        x0 = np.ones(problem.n)  # at 0, mpc10's lam holds every step at 0
        try:
            expected = reference_run(problem, cfg, x0, accelerated)
        except OracleError as exc:
            # a diverged target-gap step has no point in its gap window
            assert case == "diverging_target_gap"
            with pytest.raises(OracleError) as err:
                solvers.run(problem, cfg, x0)
            assert str(err.value) == str(exc) and " at step " in str(exc)
            return
        trace = solvers.run(problem, cfg, x0)
        assert trace.status == expected.status
        want = {"abstol": "converged", "diverging": "non-finite-iterate"}
        assert trace.status == want.get(case, "iteration-cap")
        for name in ("xs", "ys", "steps", "betas", "alphas", "fvals", "eps1", "eps2", "res"):
            got, ref = getattr(trace, name), getattr(expected, name)
            if ref is None:
                assert got is None, name
                continue
            assert (got.dtype, got.shape) == (ref.dtype, ref.shape), name
            assert got.tobytes() == ref.tobytes(), name


class TestErgodicAverage:
    def test_constant_iterates(self):
        prob = separable_problem([0.0], 0.0)
        cfg = SolverConfig(variant="basic", max_iters=5)
        trace = run_basic(prob, cfg, np.zeros(1))
        assert np.allclose(trace.ergodic_averages()[3], 0.0)

    def test_two_iterate_mean(self, small_lasso):
        cfg = SolverConfig(variant="basic", max_iters=5)
        trace = run_basic(small_lasso, cfg, np.zeros(small_lasso.n))
        manual = 0.5 * (trace.xs[1] + trace.xs[2])
        assert np.allclose(trace.ergodic_averages()[1], manual)

    def test_jensen_along_trace(self, small_lasso, small_lasso_ref):
        _, f_star = small_lasso_ref
        pspec = ProxErrorSpec(mode="target_gap", eps0=1e-5)
        cfg = SolverConfig(variant="basic", max_iters=60, prox_error=pspec, seed=3)
        trace = run_basic(small_lasso, cfg, np.zeros(small_lasso.n))
        csum = np.cumsum(trace.fvals[1:])
        means = trace.ergodic_averages()
        for k in range(trace.num_steps):
            avg_f = csum[k] / (k + 1)
            assert small_lasso.f_value(means[k]) <= avg_f + 1e-12


class TestQuasiFejer:
    def test_inequality_along_noisy_run(self, small_lasso, small_lasso_ref):
        x_star, _ = small_lasso_ref
        gspec = GradientErrorSpec(model="absolute", mode="random", delta=1e-3)
        pspec = ProxErrorSpec(mode="target_gap", eps0=1e-5)
        cfg = SolverConfig(
            variant="basic", max_iters=80, grad_error=gspec, prox_error=pspec, seed=6
        )
        trace = run_basic(small_lasso, cfg, np.zeros(small_lasso.n))
        dists = np.linalg.norm(trace.xs - x_star[None, :], axis=1)
        # ||x^{k+1} - x*|| <= ||x^k - x*|| + ||r^{k+1}|| + s ||eps1^k|| + C_rho,
        # C_rho = sqrt(2 rho / s) + s L^2 rho with rho the last step's length
        s, lip = trace.steps.min(), small_lasso.lipschitz
        rho = trace.x_change()[-1]
        c_rho = math.sqrt(2.0 * rho / s) + s * lip * lip * rho
        bound = dists[:-1] + trace.res_norms() + trace.steps * trace.eps1_norms() + c_rho
        assert np.all(dists[1:] <= bound + 1e-12)


REF_RTOL = 1e-10  # the duality-gap tolerance reference_solution documents


def independent_gap(problem, x, f):
    quad = problem.smooth
    return f - l1_dual_bound(quad.mat, quad.vec, problem.reg.lam, x, quad.half)


def reference_cases():
    inst = gen_lasso(n=20, m=50, seed=7)
    zero_lam = float(np.abs(inst.a.T @ inst.y).max())
    yield "lasso_20x50", lasso_problem(inst)
    yield "lasso_100x500", lasso_problem(gen_lasso(n=100, m=500, seed=0))
    yield "lasso_wide_500x100", lasso_problem(gen_lasso(n=500, m=100, seed=3))
    for factor in (1.0, 2.0):  # lam >= ||A'y||_inf: x* = 0
        yield f"lasso_x_star_zero_{factor}", lasso_problem(
            gen_lasso(n=20, m=50, seed=7, lam=factor * zero_lam)
        )
    rng = np.random.default_rng(20)
    for i in range(4):
        x0 = rng.uniform(-1.0, 1.0, 7)
        for n_p in (2, 10):
            yield f"mpc_{n_p}_{i}", mpc_to_lasso(spacecraft_mpc(n_p=n_p, x0=x0))


class TestReferenceSolution:
    @pytest.mark.parametrize(
        "name, problem", [pytest.param(*case, id=case[0]) for case in reference_cases()]
    )
    def test_certified_within_tolerance(self, name, problem):
        ref = reference_solution(problem)
        x_star, f_star = ref
        assert f_star == problem.f_value(x_star)
        gap = independent_gap(problem, x_star, f_star)
        assert gap <= REF_RTOL * abs(f_star), name
        assert ref.gap == pytest.approx(gap, rel=0.0, abs=1e-12 * max(1.0, abs(f_star)))
        if name.startswith("lasso_x_star_zero"):
            assert not x_star.any() and ref.gap == 0.0

    @pytest.mark.parametrize(
        "problem",
        [
            lasso_problem(gen_lasso(n=20, m=50, seed=7)),
            lasso_problem(gen_lasso(n=100, m=500, seed=0)),
            mpc_to_lasso(spacecraft_mpc(n_p=2, x0=0.5 * np.ones(7))),
            mpc_to_lasso(spacecraft_mpc(n_p=10, x0=0.5 * np.ones(7))),
        ],
        ids=["lasso_20x50", "lasso_100x500", "mpc_2", "mpc_10"],
    )
    def test_matches_long_fista_run(self, problem):
        x_star, _ = reference_solution(problem)
        config = SolverConfig(variant="accelerated", max_iters=3000)
        x_long = run_accelerated(problem, config, np.zeros(problem.n)).xs[-1]
        assert np.abs(x_star - x_long).max() <= 1e-8

    def test_polish_certifies_within_a_few_segments(self, monkeypatch):
        # at most four 25-step segments; FISTA alone needs about 1,900 steps
        # at MPC N=10
        for problem in (
            lasso_problem(gen_lasso(n=100, m=500, seed=0)),
            mpc_to_lasso(spacecraft_mpc(n_p=10, x0=0.5 * np.ones(7))),
        ):
            segments = counted(monkeypatch, solvers, "run_accelerated")
            ref = reference_solution(problem)
            assert len(segments) <= 4 and ref.gap <= REF_RTOL * abs(ref[1])
            monkeypatch.undo()

    def test_singular_support_system_falls_back_to_fista(self):
        # duplicating the optimum's support columns makes M_S'M_S singular;
        # the optimum value is unchanged and FISTA splits each weight evenly
        inst = gen_lasso(n=20, m=50, seed=7)
        base = lasso_problem(inst)
        x_base, f_base = reference_solution(base)
        support = np.flatnonzero(x_base)
        assert support.size >= 2
        mat = np.hstack([inst.a, inst.a[:, support]])
        problem = CompositeProblem.from_quadratic(
            QuadraticSmooth(mat, inst.y, half=True), inst.lam
        )
        ref = reference_solution(problem)
        x_star, f_star = ref
        assert np.all(x_star[support] != 0.0)
        assert np.allclose(x_star[support], x_star[20:], rtol=1e-12, atol=0.0)
        assert f_star == pytest.approx(f_base, rel=1e-12)
        assert np.isfinite(ref.gap)
        assert ref.gap == pytest.approx(independent_gap(problem, x_star, f_star), abs=1e-12)
        assert ref.gap <= REF_RTOL * abs(f_star)

    @pytest.mark.parametrize("m, n", [(20, 50), (50, 20)], ids=["wide", "tall"])
    @pytest.mark.parametrize("scale", [0.5, 1.0])
    def test_least_squares_problem_file(self, monkeypatch, m, n, scale):
        # a problem file without "lambda": f* and the minimum-norm x* of
        # lstsq; FISTA from 0 stays in the row space of M
        rng = np.random.default_rng(m + 100 * n)
        mat, vec = rng.standard_normal((m, n)), rng.standard_normal(m)
        problem = problem_from_json({"n": n, "M": mat.ravel().tolist(), "v": vec.tolist(), "scale": scale})
        assert problem.reg.lam == 0.0
        x_ls = np.linalg.lstsq(mat, vec, rcond=None)[0]
        segments = counted(monkeypatch, solvers, "run_accelerated")
        ref = reference_solution(problem)
        x_star, f_star = ref
        assert len(segments) <= 10
        assert f_star == pytest.approx(problem.f_value(x_ls), rel=1e-12, abs=1e-8)
        assert np.abs(x_star - x_ls).max() <= 1e-6
        assert 0.0 <= ref.gap <= REF_RTOL * f_star + gap_rounding_floor(mat, vec, x_star, scale == 0.5)

    def test_least_squares_gap_is_exact(self):
        # lam = 0: the gap is f(x) - f* at any point, undershooting ones included
        rng = np.random.default_rng(5)
        for m, n in ((20, 50), (50, 20)):
            mat, vec = rng.standard_normal((m, n)), rng.standard_normal(m)
            problem = CompositeProblem.from_quadratic(QuadraticSmooth(mat, vec), 0.0)
            x_ls = np.linalg.lstsq(mat, vec, rcond=None)[0]
            for x in (np.zeros(n), 0.5 * x_ls, rng.standard_normal(n)):
                exact = problem.f_value(x) - problem.f_value(x_ls)
                assert problem.duality_gap(x) == pytest.approx(exact, rel=1e-10, abs=1e-12)
                assert problem.dual_lower_bound(x) <= problem.f_value(x_ls) + 1e-12

    def test_small_optimum_certifies_at_the_rounding_floor(self, monkeypatch):
        # noiseless data and lam = 1e-10: f* is 2e-10 and the rounding of M'r
        # (about 1e-14 in the gap) is far above 1e-10 f*, so the gap certifies
        # against the rounding floor, within a few segments
        inst = gen_lasso(n=15, m=40, noise=0.0, lam=1e-10, seed=3)
        problem = lasso_problem(inst)
        segments = counted(monkeypatch, solvers, "run_accelerated")
        ref = reference_solution(problem)
        x_star, f_star = ref
        assert len(segments) <= 4
        floor = gap_rounding_floor(inst.a, inst.y, x_star, True)
        assert floor <= 1e-11
        assert ref.gap <= REF_RTOL * f_star + floor
        assert independent_gap(problem, x_star, f_star) <= REF_RTOL * f_star + floor
        assert problem.gap_rounding(x_star) == pytest.approx(floor, rel=1e-12)

    def test_exhausted_budget_returns_last_point_and_its_gap(self):
        problem = lasso_problem(gen_lasso(n=500, m=100, seed=3))
        ref = reference_solution(problem, max_iters=25)
        x_last, f_last = ref
        assert f_last == problem.f_value(x_last)
        assert ref.gap > REF_RTOL * abs(f_last)
        assert ref.gap == pytest.approx(independent_gap(problem, x_last, f_last), rel=1e-12)


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(variant="turbo")
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(abstol=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(momentum="heavy-ball")
