import numpy as np
import pytest

from proxcert import (
    CompositeProblem,
    FixedPointFormat,
    GradientErrorSpec,
    L1Term,
    ProxErrorSpec,
    QuadraticSmooth,
    SolverConfig,
    StepsizePolicy,
    run_accelerated,
    run_basic,
)
import proxcert.errors as errors
from proxcert.errors import draw_tape
from proxcert.solvers import alpha_series

from oracles import grid_min


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
        assert (len(f_values), len(gap_evals), len(proxes)) == (0, 300, 300)

    @pytest.mark.parametrize("variant", ["basic", "accelerated"])
    def test_quantized_run(self, small_lasso, monkeypatch, variant):
        quantizes = counted(monkeypatch, FixedPointFormat, "quantize")
        cfg = SolverConfig(
            variant=variant, max_iters=40, grad_error=FixedPointFormat.parse("s16.8")
        )
        (run_accelerated if variant == "accelerated" else run_basic)(
            small_lasso, cfg, np.zeros(small_lasso.n)
        )
        assert len(quantizes) == 2 * 40 + 2

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
        # ||x^{k+1} - x*|| <= ||x^k - x*|| + ||r^{k+1}|| + s ||eps1^k|| + C_rho
        from proxcert import BoundParams

        params = BoundParams.from_trace(small_lasso, trace, x_star)
        bound = (
            dists[:-1]
            + trace.res_norms()
            + trace.steps * trace.eps1_norms()
            + params.c_rho
        )
        assert np.all(dists[1:] <= bound + 1e-12)


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
