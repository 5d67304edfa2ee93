import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from proxcert import (
    BoundParams,
    CompositeProblem,
    GradientErrorSpec,
    ProxErrorSpec,
    QuadraticSmooth,
    SolverConfig,
    check_bound_validity,
    evaluate_all_series,
    run_accelerated,
    run_basic,
)
from proxcert.bounds import (
    ObservedGaps,
    bound_acc_det_corollary_series,
    bound_acc_det_series,
    bound_acc_random_series,
    bound_basic_det_corollary_series,
    bound_basic_det_series,
    bound_basic_random,
    bound_basic_random_series,
    bound_basic_stationary,
    bound_basic_stationary_series,
    bound_schmidt_acc_series,
    bound_schmidt_basic_series,
    u_sequence,
)
from proxcert.solvers import RunTrace, alpha_series

from oracles import BOUNDS_HEADER


def make_params(**kw):
    defaults = dict(s=1.0, lipschitz=1.0, dist0=1.0, n=2, m_grad=1.0)
    defaults.update(kw)
    return BoundParams(**defaults)


def synthetic_trace(eps1_norms, eps2, s=1.0, n=2, x_scale=0.0, seed=0):
    """Trace skeleton with planted error sequences (iterates optional)."""
    t = len(eps2)
    rng = np.random.default_rng(seed)
    xs = x_scale * rng.standard_normal((t + 1, n))
    eps1 = np.zeros((t, n))
    eps1[:, 0] = np.asarray(eps1_norms, dtype=float)
    return RunTrace(
        xs=xs,
        ys=None,
        steps=np.full(t, s),
        betas=np.zeros(t),
        alphas=alpha_series(t - 1),
        fvals=np.zeros(t + 1),
        eps1=eps1,
        eps2=np.asarray(eps2, dtype=float),
        res=np.zeros((t, n)),
    )


@pytest.fixture(scope="module")
def noisy_runs(small_lasso_module, small_lasso_ref_module):
    """A matched pair of noisy basic/accelerated runs plus reference."""
    prob = small_lasso_module
    x_star, f_star = small_lasso_ref_module
    gspec = GradientErrorSpec(model="absolute", mode="random", delta=1e-3)
    pspec = ProxErrorSpec(mode="target_gap", eps0=1e-5)
    kw = dict(max_iters=120, grad_error=gspec, prox_error=pspec, seed=21)
    bas = run_basic(prob, SolverConfig(variant="basic", **kw), np.zeros(prob.n))
    acc = run_accelerated(
        prob, SolverConfig(variant="accelerated", **kw), np.zeros(prob.n)
    )
    params = BoundParams.from_trace(prob, bas, x_star, model="absolute", delta=1e-3, eps0=1e-5)
    params_acc = BoundParams.from_trace(
        prob, acc, x_star, model="absolute", delta=1e-3, eps0=1e-5
    )
    return prob, x_star, f_star, bas, acc, params, params_acc


# module-scoped aliases of the session fixtures (pytest scoping)
@pytest.fixture(scope="module")
def small_lasso_module(small_lasso):
    return small_lasso


@pytest.fixture(scope="module")
def small_lasso_ref_module(small_lasso_ref):
    return small_lasso_ref


class TestBasicDetTheorem:
    def test_zero_errors_surviving_terms(self, small_lasso, small_lasso_ref):
        x_star, _ = small_lasso_ref
        trace = run_basic(
            small_lasso, SolverConfig(variant="basic", max_iters=40), np.zeros(small_lasso.n)
        )
        params = BoundParams.from_trace(small_lasso, trace, x_star)
        vals = bound_basic_det_series(trace, params, x_star)
        s = params.s
        d2 = params.dist0**2
        for k in (0, 5, 39):
            expected = (d2 - np.linalg.norm(x_star - trace.xs[k + 1]) ** 2) / (
                2 * s * (k + 1)
            )
            assert vals[k] == pytest.approx(expected, rel=1e-12)

    def test_dominates_ergodic_gap(self, noisy_runs):
        prob, x_star, f_star, bas, _, params, _ = noisy_runs
        vals = bound_basic_det_series(bas, params, x_star)
        obs = ObservedGaps.from_trace(prob, bas, f_star)
        assert np.all(obs.ergodic_incl <= vals)

    def test_hand_planted_single_iteration(self):
        # 1-d, k = 0: value = eps2 + (eps1 - r/s)(x*-x^1) + (d^2 - |x*-x^1|^2)/(2s)
        #                    - r^2/(2s), all by hand
        s, eps1, eps2, r = 0.5, 0.3, 0.01, 0.05
        x0, x1, x_star = 2.0, 1.5, 1.0
        trace = RunTrace(
            xs=np.array([[x0], [x1]]),
            ys=None,
            steps=np.array([s]),
            betas=np.zeros(1),
            alphas=np.ones(1),
            fvals=np.zeros(2),
            eps1=np.array([[eps1]]),
            eps2=np.array([eps2]),
            res=np.array([[r]]),
        )
        params = make_params(s=s, dist0=abs(x_star - x0), n=1)
        hand = (
            eps2
            + (eps1 - r / s) * (x_star - x1)
            + (x_star - x0) ** 2 / (2 * s)
            - r**2 / (2 * s)
            - (x_star - x1) ** 2 / (2 * s)
        )
        assert bound_basic_det_series(trace, params, np.array([x_star]))[0] == pytest.approx(
            hand, rel=1e-12
        )


class TestBasicDetCorollary:
    def test_zero_errors_approx_form(self, small_lasso, small_lasso_ref):
        x_star, _ = small_lasso_ref
        trace = run_basic(
            small_lasso, SolverConfig(variant="basic", max_iters=30), np.zeros(small_lasso.n)
        )
        params = BoundParams.from_trace(small_lasso, trace, x_star)
        vals = bound_basic_det_corollary_series(trace, params)
        ks = np.arange(30)
        expected = params.dist0**2 / (2 * params.s * (ks + 1))
        assert np.allclose(vals, expected, rtol=1e-12)

    def test_full_dominates_theorem_and_approx_relation(self, noisy_runs):
        prob, x_star, f_star, bas, _, params, _ = noisy_runs
        thm = bound_basic_det_series(bas, params, x_star)
        approx = bound_basic_det_corollary_series(bas, params)
        # the corollary drops the theorem's negative terms and bounds its
        # cross terms by Cauchy-Schwarz
        res_sq = np.einsum("ij,ij->i", bas.res, bas.res)
        last = np.linalg.norm(x_star - bas.xs[1:], axis=1) ** 2
        dropped_neg = (np.cumsum(res_sq) + last) / (2 * params.s)
        ks = np.arange(bas.num_steps)
        assert np.all(approx >= thm - dropped_neg / (ks + 1) - 1e-12)

    def test_one_over_i_errors_decay_like_log_k_over_k(self):
        # ||eps1^i|| ~ 1/i with residual-scale prox error sqrt(eps2) ~ 1/i
        t = 10_001
        idx = np.arange(t, dtype=float)
        idx[0] = 1.0
        eps1n = 1.0 / idx
        eps2 = 1.0 / idx**2
        trace = synthetic_trace(eps1n, eps2)
        params = make_params()
        vals = bound_basic_det_corollary_series(trace, params)
        ks = np.arange(100, 10_001, 25)
        slope = np.polyfit(np.log(ks), np.log(vals[ks]), 1)[0]
        assert -1.15 <= slope <= -0.85


class TestBasicRandom:
    def test_zero_errors_reduce_to_optimal(self):
        params = make_params(delta=0.0, eps0=0.0, gamma=3.0, dist0=2.0, s=0.25)
        value, prob = bound_basic_random(params, 10, 0.0)
        assert value == pytest.approx(4.0 / (2 * 0.25 * 10), rel=1e-12)
        assert prob == pytest.approx(1 - 2 * math.exp(-4.5), rel=1e-12)

    def test_gamma_three_probability_factor(self):
        params = make_params(gamma=3.0)
        _, prob = bound_basic_random(params, 1, 0.0)
        assert prob == pytest.approx(0.97778, abs=5e-6)

    def test_error_term_halves_when_k_quadruples(self):
        params = make_params(delta=0.1, eps0=1e-4, gamma=3.0, dist0=1.0)
        k = 16
        mid = lambda kk: (
            bound_basic_random(params, kk, 0.0)[0] - params.dist0**2 / (2 * params.s * kk)
        )
        assert mid(4 * k) == pytest.approx(mid(k) / 2.0, rel=1e-12)

    def test_preconditions(self):
        params = make_params()
        with pytest.raises(ValueError):
            bound_basic_random(params, 0, 0.0)
        with pytest.raises(ValueError):
            BoundParams(s=1.0, lipschitz=1.0, dist0=1.0, n=2, gamma=-1.0)


class TestBasicStationary:
    def test_floor_at_large_k(self):
        params = make_params(eps2_mean=1e-3, eps0=2e-3, delta=0.0)
        value, _ = bound_basic_stationary(params, 10**12)
        assert value == pytest.approx(1e-3, rel=1e-3)

    def test_pure_sqrt_k_curve(self):
        params = make_params(eps2_mean=0.0, eps0=1e-2, delta=0.0, gamma=2.0, dist0=0.0)
        v, p = bound_basic_stationary(params, 25)
        assert v == pytest.approx((2.0 / 5.0) * (1e-2 / 2), rel=1e-12)
        assert p == pytest.approx(1 - 4 * math.exp(-2.0), rel=1e-12)

    def test_zero_errors_optimal(self):
        params = make_params(eps2_mean=0.0, eps0=0.0, delta=0.0, dist0=3.0, s=0.5)
        v, _ = bound_basic_stationary(params, 9)
        assert v == pytest.approx(9.0 / (2 * 0.5 * 9), rel=1e-12)


class TestAccDet:
    def test_zero_errors(self, small_lasso, small_lasso_ref):
        x_star, _ = small_lasso_ref
        trace = run_accelerated(
            small_lasso,
            SolverConfig(variant="accelerated", max_iters=30),
            np.zeros(small_lasso.n),
        )
        params = BoundParams.from_trace(small_lasso, trace, x_star)
        vals = bound_acc_det_series(trace, params, x_star)
        expected = params.dist0**2 / (2 * params.s * trace.alphas**2)
        assert np.allclose(vals, expected, rtol=1e-12)

    def test_dominates_iterate_gap(self, noisy_runs):
        prob, x_star, f_star, _, acc, _, params_acc = noisy_runs
        vals = bound_acc_det_series(acc, params_acc, x_star)
        obs = ObservedGaps.from_trace(prob, acc, f_star)
        assert np.all(obs.iterate_next <= vals)

    def test_u_sequence_initial_value(self, noisy_runs):
        _, x_star, _, _, acc, _, _ = noisy_runs
        useq = u_sequence(acc, x_star)
        # alpha_0 = 1 makes u^1 = x* - x^1
        assert np.allclose(useq[0], x_star - acc.xs[1], atol=1e-14)

    def test_one_over_i_squared_errors_decay(self):
        # ||eps1^i|| ~ 1/i^2, residual-scale sqrt(eps2) ~ 1/i^2
        t = 10_001
        idx = np.arange(t, dtype=float)
        idx[0] = 1.0
        eps1n = 1.0 / idx**2
        eps2 = 1.0 / idx**4
        trace = synthetic_trace(eps1n, eps2)
        params = make_params()
        vals = bound_acc_det_corollary_series(trace, params)
        ks = np.arange(100, 10_001, 25)
        slope = np.polyfit(np.log(ks), np.log(vals[ks]), 1)[0]
        assert -2.15 <= slope <= -1.80


class TestAccRandom:
    def test_zero_errors_running_mode(self, small_lasso, small_lasso_ref):
        x_star, _ = small_lasso_ref
        trace = run_accelerated(
            small_lasso,
            SolverConfig(variant="accelerated", max_iters=20),
            np.zeros(small_lasso.n),
        )
        params = BoundParams.from_trace(
            small_lasso, trace, x_star, delta=0.0, eps0=0.0, gamma=3.0, eps2_mean=0.0
        )
        vals, prob = bound_acc_random_series(trace, params, x_star)
        expected = params.dist0**2 / (2 * params.s * trace.alphas**2)
        assert np.allclose(vals, expected, rtol=1e-12)
        assert prob[0] == pytest.approx(1 - 6 * math.exp(-4.5), rel=1e-12)


class TestSchmidtBaselines:
    def test_zero_errors_basic(self):
        trace = synthetic_trace(np.zeros(6), np.zeros(6))
        params = make_params(lipschitz=2.0, dist0=3.0)
        vals = bound_schmidt_basic_series(trace, params)
        assert np.isnan(vals[0])
        for k in (1, 3, 5):
            assert vals[k] == pytest.approx(2.0 / (2 * k) * 9.0, rel=1e-12)

    def test_zero_errors_accelerated(self):
        trace = synthetic_trace(np.zeros(6), np.zeros(6))
        params = make_params(lipschitz=2.0, dist0=3.0)
        vals = bound_schmidt_acc_series(trace, params)
        ks = np.arange(6)
        assert np.allclose(vals, 2 * 2.0 * 9.0 / (ks + 1) ** 2, rtol=1e-12)

    def test_plug_in_at_k1(self):
        eps = 1e-3
        L = 2.0
        trace = synthetic_trace([0.0, 0.0], [0.0, eps], s=1.0 / L)
        params = make_params(lipschitz=L, dist0=1.0)
        a1 = np.sqrt(2 * eps / L)
        b1 = eps / L
        expected = (L / 2.0) * (1.0 + 2 * a1 + np.sqrt(2 * b1)) ** 2
        vals = bound_schmidt_basic_series(trace, params)
        assert vals[1] == pytest.approx(expected, rel=1e-12)

    def test_doubling_eps1_doubles_a_tilde_part(self):
        L = 1.0
        base = np.array([0.0, 1e-3, 2e-3, 5e-4])
        t1 = synthetic_trace(base, np.zeros(4), s=1.0)
        t2 = synthetic_trace(2 * base, np.zeros(4), s=1.0)
        params = make_params(lipschitz=L, dist0=1.0)
        idx = np.arange(4.0)
        a1 = np.cumsum(idx * base / L)
        v1 = bound_schmidt_acc_series(t1, params)
        v2 = bound_schmidt_acc_series(t2, params)
        # (d + 2A)^2 -> (d + 4A)^2 exactly when B = 0
        expected = (2 * L / (idx + 1) ** 2) * (1.0 + 4 * a1) ** 2
        assert np.allclose(v2, expected, rtol=1e-12)
        assert np.all(v2 >= v1)

    def test_improvement_over_baseline(self, noisy_runs):
        prob, x_star, _, bas, acc, params, params_acc = noisy_runs
        cor_b = bound_basic_det_corollary_series(bas, params)
        sch_b = bound_schmidt_basic_series(bas, params)
        assert np.all(cor_b[5:] <= sch_b[5:])
        cor_a = bound_acc_det_corollary_series(acc, params_acc)
        sch_a = bound_schmidt_acc_series(acc, params_acc)
        assert np.all(cor_a[5:] <= sch_a[5:])


class TestMonotoneInErrors:
    def test_scaling_errors_never_decreases_norm_based_bounds(self):
        # (the raw theorem forms carry signed realized inner products and are
        # exempt; all norm-based evaluators must be monotone)
        base1 = np.abs(np.sin(np.arange(8))) * 1e-3
        base2 = np.abs(np.cos(np.arange(8))) * 1e-4
        t1 = synthetic_trace(base1, base2)
        t2 = synthetic_trace(2 * base1, 2 * base2)
        params = make_params()
        for fn in (
            lambda t: bound_basic_det_corollary_series(t, params),
            lambda t: bound_schmidt_basic_series(t, params),
            lambda t: bound_schmidt_acc_series(t, params),
        ):
            v1, v2 = fn(t1), fn(t2)
            mask = np.isfinite(v1)
            assert np.all(v2[mask] >= v1[mask] - 1e-15)
        v1, _ = bound_basic_random(make_params(delta=1e-3, eps0=1e-4), 5, 1e-4)
        v2, _ = bound_basic_random(make_params(delta=2e-3, eps0=2e-4), 5, 2e-4)
        assert v2 >= v1
        s1, _ = bound_basic_stationary(make_params(eps2_mean=1e-4, eps0=1e-3, delta=1e-3), 5)
        s2, _ = bound_basic_stationary(make_params(eps2_mean=2e-4, eps0=2e-3, delta=2e-3), 5)
        assert s2 >= s1


class TestValidity:
    def test_valid_run_zero_violations(self, noisy_runs):
        prob, x_star, f_star, bas, _, params, _ = noisy_runs
        obs = ObservedGaps.from_trace(prob, bas, f_star)
        series = evaluate_all_series(bas, params, x_star)
        for s in series:
            if s.name == "thm_basic_det":
                assert check_bound_validity(s, obs).violations == 0

    def test_wrong_stepsize_reports_violations(self, noisy_runs):
        import dataclasses

        prob, x_star, f_star, bas, _, params, _ = noisy_runs
        wrong = dataclasses.replace(params, s=10.0 / params.lipschitz)
        vals = bound_basic_det_series(bas, wrong, x_star)
        obs = ObservedGaps.from_trace(prob, bas, f_star)
        from proxcert.bounds import BoundSeries

        series = BoundSeries(
            "thm_basic_det", vals, np.ones(len(vals)), "ergodic_incl", False, wrong
        )
        assert check_bound_validity(series, obs).violations > 0

    def test_probabilistic_counts_for_coverage(self, noisy_runs):
        prob, x_star, f_star, bas, _, params, _ = noisy_runs
        vals, probs = bound_basic_random_series(bas, params)
        from proxcert.bounds import BoundSeries

        series = BoundSeries("thm_basic_rand", vals, probs, "ergodic", True, params)
        report = check_bound_validity(series, ObservedGaps.from_trace(prob, bas, f_star))
        assert report.checked == bas.num_steps - 1
        assert report.violations >= 0


class TestProbabilityColumns:
    """``max(0, 1 - c e^{-gamma^2/2})``: below gamma = sqrt(2 ln c) the union
    bound says nothing, and the probability column reads 0, never less."""

    FACTORS = {"thm_basic_rand": 2.0, "thm_basic_stat": 4.0, "thm_acc_rand": 6.0}

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5, 3.0])
    @pytest.mark.parametrize("variant", ["basic", "accelerated"])
    def test_clamped_at_zero(self, noisy_runs, variant, gamma):
        _, x_star, _, bas, acc, params, params_acc = noisy_runs
        trace, params = (bas, params) if variant == "basic" else (acc, params_acc)
        params = replace(params, gamma=gamma, eps2_mean=4e-6)
        checked = 0
        for s in evaluate_all_series(trace, params, x_star):
            if s.name in self.FACTORS:
                want = max(0.0, 1.0 - self.FACTORS[s.name] * math.exp(-gamma * gamma / 2.0))
                finite = s.probability[np.isfinite(s.probability)]
                assert finite.size and np.all(finite == want), s.name
                checked += 1
        assert checked == (2 if variant == "basic" else 1)


class TestSeriesCatalogue:
    EXPECTED = {  # (name, target) in bounds.csv column order
        "basic": [("thm_basic_det", "ergodic_incl"), ("cor_basic_det", "ergodic_incl"),
                  ("thm_basic_rand", "ergodic"), ("thm_basic_stat", "ergodic"),
                  ("schmidt_basic", "ergodic")],
        "accelerated": [("thm_acc_det", "iterate_next"), ("cor_acc_det", "iterate_next"),
                        ("thm_acc_rand", "iterate_next"), ("schmidt_acc", "iterate")],
    }

    @pytest.mark.parametrize("eps2_mean", [None, 4e-6])
    @pytest.mark.parametrize("variant", ["basic", "accelerated"])
    def test_rows_targets_and_gates(self, noisy_runs, variant, eps2_mean):
        _, x_star, _, bas, acc, params, params_acc = noisy_runs
        trace, params = (bas, params) if variant == "basic" else (acc, params_acc)
        series = evaluate_all_series(trace, replace(params, eps2_mean=eps2_mean), x_star)
        expected = [e for e in self.EXPECTED[variant]
                    if eps2_mean is not None or e[0] != "thm_basic_stat"]
        assert [(s.name, s.target) for s in series] == expected
        columns = BOUNDS_HEADER.split(",")
        names = [s.name for s in series]
        assert names == sorted(names, key=columns.index)
        assert {s.name for s in series if s.gate} == {"thm_basic_det", "thm_acc_det"} & set(names)
        for s in series:  # only the prob_* columns' series are probabilistic
            finite = s.probability[np.isfinite(s.probability)]
            assert np.all(finite == 1.0) == (f"prob_{s.name}" not in columns), s.name

    @pytest.mark.parametrize("variant", ["basic", "accelerated"])
    def test_every_row_from_the_optimum_warns_nothing(self, variant):
        # criterion 7's toy (M = I, 1/2-scaled) with x* = 0, run from x*:
        # dist0 and the k = 0 error sums are 0, where a 1/k factor is inf
        problem = CompositeProblem.from_quadratic(
            QuadraticSmooth(np.eye(2), np.array([0.1, -0.2]), half=True), 0.3
        )
        x_star = np.zeros(2)
        pspec = ProxErrorSpec(mode="target_gap", eps0=1e-4)
        config = SolverConfig(variant=variant, max_iters=20, prox_error=pspec, seed=0)
        trace = (run_basic if variant == "basic" else run_accelerated)(problem, config, x_star)
        params = BoundParams.from_trace(problem, trace, x_star, eps0=1e-4, eps2_mean=5e-5)
        assert params.dist0 == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = evaluate_all_series(trace, params, x_star)
        assert [s.name for s in series] == [e[0] for e in self.EXPECTED[variant]]
        for s in series:
            assert np.all(np.isfinite(s.values[1:])), s.name

    @pytest.mark.parametrize(
        "name, variant",
        [("bound_basic_det_series", "basic"), ("bound_basic_det_corollary_series", "basic"),
         ("bound_basic_random_series", "basic"), ("bound_basic_stationary_series", "basic"),
         ("bound_schmidt_basic_series", "basic"), ("bound_acc_det_series", "accelerated"),
         ("bound_acc_det_corollary_series", "accelerated"),
         ("bound_acc_random_series", "accelerated"),
         ("bound_schmidt_acc_series", "accelerated")],
    )
    def test_rows_call_the_module_attribute(self, noisy_runs, monkeypatch, name, variant):
        # a rebound bounds.bound_*_series (as a tracer installs) is the one called
        import proxcert.bounds as bounds

        _, x_star, _, bas, acc, params, params_acc = noisy_runs
        trace, params = (bas, params) if variant == "basic" else (acc, params_acc)
        params = replace(params, eps2_mean=4e-6)
        before = evaluate_all_series(trace, params, x_star)
        orig = getattr(bounds, name)

        def doubled(*args):
            result = orig(*args)
            return (2 * result[0], result[1]) if isinstance(result, tuple) else 2 * result

        monkeypatch.setattr(bounds, name, doubled)
        after = evaluate_all_series(trace, params, x_star)
        changed = [a.name for a, b in zip(after, before)
                   if not np.array_equal(a.values, b.values, equal_nan=True)]
        assert len(changed) == 1


def random_bound_per_k(params, k, eps2):
    """Basic random theorem at one k from the first k prox errors (loop form)."""
    g, s, d = params.gamma, params.s, params.dist0
    base = math.sqrt(params.n) * params.m_grad * abs(params.delta)
    prox = math.sqrt(2.0 * params.eps0 / s)
    mid = (g / math.sqrt(k)) * (base + prox) * d
    return float(eps2[:k].sum()) / k + mid + d * d / (2.0 * s * k)


def corollary_per_k(trace, params, k, accelerated):
    """Basic or accelerated a-priori corollary at one k, summed term by term."""
    s, d = params.s, params.dist0
    total = d * d / (2.0 * s)
    for i in range(k + 1):
        a = trace.alphas[i] if accelerated else 1.0
        w = float(np.linalg.norm(trace.eps1[i])) + math.sqrt(2.0 * trace.eps2[i] / s)
        total += a * a * trace.eps2[i]
        if accelerated or i >= 1:  # the basic cross sum starts at i = 1
            total += a * d * w
    return total / (trace.alphas[k] ** 2 if accelerated else k + 1)


class TestVectorizedAgainstPerK:
    """Series evaluated over all k at once against one evaluation per k."""

    def test_observed_gaps_match_f_value_of_each_mean(self, noisy_runs):
        prob, _, f_star, bas, _, _, _ = noisy_runs
        obs = ObservedGaps.from_trace(prob, bas, f_star)
        means = [bas.xs[1 : k + 2].mean(axis=0) for k in range(bas.num_steps)]  # x^1..x^{k+1}
        f_means = np.array([prob.f_value(x) for x in means])
        tol = 1e-12 * np.abs(f_means)
        assert np.all(np.abs(obs.ergodic_incl - (f_means - f_star)) <= tol)
        assert np.isnan(obs.ergodic[0])
        assert np.array_equal(obs.ergodic[1:], obs.ergodic_incl[:-1])

    # "stated" names the theorem's form of the bound
    @pytest.mark.parametrize("variant", ["stated"])
    def test_random_series_matches_per_k_calls(self, noisy_runs, variant):
        _, _, _, bas, _, params, _ = noisy_runs
        values, probs = bound_basic_random_series(bas, params)
        assert np.isnan(values[0]) and np.isnan(probs[0])
        for k in range(1, bas.num_steps):
            value, prob = bound_basic_random(params, k, bas.eps2[:k].sum())
            expected = random_bound_per_k(params, k, bas.eps2)
            assert value == pytest.approx(expected, rel=1e-12)
            assert values[k] == pytest.approx(expected, rel=1e-12)
            assert probs[k] == prob == pytest.approx(1 - 2 * math.exp(-params.gamma**2 / 2))

    @pytest.mark.parametrize("scheme", ["basic", "accelerated"])
    def test_corollary_series_match_per_k_sums(self, noisy_runs, scheme):
        _, _, _, bas, acc, params, params_acc = noisy_runs
        accelerated = scheme == "accelerated"
        if accelerated:
            trace, params, series = acc, params_acc, bound_acc_det_corollary_series
        else:
            trace, series = bas, bound_basic_det_corollary_series
        values = series(trace, params)
        for k in range(trace.num_steps):
            expected = corollary_per_k(trace, params, k, accelerated)
            assert values[k] == pytest.approx(expected, rel=1e-12)

    def test_stationary_series_matches_per_k_calls(self, noisy_runs):
        _, _, _, bas, _, params, _ = noisy_runs
        params = replace(params, eps2_mean=4e-6)
        values, probs = bound_basic_stationary_series(bas, params)
        assert np.isnan(values[0]) and np.isnan(probs[0])
        g, s, d = params.gamma, params.s, params.dist0
        for k in range(1, bas.num_steps):
            expected = (
                params.eps2_mean
                + (g / math.sqrt(k))
                * (params.eps0 / 2 + math.sqrt(params.n) * params.m_grad * params.delta * d)
                + d * d / (2 * s * k)
            )
            value, prob = bound_basic_stationary(params, k)
            assert value == pytest.approx(expected, rel=1e-12)
            assert values[k] == pytest.approx(expected, rel=1e-12)
            assert probs[k] == prob

    def test_relative_m_grad_is_sup_of_per_point_gradients(self, noisy_runs):
        prob, x_star, _, bas, acc, _, _ = noisy_runs
        for trace in (bas, acc):
            params = BoundParams.from_trace(prob, trace, x_star, model="relative")
            points = list(trace.xs) + ([] if trace.ys is None else list(trace.ys))
            sup = max(float(np.abs(prob.grad(p)).max()) for p in points)
            assert params.m_grad == pytest.approx(1.05 * sup, rel=1e-12)
