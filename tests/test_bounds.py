import math
from dataclasses import replace

import numpy as np
import pytest

from proxcert import (
    BoundParams,
    GradientErrorSpec,
    ProxErrorSpec,
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


def make_params(**kw):
    defaults = dict(s=1.0, lipschitz=1.0, dist0=1.0, n=2, m_grad=1.0)
    defaults.update(kw)
    return BoundParams(**defaults)


def synthetic_trace(eps1_norms, eps2, s=1.0, n=2, rule="fista", x_scale=0.0, seed=0):
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
        alphas=alpha_series(rule, t - 1),
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
        vals = bound_basic_det_corollary_series(trace, params, variant="approx")
        ks = np.arange(30)
        expected = params.dist0**2 / (2 * params.s * (ks + 1))
        assert np.allclose(vals, expected, rtol=1e-12)

    def test_full_dominates_theorem_and_approx_relation(self, noisy_runs):
        prob, x_star, f_star, bas, _, params, _ = noisy_runs
        thm = bound_basic_det_series(bas, params, x_star)
        full = bound_basic_det_corollary_series(bas, params, x_star, "full")
        approx = bound_basic_det_corollary_series(bas, params, x_star, "approx")
        # Cauchy-Schwarz + quasi-Fejer only relax the theorem (i >= 1 sums)
        assert np.all(full[1:] >= thm[1:] - 1e-12)
        # approx drops the negative terms and the summable recursion
        res_sq = np.einsum("ij,ij->i", bas.res, bas.res)
        last = np.linalg.norm(x_star - bas.xs[1:], axis=1) ** 2
        dropped_neg = (np.cumsum(res_sq) + last) / (2 * params.s)
        ks = np.arange(bas.num_steps)
        assert np.all(approx >= thm - dropped_neg / (ks + 1) - 1e-12)

    def test_k0_precondition(self, noisy_runs):
        # the full corollary holds only from k0 on; earlier entries are NaN
        prob, x_star, _, bas, _, params, _ = noisy_runs
        full = bound_basic_det_corollary_series(bas, replace(params, k0=5), x_star, "full")
        assert np.all(np.isnan(full[:5]))
        assert np.all(np.isfinite(full[5:]))

    def test_one_over_i_errors_decay_like_log_k_over_k(self):
        # ||eps1^i|| ~ 1/i with residual-scale prox error sqrt(eps2) ~ 1/i
        t = 10_001
        idx = np.arange(t, dtype=float)
        idx[0] = 1.0
        eps1n = 1.0 / idx
        eps2 = 1.0 / idx**2
        trace = synthetic_trace(eps1n, eps2)
        params = make_params()
        vals = bound_basic_det_corollary_series(trace, params, variant="approx")
        ks = np.arange(100, 10_001, 25)
        slope = np.polyfit(np.log(ks), np.log(vals[ks]), 1)[0]
        assert -1.15 <= slope <= -0.85


class TestBasicRandom:
    def test_zero_errors_reduce_to_optimal(self):
        params = make_params(delta=0.0, eps0=0.0, gamma=3.0, p=0.9, dist0=2.0, s=0.25)
        value, prob = bound_basic_random(params, 10, 0.0)
        assert value == pytest.approx(4.0 / (2 * 0.25 * 10), rel=1e-12)
        assert prob == pytest.approx(0.9**10 * (1 - 2 * math.exp(-4.5)), rel=1e-12)

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

    def test_variants(self):
        params = make_params(delta=0.1, eps0=1e-4, gamma=2.0, n=100)
        stated, _ = bound_basic_random(params, 9, 0.0)
        approx, _ = bound_basic_random(params, 9, 0.0, variant="approx")
        assert approx < stated
        eps_seq = np.full(9, 5e-5)
        sharp, _ = bound_basic_random(params, 9, eps_seq, variant="sharp")
        assert sharp <= stated + 1e-12

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

    def test_full_corollary_dominates_theorem(self, noisy_runs):
        prob, x_star, _, _, acc, _, params_acc = noisy_runs
        thm = bound_acc_det_series(acc, params_acc, x_star)
        full = bound_acc_det_corollary_series(acc, params_acc, x_star, "full")
        assert np.all(full >= thm - 1e-12)

    def test_one_over_i_squared_errors_decay(self):
        # ||eps1^i|| ~ 1/i^2, residual-scale sqrt(eps2) ~ 1/i^2
        t = 10_001
        idx = np.arange(t, dtype=float)
        idx[0] = 1.0
        eps1n = 1.0 / idx**2
        eps2 = 1.0 / idx**4
        trace = synthetic_trace(eps1n, eps2)
        params = make_params()
        vals = bound_acc_det_corollary_series(trace, params, variant="approx")
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
        cor_b = bound_basic_det_corollary_series(bas, params, x_star, "approx")
        sch_b = bound_schmidt_basic_series(bas, params)
        assert np.all(cor_b[5:] <= sch_b[5:])
        cor_a = bound_acc_det_corollary_series(acc, params_acc, x_star, "approx")
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
            lambda t: bound_basic_det_corollary_series(t, params, variant="approx"),
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
        series = evaluate_all_series(bas, params, x_star, "basic")
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


def random_bound_per_k(params, k, eps2, variant):
    """Basic random theorem at one k from the first k prox errors (loop form)."""
    g, s, d = params.gamma, params.s, params.dist0
    base = math.sqrt(params.n) * params.m_grad * abs(params.delta)
    eps_seq = eps2[:k]
    if variant == "sharp":
        mid = g * d * math.sqrt(float(((base + np.sqrt(2.0 * eps_seq / s)) ** 2).sum())) / k
    else:
        prox = math.sqrt(2.0 * params.eps0 / s) if variant == "stated" else 0.0
        mid = (g / math.sqrt(k)) * (base + prox) * d
    return float(eps_seq.sum()) / k + mid + d * d / (2.0 * s * k)


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

    @pytest.mark.parametrize("variant", ["stated", "approx", "sharp"])
    def test_random_series_matches_per_k_calls(self, noisy_runs, variant):
        _, _, _, bas, _, params, _ = noisy_runs
        values, probs = bound_basic_random_series(bas, params, variant)
        assert np.isnan(values[0]) and np.isnan(probs[0])
        for k in range(1, bas.num_steps):
            arg = bas.eps2 if variant == "sharp" else bas.eps2[:k].sum()
            value, prob = bound_basic_random(params, k, arg, variant)
            expected = random_bound_per_k(params, k, bas.eps2, variant)
            assert value == pytest.approx(expected, rel=1e-12)
            assert values[k] == pytest.approx(expected, rel=1e-12)
            assert probs[k] == prob == pytest.approx(1 - 2 * math.exp(-params.gamma**2 / 2))

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
