import numpy as np
import pytest

from proxcert import (
    GradientErrorSpec,
    ProxErrorSpec,
    SolverConfig,
    reference_solution,
)
from proxcert.experiments import (
    MpcSpec,
    StateSpaceModel,
    azuma_coverage,
    build_prediction_matrices,
    gen_lasso,
    hoeffding_coverage,
    martingale_diagnostic,
    mpc_closed_loop,
    mpc_to_lasso,
    spacecraft_model,
    spacecraft_mpc,
)
from proxcert.experiments.mpc import SPACECRAFT_LAMBDA

from oracles import (
    grid_min,
    lqr_closed_form,
    quadratic_hessian,
    reference_condensation,
    rollout_objective,
    simulate_states,
)


def scalar_spec(a=1.0, b=1.0, n_p=2, n_c=2, q=1.0, r=0.0, lam=0.0, x0=1.0):
    model = StateSpaceModel(np.array([[a]]), np.array([[b]]))
    return MpcSpec(
        model=model,
        n_p=n_p,
        n_c=n_c,
        q_step=np.array([q]),
        r_step=np.array([r]),
        lam=lam,
        x0=np.array([x0]),
    )


class TestPredictionMatrices:
    def test_identity_dynamics(self):
        spec = scalar_spec()
        psi, phi = build_prediction_matrices(spec)
        assert np.allclose(psi, [[1.0], [1.0]])
        assert np.allclose(phi, [[1.0, 0.0], [1.0, 1.0]])

    def test_spacecraft_block_21_is_cab(self):
        spec = spacecraft_mpc(n_p=2, n_c=2)
        _, phi = build_prediction_matrices(spec)
        model = spec.model
        direct = model.a @ model.b
        assert np.array_equal(phi[7:14, 0:4], direct)
        assert np.array_equal(phi[0:7, 0:4], model.b)

    def test_rollout_oracle(self, rng):
        spec = spacecraft_mpc(n_p=4, n_c=3, x0=rng.standard_normal(7))
        psi, phi = build_prediction_matrices(spec)
        u = rng.standard_normal(spec.n_moves)
        x_matrix = psi @ spec.x0 + phi @ u
        x_rollout = simulate_states(spec, u)
        assert np.allclose(x_matrix, x_rollout, atol=1e-10)

    def test_invalid_horizons(self):
        with pytest.raises(ValueError):
            scalar_spec(n_p=2, n_c=3)


class TestSpacecraftConstants:
    def test_matrices_match_reference(self):
        model = spacecraft_model()
        assert model.a.shape == (7, 7) and model.b.shape == (7, 4)
        assert model.a[0, 2] == 0.8416 and model.a[0, 4] == -1.267
        assert model.a[2, 0] == -0.9763 and model.a[2, 6] == -0.04749
        assert model.a[1, 5] == -0.8107 and model.a[3, 5] == 0.8107
        assert np.all(model.a[4:, :3] == 0.5 * np.eye(3))
        assert model.b[0, 0] == 0.2353 and model.b[3, 3] == 25000.0
        assert model.b[1, 1] == 0.2306 and model.b[2, 2] == 0.2729

    def test_weights_tile_to_reference_window(self):
        # the reference diagonal lists cover a 2-step window
        spec = spacecraft_mpc(n_p=2, n_c=2)
        q_full, root, _, _ = spec.condensed_weights()
        assert np.array_equal(
            q_full,
            [500.0, 500.0, 500.0, 1e-7, 1.0, 1.0, 1.0] * 2,
        )
        # H^{1/2} squares to Phi'Q Phi + R, R the input weights tiled the same way
        _, phi = spec.prediction_matrices()
        r_full = np.diag([200.0, 200.0, 200.0, 1.0] * 2)
        assert np.allclose(root @ root, phi.T @ np.diag(q_full) @ phi + r_full, rtol=1e-9)
        assert spec.lam == SPACECRAFT_LAMBDA == 16.79


class TestCondensation:
    def test_offset_makes_objectives_equal(self, rng):
        for _ in range(5):
            spec = spacecraft_mpc(n_p=3, n_c=2, x0=rng.standard_normal(7))
            problem = mpc_to_lasso(spec)
            offset = problem.meta["offset"]
            for _ in range(10):
                u = rng.standard_normal(spec.n_moves)
                direct = rollout_objective(spec, u)
                condensed = problem.smooth.value(u)
                assert direct == pytest.approx(condensed + offset, rel=1e-10)

    def test_value_at_zero_matches(self, rng):
        spec = spacecraft_mpc(n_p=2, n_c=2, x0=rng.standard_normal(7))
        problem = mpc_to_lasso(spec)
        direct = rollout_objective(spec, np.zeros(spec.n_moves))
        assert direct == pytest.approx(
            problem.f_value(np.zeros(spec.n_moves)) + problem.meta["offset"], rel=1e-8
        )

    def test_offset_constant_across_random_inputs(self, rng):
        model = StateSpaceModel(rng.standard_normal((2, 2)) * 0.5, rng.standard_normal((2, 1)))
        spec = MpcSpec(
            model=model,
            n_p=3,
            n_c=3,
            q_step=np.array([2.0, 1.0]),
            r_step=np.array([0.5]),
            lam=0.3,
            x0=rng.standard_normal(2),
        )
        problem = mpc_to_lasso(spec)
        diffs = []
        for _ in range(100):
            u = rng.standard_normal(spec.n_moves)
            diffs.append(rollout_objective(spec, u) - problem.smooth.value(u))
        diffs = np.asarray(diffs)
        assert diffs.var() / max(diffs.mean() ** 2, 1e-300) <= 1e-16

    def test_lqr_gradient_zero_when_unregularized(self, rng):
        spec = spacecraft_mpc(n_p=2, n_c=2, lam=0.0, x0=rng.standard_normal(7))
        problem = mpc_to_lasso(spec)
        u_star = lqr_closed_form(spec, spec.x0)
        assert np.linalg.norm(problem.grad(u_star)) <= 1e-8 * max(
            1.0, np.linalg.norm(problem.grad(np.zeros(spec.n_moves)))
        )

    def test_state_change_reuses_state_free_condensation(self, rng):
        # with_state shares H, its roots and L; the condensation at the new
        # state must equal a fresh one to the bit
        spec = spacecraft_mpc(n_p=10)
        first = mpc_to_lasso(spec)
        for _ in range(3):
            x = rng.standard_normal(7)
            cached = mpc_to_lasso(spec.with_state(x))
            fresh = mpc_to_lasso(spacecraft_mpc(n_p=10, x0=x))
            assert np.array_equal(cached.smooth.mat, fresh.smooth.mat)
            assert np.array_equal(cached.smooth.vec, fresh.smooth.vec)
            assert cached.lipschitz == fresh.lipschitz
            assert cached.meta["offset"] == fresh.meta["offset"]
            assert cached.smooth.mat is first.smooth.mat

    def test_matches_dense_diagonal_weights_bit_for_bit(self, rng):
        # the weights scale Phi's rows as vectors; a C-ordered Phi'Q keeps the
        # bits of the product with the dense diagonal Q at every horizon pair
        bits = lambda a: np.asarray(a, dtype=float).tobytes()
        states = [np.zeros(7), np.ones(7), rng.standard_normal(7)]
        for n_p in range(1, 13):
            for n_c in range(1, n_p + 1):
                spec = spacecraft_mpc(n_p=n_p, n_c=n_c)
                for x in states:
                    problem = mpc_to_lasso(spec.with_state(x))
                    mat, vec, lipschitz, offset = reference_condensation(spec.with_state(x))
                    assert bits(problem.smooth.mat) == bits(mat), (n_p, n_c)
                    assert bits(problem.smooth.vec) == bits(vec), (n_p, n_c)
                    assert bits(problem.lipschitz) == bits(lipschitz), (n_p, n_c)
                    assert bits(problem.meta["offset"]) == bits(offset), (n_p, n_c)

    def test_with_state_checks_only_the_state(self):
        spec = spacecraft_mpc(n_p=2)
        moved = spec.with_state([0.5] * 7)
        assert moved.x0.tolist() == [0.5] * 7 and spec.x0.tolist() == [0.0] * 7
        assert moved._cache is spec._cache and (moved.n_p, moved.lam) == (spec.n_p, spec.lam)
        with pytest.raises(ValueError, match="x0 has dimension 6"):
            spec.with_state(np.zeros(6))

    def test_lipschitz_reported_for_documented_horizons(self):
        # the paper reports 8388 for the quadratic term; computed constants
        # for the documented horizon pairings are asserted below (see the
        # README note on acceptance criterion 8 for the discrepancy analysis)
        values = {}
        for horizon in (2, 10):
            spec = spacecraft_mpc(n_p=horizon, n_c=horizon)
            values[horizon] = mpc_to_lasso(spec).lipschitz
        assert values[2] == pytest.approx(556.24, rel=1e-3)
        assert values[10] == pytest.approx(10981.5, rel=1e-3)

    def test_lipschitz_matches_rollout_hessian_at_every_horizon(self):
        # L must be the exact curvature at every pairing, not only at the
        # documented ones: a 1/L step must not exceed the 1/L premise
        worst = {}
        for n_p in range(1, 13):
            for n_c in range(1, n_p + 1):
                spec = spacecraft_mpc(n_p=n_p, n_c=n_c)
                hess = quadratic_hessian(lambda u: rollout_objective(spec, u), spec.n_moves)
                oracle = float(np.linalg.eigvalsh(hess)[-1])
                worst[(n_p, n_c)] = abs(mpc_to_lasso(spec).lipschitz - oracle) / oracle
        assert len(worst) == 78
        assert max(worst.values()) <= 1e-12, max(worst.items(), key=lambda kv: kv[1])


class TestLqrClosedForm:
    def test_scalar_system_against_grid_search(self):
        spec = scalar_spec(a=0.8, b=0.5, n_p=1, n_c=1, q=2.0, r=1.5, x0=1.3)
        u_star = lqr_closed_form(spec, spec.x0)
        # by hand: (q b^2 + r) u = b q (0 - a x0): 2.0 u = -1.04
        assert u_star[0] == pytest.approx(-0.52, abs=1e-10)
        # grid search agrees up to the floating plateau of a smooth minimum
        objective = lambda u: rollout_objective(spec, np.array([u]))
        oracle = grid_min(objective, -5.0, 5.0)
        assert u_star[0] == pytest.approx(oracle, abs=1e-6)

    def test_stationarity_of_weighted_objective(self, rng):
        spec = spacecraft_mpc(n_p=2, n_c=2, x0=rng.standard_normal(7))
        u_star = lqr_closed_form(spec, spec.x0)
        psi, phi = spec.prediction_matrices()
        q_full, r_full = np.diag(np.tile(spec.q_step, 2)), np.diag(np.tile(spec.r_step, 2))
        grad = 2 * (phi.T @ q_full @ phi + r_full) @ u_star + 2 * phi.T @ q_full @ psi @ spec.x0
        assert np.linalg.norm(grad) <= 1e-8 * max(1.0, np.linalg.norm(u_star))


class TestClosedLoop:
    def test_origin_is_fixed_point(self):
        spec = spacecraft_mpc(n_p=2, n_c=2, x0=np.zeros(7))
        config = SolverConfig(variant="basic", max_iters=30)
        report = mpc_closed_loop(spec, config, steps=3)
        assert np.all(report.controls == 0.0)
        assert np.all(report.states == 0.0)

    def test_regulator_contracts_after_transient(self):
        spec = spacecraft_mpc(n_p=2, n_c=2, lam=0.1)
        config = SolverConfig(variant="basic", max_iters=150)
        x0 = 0.1 * np.ones(7)
        report = mpc_closed_loop(spec, config, steps=12, x0=x0)
        norms = report.state_norms
        # the wheel-speed state spikes on the first move (huge input gain,
        # negligible output weight); after that transient the loop contracts
        # monotonically down to the solver's accuracy floor
        assert np.all(np.diff(norms[2:11]) < 0)
        assert norms[-1] < norms[0]

    def test_error_injection_degradation_recorded(self):
        spec = spacecraft_mpc(n_p=2, n_c=2, lam=0.1)
        x0 = 0.1 * np.ones(7)
        exact_cfg = SolverConfig(variant="basic", max_iters=60, seed=3)
        noisy_cfg = SolverConfig(
            variant="basic",
            max_iters=60,
            grad_error=GradientErrorSpec(model="relative", mode="random", delta=0.22),
            prox_error=ProxErrorSpec(mode="target_gap", eps0=1e-4),
            seed=3,
        )
        exact = mpc_closed_loop(spec, exact_cfg, steps=8, x0=x0)
        noisy = mpc_closed_loop(spec, noisy_cfg, steps=8, x0=x0)
        degradation = noisy.state_norms[-1] - exact.state_norms[-1]
        assert np.isfinite(degradation)
        assert exact.status == "ok" and noisy.status == "ok"
        assert len(noisy.traces) == 8


class TestGenLasso:
    def test_paper_scale_defaults(self):
        problem = gen_lasso(seed=1)
        assert problem.smooth.mat.shape == (500, 100) and problem.smooth.half
        assert int(np.sum(problem.meta["x_true"] != 0)) == 10

    def test_seed_reproducibility(self):
        a = gen_lasso(n=30, m=60, seed=5)
        b = gen_lasso(n=30, m=60, seed=5)
        assert np.array_equal(a.smooth.mat, b.smooth.mat)
        assert np.array_equal(a.smooth.vec, b.smooth.vec) and a.reg.lam == b.reg.lam
        assert np.array_equal(a.meta["x_true"], b.meta["x_true"])
        c = gen_lasso(n=30, m=60, seed=6)
        assert not np.array_equal(a.smooth.mat, c.smooth.mat)

    def test_noiseless_tiny_lambda_fits_exactly(self):
        prob = gen_lasso(n=15, m=40, noise=0.0, lam=1e-10, seed=3)
        a, y = prob.smooth.mat, prob.smooth.vec
        # least-squares oracle: the consistent overdetermined system is solvable
        x_ls, *_ = np.linalg.lstsq(a, y, rcond=None)
        assert np.linalg.norm(a @ x_ls - y) <= 1e-10
        x_hat, _ = reference_solution(prob)
        assert np.linalg.norm(a @ x_hat - y) <= 1e-8

    def test_sparsity_validation(self):
        with pytest.raises(ValueError):
            gen_lasso(n=10, m=5, sparsity=11)
        with pytest.raises(ValueError):
            gen_lasso(n=0)


@pytest.fixture(scope="module")
def setup():
    prob = gen_lasso(n=20, m=50, seed=7)
    x_star, _ = reference_solution(prob)
    return prob, x_star


class TestMartingaleDiagnostic:

    def test_symmetric_injectors_pass(self, setup):
        prob, x_star = setup
        gspec = GradientErrorSpec(model="absolute", mode="random", delta=1e-3)
        pspec = ProxErrorSpec(mode="target_gap", eps0=1e-6)
        for variant in ("basic", "accelerated"):
            rep = martingale_diagnostic(
                prob, gspec, pspec, trials=150, k_max=20, seed=11, variant=variant, x_star=x_star
            )
            assert rep.status == "pass", rep.statistics

    def test_biased_control_fails(self, setup):
        prob, x_star = setup
        biased = GradientErrorSpec(model="absolute", mode="random", delta=1e-3, lo=0.0, hi=1e-3)
        pspec = ProxErrorSpec(mode="target_gap", eps0=1e-6)
        rep = martingale_diagnostic(
            prob, biased, pspec, trials=150, k_max=20, seed=11, variant="basic", x_star=x_star
        )
        assert rep.status == "fail"

    def test_zero_errors_trivially_pass(self, setup):
        prob, x_star = setup
        rep = martingale_diagnostic(
            prob, None, None, trials=120, k_max=10, seed=11, variant="basic", x_star=x_star
        )
        assert rep.status == "pass"
        assert rep.statistics["max_drift_ratio"] == 0.0

    def test_too_few_trials_inconclusive(self, setup):
        prob, x_star = setup
        gspec = GradientErrorSpec(model="absolute", mode="random", delta=1e-3)
        rep = martingale_diagnostic(
            prob,
            gspec,
            ProxErrorSpec(),
            trials=10,
            k_max=20,
            seed=11,
            variant="basic",
            x_star=x_star,
        )
        assert rep.status == "inconclusive"

    def test_reproducible(self, setup):
        prob, x_star = setup
        gspec = GradientErrorSpec(model="absolute", mode="random", delta=1e-3)
        pspec = ProxErrorSpec(mode="target_gap", eps0=1e-6)
        r1 = martingale_diagnostic(
            prob, gspec, pspec, trials=120, k_max=10, seed=4, variant="basic", x_star=x_star
        )
        r2 = martingale_diagnostic(
            prob, gspec, pspec, trials=120, k_max=10, seed=4, variant="basic", x_star=x_star
        )
        assert r1.statistics == r2.statistics


class TestAzumaCoverage:
    def test_gamma_grid(self):
        rep = azuma_coverage(np.ones(50), [1.0, 2.0, 3.0], trials=10_000, seed=0)
        assert rep.status == "pass"
        assert rep.statistics["gamma=3.0"] <= 2 * np.exp(-4.5) + 0.01

    def test_gamma_zero_vacuous(self):
        rep = azuma_coverage(np.ones(10), [0.0], trials=500, seed=0)
        assert rep.status == "pass"

    def test_zero_increments(self):
        rep = azuma_coverage(np.zeros(10), [1.0, 3.0], trials=500, seed=0)
        assert rep.status == "pass"
        assert all(v == 0.0 or g == 0 for (g, v) in enumerate(rep.statistics.values()))

    def test_thresholds_recorded(self):
        rep = azuma_coverage(np.ones(5), [2.0], trials=200, seed=0)
        assert rep.thresholds and rep.details


class TestHoeffdingCoverage:
    def test_uniform_summands(self):
        rep = hoeffding_coverage(0.0, 1e-4, 100, [1.0, 2.0, 3.0], trials=10_000, seed=0)
        assert rep.status == "pass"

    def test_constant_summands(self):
        rep = hoeffding_coverage(0.5, 0.5, 50, [1.0, 3.0], trials=300, seed=0)
        assert rep.status == "pass"

    def test_reproducible(self):
        a = hoeffding_coverage(0.0, 1.0, 20, [2.0], trials=2000, seed=9)
        b = hoeffding_coverage(0.0, 1.0, 20, [2.0], trials=2000, seed=9)
        assert a.statistics == b.statistics
