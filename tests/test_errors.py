import numpy as np
import pytest
from scipy.integrate import quad as quadrature

from proxcert import (
    CompositeProblem,
    FixedPointFormat,
    GradientErrorSpec,
    L1Term,
    ProxErrorSpec,
    QuadraticSmooth,
    SolverConfig,
    approx_prox,
    quantized_gradient,
    run_basic,
    sample_truncated_gaussian,
)
from proxcert.errors import draw_tape, inner_solver_prox, quantize_quadratic


class TestTruncatedGaussian:
    def test_symmetric_interval_mean_near_zero(self, rng):
        delta = 0.3
        draws = sample_truncated_gaussian(-delta, delta, 100_000, rng)
        se = draws.std() / np.sqrt(len(draws))
        assert abs(draws.mean()) <= 4 * se

    def test_support(self, rng):
        draws = sample_truncated_gaussian(0.0, 1e-4, 10_000, rng)
        assert np.all(draws >= 0.0) and np.all(draws <= 1e-4)

    def test_half_normal_mean_vs_quadrature(self, rng):
        # oracle: mean of the [0, 8]-truncated standard normal by quadrature
        phi = lambda t: np.exp(-0.5 * t * t) / np.sqrt(2 * np.pi)
        z, _ = quadrature(phi, 0.0, 8.0)
        oracle_mean = quadrature(lambda t: t * phi(t), 0.0, 8.0)[0] / z
        assert oracle_mean == pytest.approx(np.sqrt(2 / np.pi), rel=1e-9)
        draws = sample_truncated_gaussian(0.0, 8.0, 200_000, rng)
        assert draws.mean() == pytest.approx(oracle_mean, rel=0.01)

    def test_invalid_interval(self, rng):
        with pytest.raises(ValueError):
            sample_truncated_gaussian(1.0, 1.0, 3, rng)


def unit(v):
    return v / np.linalg.norm(v)


class TestGradientInjection:
    def test_zero_delta_is_exact(self):
        tape = draw_tape(GradientErrorSpec(delta=0.0), None, 4, 10, 0)
        assert tape == (None, None, None)

    def test_relative_model_zero_gradient(self):
        # x = 0 is a stationary point with zero gradient: the relative model
        # multiplies the gradient, so it injects nothing there
        problem = CompositeProblem.from_quadratic(QuadraticSmooth(np.eye(3), np.zeros(3)), 0.0)
        spec = GradientErrorSpec(model="relative", mode="random", delta=0.5)
        trace = run_basic(problem, SolverConfig(max_iters=5, grad_error=spec), np.zeros(3))
        assert np.all(trace.eps1 == 0) and np.all(trace.xs == 0)

    def test_absolute_bound_over_many_draws(self):
        spec = GradientErrorSpec(model="absolute", mode="random", delta=0.1)
        kappa = draw_tape(spec, None, 3, 10_000, 12345).kappa
        assert kappa.shape == (10_000, 3) and np.abs(kappa).max() <= 0.1

    def test_relative_bound(self, rng):
        spec = GradientErrorSpec(model="relative", mode="random", delta=0.2)
        g = rng.standard_normal(6)
        eps1 = draw_tape(spec, None, 6, 1000, 12345).kappa * g
        assert np.all(np.abs(eps1) <= 0.2 * np.abs(g) + 1e-15)

    def test_random_mode_mean_goes_to_zero(self):
        spec = GradientErrorSpec(model="absolute", mode="random", delta=0.05)
        eps = draw_tape(spec, None, 4, 20_000, 12345).kappa
        se = eps.std() / np.sqrt(eps.shape[0])
        assert np.all(np.abs(eps.mean(axis=0)) <= 4 * se)

    def test_deterministic_schedule_and_exhaustion(self, small_lasso):
        spec = GradientErrorSpec(
            model="absolute", mode="deterministic", schedule=(0.01, np.array([1.0, -1.0]))
        )
        assert np.array_equal(draw_tape(spec, None, 2, 2, 0).kappa, [[0.01, 0.01], [1.0, -1.0]])
        with pytest.raises(ValueError, match="schedule"):
            draw_tape(spec, None, 2, 3, 0)
        # a run longer than its schedule is refused before the first step
        spec = GradientErrorSpec(model="absolute", mode="deterministic", schedule=(0.01,) * 5)
        with pytest.raises(ValueError, match="schedule"):
            run_basic(small_lasso, SolverConfig(max_iters=6, grad_error=spec), np.zeros(20))

    def test_multipliers_equal_per_step_draws(self):
        # one (T, n) draw from the run's first spawned stream reproduces the
        # step-by-step draws bit for bit, so gradient-only runs keep their bytes
        for spec_lo, lo in ((None, -1e-3), (0.0, 0.0)):  # symmetric and biased
            spec = GradientErrorSpec(model="absolute", mode="random", delta=1e-3, lo=spec_lo)
            stream = np.random.default_rng(np.random.SeedSequence(41).spawn(2)[0])
            per_step = [sample_truncated_gaussian(lo, 1e-3, 7, stream) for _ in range(30)]
            assert np.array_equal(draw_tape(spec, None, 7, 30, 41).kappa, per_step)

    def test_lipschitz_inflation_relative_model(self, rng):
        # a shared multiplier realization kappa inflates L by at most (1+delta)
        delta = 0.3
        quad = QuadraticSmooth(rng.standard_normal((8, 5)), rng.standard_normal(8), half=True)
        L = quad.lipschitz()
        kappa = sample_truncated_gaussian(-delta, delta, 5, rng)
        noisy = lambda x: quad.grad(x) * (1.0 + kappa)
        for _ in range(50):
            y, z = rng.standard_normal(5), rng.standard_normal(5)
            lhs = np.linalg.norm(noisy(y) - noisy(z))
            assert lhs <= (1 + delta) * L * np.linalg.norm(y - z) * (1 + 1e-9)

    def test_absolute_shared_error_keeps_l(self, rng):
        quad = QuadraticSmooth(rng.standard_normal((8, 5)), rng.standard_normal(8), half=True)
        L = quad.lipschitz()
        eps1 = sample_truncated_gaussian(-0.5, 0.5, 5, rng)
        noisy = lambda x: quad.grad(x) + eps1
        for _ in range(50):
            y, z = rng.standard_normal(5), rng.standard_normal(5)
            lhs = np.linalg.norm(noisy(y) - noisy(z))
            assert lhs <= L * np.linalg.norm(y - z) * (1 + 1e-9)


class TestQuantize:
    def test_unsigned_dynamic_range(self):
        fmt = FixedPointFormat.parse("u8.4")
        assert fmt.dynamic_range() == (0.0, 15.9375)

    def test_signed_dynamic_range(self):
        fmt = FixedPointFormat.parse("s8.4")
        assert fmt.dynamic_range() == (-8.0, 7.9375)

    def test_round_half_away_from_zero(self):
        fmt = FixedPointFormat.parse("s8.4")
        # 1.3 * 16 = 20.8 -> 21 -> 21/16
        assert fmt.quantize(1.3) == pytest.approx(21 / 16)
        assert fmt.quantize(-1.3) == pytest.approx(-21 / 16)
        # exact tie rounds away from zero
        assert fmt.quantize(0.03125) == pytest.approx(1 / 16)
        assert fmt.quantize(-0.03125) == pytest.approx(-1 / 16)

    def test_zero_maps_to_zero(self):
        for text in ("u8.4", "s8.4", "s16.8", "u12.0"):
            assert FixedPointFormat.parse(text).quantize(0.0) == 0.0

    def test_saturation(self):
        fmt = FixedPointFormat.parse("s8.4")
        lo, hi = fmt.dynamic_range()
        assert fmt.quantize(100.0) == hi
        assert fmt.quantize(-100.0) == lo
        assert fmt.quantize(np.inf) == hi
        u = FixedPointFormat.parse("u8.4")
        assert u.quantize(-1.0) == 0.0

    def test_idempotent(self, rng):
        fmt = FixedPointFormat.parse("s12.6")
        x = rng.standard_normal(100_000) * 100
        once = fmt.quantize(x)
        assert np.array_equal(fmt.quantize(once), once)

    def test_floor_mode(self):
        fmt = FixedPointFormat(8, 4, signed=True, rounding="floor")
        assert fmt.quantize(1.3) == pytest.approx(20 / 16)
        assert fmt.quantize(-1.3) == pytest.approx(-21 / 16)

    def test_parse_rejects_bad_formats(self):
        for bad in ("s4.8", "x8.4", "s8", "8.4", "s0.0"):
            with pytest.raises(ValueError):
                FixedPointFormat.parse(bad)

    def test_parse_roundtrip(self):
        fmt = FixedPointFormat.parse("u16.8")
        assert str(fmt) == "u16.8" and fmt.ulp == 2.0**-8


class TestQuantizedGradient:
    @staticmethod
    def quantized(fmt, quad, x):
        return quantized_gradient(fmt, quantize_quadratic(fmt, quad), x, quad.grad(x))

    def test_wide_format_is_lossless(self, rng):
        quad = QuadraticSmooth(rng.standard_normal((5, 4)), rng.standard_normal(5), half=True)
        fmt = FixedPointFormat(60, 48, signed=True)
        x = rng.standard_normal(4)
        _, eps1 = self.quantized(fmt, quad, x)
        assert np.abs(eps1).max() <= 1e-12

    def test_s16_8_amplification_recorded(self, rng):
        quad = QuadraticSmooth(rng.standard_normal((6, 4)), rng.standard_normal(6), half=True)
        fmt = FixedPointFormat.parse("s16.8")
        x = rng.standard_normal(4)
        _, eps1 = self.quantized(fmt, quad, x)
        amp = np.abs(eps1).max() / (quad.n * fmt.ulp / 2.0)
        assert amp <= 16.0  # unit-scale data keeps the amplification modest

    def test_saturating_input_clamps(self, rng):
        quad = QuadraticSmooth(np.eye(2), np.zeros(2), half=True)
        fmt = FixedPointFormat.parse("s8.4")
        g, _ = self.quantized(fmt, quad, np.array([1000.0, -1000.0]))
        lo, hi = fmt.dynamic_range()
        assert g[0] == hi and g[1] == lo

    @pytest.mark.parametrize("half", [False, True])
    def test_matches_requantizing_every_operand(self, rng, half):
        # quantizing M and v once per run gives the bits of quantizing
        # every operand at every call
        fmt = FixedPointFormat.parse("s16.8")
        mat, vec = 3 * rng.standard_normal((9, 5)), rng.standard_normal(9)
        quad = QuadraticSmooth(mat, vec, half=half)
        quad_q = quantize_quadratic(fmt, quad)
        q = fmt.quantize
        for _ in range(20):
            x = rng.standard_normal(5)
            ref = q(mat).T @ (q(mat) @ q(x) - q(vec))
            ref = q(ref if half else 2.0 * ref)
            g, eps1 = quantized_gradient(fmt, quad_q, x, quad.grad(x))
            assert np.array_equal(g, ref) and np.array_equal(eps1, ref - quad.grad(x))


class TestApproxProx:
    def test_zero_target_is_exact(self, rng):
        h = L1Term(1.0)
        w = rng.standard_normal(5)
        x, gap, r = approx_prox(h, 0.5, w, 0.0, unit(rng.standard_normal(5)))
        assert gap == 0.0 and np.all(r == 0)
        assert np.allclose(x, h.prox(0.5, w))

    def test_gap_window_by_direct_evaluation(self, rng):
        # both sides of the suboptimal-prox membership, raw objective
        h = L1Term(1.0)
        s, target = 0.5, 1e-4
        w = rng.standard_normal(6)
        x, gap, r = approx_prox(h, s, w, target, unit(rng.standard_normal(6)))
        G = lambda z: h.value(z) + np.linalg.norm(z - w) ** 2 / (2 * s)
        direct_gap = G(x) - G(h.prox(s, w))
        assert 0.9 * target <= direct_gap <= target * (1 + 1e-6)
        assert gap == pytest.approx(direct_gap, abs=1e-12)

    def test_residual_lemma(self, rng):
        h = L1Term(0.8)
        for _ in range(500):
            s = float(rng.uniform(0.01, 2.0))
            target = float(rng.uniform(0, 1e-3))
            w = rng.standard_normal(4)
            _, gap, r = approx_prox(h, s, w, target, unit(rng.standard_normal(4)))
            assert np.linalg.norm(r) <= np.sqrt(2 * s * gap) + 1e-10

    def test_random_symmetric_residual_mean(self):
        # fixed w with the exact prox away from the l1 kinks: there the
        # subproblem gap is direction-even, so the residual is exactly
        # sign-symmetric (at kink coordinates the symmetry is only
        # statistical; that gap is documented)
        h = L1Term(1.0)
        s, target, n, count = 0.5, 1e-4, 4, 10_000
        w = np.array([1.2, -0.9, 0.8, -1.5])
        spec = ProxErrorSpec(mode="target_gap", schedule=(target,) * count)
        tape = draw_tape(None, spec, n, count, 12345)
        rs = np.array([approx_prox(h, s, w, target, d)[2] for d in tape.directions])
        se = rs.std() / np.sqrt(len(rs))
        assert np.linalg.norm(rs.mean(axis=0)) <= 4 * se * np.sqrt(n)

    def test_fixed_direction_is_deterministic(self, rng):
        h = L1Term(1.0)
        w = rng.standard_normal(4)
        spec = ProxErrorSpec(mode="target_gap", eps0=1e-5, direction="fixed")
        tape_a, tape_b = draw_tape(None, spec, 4, 3, 0), draw_tape(None, spec, 4, 3, 1)
        assert np.array_equal(tape_a.directions, np.full((3, 4), 0.5))
        assert np.array_equal(tape_a.directions, tape_b.directions)
        x1, g1, r1 = approx_prox(h, 0.5, w, 1e-5, tape_a.directions[0])
        x2, g2, r2 = approx_prox(h, 0.5, w, 1e-5, tape_b.directions[2])
        assert np.array_equal(x1, x2) and g1 == g2

    def test_invalid_inputs(self):
        d = unit(np.ones(2))
        with pytest.raises(ValueError):
            approx_prox(L1Term(1.0), 0.0, np.ones(2), 1e-4, d)
        with pytest.raises(ValueError):
            approx_prox(L1Term(1.0), 1.0, np.ones(2), -1.0, d)


class TestInnerSolverProx:
    def test_gap_below_tolerance(self, rng):
        h = L1Term(0.6)
        s, tol = 0.4, 1e-6
        w = rng.standard_normal(5) * 2
        z, gap, r = inner_solver_prox(h, s, w, tol)
        assert 0.0 <= gap <= tol
        assert np.linalg.norm(r) <= np.sqrt(2 * s * gap) + 1e-10

    def test_leaves_genuine_residual(self, rng):
        h = L1Term(0.6)
        w = rng.standard_normal(5) * 2
        _, gap, r = inner_solver_prox(h, 0.4, w, 1e-6)
        assert np.linalg.norm(r) > 0.0


class TestProxTape:
    def test_schedule_and_exhaustion(self, rng):
        spec = ProxErrorSpec(mode="target_gap", schedule=(1e-5, 0.0))
        tape = draw_tape(None, spec, 3, 2, 12345)
        assert np.array_equal(tape.targets, [1e-5, 0.0])
        h, targets, directions = L1Term(1.0), tape.targets, tape.directions
        _, gap0, _ = approx_prox(h, 0.5, rng.standard_normal(3), targets[0], directions[0])
        assert 0.9e-5 <= gap0 <= 1e-5 * (1 + 1e-9)
        _, gap1, r1 = approx_prox(h, 0.5, rng.standard_normal(3), targets[1], directions[1])
        assert gap1 == 0.0 and np.all(r1 == 0)
        with pytest.raises(ValueError, match="schedule"):
            draw_tape(None, spec, 3, 3, 0)

    def test_random_bound_respected(self, rng):
        spec = ProxErrorSpec(mode="target_gap", eps0=1e-4)
        tape = draw_tape(None, spec, 3, 200, 12345)
        assert np.all(tape.targets >= 0.0) and np.all(tape.targets <= 1e-4)
        h = L1Term(1.0)
        for target, d in zip(tape.targets, tape.directions):
            _, gap, _ = approx_prox(h, 0.5, rng.standard_normal(3), target, d)
            assert 0.0 <= gap <= 1e-4 * (1 + 1e-9)

    def test_directions_are_unit_and_zero_mean(self):
        spec = ProxErrorSpec(mode="target_gap", eps0=1e-4)
        d = draw_tape(None, spec, 3, 20_000, 5).directions
        assert np.allclose(np.linalg.norm(d, axis=1), 1.0, rtol=0, atol=1e-15)
        se = d.std(axis=0) / np.sqrt(len(d))
        assert np.all(np.abs(d.mean(axis=0)) <= 4 * se)

    def test_error_free_kinds_allocate_nothing(self):
        inner = ProxErrorSpec(mode="inner_solver", eps0=1e-6)
        fmt = FixedPointFormat.parse("s16.8")
        for pspec in (None, ProxErrorSpec(), inner, ProxErrorSpec(mode="target_gap")):
            assert draw_tape(fmt, pspec, 5, 100_000, 0) == (None, None, None)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ProxErrorSpec(mode="bogus")
        with pytest.raises(ValueError):
            ProxErrorSpec(direction="sideways")
