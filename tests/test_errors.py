import numpy as np
import pytest
from scipy.integrate import quad as quadrature

from proxcert import (
    CompositeProblem,
    FixedPointFormat,
    GradientErrorSpec,
    L1Term,
    OracleError,
    ProxErrorSpec,
    QuadraticSmooth,
    SolverConfig,
    approx_prox,
    quantized_gradient,
    run_basic,
    sample_truncated_gaussian,
)
from proxcert.errors import (
    draw_tape,
    inner_solver_prox,
    quantize_quadratic,
    truncated_gaussian_mean,
)

from oracles import l1_ray_point


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


class TestTruncatedGaussianMean:
    """The mean against quadrature with no absolute tolerance, or against the
    series h/2 - h^3/24 of [0, h], whose error O(h^5) is below 1e-16
    relative for h <= 1e-4."""

    @staticmethod
    def quadrature_mean(lo, hi):
        phi = lambda t: np.exp(-0.5 * t * t) / np.sqrt(2 * np.pi)
        tol = dict(epsabs=0.0, epsrel=1e-13)
        return quadrature(lambda t: t * phi(t), lo, hi, **tol)[0] / quadrature(phi, lo, hi, **tol)[0]

    @pytest.mark.parametrize("eps0", [1e-2, 1e-4, 1e-6, 1e-9, 1e-12])
    def test_narrow_interval_at_zero(self, eps0):
        # the difference of densities and of CDFs cancels to 0.0 at eps0 <= 1e-8
        if eps0 <= 1e-4:
            oracle = eps0 / 2 - eps0**3 / 24
        else:
            oracle = self.quadrature_mean(0.0, eps0)
        assert truncated_gaussian_mean(0.0, eps0) == pytest.approx(oracle, rel=1e-12, abs=0)

    @pytest.mark.parametrize("lo, hi", [(-0.5, 1.5), (-2.0, 0.25), (1.0, 3.0), (-3.0, -1.0)])
    def test_wide_intervals(self, lo, hi):
        oracle = self.quadrature_mean(lo, hi)
        assert truncated_gaussian_mean(lo, hi) == pytest.approx(oracle, rel=1e-12, abs=0)


def unit(v):
    return v / np.linalg.norm(v)


def ray_cases():
    """2,500 seeded ray solves ``(h, s, w, target, d)``: n up to 12, l1 weights
    0 and 0.05-3, stepsizes 1e-3 to 10, targets 1e-12 to 10, directions with
    zero entries."""
    rng = np.random.default_rng(20240601)
    for _ in range(2500):
        n = int(rng.integers(1, 13))
        h = L1Term(float(rng.choice([0.0, rng.uniform(0.05, 3.0)])))
        s = float(10 ** rng.uniform(-3, 1))
        w = rng.standard_normal(n) * 10 ** rng.uniform(-2, 1)
        d = rng.standard_normal(n)
        d[rng.random(n) < 0.3] = 0.0
        d[0] = d[0] or 1.0
        yield h, s, w, float(10 ** rng.uniform(-12, 1)), unit(d)


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

    @pytest.mark.parametrize("text", ["s8.4", "u8.4"])
    @pytest.mark.parametrize("rounding", ["nearest"])  # the rounding quantize implements
    def test_bits_match_where_signbit_and_clip(self, text, rounding):
        # the former formula: round |y| and restore the sign with a
        # where(signbit) product, then np.clip; compared bit by bit on signed
        # zeros, ties, saturation, infinities and both NaN signs
        fmt = FixedPointFormat.parse(text)
        ticks = np.arange(-300, 301) + 0.5
        with np.errstate(invalid="ignore"):
            neg_nan = np.array([np.inf]) - np.inf  # the sign-bit-set NaN of x86 arithmetic
        x = np.concatenate(
            (
                [0.0, -0.0, 1e-300, -1e-300, 0.01, -0.01, 1e6, -1e6, np.inf, -np.inf, np.nan],
                neg_nan,
                ticks * fmt.ulp,
                -ticks * fmt.ulp,
            )
        )
        y = x * 2.0**fmt.frac
        q = np.floor(np.abs(y) + 0.5) * np.where(np.signbit(y), -1.0, 1.0)
        lo, hi = fmt.dynamic_range()
        ref = np.clip(q, lo * 2.0**fmt.frac, hi * 2.0**fmt.frac) * 2.0**-fmt.frac
        assert fmt.quantize(x).view(np.uint64).tolist() == ref.view(np.uint64).tolist()
        for v, r in zip(x, ref):
            assert np.float64(fmt.quantize(float(v))).tobytes() == r.tobytes()

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
        g = quantized_gradient(fmt, quantize_quadratic(fmt, quad), x)
        return g, g - quad.grad(x)

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
            assert np.array_equal(quantized_gradient(fmt, quad_q, x), ref)


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

    def test_ray_solve_lands_on_its_aim(self):
        # the gap along the ray is piecewise quadratic and solved exactly, so
        # it lands on 0.95 * target, not merely somewhere in [0.9, 1] * target
        worst, most_kinks, zero_dirs = 0.0, 0, 0
        for h, s, w, target, d in ray_cases():
            zero_dirs += bool(np.any(d == 0.0))
            x, gap, _ = approx_prox(h, s, w, target, d)
            worst = max(worst, abs(gap - 0.95 * target) / (0.95 * target))
            x_exact = h.prox(s, w)
            crossed = (np.sign(x_exact) * d < 0) & (np.sign(x) != np.sign(x_exact))
            most_kinks = max(most_kinks, int(crossed.sum()))
            if target >= 1e-3:
                G = lambda z: h.value(z) + float((z - w) @ (z - w)) / (2 * s)
                assert G(x) - G(x_exact) == pytest.approx(gap, rel=1e-9, abs=1e-12)
        assert worst <= 1e-9
        assert most_kinks >= 5 and zero_dirs >= 500

    def test_matches_full_sort_and_scan_to_the_bit(self):
        # the first-segment exit and the scan give the scan's point, gap and
        # residual exactly, whether the point lies before the first kink or
        # beyond several
        crossed_counts = []
        for h, s, w, target, d in ray_cases():
            x, gap, r = approx_prox(h, s, w, target, d)
            x_ref, gap_ref, r_ref = l1_ray_point(h.lam, s, w, target, d)
            assert x.tobytes() == x_ref.tobytes() and r.tobytes() == r_ref.tobytes()
            assert np.float64(gap).tobytes() == np.float64(gap_ref).tobytes()
            x_exact = h.prox(s, w)
            crossed = (np.sign(x_exact) * d < 0) & (np.sign(x) != np.sign(x_exact))
            crossed_counts.append(int(crossed.sum()))
        crossed_counts = np.array(crossed_counts)
        assert np.sum(crossed_counts == 0) >= 1000 and np.sum(crossed_counts >= 3) >= 20

    def test_one_gap_evaluation_per_call(self, rng, monkeypatch):
        import proxcert.errors as errors

        calls = []
        gap_along = errors._gap_along
        monkeypatch.setattr(errors, "_gap_along", lambda *a: calls.append(a) or gap_along(*a))
        for target in (1e-12, 1e-4, 10.0):
            w, d = rng.standard_normal(8), unit(rng.standard_normal(8))
            approx_prox(L1Term(0.5), 0.3, w, target, d)
        assert len(calls) == 3

    def test_non_finite_point_raises(self):
        # a diverged iterate has no eps2-prox point; the window check reports it
        with np.errstate(invalid="ignore"), pytest.raises(OracleError):
            approx_prox(L1Term(1.0), 0.5, np.array([np.inf, 1.0]), 1e-4, unit(np.ones(2)))


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

    def test_error_free_kinds_allocate_nothing(self, monkeypatch):
        inner = ProxErrorSpec(mode="inner_solver", eps0=1e-6)
        fmt = FixedPointFormat.parse("s16.8")
        for pspec in (None, ProxErrorSpec(), inner, ProxErrorSpec(mode="target_gap")):
            assert draw_tape(fmt, pspec, 5, 100_000, 0) == (None, None, None)
        # with no error kind on the tape, no stream is seeded either
        monkeypatch.setattr(np.random, "SeedSequence", None)
        for gspec in (None, fmt):
            for pspec in (None, ProxErrorSpec(), inner):
                assert draw_tape(gspec, pspec, 5, 100_000, 0) == (None, None, None)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ProxErrorSpec(mode="bogus")
        with pytest.raises(ValueError):
            ProxErrorSpec(direction="sideways")
