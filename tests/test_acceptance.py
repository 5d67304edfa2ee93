"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria are property-based (dominance, ordering, coverage, floors,
slopes) plus closed-form anchors; see the README for the mapping.
"""

import time

import numpy as np
import pytest

from proxcert import (
    BoundParams,
    CompositeProblem,
    FixedPointFormat,
    GradientErrorSpec,
    ProxErrorSpec,
    QuadraticSmooth,
    SolverConfig,
    approx_prox,
    L1Term,
    max_constant_stepsize,
    reference_solution,
    run_accelerated,
    run_basic,
)
from proxcert.bounds import (
    ObservedGaps,
    bound_acc_det_corollary_series,
    bound_acc_det_series,
    bound_basic_det_corollary_series,
    bound_basic_det_series,
    bound_basic_random_series,
    bound_basic_stationary,
    bound_schmidt_acc_series,
    bound_schmidt_basic_series,
    fejer_monotone,
)
from proxcert.errors import truncated_gaussian_mean
from proxcert.experiments import (
    azuma_coverage,
    gen_lasso,
    hoeffding_coverage,
    lasso_problem,
    martingale_diagnostic,
    mpc_to_lasso,
    spacecraft_mpc,
)
from proxcert.experiments.mpc import rollout_objective

from oracles import quadratic_hessian


def report(num, ok, detail=""):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


@pytest.fixture(scope="module")
def bench():
    """Seeded n=20, m=50 LASSO with a high-accuracy reference solution."""
    problem = lasso_problem(gen_lasso(n=20, m=50, seed=7))
    x_star, f_star = reference_solution(problem)
    return problem, x_star, f_star


@pytest.fixture(scope="module")
def error_sweep_runs(bench):
    """50 seeded runs over the (delta, eps0) grid: 25 basic + 25 accelerated.

    Returns (runs, build_seconds) so the criterion can account for the
    solver time as well as the bound evaluation.
    """
    t0 = time.perf_counter()
    problem, x_star, f_star = bench
    deltas = (1e-6, 1e-3, 0.22)
    eps0s = (1e-8, 1e-4)
    combos = [(d, e) for d in deltas for e in eps0s]
    runs = []
    idx = 0
    for variant in ("basic", "accelerated"):
        for j in range(25):
            delta, eps0 = combos[j % len(combos)]
            model = "absolute" if j % 2 == 0 else "relative"
            gspec = GradientErrorSpec(model=model, mode="random", delta=delta)
            pspec = ProxErrorSpec(mode="target_gap", eps0=eps0)
            s = max_constant_stepsize(problem.lipschitz, delta, relative=model == "relative")
            cfg = SolverConfig(
                variant=variant,
                max_iters=200,
                grad_error=gspec,
                prox_error=pspec,
                seed=500 + idx,
            )
            runner = run_accelerated if variant == "accelerated" else run_basic
            trace = runner(problem, cfg, np.zeros(problem.n))
            params = BoundParams.from_trace(
                problem, trace, x_star, model=model, delta=delta, eps0=eps0
            )
            runs.append((variant, trace, params))
            idx += 1
    return runs, time.perf_counter() - t0


class TestCriterion1:
    def test_error_free_rates(self, bench):
        problem, x_star, f_star = bench
        t0 = time.perf_counter()
        s = 1.0 / problem.lipschitz
        d2 = float(np.linalg.norm(x_star) ** 2)  # x0 = 0
        kmax = 500

        basic = run_basic(problem, SolverConfig(variant="basic", max_iters=kmax), np.zeros(20))
        csum = np.cumsum(basic.xs[1:], axis=0)
        ok_basic = True
        for k in range(1, kmax + 1):
            gap = problem.f_value(csum[k - 1] / k) - f_star
            if gap > d2 / (2 * s * k):
                ok_basic = False
                break

        acc = run_accelerated(
            problem, SolverConfig(variant="accelerated", max_iters=kmax), np.zeros(20)
        )
        gaps = acc.fvals[1:] - f_star
        ok_acc = bool(np.all(gaps <= d2 / (2 * s * acc.alphas**2)))
        elapsed = time.perf_counter() - t0
        ok = ok_basic and ok_acc and elapsed < 5.0
        assert report(
            1, ok, f"(basic={ok_basic}, accelerated={ok_acc}, {elapsed:.2f}s < 5s)"
        )


class TestCriterion2:
    def test_deterministic_bound_validity(self, bench, error_sweep_runs):
        problem, x_star, f_star = bench
        t0 = time.perf_counter()
        runs, build_seconds = error_sweep_runs
        violations = 0
        for variant, trace, params in runs:
            obs = ObservedGaps.from_trace(problem, trace, f_star)
            if variant == "basic":
                vals = bound_basic_det_series(trace, params, x_star)
                violations += int(np.sum(obs.ergodic_incl > vals))
            else:
                vals = bound_acc_det_series(trace, params, x_star)
                violations += int(np.sum(obs.iterate_next > vals))
        elapsed = time.perf_counter() - t0 + build_seconds
        ok = violations == 0 and elapsed < 60.0
        assert report(2, ok, f"(violations={violations} over 50 runs, {elapsed:.1f}s < 60s)")


class TestCriterion3:
    def test_improvement_over_baseline(self, bench, error_sweep_runs):
        problem, x_star, _ = bench
        violations = 0
        for variant, trace, params in error_sweep_runs[0]:
            if variant == "basic":
                ours = bound_basic_det_corollary_series(trace, params)
                base = bound_schmidt_basic_series(trace, params)
            else:
                ours = bound_acc_det_corollary_series(trace, params)
                base = bound_schmidt_acc_series(trace, params)
            violations += int(np.sum(ours[5:] > base[5:]))
        ok = violations == 0
        assert report(3, ok, f"(ordering violations at k>=5: {violations})")


class TestCriterion4:
    def test_residual_lemma(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(99)
        h = L1Term(1.0)
        worst = -np.inf
        for _ in range(10_000):
            s = float(rng.uniform(0.01, 2.0))
            eps2 = float(rng.uniform(0.0, 1e-3))
            w = rng.standard_normal(6)
            d = rng.standard_normal(6)
            _, gap, r = approx_prox(h, s, w, eps2, d / np.linalg.norm(d))
            worst = max(worst, float(np.linalg.norm(r)) - np.sqrt(2 * s * gap))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-10 and elapsed < 10.0
        assert report(4, ok, f"(max ||r|| - sqrt(2 s gap) = {worst:.2e}, {elapsed:.1f}s < 10s)")


class TestCriterion5:
    def test_probabilistic_coverage(self, bench):
        problem, x_star, f_star = bench
        t0 = time.perf_counter()
        gamma, delta, eps0, trials, kmax = 3.0, 1e-3, 1e-4, 500, 300
        gspec = GradientErrorSpec(model="absolute", mode="random", delta=delta)
        pspec = ProxErrorSpec(mode="target_gap", eps0=eps0)
        violating, monotone = 0, 0
        for i in range(trials):
            cfg = SolverConfig(
                variant="basic",
                max_iters=kmax,
                grad_error=gspec,
                prox_error=pspec,
                seed=3000 + i,
            )
            trace = run_basic(problem, cfg, np.zeros(problem.n))
            if fejer_monotone(trace, x_star):
                monotone += 1
            params = BoundParams.from_trace(
                problem, trace, x_star, model="absolute", delta=delta, eps0=eps0, gamma=gamma
            )
            vals, _ = bound_basic_random_series(trace, params)
            obs = ObservedGaps.from_trace(problem, trace, f_star)
            mask = np.isfinite(vals) & np.isfinite(obs.ergodic)
            if np.any(obs.ergodic[mask] > vals[mask]):
                violating += 1
        theo = 2 * np.exp(-(gamma**2) / 2)
        limit = theo + 3 * np.sqrt(theo * (1 - theo) / trials)
        rate = violating / trials
        elapsed = time.perf_counter() - t0
        ok = rate <= limit and monotone == trials and elapsed < 120.0
        assert report(
            5,
            ok,
            f"(rate={rate:.4f} <= {limit:.4f}, fejer {monotone}/{trials}, {elapsed:.0f}s < 120s)",
        )


class TestCriterion6:
    def test_stationary_floor(self, bench):
        problem, x_star, f_star = bench
        t0 = time.perf_counter()
        eps0 = 2.0e-3  # truncated-Gaussian mean on [0, eps0] is 1e-3
        mean = float(truncated_gaussian_mean(0.0, eps0))
        assert mean == pytest.approx(1e-3, rel=1e-3)
        pspec = ProxErrorSpec(mode="target_gap", eps0=eps0)
        cfg = SolverConfig(variant="basic", max_iters=10_000, prox_error=pspec, seed=3)
        trace = run_basic(problem, cfg, np.zeros(problem.n))
        k = trace.num_steps - 1
        observed = problem.f_value(trace.xs[1 : k + 1].mean(axis=0)) - f_star
        params = BoundParams.from_trace(
            problem, trace, x_star, model="absolute", delta=0.0, eps0=eps0, eps2_mean=mean
        )
        value, _ = bound_basic_stationary(params, k)
        elapsed = time.perf_counter() - t0
        ok = 0.1 * mean < observed <= value and elapsed < 30.0
        assert report(
            6,
            ok,
            f"(0.1E={0.1*mean:.1e} < observed={observed:.2e} <= bound={value:.2e}, "
            f"{elapsed:.1f}s < 30s)",
        )


class TestCriterion7:
    def test_acceleration_amplification(self):
        # calibrated toy: L = 1, x0 at the optimum, constant eps2 = 1e-4
        # injected along a fixed direction (deterministic curve)
        c = np.array([1.5, -0.2])
        problem = CompositeProblem.from_quadratic(
            QuadraticSmooth(np.eye(2), c, half=True), 0.3
        )
        x_star = np.sign(c) * np.maximum(np.abs(c) - 0.3, 0.0)
        x0 = x_star
        eps2 = 1e-4
        pspec = ProxErrorSpec(mode="target_gap", schedule=tuple([eps2] * 230), direction="fixed")
        acc = run_accelerated(
            problem,
            SolverConfig(variant="accelerated", max_iters=230, prox_error=pspec, seed=0),
            x0,
        )
        bas = run_basic(
            problem,
            SolverConfig(variant="basic", max_iters=230, prox_error=pspec, seed=0),
            x0,
        )
        p_acc = BoundParams.from_trace(problem, acc, x_star, eps0=eps2)
        p_bas = BoundParams.from_trace(problem, bas, x_star, eps0=eps2)
        acc_vals = bound_acc_det_series(acc, p_acc, x_star)
        bas_vals = bound_basic_det_series(bas, p_bas, x_star)
        ks = np.arange(20, 201)
        slope_acc = float(np.polyfit(np.log(ks), np.log(acc_vals[ks]), 1)[0])
        slope_bas = float(
            np.polyfit(np.log(ks), np.log(np.maximum(bas_vals[ks], 1e-300)), 1)[0]
        )
        ok = 0.9 <= slope_acc <= 1.1 and slope_bas <= 0.1
        assert report(
            7, ok, f"(accelerated slope={slope_acc:.3f} in [0.9,1.1], basic={slope_bas:.3f} <= 0.1)"
        )


class TestCriterion8:
    def test_mpc_condensation(self):
        rng = np.random.default_rng(17)
        worst_rel = 0.0
        for _ in range(50):
            spec = spacecraft_mpc(n_p=3, n_c=2, x0=rng.standard_normal(7))
            problem = mpc_to_lasso(spec)
            offset = problem.meta["offset"]
            u = rng.standard_normal(spec.n_moves)
            direct = rollout_objective(spec, u)
            condensed = problem.smooth.value(u) + offset
            worst_rel = max(worst_rel, abs(direct - condensed) / max(abs(direct), 1e-300))
        cond_ok = worst_rel <= 1e-10

        # L reported for the condensed problem must be the true curvature of
        # the MPC objective: lambda_max of the rollout Hessian, built from
        # explicit simulation only (no Psi/Phi, no condensation)
        lips = {}
        oracle = {}
        for horizon in (2, 10):
            spec = spacecraft_mpc(n_p=horizon, n_c=horizon)
            lips[horizon] = mpc_to_lasso(spec).lipschitz
            hess = quadratic_hessian(lambda u: rollout_objective(spec, u), spec.n_moves)
            oracle[horizon] = float(np.linalg.eigvalsh(hess)[-1])
        l_rel = {h: abs(lips[h] - oracle[h]) / oracle[h] for h in lips}
        l_ok = all(err <= 1e-9 for err in l_rel.values())
        ok = cond_ok and l_ok
        l_detail = ", ".join(
            f"N={h}: L={lips[h]:.6f} oracle={oracle[h]:.6f} rel err {l_rel[h]:.1e}" for h in lips
        )
        assert report(
            8,
            ok,
            f"(condensation rel err {worst_rel:.1e} <= 1e-10: {cond_ok}; "
            f"{l_detail}; L vs rollout-Hessian oracle within 1e-9: {l_ok})",
        )


class TestCriterion9:
    def test_fixed_point_exactness(self):
        dr_ok = True
        for width in range(1, 17):
            for frac in range(0, width):
                for signed in (False, True):
                    fmt = FixedPointFormat(width, frac, signed=signed)
                    lo, hi = fmt.dynamic_range()
                    i_bits = width - frac
                    if signed:
                        expect = (-(2.0 ** (i_bits - 1)), 2.0 ** (i_bits - 1) - 2.0**-frac)
                    else:
                        expect = (0.0, 2.0**i_bits - 2.0**-frac)
                    if (lo, hi) != expect:
                        dr_ok = False
                    if fmt.quantize(lo) != lo or fmt.quantize(hi) != hi:
                        dr_ok = False
                    if fmt.quantize(lo - 5.0) != lo or fmt.quantize(hi + 5.0) != hi:
                        dr_ok = False
        rng = np.random.default_rng(5)
        x = rng.standard_normal(100_000) * 300
        fmt = FixedPointFormat(16, 7, signed=True)
        once = fmt.quantize(x)
        idem_ok = bool(np.array_equal(fmt.quantize(once), once))
        ok = dr_ok and idem_ok
        assert report(9, ok, f"(dynamic ranges exact: {dr_ok}, idempotent: {idem_ok})")


class TestCriterion10:
    def test_martingale_and_concentration_suite(self, bench):
        problem, x_star, _ = bench
        t0 = time.perf_counter()
        gspec = GradientErrorSpec(model="absolute", mode="random", delta=1e-3)
        pspec = ProxErrorSpec(mode="target_gap", eps0=1e-6)
        sym = martingale_diagnostic(
            problem, gspec, pspec, trials=200, k_max=25, seed=11, variant="basic", x_star=x_star
        )
        sym_acc = martingale_diagnostic(
            problem,
            gspec,
            pspec,
            trials=200,
            k_max=25,
            seed=11,
            variant="accelerated",
            x_star=x_star,
        )
        biased = GradientErrorSpec(model="absolute", mode="random", delta=1e-3, lo=0.0, hi=1e-3)
        control = martingale_diagnostic(
            problem, biased, pspec, trials=200, k_max=25, seed=11, variant="basic", x_star=x_star
        )
        azuma = azuma_coverage(np.ones(60), [1.0, 2.0, 3.0], trials=10_000, seed=13)
        hoeff = hoeffding_coverage(0.0, 1e-4, 100, [1.0, 2.0, 3.0], trials=10_000, seed=13)
        elapsed = time.perf_counter() - t0
        ok = (
            sym.status == "pass"
            and sym_acc.status == "pass"
            and control.status == "fail"
            and azuma.status == "pass"
            and hoeff.status == "pass"
            and elapsed < 120.0
        )
        assert report(
            10,
            ok,
            f"(sym={sym.status}/{sym_acc.status}, control={control.status}, "
            f"azuma={azuma.status}, hoeffding={hoeff.status}, {elapsed:.0f}s < 120s)",
        )
