import json

import numpy as np
import pytest

from proxcert import (
    CompositeProblem,
    L1Term,
    QuadraticSmooth,
    problem_from_json,
)
from proxcert.experiments import mpc_to_lasso, spacecraft_mpc
from proxcert.problems import power_iteration, symmetric_sqrt

from oracles import central_diff_gradient, golden_section, problem_to_json, svd_smax_sq


def toy_problem(mat, vec, lam=0.0, half=False):
    return CompositeProblem.from_quadratic(QuadraticSmooth(mat, vec, half=half), lam)


class TestGrad:
    def test_identity_half_scaled(self):
        prob = toy_problem(np.eye(2), np.zeros(2), half=True)
        assert np.allclose(prob.grad([1.0, 2.0]), [1.0, 2.0])

    def test_against_finite_differences(self):
        quad = QuadraticSmooth(np.array([[1.0, 0.0], [0.0, 2.0]]), np.zeros(2))
        x = np.array([1.0, 1.0])
        fd = central_diff_gradient(quad.value, x, h=1e-6)
        assert np.allclose(fd, [2.0, 8.0], atol=1e-4)
        assert np.allclose(quad.grad(x), fd, rtol=1e-4)

    def test_wrong_dimension_rejected(self):
        prob = toy_problem(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            prob.grad([1.0, 2.0, 3.0])

    def test_matches_central_differences_on_random_quadratics(self, rng):
        for _ in range(5):
            m, n = rng.integers(2, 6, size=2)
            quad = QuadraticSmooth(
                rng.standard_normal((m, n)), rng.standard_normal(m), half=bool(rng.integers(2))
            )
            x = rng.standard_normal(n)
            fd = central_diff_gradient(quad.value, x, h=1e-6)
            assert np.allclose(quad.grad(x), fd, rtol=1e-4, atol=1e-7)

    def test_lipschitz_on_sampled_pairs(self, rng):
        quad = QuadraticSmooth(rng.standard_normal((6, 4)), rng.standard_normal(6), half=True)
        L = quad.lipschitz()
        for _ in range(50):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            lhs = np.linalg.norm(quad.grad(y) - quad.grad(x))
            assert lhs <= L * np.linalg.norm(y - x) * (1.0 + 1e-9)


class TestProx:
    def test_against_golden_section(self):
        h = L1Term(2.0)
        s, y = 0.1, np.array([0.5, -0.1, 0.0])
        got = h.prox(s, y)
        oracle = np.array(
            [
                golden_section(
                    lambda t, yj=yj: 2.0 * abs(t) + (t - yj) ** 2 / (2.0 * s), -2.0, 2.0
                )
                for yj in y
            ]
        )
        assert np.allclose(oracle, [0.3, 0.0, 0.0], atol=1e-10)
        assert np.allclose(got, [0.3, 0.0, 0.0], atol=1e-12)

    def test_zero_weight_is_identity(self, rng):
        y = rng.standard_normal(5)
        assert np.allclose(L1Term(0.0).prox(0.3, y), y)

    def test_zero_input(self):
        assert np.allclose(L1Term(1.5).prox(2.0, np.zeros(4)), 0.0)

    def test_nonpositive_stepsize_rejected(self):
        with pytest.raises(ValueError):
            L1Term(1.0).prox(0.0, np.ones(2))

    def test_nonexpansive_on_random_pairs(self, rng):
        h = L1Term(0.7)
        for _ in range(100):
            y1, y2 = rng.standard_normal(6), rng.standard_normal(6)
            lhs = np.linalg.norm(h.prox(0.4, y1) - h.prox(0.4, y2))
            assert lhs <= np.linalg.norm(y1 - y2) + 1e-12

    def test_l1_kkt_componentwise(self, rng):
        # 0 in d|h|(z) + (z - y)/s: |y - z|/s <= lam where z = 0, else exact
        h = L1Term(1.3)
        s = 0.25
        y = rng.standard_normal(8)
        z = h.prox(s, y)
        for zj, yj in zip(z, y):
            if zj == 0.0:
                assert abs(yj) / s <= h.lam + 1e-12
            else:
                assert abs(np.sign(zj) * h.lam + (zj - yj) / s) <= 1e-10

    def test_value_convex_on_sampled_triples(self, rng):
        h = L1Term(0.9)
        for _ in range(50):
            x, y = rng.standard_normal(5), rng.standard_normal(5)
            t = rng.random()
            mix = h.value(t * x + (1 - t) * y)
            assert mix <= t * h.value(x) + (1 - t) * h.value(y) + 1e-12


class TestFValue:
    def test_scalar_example(self):
        prob = toy_problem(np.eye(1), np.zeros(1), lam=1.0, half=True)
        assert prob.f_value(np.array([1.0])) == pytest.approx(1.5)

    def test_known_optimum_consistent(self):
        prob = toy_problem(np.eye(2), np.array([2.0, -1.0]), lam=0.5, half=True)
        x_star = np.sign([2.0, -1.0]) * np.maximum(np.abs([2.0, -1.0]) - 0.5, 0)
        prob.x_star = x_star
        prob.f_star = prob.f_value(x_star)
        assert prob.f_value(prob.x_star) == pytest.approx(prob.f_star)


class TestPowerIteration:
    def test_matches_svd(self, rng):
        for _ in range(5):
            mat = rng.standard_normal((7, 5))
            smax_sq = power_iteration(mat)
            truth = np.linalg.svd(mat, compute_uv=False)[0] ** 2
            assert smax_sq == pytest.approx(truth, rel=1e-6)

    def test_quadratic_lipschitz_conventions(self, rng):
        mat = rng.standard_normal((5, 4))
        truth = np.linalg.svd(mat, compute_uv=False)[0] ** 2
        assert QuadraticSmooth(mat, np.zeros(5), half=True).lipschitz() == pytest.approx(
            truth, rel=1e-6
        )
        assert QuadraticSmooth(mat, np.zeros(5), half=False).lipschitz() == pytest.approx(
            2 * truth, rel=1e-6
        )


class TestLipschitzUpperBound:
    """L is never below sigma_max(M)^2 (times 2 unscaled) and at most 1e-12
    relative above it."""

    @staticmethod
    def matrices(rng):
        low_rank = rng.standard_normal((60, 3)) @ rng.standard_normal((3, 40))
        scaled = rng.standard_normal((30, 20)) * np.logspace(-6, 6, 20)
        yield from (
            ("tall", rng.standard_normal((500, 100))),
            ("wide", rng.standard_normal((100, 500))),
            ("square", rng.standard_normal((50, 50))),
            ("rank_deficient", low_rank),
            ("duplicated_columns", np.repeat(rng.standard_normal((20, 5)), 2, axis=1)),
            ("badly_scaled", scaled),
            ("row", rng.standard_normal((1, 7))),
            ("column", rng.standard_normal((7, 1))),
            ("zero", np.zeros((6, 4))),
        )

    def test_upper_bound_against_svd(self, rng):
        for name, mat in self.matrices(rng):
            truth = svd_smax_sq(mat)
            for half, factor in ((True, 1.0), (False, 2.0)):
                L = QuadraticSmooth(mat, np.zeros(mat.shape[0]), half=half).lipschitz()
                assert L >= factor * truth, name
                assert L <= factor * truth * (1.0 + 1e-12), name

    def test_mpc_lipschitz_bounds_the_stacked_factor(self):
        # H = Phi'Q Phi + R is the Gram matrix of [Q^{1/2} Phi; R^{1/2}]
        for n_p in (2, 5, 10, 15):
            spec = spacecraft_mpc(n_p=n_p)
            _, phi = spec.prediction_matrices()
            factor = np.vstack(
                [np.sqrt(np.tile(spec.q_step, n_p))[:, None] * phi,
                 np.diag(np.sqrt(np.tile(spec.r_step, n_p)))]
            )
            truth = 2.0 * svd_smax_sq(factor)
            L = mpc_to_lasso(spec).lipschitz
            assert truth <= L <= truth * (1.0 + 1e-12), n_p


class TestSymmetricSqrt:
    def test_roundtrip(self, rng):
        a = rng.standard_normal((5, 5))
        h = a @ a.T + 0.1 * np.eye(5)
        root, inv_root = symmetric_sqrt(h)
        assert np.allclose(root @ root, h, atol=1e-10)
        assert np.allclose(root @ inv_root, np.eye(5), atol=1e-8)

    def test_clamps_tiny_eigenvalues(self):
        h = np.diag([1.0, 0.0])  # singular
        root, inv_root = symmetric_sqrt(h)
        assert np.all(np.isfinite(inv_root))


class TestSerialization:
    def test_roundtrip(self, rng):
        quad = QuadraticSmooth(rng.standard_normal((4, 3)), rng.standard_normal(4), half=True)
        prob = CompositeProblem.from_quadratic(quad, 0.7)
        doc = problem_to_json(prob)
        back = problem_from_json(doc)
        assert back.n == prob.n
        assert back.reg.lam == prob.reg.lam
        assert back.lipschitz == pytest.approx(prob.lipschitz)
        x = rng.standard_normal(3)
        assert back.f_value(x) == pytest.approx(prob.f_value(x))
        assert json.loads(doc)["scale"] == 0.5

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            problem_from_json({"n": 1, "M": [1.0], "v": [0.0], "scale": 0.7, "lambda": 0.0})


def decode_document(rng):
    """JSON text of a problem whose numbers stress a decoder: signed zeros,
    the smallest subnormal, the smallest normal, the largest double, halfway
    and long-digit literals, and random doubles of every exponent, written in
    repr, %.17g and %.16e form."""
    special = [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
        1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0, 9007199254740993.0,
    ]
    literals = [
        "2.2250738585072011e-308",  # the slow path of older strtod implementations
        "1.00000000000000011102230246251565404236316680908203125",  # halfway: rounds to even
        "1.00000000000000011102230246251565404236316680908203126",  # just above halfway
        "9007199254740993",  # 2^53 + 1 as an integer literal
        "123456789012345678901234567890e-320",
        "1E+300", "1e-05", "-7", "0e0",
    ]
    randoms = rng.integers(0, 2**64, size=3000, dtype=np.uint64).view(np.float64)
    randoms = randoms[np.isfinite(randoms)]
    wide = rng.standard_normal(600) * 10.0 ** rng.integers(-320, 308, 600).astype(float)
    subnormal = rng.integers(1, 2**52, size=200, dtype=np.uint64).view(np.float64)
    forms = (repr, "%.17g".__mod__, "%.16e".__mod__)
    cells = [repr(x) for x in special] + literals
    drawn = np.concatenate([randoms, wide, subnormal, -subnormal])
    cells += [forms[i % 3](float(x)) for i, x in enumerate(drawn)]
    cells = [c for c in cells if np.isfinite(float(c))]
    n = 7
    m = len(cells) // (n + 1)
    mat, vec = cells[: m * n], cells[m * n : m * n + m]
    return (
        '{"n": %d, "M": [%s], "v": [%s], "scale": 0.5, "lambda": 5e-324, '
        '"L": 1.7976931348623157e308}' % (n, ", ".join(mat), ", ".join(vec))
    )


class TestDecode:
    """``problem_from_json`` decodes every number as the standard library does."""

    @pytest.mark.parametrize("kind", ["str", "bytes", "dict"])
    def test_bits_match_stdlib_json(self, rng, monkeypatch, kind):
        text = decode_document(rng)
        ref = json.loads(text)
        doc = {"str": text, "bytes": text.encode(), "dict": ref}[kind]
        # M holds the largest doubles, whose Gram matrix has no finite L
        monkeypatch.setattr(QuadraticSmooth, "lipschitz", lambda self: 1.0)
        prob = problem_from_json(doc)
        n, v = ref["n"], np.asarray(ref["v"], dtype=float)
        mat = np.asarray(ref["M"], dtype=float).reshape(len(v), n)
        assert mat.size > 2000 and np.any(np.signbit(mat) & (mat == 0.0))
        assert prob.smooth.mat.tobytes() == mat.tobytes()
        assert prob.smooth.vec.tobytes() == v.tobytes()
        assert np.float64(prob.reg.lam).tobytes() == np.float64(ref["lambda"]).tobytes()
        assert prob.lipschitz == 1.0  # the document's "L" is ignored

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 1, "M": [float("nan")], "v": [0.0]},
            {"n": 1, "M": [1.0], "v": ["inf"]},
            {"n": 1, "M": [1.0], "v": [0.0], "lambda": float("inf")},
            '{"n": 1, "M": [NaN], "v": [0.0]}',
            b'{"n": 1, "M": [1.0], "v": [0.0], "lambda": 1e999}',
        ],
        ids=["nan_m", "inf_v", "inf_lambda", "nan_text", "overflow_text"],
    )
    def test_non_finite_data_rejected(self, doc):
        with pytest.raises(ValueError):
            problem_from_json(doc)
