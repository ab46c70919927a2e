import numpy as np
import pytest

from cnops.conjugations import (
    JMu,
    JWp,
    conj_apply_kernel,
    jw_weighted_matrix,
    parse_conjugation,
)
from cnops.operators import analytic_toeplitz_matrix, composition_matrix
from reference import (
    conj_apply_series,
    conj_axiom_residuals,
    jw_tau,
    jw_xi_series,
    kernel_series,
)


class TestSpecs:
    @pytest.mark.parametrize("mu", [1.0, -1.0, np.exp(0.3j)])
    def test_jmu_accepts_unimodular(self, mu):
        JMu(mu)

    @pytest.mark.parametrize("mu", [0.5, 1.1, 0.0])
    def test_jmu_rejects_non_unimodular(self, mu):
        with pytest.raises(ValueError):
            JMu(mu)

    @pytest.mark.parametrize("mu", [np.nan, complex(1.0, np.nan), np.inf])
    def test_jmu_rejects_non_finite(self, mu):
        # |mu| - 1 is NaN for a NaN mu, and no comparison with NaN holds
        with pytest.raises(ValueError):
            JMu(mu)

    @pytest.mark.parametrize("p", [0.0, 1.0, 1.2])
    def test_jwp_rejects_bad_p(self, p):
        with pytest.raises(ValueError):
            JWp(p)

    @pytest.mark.parametrize("p", [np.nan, complex(0.5, np.nan), np.inf])
    def test_jwp_rejects_non_finite(self, p):
        # the chained 0 < |p| < 1 is False for a NaN |p|, so NaN is rejected
        with pytest.raises(ValueError):
            JWp(p)

    @pytest.mark.parametrize("p", [0.4, 0.3 + 0.25j, -0.7j])
    def test_lambda_solves_its_equation(self, p):
        C = JWp(p)
        assert abs(abs(C.lam) - 1.0) <= 1e-15
        assert abs(C.lam * C.p - np.conj(C.p)) <= 1e-16


class TestBuildConjugation:
    """Family (ii) of the u(z) conj(f(conj(v(z)))) classification is JWp(p)."""

    def test_family_ii_matches_jw_action(self):
        # the literal u(z) conj(f(conj(v(z)))) action, u(z) / (1 - w v(z)) on
        # K_w, agrees with the JW form of the same p
        zs = 0.6 * np.exp(2j * np.pi * np.arange(7) / 7)
        for p in (0.4, 0.3 + 0.25j, -0.7j, 0.85):
            C = JWp(p)
            u = np.sqrt(1 - abs(p) ** 2) / (1 - p * zs)
            v = (p / np.conj(p)) * (np.conj(p) - zs) / (1 - p * zs)
            for w in (0.0, 0.3, -0.2 + 0.4j):
                direct = u / (1 - w * v)
                weight, point = conj_apply_kernel(C, w)
                assert np.abs(direct - weight / (1 - np.conj(point) * zs)).max() <= 1e-12


class TestKernelAction:
    def test_jmu_real_point(self):
        wt, pt = conj_apply_kernel(JMu(1.0), 0.3)
        assert wt == 1.0 and pt == 0.3

    def test_jmu_imaginary_point(self):
        wt, pt = conj_apply_kernel(JMu(-1.0), 0.3j)
        assert wt == 1.0 and pt == pytest.approx(0.3j)

    def test_jwp_at_origin(self):
        wt, pt = conj_apply_kernel(JWp(0.4), 0.0)
        assert wt == pytest.approx(np.sqrt(0.84))
        assert pt == pytest.approx(0.4)

    def test_rejects_boundary_point(self):
        with pytest.raises(ValueError):
            conj_apply_kernel(JMu(1.0), 1.0)

    @pytest.mark.parametrize("C", [JMu(np.exp(0.7j)), JWp(0.3 + 0.2j)])
    def test_array_matches_scalar_calls(self, C):
        ws = np.array([[0.0, 0.3, -0.5 + 0.2j], [0.9j, -0.85, 0.1 - 0.4j]])
        # numpy's array loops may fuse a multiply-add that its scalar path
        # rounds twice, so the two agree to a few ulps, not bit for bit
        weight, point = conj_apply_kernel(C, ws)
        assert weight.shape == point.shape == ws.shape
        for idx in np.ndindex(ws.shape):
            wt, pt = conj_apply_kernel(C, ws[idx])
            assert abs(weight[idx] - wt) <= 4 * np.finfo(float).eps * abs(wt)
            assert abs(point[idx] - pt) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("C", [JMu(1.0), JWp(0.4)])
    def test_rejects_any_point_off_the_open_disk(self, C):
        with pytest.raises(ValueError):
            conj_apply_kernel(C, np.array([0.2, 0.5j, -1.0]))


class TestSeriesAction:
    def test_jmu_conjugates_coefficients(self):
        out = conj_apply_series(JMu(1.0), np.array([1.0, 1j, 0.0]), 3)
        assert np.allclose(out, [1.0, -1j, 0.0])

    def test_jmu_minus_one_alternates(self):
        out = conj_apply_series(JMu(-1.0), np.array([0.0, 1.0, 0.0]), 3)
        assert np.allclose(out, [0.0, -1.0, 0.0])

    def test_jmu_preserves_norm(self, rng):
        f = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        # exact for real mu; rounding in |conj(mu)^n| only for generic phases
        norm = np.linalg.norm
        assert norm(conj_apply_series(JMu(-1.0), f, 32)) == norm(f)
        got = norm(conj_apply_series(JMu(np.exp(0.9j)), f, 32))
        assert got == pytest.approx(norm(f), rel=1e-13)

    def test_jwp_involution_on_leading_block(self, rng):
        # length-64 input, applied twice at truncation 128: the leading 32
        # coefficients come back with geometrically small defect
        C = JWp(0.4)
        f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        ff = conj_apply_series(C, conj_apply_series(C, f, 128), 128)
        assert np.abs(ff[:32] - f[:32]).max() <= 1e-8

    @pytest.mark.parametrize("C", [JMu(np.exp(0.7j)), JWp(0.45), JWp(0.3 + 0.2j)])
    def test_kernel_series_consistency(self, C):
        # conj_apply_series on a truncated kernel evaluates to the closed-form
        # kernel action, up to the geometric truncation tail
        N = 128
        for w in (0.3, -0.5 + 0.2j):
            g = conj_apply_series(C, kernel_series(w, N), N)
            weight, point = conj_apply_kernel(C, w)
            for z in (0.4, -0.3 + 0.5j):
                got = np.polynomial.polynomial.polyval(z, g)
                assert abs(got - weight / (1 - np.conj(point) * z)) <= 1e-10


class TestMatrixForm:
    def test_cumulative_build_equals_toeplitz_times_composition(self):
        C = JWp(0.35 + 0.3j)
        N = 48
        M = jw_weighted_matrix(C, N)
        M2 = analytic_toeplitz_matrix(jw_xi_series(C, N), N) @ composition_matrix(jw_tau(C), N)
        assert np.abs(M - M2).max() <= 1e-13


class TestAxiomResiduals:
    def test_jmu_machine_precision(self, rng):
        inv, anti = conj_axiom_residuals(JMu(np.exp(0.4j)), 64, 10, rng=rng)
        assert inv < 1e-13 and anti < 1e-13

    def test_jwp_decay_in_truncation(self):
        C = JWp(0.4)
        r64 = conj_axiom_residuals(C, 64, 10, rng=np.random.default_rng(5))
        r128 = conj_axiom_residuals(C, 128, 10, rng=np.random.default_rng(5))
        assert max(r128) < 1e-8
        assert max(r128) < max(r64)

    def test_near_boundary_p_larger_but_decaying(self):
        C = JWp(0.9)
        r64 = conj_axiom_residuals(C, 64, 10, rng=np.random.default_rng(5))
        r128 = conj_axiom_residuals(C, 128, 10, rng=np.random.default_rng(5))
        r128_mid = conj_axiom_residuals(JWp(0.4), 128, 10, rng=np.random.default_rng(5))
        assert max(r128) > max(r128_mid)
        assert max(r128) < max(r64)

    def test_rejects_small_truncation(self):
        with pytest.raises(ValueError):
            conj_axiom_residuals(JMu(1.0), 16, 4)


class TestParse:
    def test_jmu(self):
        C = parse_conjugation("jmu:-1")
        assert isinstance(C, JMu) and C.mu == -1.0

    def test_jw(self):
        C = parse_conjugation("jw:0.4")
        assert isinstance(C, JWp) and C.p == 0.4

    @pytest.mark.parametrize("text", ["jz:0.4", "jw", "jmu:abc", "jw:0"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_conjugation(text)
