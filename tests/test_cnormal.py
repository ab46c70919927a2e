import dataclasses
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_self_map
from cnops import cnormal
from cnops.cli import sample_case
from cnops.cnormal import (
    CaseId,
    VerificationReport,
    case_predicate,
    check_instance,
    eval_sides_weighted_jmu,
    eval_sides_weighted_jw,
    kernel_residual,
    predicate_margin,
    ring_grid,
    verify,
)
from cnops.conjugations import JMu, JWp
from cnops.moebius import LinearFractionalMap, adjoint_symbol, image_disk, lft_is_self_map
from cnops.operators import composition_matrix, conjugation_operator
from reference import (
    HypothesisViolationError,
    cleared_kernel_residual,
    hermitian_family,
    hermitian_jw_solved_p,
    is_disk_automorphism,
    kernel_series,
    lft_eval,
    predicate_hermitian_jmu,
    predicate_hermitian_jw,
    predicate_normal_bdyfix,
    predicate_normal_bdyfix_jw_dsq_variant,
    predicate_unitary_wco,
    quadruple_sides,
    reflect_to_jmu,
    rescaled,
    sigma_at_zero,
    weighted_jmu_quadruples,
    weighted_jw_equations,
    weighted_jw_quadruples,
    weighted_jw_terms,
)

GENERIC = LinearFractionalMap(0.5, 0.25, 0.25, 1)


def test_every_public_name_resolves():
    import cnops

    assert len(set(cnops.__all__)) == len(cnops.__all__)
    for name in cnops.__all__:
        assert hasattr(cnops, name), name


def report_residuals(report):
    """The kernel residual, then the matrix residual at each N, of a report."""
    return [report.kernel_residual] + [r for _, r in report.matrix_residuals]


def unitary_family(q, gamma1=1.0):
    """phi = gamma1 (q - z)/(1 - conj(q) z) as a quadruple."""
    return LinearFractionalMap(-gamma1, gamma1 * q, -np.conj(q), 1.0)


# --------------------------------------------------------------------------
# independent matrix-route oracle for the composition cases
# --------------------------------------------------------------------------

def matrix_route_sides(m, conj, w, z, N=256):
    """(T T* C K_w)(z) and (C T* T K_w)(z) through truncated matrices."""
    T = composition_matrix(m, N)
    M = conjugation_operator(conj, N)
    kw = kernel_series(w, N)
    lhs = np.polynomial.polynomial.polyval(z, T @ (T.conj().T @ (M @ np.conj(kw))))
    rhs = np.polynomial.polynomial.polyval(z, M @ np.conj(T.conj().T @ (T @ kw)))
    return lhs, rhs


def cowen_sides(mp, m, conj, w, z):
    """(C_phi C_phi* C K_w)(z) and (C C_phi* C_phi K_w)(z) in mpmath at 50
    digits, the right side from Cowen's C_phi* = T_g C_sigma T_h*:
    C_phi* C_phi K_w = coef1 K_{v1} + (G - coef1) K_{v2} with v1 = phi(0),
    v2 = phi(sigma(w)), G = dbar / (dbar - bbar w) and
    coef1 = cbar / (cbar - abar w), a derivation apart from cnops' own.
    C K_x = u_x K_{eta_x} is read at the floats conj_apply_kernel gives."""
    from cnops.conjugations import conj_apply_kernel

    (u_w, eta_w), (u_z, eta_z) = conj_apply_kernel(conj, w), conj_apply_kernel(conj, z)
    with mp.workdps(50):
        a, b, c, d, w, z, u_w, eta_w, u_z, eta_z = (
            mp.mpc(complex(x)) for x in (*m.coefficients(), w, z, u_w, eta_w, u_z, eta_z))
        phi = lambda x: (a * x + b) / (c * x + d)
        sigma = lambda x: (mp.conj(a) * x - mp.conj(c)) / (-mp.conj(b) * x + mp.conj(d))
        lhs = u_w / (1 - mp.conj(phi(eta_w)) * phi(z))
        v1, v2, e = b / d, phi(sigma(w)), mp.conj(eta_z)
        G = mp.conj(d) / (mp.conj(d) - mp.conj(b) * w)
        coef1 = mp.conj(c) / (mp.conj(c) - mp.conj(a) * w)
        rhs = u_z * (coef1 / (1 - e * v1) + (G - coef1) / (1 - e * v2))
        return complex(lhs), complex(rhs)


def comp_sides(m, conj, w, z):
    """Both sides of C_phi C_phi* C K_w(z) = C C_phi* C_phi K_w(z): the
    composition identity stated as T T* C = C T* T, which is _sides at (z, w)."""
    return cnormal._sides(m, conj, z, w)


class TestCompJmuSides:
    def test_half_map_real_mu(self):
        # both sides collapse to K_{phi(w)}(phi(z)) = 1/(1 - 0.15*0.2)
        m = LinearFractionalMap(1, 0, 0, 2)
        lhs, rhs = comp_sides(m, JMu(1.0), 0.3, 0.4)
        assert lhs == pytest.approx(1.0 / (1.0 - 0.03))
        assert rhs == pytest.approx(lhs)

    def test_dilation_closed_form_any_mu(self):
        alpha, mu = 0.62 * np.exp(1.1j), np.exp(0.83j)
        m = LinearFractionalMap(alpha, 0, 0, 1)
        w, z = 0.3 + 0.2j, -0.4 + 0.1j
        lhs, rhs = comp_sides(m, JMu(mu), w, z)
        expected = 1.0 / (1.0 - abs(alpha) ** 2 * np.conj(mu) * w * z)
        assert lhs == pytest.approx(expected, abs=1e-14)
        assert rhs == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("mu", [1.0, -1.0])
    def test_w_zero_display(self, mu):
        # at w = 0 the right side is d/(d - b mu z) for real mu
        m = GENERIC
        for z in (0.3, -0.5 + 0.4j):
            _, rhs = comp_sides(m, JMu(mu), 0.0, z)
            assert rhs == pytest.approx(m.d / (m.d - m.b * mu * z), abs=1e-13)

    def test_lower_triangular_symbol_disagrees(self):
        # b = 0, c != 0 is not normal: the sides split somewhere on a grid
        m = LinearFractionalMap(0.5, 0, 0.25, 1)  # phi(z) = 2z/(z + 4)
        assert lft_is_self_map(m)
        pts = 0.8 * np.exp(2j * np.pi * np.arange(10) / 10)
        W, Z = np.meshgrid(pts, pts)
        lhs, rhs = comp_sides(m, JMu(1.0), W, Z)
        assert np.abs(lhs - rhs).max() > 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_matrix_route(self, seed):
        g = np.random.default_rng(seed)
        m = random_self_map(g, max_offset=0.4)
        mu = np.exp(2j * np.pi * g.uniform())
        w, z = 0.5 * np.exp(0.7j), 0.45 * np.exp(-1.2j)
        lhs, rhs = comp_sides(m, JMu(mu), w, z)
        lhs_m, rhs_m = matrix_route_sides(m, JMu(mu), w, z)
        assert lhs == pytest.approx(lhs_m, abs=1e-9)
        assert rhs == pytest.approx(rhs_m, abs=1e-9)

    @pytest.mark.parametrize("conj", [JMu(1.0), JWp(0.3)], ids=["jmu", "jw"])
    def test_removable_pole_is_finite(self, conj):
        # at w0 = conj(c/a), where sigma(w0) = 0, both sides are finite.
        # (1, 0, 0.5, 1.04) is not a self-map, so the matrix route cannot take
        # it; there the sides are finite and continuous through w0.  On the
        # self-map (0.5, 0, 0.25, 1), with the same w0 = 0.5, they agree with
        # the matrix route.
        at_w0 = comp_sides(LinearFractionalMap(1.0, 0.0, 0.5, 1.04), conj, 0.5, 0.3)
        beside = comp_sides(LinearFractionalMap(1.0, 0.0, 0.5, 1.04), conj, 0.5 + 1e-9j, 0.3)
        assert np.all(np.isfinite(at_w0))
        assert np.allclose(at_w0, beside, rtol=1e-7, atol=0)
        m = LinearFractionalMap(0.5, 0.0, 0.25, 1.0)
        lhs, rhs = comp_sides(m, conj, 0.5, 0.3)
        lhs_m, rhs_m = matrix_route_sides(m, conj, 0.5, 0.3)
        assert np.isfinite(lhs) and np.isfinite(rhs)
        assert lhs == pytest.approx(lhs_m, abs=1e-9)
        assert rhs == pytest.approx(rhs_m, abs=1e-9)

    @pytest.mark.parametrize("distance", [1e-4, 1.5e-6])
    def test_right_side_keeps_its_digits_near_the_pole(self, distance):
        # Cowen's two-term form has a removable pole at w0 = conj(c/a), where
        # sigma(w) = 0; in floats it cancels digits there.  The sides are
        # written from T K_e, which has no such pole, and must keep them
        mp = pytest.importorskip("mpmath")
        m = LinearFractionalMap(0.5, 0.2, 0.3 * np.exp(0.7j), 1.0)
        mu, z = np.exp(0.5j), 0.4 - 0.3j
        w = np.conj(m.c / m.a) + distance * np.exp(0.3j)
        _, rhs = comp_sides(m, JMu(mu), w, z)
        _, exact = cowen_sides(mp, m, JMu(mu), w, z)
        assert abs(complex(rhs) - exact) <= 1e-14 * abs(exact)


class TestCompJwSides:
    def test_rotation_closed_form(self):
        # for an isometry both sides equal sqrt(1-p^2)/(1 - pw - pz + conj(lam) w z)
        p = 0.4
        m = LinearFractionalMap(np.exp(0.7j), 0, 0, 1)
        lam = np.conj(p) / p
        for w, z in ((0.3, 0.5), (0.2 - 0.6j, -0.4 + 0.3j)):
            lhs, rhs = comp_sides(m, JWp(p), w, z)
            expected = np.sqrt(1 - p ** 2) / (1 - p * w - p * z + np.conj(lam) * w * z)
            assert lhs == pytest.approx(expected, abs=1e-13)
            assert rhs == pytest.approx(expected, abs=1e-13)

    def test_identity_map_reproduces_conjugated_kernel(self):
        # C_phi = I: both sides must equal (JW K_w)(z) itself
        from cnops.conjugations import conj_apply_kernel

        p = 0.3 + 0.25j
        m = LinearFractionalMap(1, 0, 0, 1)
        w, z = 0.35 - 0.2j, 0.5 + 0.1j
        lhs, rhs = comp_sides(m, JWp(p), w, z)
        weight, point = conj_apply_kernel(JWp(p), w)
        expected = weight / (1 - np.conj(point) * z)
        assert lhs == pytest.approx(expected, abs=1e-14)
        assert rhs == pytest.approx(expected, abs=1e-14)

    def test_w_zero_display(self):
        # lhs(0, z) and rhs(0, z) against the two displayed w = 0 forms
        m, p = GENERIC, 0.4
        a, b, c, d = m.coefficients()
        lam = np.conj(p) / p
        root = np.sqrt(1 - abs(p) ** 2)
        for z in (0.3, -0.2 + 0.55j):
            lhs, rhs = comp_sides(m, JWp(p), 0.0, z)
            num = (np.conj(c) * p + np.conj(d)) * (c * z + d)
            den = num - (np.conj(a) * p + np.conj(b)) * (a * z + b)
            assert lhs == pytest.approx(root * num / den, abs=1e-13)
            assert rhs == pytest.approx(
                root * d / (d * (1 - p * z) - b * (p - np.conj(lam) * z)), abs=1e-13)

    def test_contraction_dilation_disagrees(self):
        m = LinearFractionalMap(1, 0, 0, 2)
        pts = 0.8 * np.exp(2j * np.pi * np.arange(10) / 10)
        W, Z = np.meshgrid(pts, pts)
        lhs, rhs = comp_sides(m, JWp(0.4), W, Z)
        assert np.abs(lhs - rhs).max() > 1e-6

    def test_generic_map_disagrees(self):
        pts = 0.8 * np.exp(2j * np.pi * np.arange(10) / 10)
        W, Z = np.meshgrid(pts, pts)
        lhs, rhs = comp_sides(GENERIC, JWp(0.4), W, Z)
        assert np.abs(lhs - rhs).max() > 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_matrix_route(self, seed):
        g = np.random.default_rng(seed)
        m = random_self_map(g, max_offset=0.4)
        p = 0.35 * np.exp(2j * np.pi * g.uniform())
        w, z = 0.4 * np.exp(0.9j), 0.5 * np.exp(-0.4j)
        lhs, rhs = comp_sides(m, JWp(p), w, z)
        lhs_m, rhs_m = matrix_route_sides(m, JWp(p), w, z)
        assert lhs == pytest.approx(lhs_m, abs=1e-8)
        assert rhs == pytest.approx(rhs_m, abs=1e-8)


@pytest.mark.parametrize("conj", [JMu(np.exp(0.3j)), JWp(0.4 + 0.2j)],
                         ids=["comp_jmu", "comp_jw"])
def test_sides_keep_their_digits_near_a_constant_map(conj):
    # near both a constant map and the circle, the product form
    # 1 - conj(phi(x)) phi(y) is 1.4e-5 relative off here
    mp = pytest.importorskip("mpmath")
    m = LinearFractionalMap(0.5, -0.4999999999995, -0.999999999999, 1)
    pts = ring_grid(8)
    worst = 0.0
    for w in pts:
        for z in pts:
            for side, exact in zip(comp_sides(m, conj, w, z), cowen_sides(mp, m, conj, w, z)):
                worst = max(worst, abs(complex(side) - exact) / abs(exact))
    assert worst <= 1e-13


@pytest.mark.parametrize("weighted,conj", [
    (eval_sides_weighted_jmu, JMu(np.exp(0.3j))),
    (eval_sides_weighted_jw, JWp(0.4 + 0.2j)),
], ids=["jmu", "jw"])
@pytest.mark.parametrize("m", [LinearFractionalMap(0.6 * np.exp(0.5j), 0.3 - 0.1j, 0, 1),
                               LinearFractionalMap(0.7j, 0, 0, 1)], ids=["affine", "dilation"])
def test_composition_sides_are_the_weighted_ones_at_beta_1_with_w_and_z_swapped(
        weighted, conj, m):
    # for c = 0 the canonical weight is beta, so W = C_phi at beta = 1, and
    # (C_phi C_phi* C K_w)(z) = (C C_phi C_phi* K_z)(w): the composition
    # sides are stated for C T T* = T* T C with w and z swapped
    W, Z = np.meshgrid(ring_grid(12), ring_grid(12), indexing="ij")
    param = conj.mu if isinstance(conj, JMu) else conj.p
    for got, want in zip(comp_sides(m, conj, W, Z), weighted(m, 1.0, param, Z, W)):
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


@pytest.mark.parametrize("evaluate,param", [
    (lambda m, mu, w, z: comp_sides(m, JMu(mu), w, z), np.exp(0.3j)),
    (lambda m, p, w, z: comp_sides(m, JWp(p), w, z), 0.4),
    (lambda m, mu, w, z: eval_sides_weighted_jmu(m, 0.7, mu, w, z), np.exp(0.3j)),
    (lambda m, p, w, z: eval_sides_weighted_jw(m, 0.7, p, w, z), 0.4),
], ids=["comp_jmu", "comp_jw", "weighted_jmu", "weighted_jw"])
@pytest.mark.parametrize("z", [1.0, -1j, np.array([0.2, 1.5j])])
def test_sides_reject_points_outside_the_disk(evaluate, param, z):
    # every case's right side reads C K_z through conj_apply_kernel, which
    # needs |z| < 1
    with pytest.raises(ValueError):
        evaluate(GENERIC, param, 0.3, z)


# --------------------------------------------------------------------------
# first-principles operator-chain products for the weighted sides
# --------------------------------------------------------------------------

def chain_weighted_jmu(m, beta, mu, w, z):
    """lhs/rhs from the raw kernel-product chains (no algebraic combination)."""
    a, b, c, d = m.coefficients()
    s0 = sigma_at_zero(m)
    sig = adjoint_symbol(m)
    lhs = (abs(beta) ** 2
           / (1 - np.conj(s0) * w)
           * np.conj(1.0 / (1 - np.conj(s0) * mu * np.conj(z)))
           * np.conj(1.0 / (1 - np.conj(lft_eval(m, w)) * lft_eval(m, mu * np.conj(z)))))
    sz = lft_eval(sig, z)
    g_z = 1.0 / (-np.conj(b) * z + np.conj(d))
    rhs = (abs(beta) ** 2 * np.conj(d) * g_z
           / (1 - np.conj(s0) * sz)
           / (1 - np.conj(mu * np.conj(w)) * lft_eval(m, sz)))
    return lhs, rhs


def chain_weighted_jw(m, beta, p, w, z):
    a, b, c, d = m.coefficients()
    lam = np.conj(p) / p
    s0 = sigma_at_zero(m)
    sig = adjoint_symbol(m)
    root = np.sqrt(1 - abs(p) ** 2)
    tz = np.conj(lam) * (np.conj(p) - z) / (1 - p * z)     # conj(tau_p(conj z))
    phw = lft_eval(m, w)
    ph_tz = (np.conj(a) * tz + np.conj(b)) / (np.conj(c) * tz + np.conj(d))
    lhs = (abs(beta) ** 2
           / (1 - np.conj(s0) * w)
           * root / (1 - p * z)
           / (1 - s0 * tz)
           / (1 - phw * ph_tz))
    sz = lft_eval(sig, z)
    F = lft_eval(m, sz)
    g_z = 1.0 / (-np.conj(b) * z + np.conj(d))
    tF = np.conj(lam) * (np.conj(p) - F) / (1 - p * F)
    rhs = (abs(beta) ** 2 * np.conj(d) * g_z
           / (1 - np.conj(s0) * sz)
           * root / (1 - p * F)
           / (1 - w * tF))
    return lhs, rhs


SAMPLE_POINTS = [(0.3 + 0.2j, -0.45 + 0.15j), (0.6, 0.5j), (-0.2 - 0.5j, 0.7)]


class TestWeightedJmuSides:
    @pytest.mark.parametrize("w,z", SAMPLE_POINTS)
    def test_matches_operator_chain(self, w, z):
        m = LinearFractionalMap(0.5 + 0.1j, 0.25, 0.2 - 0.05j, 1.0 + 0.3j)
        beta, mu = 0.7 * np.exp(0.4j), np.exp(1.3j)
        lhs, rhs = eval_sides_weighted_jmu(m, beta, mu, w, z)
        lhs_c, rhs_c = chain_weighted_jmu(m, beta, mu, w, z)
        assert lhs == pytest.approx(lhs_c, abs=1e-13)
        assert rhs == pytest.approx(rhs_c, abs=1e-13)

    def test_generic_true_instance(self):
        # (0.5, 0.25, 0.25, 1) with mu = -1 satisfies both conditions
        pts = ring_grid(10)
        W, Z = np.meshgrid(pts, pts)
        lhs, rhs = eval_sides_weighted_jmu(GENERIC, 1.0, -1.0, W, Z)
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_generic_false_instance(self):
        pts = ring_grid(10)
        W, Z = np.meshgrid(pts, pts)
        lhs, rhs = eval_sides_weighted_jmu(GENERIC, 1.0, 1.0, W, Z)
        assert np.abs(lhs - rhs).max() > 1e-6

    @pytest.mark.parametrize("mu", [1.0, np.exp(0.77j)])
    def test_unitary_family_always_agrees(self, mu):
        m = unitary_family(0.5)
        pts = ring_grid(10)
        W, Z = np.meshgrid(pts, pts)
        lhs, rhs = eval_sides_weighted_jmu(m, 1.0, mu, W, Z)
        assert np.abs(lhs - rhs).max() <= 1e-12


def random_weighted_jmu_instance(g, true: bool):
    """A random map and mu; when true, |b| = |c| and mu solves the linear
    condition (cbar d - abar b) conj(mu) = abar c - bbar d."""
    a, b, c, d = g.standard_normal(4) + 1j * g.standard_normal(4)
    if not true:
        return LinearFractionalMap(a, b, c, d), np.exp(2j * np.pi * g.uniform())
    c = abs(b) * np.exp(2j * np.pi * g.uniform())
    mu = np.conj((np.conj(a) * c - np.conj(b) * d) / (np.conj(c) * d - np.conj(a) * b))
    return LinearFractionalMap(a, b, c, d), mu / abs(mu)


class TestWeightedJmuQuadruples:
    @pytest.mark.parametrize("index", range(16))
    def test_sampler_instances_coincide_iff_predicate(self, index):
        rng = np.random.default_rng(np.random.SeedSequence([5, index]))
        m, conj, _ = sample_case(CaseId.WEIGHTED_JMU, rng, index)
        q = weighted_jmu_quadruples(m, conj.mu)
        holds = case_predicate(CaseId.WEIGHTED_JMU, m, conj)
        assert holds == (index % 2 == 0)
        assert (q.max_difference() <= 1e-10 * m.scale ** 2) == holds

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("true", [True, False])
    def test_random_instances_coincide_iff_predicate(self, seed, true):
        m, mu = random_weighted_jmu_instance(np.random.default_rng(seed), true)
        q = weighted_jmu_quadruples(m, mu)
        assert case_predicate(CaseId.WEIGHTED_JMU, m, JMu(mu)) == true
        assert (q.max_difference() <= 1e-10 * m.scale ** 2) == true

    @pytest.mark.parametrize("seed", range(6))
    def test_differences_are_the_predicate_defects(self, seed):
        # dA = (|c|^2-|b|^2) mubar, dB = the linear defect L of the predicate,
        # dC = conj(L) mubar and dD = |c|^2-|b|^2, exactly
        g = np.random.default_rng(seed)
        m, mu = random_weighted_jmu_instance(g, False)
        a, b, c, d = m.coefficients()
        lin = ((np.conj(c) * d - np.conj(a) * b) * np.conj(mu)
               - (np.conj(a) * c - np.conj(b) * d))
        mod = abs(c) ** 2 - abs(b) ** 2
        s2 = m.scale ** 2
        dA, dB, dC, dD = weighted_jmu_quadruples(m, mu).differences()
        assert abs(dA - mod * np.conj(mu)) <= 1e-13 * s2
        assert abs(dB - lin) <= 1e-13 * s2
        assert abs(dC - np.conj(lin) * np.conj(mu)) <= 1e-13 * s2
        assert abs(dD - mod) <= 1e-13 * s2
        # the margin is the linear defect alone
        assert cnormal.predicate_margin(CaseId.WEIGHTED_JMU, m, JMu(mu)) == pytest.approx(
            abs(dB) / s2, rel=1e-12)


class TestWeightedJwQuadruples:
    def test_chain_agreement(self):
        m = LinearFractionalMap(0.5 + 0.1j, 0.25, 0.2 - 0.05j, 1.0 + 0.3j)
        beta, p = 0.7 * np.exp(0.4j), 0.3 + 0.25j
        for w, z in SAMPLE_POINTS:
            lhs, rhs = eval_sides_weighted_jw(m, beta, p, w, z)
            lhs_c, rhs_c = chain_weighted_jw(m, beta, p, w, z)
            assert lhs == pytest.approx(lhs_c, abs=1e-13)
            assert rhs == pytest.approx(rhs_c, abs=1e-13)

    def test_hermitian_solved_p(self):
        p = hermitian_jw_solved_p(0.3, 0.2)
        assert p == pytest.approx(0.6741573033707865)
        m = hermitian_family(0.3, 0.2)
        assert m.b == 0.3 and m.c == -0.3 and m.d == 1.0
        assert m.a == pytest.approx(0.11)
        q = weighted_jw_quadruples(m, p)
        assert q.max_difference() <= 1e-10

    def test_hermitian_wrong_p_fails(self):
        m = hermitian_family(0.3, 0.2)
        q = weighted_jw_quadruples(m, 0.3)
        assert q.max_difference() > 1e-3

    def test_identity_map_always_equal(self):
        m = LinearFractionalMap(1, 0, 0, 1)
        for p in (0.2, 0.5j, -0.3 + 0.4j):
            q = weighted_jw_quadruples(m, p)
            assert q.A1 == pytest.approx(p / np.conj(p))
            assert q.max_difference() <= 1e-15

    @pytest.mark.parametrize("seed", range(6))
    def test_condition_value_identities(self, seed):
        # E1 = conj(p) (A1 - A2) and E2 = conj(p) (B1 - B2) hold exactly
        g = np.random.default_rng(seed)
        m = LinearFractionalMap(*(g.standard_normal(4) + 1j * g.standard_normal(4)))
        p = 0.8 * g.uniform() * np.exp(2j * np.pi * g.uniform()) + 0.05
        q = weighted_jw_quadruples(m, p)
        e1, e2 = weighted_jw_equations(m, p)
        dA, dB, dC, dD = q.differences()
        s2 = m.scale ** 2
        assert abs(e1 - np.conj(p) * dA) <= 1e-13 * s2
        assert abs(e2 - np.conj(p) * dB) <= 1e-13 * s2
        # and the C, D differences are conjugate-linked to the same conditions
        assert abs(dD + np.conj(e1) / np.conj(p)) <= 1e-13 * s2
        assert abs(np.conj(p) * dC + np.conj(e2)) <= 1e-13 * s2
        # the margin is e2 alone, divided by |p|
        assert abs(cnormal.predicate_margin(CaseId.WEIGHTED_JW, m, JWp(p))
                   - abs(e2) / (abs(p) * s2)) <= 1e-13


@pytest.mark.parametrize("case", [CaseId.WEIGHTED_JMU, CaseId.WEIGHTED_JW])
def test_sides_are_the_quadruple_form(case):
    # the sides come from W's kernel actions, not from the quadruples, so they
    # match num / D to rounding, not bit for bit (at most 2.2e-15 relative on
    # 200 sampler draws per case at grid 12).  The last map is near both a
    # constant map and the circle: sides formed as products of psi, kappa and
    # 1 - conj(x) y are 4e-4 relative off there
    W, Z = np.meshgrid(ring_grid(10), ring_grid(10))
    evaluate = eval_sides_weighted_jmu if case is CaseId.WEIGHTED_JMU else eval_sides_weighted_jw
    seeds = np.random.SeedSequence(42).spawn(16)
    instances = [sample_case(case, np.random.default_rng(seed), i)
                 for i, seed in enumerate(seeds)]
    instances.append((LinearFractionalMap(0.5, -0.4999999999995, -0.999999999999, 1),
                      JMu(1.0) if case is CaseId.WEIGHTED_JMU else JWp(0.5), 0.7))
    for m, conj, beta in instances:
        param = conj.mu if isinstance(conj, JMu) else conj.p
        for side, ref in zip(evaluate(m, beta, param, W, Z),
                             quadruple_sides(m, beta, conj, W, Z), strict=True):
            assert np.all(np.abs(side - ref) <= 1e-13 * np.abs(ref))


# --------------------------------------------------------------------------
# kernel-grid residual
# --------------------------------------------------------------------------

class TestKernelResidual:
    def test_normal_dilation_jmu(self):
        # nonconstant dilations only: alpha = 0 is a degenerate quadruple
        for alpha in (0.05, 0.7, 0.99 * np.exp(2.1j)):
            m = LinearFractionalMap(alpha, 0, 0, 1)
            assert kernel_residual(CaseId.COMP_JMU, m, JMu(1j)) < 1e-12

    def test_unitary_family_weighted_jmu(self):
        m = unitary_family(0.5, np.exp(0.3j))
        assert kernel_residual(CaseId.WEIGHTED_JMU, m, JMu(np.exp(1.9j))) < 1e-12

    def test_automorphism_composition_jw_fails(self):
        # phi(0) = gamma q != 0, so the composition operator is not JW-normal
        m = unitary_family(0.5)
        assert kernel_residual(CaseId.COMP_JW, m, JWp(1.0 / 3.0)) > 1e-6

    def test_grid_size_floor(self):
        with pytest.raises(ValueError):
            ring_grid(4)

    @pytest.mark.parametrize("grid_n", [8.5, 12.0, "12"])
    def test_grid_size_must_be_an_integer(self, grid_n):
        with pytest.raises(ValueError, match="integer"):
            ring_grid(grid_n)

    def test_numpy_integer_grid_size(self):
        assert np.array_equal(ring_grid(np.int64(12)), ring_grid(12))

    @pytest.mark.parametrize("grid_n", [8, 12, 40, 512])
    def test_grid_equals_the_ring_by_ring_form(self, grid_n):
        golden = 2.0 * np.pi * 0.381966011250105
        rings = [r * np.exp(1j * (2.0 * np.pi * np.arange(grid_n) / grid_n + k * golden))
                 for k, r in enumerate(cnormal.GRID_RADII)]
        assert np.array_equal(ring_grid(grid_n), np.concatenate(rings))

    @pytest.mark.parametrize("case,conj,beta", [
        (CaseId.COMP_JMU, JMu(np.exp(0.4j)), 1.0),
        (CaseId.COMP_JW, JWp(0.3 + 0.2j), 1.0),
        (CaseId.WEIGHTED_JMU, JMu(np.exp(0.4j)), 0.7 * np.exp(0.4j)),
        (CaseId.WEIGHTED_JW, JWp(0.3 + 0.2j), 0.7 * np.exp(0.4j)),
    ])
    @pytest.mark.parametrize("grid_n", [8, 12, 40])
    def test_equals_the_public_sides_on_the_meshgrid(self, case, conj, beta, grid_n):
        # the sides evaluated on the grid's two axes and broadcast onto the
        # pairs give bit for bit the residual of the full meshgrids
        W, Z = np.meshgrid(ring_grid(grid_n), ring_grid(grid_n), indexing="ij")
        param = conj.mu if isinstance(conj, JMu) else conj.p
        if not case.weighted:
            lhs, rhs = comp_sides(GENERIC, conj, W, Z)
        elif case is CaseId.WEIGHTED_JMU:
            lhs, rhs = eval_sides_weighted_jmu(GENERIC, beta, param, W, Z)
        else:
            lhs, rhs = eval_sides_weighted_jw(GENERIC, beta, param, W, Z)
        assert kernel_residual(case, GENERIC, conj, beta=beta, grid_n=grid_n) == \
            float(np.abs(lhs - rhs).max())

    @pytest.mark.parametrize("case", list(CaseId))
    def test_largest_grid_peaks_at_six_full_size_arrays(self, case):
        # each factor of w or z alone lives on the 3 grid_n ring points; only
        # the final combination fills (3 grid_n)^2 complex pairs
        conj = JMu(np.exp(0.4j)) if case.conj_type is JMu else JWp(0.3 + 0.2j)
        full = (3 * cnormal.MAX_GRID_N) ** 2 * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            kernel_residual(case, GENERIC, conj, beta=0.7, grid_n=cnormal.MAX_GRID_N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * full

    @pytest.mark.parametrize("case", [CaseId.COMP_JMU, CaseId.COMP_JW])
    @pytest.mark.parametrize("k", [0, 17, 35])
    def test_split_point_on_the_grid_is_evaluated(self, case, k):
        # w0 = conj(c/a) is exactly the grid point k; its row of 3 grid_n pairs
        # is evaluated with all the others, and every side is finite
        w0 = ring_grid(12)[k]
        m = LinearFractionalMap(0.5, 0.0, 0.5 * np.conj(w0), 1.0)
        W, Z = np.meshgrid(ring_grid(12), ring_grid(12), indexing="ij")
        conj = JMu(1j) if case is CaseId.COMP_JMU else JWp(0.3)
        lhs, rhs = comp_sides(m, conj, W, Z)
        assert np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs))
        full = float(np.abs(lhs - rhs).max())
        assert kernel_residual(case, m, conj, grid_n=12) == full
        r = verify(case, m, conj, grid_n=12, truncations=(32,))
        assert r.kernel_residual == full
        assert not r.verdict and r.consistent

    @pytest.mark.parametrize("case,m,conj", [
        (CaseId.COMP_JMU, LinearFractionalMap(0.7, 0, 0, 1), JMu(1j)),
        (CaseId.COMP_JW, LinearFractionalMap(np.exp(0.7j), 0, 0, 1), JWp(0.4)),
        (CaseId.WEIGHTED_JMU, GENERIC, JMu(-1.0)),
        (CaseId.WEIGHTED_JW, hermitian_family(0.3, 0.2),
         JWp(hermitian_jw_solved_p(0.3, 0.2))),
    ], ids=[case.value for case in CaseId])
    def test_reads_the_conjugation_only_through_its_kernel_action(self, monkeypatch,
                                                                  case, m, conj):
        # a true instance: with eta moved by 0.05 in C K_x = u_x K_{eta_x} the
        # sides must split, which they would not if a side reached C otherwise
        assert kernel_residual(case, m, conj) <= 1e-12
        original = cnormal.conj_apply_kernel

        def wrong_eta(C, x):
            u, eta = original(C, x)
            return u, eta + 0.05

        monkeypatch.setattr(cnormal, "conj_apply_kernel", wrong_eta)
        assert kernel_residual(case, m, conj) > cnormal.VERDICT_FALSE_MIN

    def test_scale_invariance(self):
        m = GENERIC
        for t in (0.1, 3.7, 2j, -0.4 + 0.2j):
            r0 = kernel_residual(CaseId.WEIGHTED_JMU, m, JMu(1.0))
            r1 = kernel_residual(CaseId.WEIGHTED_JMU, rescaled(m, t), JMu(1.0))
            assert r1 == pytest.approx(r0, rel=1e-10)


def perturbed_automorphisms(count=100):
    """weighted_jmu instances on disk automorphisms gamma (q - z)/(1 - conj(q) z)
    with one coefficient moved by a log-uniform delta in [1e-12, 1e-7], kept
    when the moved map is a self-map with no tolerance: weighted_jmu's one
    equation implies the paper's other only on a self-map, so on a map that
    leaves the disk by less than SELF_MAP_TOL the margin can read far below
    the cleared residual (6.8e-15 against 197 times that on one such draw)."""
    g = np.random.default_rng(14)
    out = []
    while len(out) < count:
        gamma = np.exp(2j * np.pi * g.uniform())
        q = g.uniform(0.05, 0.6) * np.exp(2j * np.pi * g.uniform())
        coefficients = [-gamma, gamma * q, -np.conj(q), 1.0]
        coefficients[g.integers(4)] += 10 ** g.uniform(-12, -7) * np.exp(2j * np.pi * g.uniform())
        m = LinearFractionalMap(*coefficients)
        centre, radius = image_disk(m)
        if abs(centre) + radius <= 1.0:
            out.append((m, JMu(np.exp(2j * np.pi * g.uniform())), np.exp(2j * np.pi * g.uniform())))
    return out


class TestClearedKernelResidual:
    """reference.cleared_kernel_residual: the kernel residual times the two
    kernel denominators, over s^4, scales like the predicate's margin where
    the residual itself is amplified near an automorphism."""

    @staticmethod
    def seed_42_draws(case):
        for i, seq in enumerate(np.random.SeedSequence(42).spawn(200)):
            yield sample_case(case, np.random.default_rng(seq), i)

    @pytest.mark.parametrize("case", list(CaseId), ids=[case.value for case in CaseId])
    def test_true_draws_read_rounding(self, case):
        for m, conj, beta in self.seed_42_draws(case):
            if case_predicate(case, m, conj):
                assert cleared_kernel_residual(case, m, conj, beta) <= 1e-14, (m, conj)

    @pytest.mark.parametrize("case, low, high", [(CaseId.WEIGHTED_JMU, 1.0, 6.0),
                                                 (CaseId.WEIGHTED_JW, 1.65, 48.0)])
    def test_false_weighted_draws_stay_near_their_margin(self, case, low, high):
        # measured 1.97 to 3.05 (weighted_jmu) and 1.97 to 3.20 (weighted_jw)
        for m, conj, beta in self.seed_42_draws(case):
            if not case_predicate(case, m, conj):
                ratio = cleared_kernel_residual(case, m, conj, beta) / predicate_margin(case, m, conj)
                assert low <= ratio <= high, (m, conj, ratio)

    def test_perturbed_automorphisms_stay_near_their_margin(self):
        # cleared / margin measured 1.78 to 1.80; the raw residual reads 21
        # to 94 times the margin, the amplification that the clearing removes
        raw = []
        for m, conj, beta in perturbed_automorphisms():
            margin = predicate_margin(CaseId.WEIGHTED_JMU, m, conj)
            ratio = cleared_kernel_residual(CaseId.WEIGHTED_JMU, m, conj, beta) / margin
            assert 0.89 <= ratio <= 5.38, (m, conj, ratio)
            raw.append(kernel_residual(CaseId.WEIGHTED_JMU, m, conj, beta) / margin)
        assert max(raw) > 10


# --------------------------------------------------------------------------
# predicates
# --------------------------------------------------------------------------

class TestPredicates:
    def test_comp_jmu(self):
        assert case_predicate(CaseId.COMP_JMU, LinearFractionalMap(0.7, 0, 0, 1), None)
        assert not case_predicate(CaseId.COMP_JMU, LinearFractionalMap(0.5, 0, 0.25, 1), None)
        assert not case_predicate(CaseId.COMP_JMU, GENERIC, None)

    def test_comp_jw(self):
        assert case_predicate(CaseId.COMP_JW, LinearFractionalMap(np.exp(0.7j), 0, 0, 1), JWp(0.4))
        assert not case_predicate(CaseId.COMP_JW, LinearFractionalMap(0.5, 0, 0, 1), JWp(0.4))
        assert not case_predicate(CaseId.COMP_JW, GENERIC, JWp(0.4))
        with pytest.raises(ValueError):
            case_predicate(CaseId.COMP_JW, GENERIC, JWp(0.0))

    def test_weighted_jmu(self):
        assert case_predicate(CaseId.WEIGHTED_JMU, GENERIC, JMu(-1.0))
        assert not case_predicate(CaseId.WEIGHTED_JMU, GENERIC, JMu(1.0))
        for mu in (1.0, np.exp(0.9j)):
            assert case_predicate(CaseId.WEIGHTED_JMU, unitary_family(0.5), JMu(mu))

    def test_weighted_jw(self):
        m = hermitian_family(0.3, 0.2)
        assert case_predicate(CaseId.WEIGHTED_JW, m, JWp(hermitian_jw_solved_p(0.3, 0.2)))
        assert not case_predicate(CaseId.WEIGHTED_JW, m, JWp(0.3))
        # unitary instances satisfy both equalities (the operator is unitary,
        # hence conjugation-normal for every conjugation)
        assert case_predicate(CaseId.WEIGHTED_JW, unitary_family(0.5), JWp(1.0 / 3.0))
        for p in (0.2, 0.5j):
            assert case_predicate(CaseId.WEIGHTED_JW, LinearFractionalMap(1, 0, 0, 1), JWp(p))

    def test_unitary_wco(self):
        m = unitary_family(0.5)
        assert predicate_unitary_wco(m, 1.0, 0.5)
        assert not predicate_unitary_wco(LinearFractionalMap(1, 0, 0, 2), 1.0, 0.0)
        assert not predicate_unitary_wco(m, 0.9, 0.5)
        assert not predicate_unitary_wco(m, 1.0, 0.2)   # phi(0.2) != 0

    def test_is_disk_automorphism(self):
        assert is_disk_automorphism(unitary_family(0.5, np.exp(1.1j)))
        assert not is_disk_automorphism(LinearFractionalMap(1, 0, 0, 2))
        assert not is_disk_automorphism(GENERIC)

    def test_hermitian_family_construction(self):
        m = hermitian_family(0.3, 0.2)
        assert m.coefficients() == (0.2 - 0.09, 0.3, -0.3, 1.0)
        assert abs(m.b) == abs(m.c)
        assert lft_is_self_map(m)

    def test_hermitian_family_zero_center(self):
        m = hermitian_family(0.0, 0.5)
        assert m.coefficients() == (0.5, 0.0, 0.0, 1.0)

    def test_hermitian_family_rejects_complex_slope(self):
        with pytest.raises(ValueError):
            hermitian_family(0.3, 0.2 + 0.1j)

    @pytest.mark.parametrize("predicate,param", [(predicate_hermitian_jmu, 1.0),
                                                 (predicate_hermitian_jw, 0.5)])
    @pytest.mark.parametrize("a0,a1,message", [(1.5, 0.2, "a0 must lie in the open disk"),
                                               (0.3, 0.2 + 0.1j, "a1 must be real")])
    def test_hermitian_predicates_validate_like_the_family(self, predicate, param,
                                                           a0, a1, message):
        # the family has no map at |a0| >= 1, so its predicates give no verdict there
        with pytest.raises(ValueError, match=message):
            hermitian_family(a0, a1)
        with pytest.raises(ValueError, match=message):
            predicate(a0, a1, param)

    def test_hermitian_jmu(self):
        assert predicate_hermitian_jmu(0.3, 0.2, 1.0)          # real a0, mu = 1
        assert not predicate_hermitian_jmu(0.3j, 0.2, 1.0)
        # a1 = -1 - |a0|^2 is only a self-map at a0 = 0, where the factor dies
        assert predicate_hermitian_jmu(0.0, -1.0, np.exp(0.4j))

    def test_hermitian_jmu_automorphism_slice(self):
        # a1 = |a0|^2 - 1 gives an automorphism; normal for every mu
        a0 = 0.3 + 0.2j
        a1 = abs(a0) ** 2 - 1.0
        for mu in (1.0, np.exp(2.2j)):
            assert predicate_hermitian_jmu(a0, a1, mu)
            assert case_predicate(CaseId.WEIGHTED_JMU, hermitian_family(a0, a1), JMu(mu))

    def test_hermitian_jw(self):
        p = hermitian_jw_solved_p(0.3, 0.2)
        assert predicate_hermitian_jw(0.3, 0.2, p)
        assert not predicate_hermitian_jw(0.3, 0.2, 0.3)
        assert predicate_hermitian_jw(0.0, 1.0, 0.5)   # identity map

    @pytest.mark.parametrize("seed", range(12))
    def test_hermitian_chain(self, seed):
        # family predicates agree with the generic weighted ones
        g = np.random.default_rng(seed)
        while True:
            a0 = 0.5 * g.uniform() * np.exp(2j * np.pi * g.uniform())
            a1 = g.uniform(-0.4, 0.5)
            m = hermitian_family(a0, a1)
            if lft_is_self_map(m):
                break
        mu = np.exp(2j * np.pi * g.uniform())
        p = g.uniform(0.1, 0.9) * np.exp(2j * np.pi * g.uniform())
        assert (predicate_hermitian_jmu(a0, a1, mu)
                == case_predicate(CaseId.WEIGHTED_JMU, m, JMu(mu)))
        assert (predicate_hermitian_jw(a0, a1, p)
                == case_predicate(CaseId.WEIGHTED_JW, m, JWp(p)))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), mu_angle=st.floats(0.0, 2 * np.pi),
       log_t=st.floats(-3.0, 3.0), t_angle=st.floats(0.0, 2 * np.pi))
def test_weighted_jmu_linear_defect_bounds_the_modulus_gap(seed, mu_angle, log_t, t_angle):
    # predicate_margin's proof that lin = 0 forces |b| = |c| on a self-map:
    # |X|^2 - |Y|^2 = (|a|^2 - |d|^2)(|c|^2 - |b|^2) and ||X| - |Y|| <= |lin|
    m = rescaled(random_self_map(np.random.default_rng(seed)),
                 10.0 ** log_t * np.exp(1j * t_angle))
    mu = np.exp(1j * mu_angle)
    a, b, c, d = m.coefficients()
    s = m.scale
    X = np.conj(a) * c - np.conj(b) * d
    Y = np.conj(c) * d - np.conj(a) * b
    lin = ((np.conj(c) * d - np.conj(a) * b) * np.conj(mu)
           - (np.conj(a) * c - np.conj(b) * d))
    gap = (abs(a) ** 2 - abs(d) ** 2) * (abs(c) ** 2 - abs(b) ** 2)
    assert abs(abs(X) ** 2 - abs(Y) ** 2 - gap) <= 1e-12 * s ** 4
    assert abs(abs(X) - abs(Y)) <= abs(lin) + 1e-12 * s ** 2


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p_radius=st.floats(0.0, 0.99),
       p_angle=st.floats(0.0, 2 * np.pi), t=st.floats(-0.99, 0.99),
       log_t=st.floats(-3.0, 3.0), t_angle=st.floats(0.0, 2 * np.pi))
def test_weighted_jw_e2_puts_p_on_the_line_of_k(seed, p_radius, p_angle, t, log_t, t_angle):
    # predicate_margin's proof that e2 = 0 forces e1 = 0: Im e2 = Im(K conj(p))
    # for every p, so a root of e2 lies on the line p = t K / |K|, and there
    # A e1 + K e2 = 0
    m = rescaled(random_self_map(np.random.default_rng(seed)),
                 10.0 ** log_t * np.exp(1j * t_angle))
    A, _, _, _, K = weighted_jw_terms(m)
    s = m.scale
    p = p_radius * np.exp(1j * p_angle)
    e2 = weighted_jw_equations(m, p)[1]
    assert abs(e2.imag - (K * np.conj(p)).imag) <= 1e-12 * s ** 2
    e1, e2 = weighted_jw_equations(m, t * K / abs(K))
    assert abs(A * e1 + K * e2) <= 1e-12 * s ** 4


def test_weighted_predicate_proofs_are_identities():
    # the identities predicate_margin's two proofs rest on, in the reference
    # e1 and e2, with each conjugate a free symbol and |x|^2 = x conj(x):
    # e2 = A |p|^2 + K conj(p) + 2 Re(Y p), so e2 - K conj(p) is real;
    # A e1 + K e2 = 0 at p = t K, t real; |K|^2 + 2 Re(Y K) + A Delta = 0;
    # and |X|^2 - |Y|^2 + A Delta = 0
    sp = pytest.importorskip("sympy")
    a, b, c, d, p = sp.symbols("a b c d p")
    t = sp.Symbol("t", real=True)
    conj = sp.conjugate

    def formal(expr):
        return sp.expand(expr.replace(sp.Abs, lambda x: sp.sqrt(x * conj(x))))

    m = SimpleNamespace(coefficients=lambda: (a, b, c, d))
    A, Delta, X, Y, K = weighted_jw_terms(m)
    e2 = weighted_jw_equations(m, p)[1]
    assert formal(e2 - (A * abs(p) ** 2 + K * conj(p) + Y * p + conj(Y * p))) == 0
    e1, e2 = weighted_jw_equations(m, t * K)
    assert formal(A * e1 + K * e2) == 0
    assert formal(abs(K) ** 2 + Y * K + conj(Y * K) + A * Delta) == 0
    assert formal(abs(X) ** 2 - abs(Y) ** 2 + A * Delta) == 0


class TestNormalBdyfix:
    def test_symmetric_map_true_both(self):
        m = LinearFractionalMap(1, 0.4, 0.4, 1)
        assert predicate_normal_bdyfix(m, np.exp(0.7j) * 0 + 1.0, "jmu")
        assert predicate_normal_bdyfix(m, 0.37 * np.exp(0.2j), "jw")

    def test_modulus_hypothesis_violation(self):
        m = LinearFractionalMap(0.5, 0.3, 0.1, 1)
        with pytest.raises(HypothesisViolationError):
            predicate_normal_bdyfix(m, 1.0, "jmu")

    def test_boundary_hypothesis_violation(self):
        with pytest.raises(HypothesisViolationError):
            predicate_normal_bdyfix(GENERIC, 1.0, "jmu")

    @pytest.mark.parametrize("seed", range(8))
    def test_jw_first_condition_is_redundant(self, seed):
        # with |b| = |c| and a fixed point zeta on the circle,
        # a bbar - c dbar - (bbar d - abar c) = (|c|^2 - |b|^2) conj(zeta) = 0,
        # so the first condition can never fail under the hypotheses
        g = np.random.default_rng(seed)
        r = g.uniform(0.1, 0.6)
        zeta = np.exp(2j * np.pi * g.uniform())
        b = r * np.exp(2j * np.pi * g.uniform())
        c = r * np.exp(2j * np.pi * g.uniform())
        d = 1.0 - c * zeta + b * np.conj(zeta)   # forces phi(zeta) = zeta
        m = LinearFractionalMap(1.0, b, c, d)
        a, b, c, d = m.coefficients()
        first = a * np.conj(b) - c * np.conj(d) - (np.conj(b) * d - np.conj(a) * c)
        assert abs(first) <= 1e-13 * m.scale ** 2

    def test_matches_weighted_jw_under_hypotheses(self):
        # Hermitian maps with a boundary fixed point: a1 = (1 - a0)^2
        for a0 in (0.2, 0.35, 0.5):
            m = hermitian_family(a0, (1 - a0) ** 2)
            for p in (0.3, 0.8 + 0.4j, 0.5 - 0.2j):
                if abs(p) >= 1:
                    continue
                assert (predicate_normal_bdyfix(m, p, "jw")
                        == case_predicate(CaseId.WEIGHTED_JW, m, JWp(p)))

    def test_dsq_variant_disagrees_somewhere(self):
        # p on |p|^2 = Re(p) solves the true condition for this family;
        # the misprinted |d|^2 variant rejects it
        a0 = 0.3
        m = hermitian_family(a0, (1 - a0) ** 2)
        p = 0.8 + 0.4j
        assert predicate_normal_bdyfix(m, p, "jw")
        assert not predicate_normal_bdyfix_jw_dsq_variant(m, p)


@pytest.mark.parametrize("seed", range(4))
def test_generic_weighted_jw_holds_at_its_one_p(seed):
    # for |b| != |c| the first JW_p equation (|b|^2 - |c|^2) p = K |p|^2 has
    # the one non-zero root p* = Delta / conj(K), where the second equation
    # vanishes too; the sweep's true weighted_jw draws all have |b| = |c|
    g = np.random.default_rng(np.random.SeedSequence([21, seed]))
    for _ in range(10):
        m = random_self_map(g)
        a, b, c, d = m.coefficients()
        delta = abs(b) ** 2 - abs(c) ** 2
        K = -np.conj(a) * c + np.conj(b) * d - a * np.conj(b) + c * np.conj(d)
        p = delta / np.conj(K)
        assert abs(abs(b) - abs(c)) > 1e-3 * m.scale and 0 < abs(p) < 1
        conj = JWp(p)
        assert cnormal.predicate_margin(CaseId.WEIGHTED_JW, m, conj) <= cnormal.WEIGHTED_TOL
        r = verify(CaseId.WEIGHTED_JW, m, conj)
        assert r.verdict and r.consistent
        assert r.kernel_residual <= 1e-12


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), log_p=st.floats(-300.0, -1.0),
       p_angle=st.floats(0.0, 2 * np.pi), log_t=st.floats(-3.0, 3.0),
       t_angle=st.floats(0.0, 2 * np.pi))
def test_weighted_jw_margin_tends_to_weighted_jmus_as_p_vanishes(seed, log_p, p_angle,
                                                                 log_t, t_angle):
    # J_mu is JW_p's limit at p = 0, with mu = -lam: |e2| / |p| and |lin|
    # differ by at most |A| |p| <= s^2 |p|, whatever the map's scale
    m = rescaled(random_self_map(np.random.default_rng(seed)),
                 10.0 ** log_t * np.exp(1j * t_angle))
    conj = JWp(10.0 ** log_p * np.exp(1j * p_angle))
    jw = cnormal.predicate_margin(CaseId.WEIGHTED_JW, m, conj)
    jmu = cnormal.predicate_margin(CaseId.WEIGHTED_JMU, m, JMu(-conj.lam))
    assert abs(jw - jmu) <= abs(conj.p) + 1e-13


class TestReflectionToJmu:
    """weighted_jw(phi, p) holds iff weighted_jmu(phi', -lam) does, where
    phi' = alpha^-1 o phi o alpha carries JW_p's reflection to J_mu's
    (reference.reflect_to_jmu).  verify decides the reduced instance with
    all three routes, none of which reads e2."""

    def test_sampler_draws(self):
        # 100 weighted_jw draws, half of them true
        for i in range(100):
            m, conj, beta = sample_case(CaseId.WEIGHTED_JW, np.random.default_rng([5, i]), i)
            reduced, mu = reflect_to_jmu(m, conj.p)
            verdict = case_predicate(CaseId.WEIGHTED_JW, m, conj)
            assert case_predicate(CaseId.WEIGHTED_JMU, reduced, JMu(mu)) == verdict
            r = verify(CaseId.WEIGHTED_JMU, reduced, JMu(mu), beta)
            assert r.verdict == verdict and r.consistent, (i, m, conj)

    def test_generic_maps_at_their_one_p(self):
        # p* = Delta / conj(K) is the one p at which a map with |b| != |c| is
        # JW_p-normal (test_generic_weighted_jw_holds_at_its_one_p); turned
        # by 0.3 rad it is not.  None of these reduced maps is one the
        # weighted_jmu sampler draws
        g = np.random.default_rng(np.random.SeedSequence([33, 0]))
        for _ in range(40):
            m = random_self_map(g)
            _, delta, _, _, K = weighted_jw_terms(m)
            p_star = delta / np.conj(K)
            for p, verdict in ((p_star, True), (p_star * np.exp(0.3j), False)):
                reduced, mu = reflect_to_jmu(m, p)
                assert case_predicate(CaseId.WEIGHTED_JW, m, JWp(p)) == verdict
                assert case_predicate(CaseId.WEIGHTED_JMU, reduced, JMu(mu)) == verdict
                r = verify(CaseId.WEIGHTED_JMU, reduced, JMu(mu))
                assert r.verdict == verdict and r.consistent, (m, p)


def _weighted_jmu_margin(m, mu):
    """The weighted_jmu margin with mu in place of conj(mu) in lin."""
    a, b, c, d = m.coefficients()
    lin = (np.conj(c) * d - np.conj(a) * b) * mu - (np.conj(a) * c - np.conj(b) * d)
    return abs(lin) / m.scale ** 2


def _weighted_jw_margin(m, p):
    """The weighted_jw margin with p and conj(p) swapped in e2."""
    A, _, X, Y, _ = weighted_jw_terms(m)
    return abs(A * abs(p) ** 2 - X * p + Y * np.conj(p)) / m.scale ** 2


# Each mutant of predicate_margin drops or changes one condition of one case,
# with a self-map on which its verdict is wrong, so that verify reports the
# contradiction: (case, mutant margin, witness map, witness conjugation).
MUTANTS = {
    "comp_jmu without b = 0": (CaseId.COMP_JMU, lambda m, C: abs(m.c) / m.scale,
                               LinearFractionalMap(0.5, 0.25, 0, 1), JMu(1.0)),
    "comp_jmu without c = 0": (CaseId.COMP_JMU, lambda m, C: abs(m.b) / m.scale,
                               LinearFractionalMap(0.5, 0, 0.25, 1), JMu(1.0)),
    "comp_jw without |a| = |d|": (CaseId.COMP_JW,
                                  lambda m, C: max(abs(m.b), abs(m.c)) / m.scale,
                                  LinearFractionalMap(0.5, 0, 0, 1), JWp(0.4)),
    "weighted_jmu without lin = 0": (CaseId.WEIGHTED_JMU, lambda m, C: 0.0,
                                     GENERIC, JMu(1.0)),
    "weighted_jmu with mu for conj(mu) in lin": (
        CaseId.WEIGHTED_JMU, lambda m, C: _weighted_jmu_margin(m, C.mu),
        LinearFractionalMap(0.5, 0.25j, 0.25, 1), JMu(-1j)),
    "weighted_jw without e2 = 0": (CaseId.WEIGHTED_JW, lambda m, C: 0.0,
                                   hermitian_family(0.3, 0.2), JWp(0.3)),
    # p = Delta / conj(K), the one p at which this map's W is JW_p-normal
    "weighted_jw with p and conj(p) swapped in e2": (
        CaseId.WEIGHTED_JW, lambda m, C: _weighted_jw_margin(m, C.p),
        LinearFractionalMap(0.5, 0.3, 0.1j, 1), JWp(0.48 + 0.16j)),
}

# Mutants with the same verdict as predicate_margin on every self-map, since
# |a| = |d| forces b conj(d) = a conj(c) there: c = 0 gives b = 0, and b = 0
# gives c = 0.  Each comes with a map just off the self-maps where the two differ.
EQUIVALENT = {
    "comp_jw without b = 0": (lambda m: max(abs(m.c) / m.scale, abs(abs(m.a / m.d) - 1.0)),
                              LinearFractionalMap(np.exp(0.7j), 1e-6, 0, 1)),
    "comp_jw without c = 0": (lambda m: max(abs(m.b) / m.scale, abs(abs(m.a / m.d) - 1.0)),
                              LinearFractionalMap(np.exp(0.7j), 0, 1e-6, 1)),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_every_predicate_condition_fails_a_test(monkeypatch, name):
    case, margin, m, conj = MUTANTS[name]
    honest = verify(case, m, conj)
    assert honest.consistent
    original = cnormal.predicate_margin
    monkeypatch.setattr(cnormal, "predicate_margin", lambda c, m, conj: (
        margin(m, conj) if c is case else original(c, m, conj)))
    mutated = verify(case, m, conj)
    assert mutated.verdict != honest.verdict and not mutated.consistent


@pytest.mark.parametrize("name", EQUIVALENT)
def test_equivalent_mutants_differ_only_off_the_self_maps(name):
    margin, m = EQUIVALENT[name]
    assert margin(m) == 0.0 and not case_predicate(CaseId.COMP_JW, m, JWp(0.4))
    assert not lft_is_self_map(m)


@pytest.mark.parametrize("case,conj", [(CaseId.COMP_JMU, None), (CaseId.COMP_JW, JWp(0.4)),
                                       (CaseId.WEIGHTED_JMU, JMu(-1.0)),
                                       (CaseId.WEIGHTED_JW, JWp(0.4))])
def test_predicate_returns_builtin_types(case, conj):
    assert type(cnormal.predicate_margin(case, GENERIC, conj)) is float
    assert type(case_predicate(case, GENERIC, conj)) is bool


# --------------------------------------------------------------------------
# W* action on kernels through matrices
# --------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_weighted_adjoint_kernel_action(seed):
    # <W f, K_w> = conj(conj(psi(w)) K_{phi(w)} paired with f) = psi(w) ... :
    # the adjoint sends K_w to conj(psi(w)) K_{phi(w)}
    from cnops.operators import weighted_composition_matrix

    g = np.random.default_rng(seed)
    m = random_self_map(g, max_offset=0.4)
    N = 128
    beta = np.exp(2j * np.pi * g.uniform())
    psi = cnormal.operators.canonical_weight_series(m, beta, N)
    W = weighted_composition_matrix(psi, m, N)
    f = np.zeros(N, dtype=complex)
    f[:12] = g.standard_normal(12) + 1j * g.standard_normal(12)
    for w in (0.3, -0.4 + 0.45j):
        kw = kernel_series(w, N)
        lhs = np.sum((W @ f) * np.conj(kw))                   # <W f, K_w>
        psi_w = np.polynomial.polynomial.polyval(w, psi)
        rhs = np.sum(f * np.conj(np.conj(psi_w) * kernel_series(lft_eval(m, w), N)))
        assert lhs == pytest.approx(rhs, abs=1e-10)


# --------------------------------------------------------------------------
# verify() reports
# --------------------------------------------------------------------------

class TestVerify:
    def test_normal_dilation_consistent(self):
        m = LinearFractionalMap(0.7, 0, 0, 1)
        r = verify(CaseId.COMP_JMU, m, JMu(1j), truncations=(32, 64))
        assert r.verdict and r.consistent
        assert r.kernel_residual < 1e-12
        assert all(res < 1e-10 for _, res in r.matrix_residuals)

    @pytest.mark.parametrize("m", [GENERIC, LinearFractionalMap(np.exp(0.7j), 0, 0, 1)],
                             ids=["generic", "rotation"])
    def test_self_map_test_runs_once(self, monkeypatch, m):
        # check_instance validates phi once; stable_keep reads its image disk
        # at each N without testing it again (the rotation's disk touches the
        # circle, so its boundary rate is read too)
        import sys

        from cnops import moebius

        original, calls = moebius.lft_is_self_map, []

        def counted(m):
            calls.append(m)
            return original(m)

        for name, module in list(sys.modules.items()):
            if name.startswith("cnops") and getattr(module, "lft_is_self_map", None) is original:
                monkeypatch.setattr(module, "lft_is_self_map", counted)
        r = verify(CaseId.COMP_JW, m, JWp(0.4))
        assert calls == [m]
        monkeypatch.undo()
        assert verify(CaseId.COMP_JW, m, JWp(0.4)).matrix_keep == r.matrix_keep

    def test_hermitian_solved_p_consistent(self):
        m = hermitian_family(0.3, 0.2)
        p = hermitian_jw_solved_p(0.3, 0.2)
        r = verify(CaseId.WEIGHTED_JW, m, JWp(p), truncations=(32, 64, 128))
        assert r.verdict and r.consistent
        assert r.kernel_residual < 1e-9

    def test_false_case_consistent(self):
        r = verify(CaseId.COMP_JW, GENERIC, JWp(0.4), truncations=(32, 64))
        assert not r.verdict and r.consistent
        assert r.kernel_residual > 1e-7

    def test_report_shape(self):
        r = verify(CaseId.COMP_JMU, LinearFractionalMap(0.5, 0, 0, 1), JMu(1.0),
                   truncations=(32, 64))
        d = dataclasses.asdict(r)
        assert set(d) == {"case", "verdict", "kernel_residual", "matrix_residuals",
                          "matrix_keep", "params", "grid", "margin", "warnings",
                          "consistent", "timing_s"}
        assert r.margin == 0.0
        assert d["grid"] == {"rings": [0.3, 0.6, 0.9], "points_per_ring": 12,
                             "pairs": 1296}
        assert [n for n, _ in r.matrix_residuals] == [32, 64]
        assert r.matrix_keep == [(32, 16), (64, 32)]
        assert json.loads(r.to_json())["matrix_keep"] == [[32, 16], [64, 32]]
        row = r.csv_row(7)
        assert row.startswith("7,comp_jmu,true,")

    def test_rejects_wrong_conjugation_family(self):
        with pytest.raises(ValueError):
            verify(CaseId.COMP_JMU, GENERIC, JWp(0.4))

    def test_rejects_non_self_map(self):
        with pytest.raises(ValueError):
            verify(CaseId.COMP_JMU, LinearFractionalMap(2, 0, 0, 1), JMu(1.0))

    @pytest.mark.parametrize("truncations", [(0, 32), (6,), (4, 8), (32, 7), ()])
    def test_rejects_truncations_below_eight(self, truncations):
        with pytest.raises(ValueError, match="at least 8"):
            verify(CaseId.COMP_JMU, GENERIC, JMu(1.0), truncations=truncations)

    @pytest.mark.parametrize("sizes", [{"grid_n": 8.5}, {"truncations": (32.9, 64)},
                                       {"truncations": (32.0,)}])
    def test_rejects_non_integral_sizes(self, sizes):
        # 8.5 points per ring would evaluate 27 points and report 650.25 pairs;
        # a truncation of 32.9 would run at N = 32
        with pytest.raises(ValueError, match="integer"):
            verify(CaseId.COMP_JMU, GENERIC, JMu(1.0), **sizes)

    def test_numpy_integer_sizes_are_reported_as_ints(self):
        def payload(grid_n, truncations):
            r = verify(CaseId.COMP_JMU, GENERIC, JMu(1.0), grid_n=grid_n,
                       truncations=truncations)
            return {k: v for k, v in json.loads(r.to_json()).items() if k != "timing_s"}

        assert payload(np.int64(12), np.array([32, 64])) == payload(12, (32, 64))

    def test_smallest_truncation_runs(self):
        r = verify(CaseId.COMP_JW, GENERIC, JWp(0.4), truncations=(8,))
        assert [n for n, _ in r.matrix_residuals] == [8]

    def test_rejects_zero_beta(self):
        with pytest.raises(ValueError):
            verify(CaseId.WEIGHTED_JMU, GENERIC, JMu(1.0), beta=0.0)

    @pytest.mark.parametrize("case,m,conj,beta,match", [
        (CaseId.COMP_JMU, LinearFractionalMap(2, 0, 0, 1), JMu(1.0), 1.0, "self-map"),
        (CaseId.WEIGHTED_JW, LinearFractionalMap(1, 0, 1, 1), JWp(0.4), 1.0, "self-map"),
        (CaseId.COMP_JMU, GENERIC, JWp(0.4), 1.0, "JMu conjugation"),
        (CaseId.WEIGHTED_JW, GENERIC, JMu(1.0), 1.0, "JWp conjugation"),
        (CaseId.WEIGHTED_JMU, GENERIC, JMu(1.0), 0.0, "beta"),
    ])
    def test_check_instance_rejects(self, case, m, conj, beta, match):
        with pytest.raises(ValueError, match=match):
            check_instance(case, m, conj, beta)

    def test_check_instance_ignores_beta_of_composition_cases(self):
        assert check_instance(CaseId.COMP_JW, GENERIC, JWp(0.4), 0.0) is None

    def test_rounding_rise_at_large_n_is_consistent(self):
        # a true comp_jw instance (rotation, |p| ~ 0.19) whose matrix residual
        # rises by rounding alone, about 1.4e-13 -> 3.9e-13 -> 1.1e-12 on
        # OpenBLAS, crossing the absolute 1e-12 floor at N = 512
        m = LinearFractionalMap(-0.9215663912013234 - 0.3882207962077369j, 0, 0, 1)
        conj = JWp(0.13254524791164105 - 0.13357946384270014j)
        r = verify(CaseId.COMP_JW, m, conj, truncations=(128, 256, 512))
        assert r.verdict and r.consistent
        assert all(res < 1e-11 for _, res in r.matrix_residuals)

    def test_large_n_floor_still_flags_a_real_rise(self, monkeypatch):
        # 1e-10 -> 1e-9 -> 1e-8 is far above the rounding floor (about 5e-12
        # at N = 512, keep = 256), so a true verdict with it is inconsistent
        rising = {128: 1e-10, 256: 1e-9, 512: 1e-8}
        monkeypatch.setattr(cnormal.operators, "kept_block_residuals",
                            lambda m, C, sizes, beta=None: [rising[N] for N, _ in sizes])
        r = verify(CaseId.COMP_JMU, LinearFractionalMap(0.7, 0, 0, 1), JMu(1j),
                   truncations=(128, 256, 512))
        assert r.verdict and not r.consistent

    @pytest.mark.parametrize("case", [CaseId.WEIGHTED_JMU, CaseId.WEIGHTED_JW])
    @pytest.mark.parametrize("beta", [1e-6, 1e6])
    def test_weighted_consistency_is_beta_scaled(self, case, beta):
        # both oracles scale as |beta|^2; the thresholds must follow them
        from cnops.cli import sample_case

        seeds = np.random.SeedSequence(42).spawn(8)
        for i in range(0, 8, 2):
            m, conj, _ = sample_case(case, np.random.default_rng(seeds[i]), i)
            r = verify(case, m, conj, beta=beta, truncations=(32, 64))
            assert r.verdict and r.consistent
            # verify runs the oracle at beta over a power of two: exact scaling
            assert r.kernel_residual == kernel_residual(case, m, conj, beta=beta)

    @pytest.mark.parametrize("conj", [JMu(1.0), JWp(0.5)])
    def test_weighted_near_boundary_pole(self, conj):
        # |d|^2 - |c|^2 is about 2e-12, so both sides reach about 1e12 on the
        # grid; every side denominator is still non-zero
        m = LinearFractionalMap(0.5, -0.4999999999995, -0.999999999999, 1)
        case = CaseId.WEIGHTED_JMU if isinstance(conj, JMu) else CaseId.WEIGHTED_JW
        r = verify(case, m, conj)
        assert np.isfinite(r.kernel_residual)
        assert all(np.isfinite(res) for _, res in r.matrix_residuals)
        assert not r.verdict and r.consistent

    @pytest.mark.parametrize("case", list(CaseId))
    def test_rotation_covariance(self, case):
        # (U f)(z) = f(e^{it} z) sends C_phi to the C of m_t = (a, b e^{-it},
        # c e^{it}, d), J_mu to J_{mu e^{-2it}} and JW_p to JW_{p e^{it}}; the
        # grid is not rotation-invariant, so the kernel route is compared only
        # through the verdict and the consistency flag
        seeds = np.random.SeedSequence(42).spawn(16)
        for i, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            m, conj, beta = sample_case(case, rng, i)
            rot = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            m_t = LinearFractionalMap(m.a, m.b / rot, m.c * rot, m.d)
            conj_t = JMu(conj.mu / rot ** 2) if isinstance(conj, JMu) else JWp(conj.p * rot)
            r, r_t = verify(case, m, conj, beta=beta), verify(case, m_t, conj_t, beta=beta)
            assert (r_t.verdict, r_t.consistent) == (r.verdict, r.consistent)
            for res, res_t in zip(report_residuals(r)[1:], report_residuals(r_t)[1:],
                                  strict=True):
                assert abs(res_t - res) <= 1e-12
