import functools

import numpy as np
import pytest

from conftest import random_self_map
from cnops import cli, cnormal
from cnops.cnormal import CaseId, verify
from cnops.conjugations import JMu, JWp, basis_images, jw_weighted_matrix
from cnops.hardy import lft_power_series, power_matrix
from cnops.moebius import LinearFractionalMap, adjoint_symbol
from cnops.operators import (
    analytic_toeplitz_matrix,
    canonical_weight_series,
    cnormal_residual_matrix,
    composition_matrix,
    conjugation_operator,
    kept_block_residuals,
    kept_blocks,
    stable_keep,
    weighted_composition_matrix,
)
from reference import (
    adjoint_via_cowen,
    jw_xi_tau_matrix,
    kept_block_residual,
    kernel_series,
    quadrature_grams,
    quadrature_residual,
)

GENERIC = LinearFractionalMap(0.5, 0.25, 0.25, 1)
AUTOMORPHISM = LinearFractionalMap(-1.0, 0.5, -0.5, 1.0)
FIXES_ORIGIN = LinearFractionalMap(0.5, 0, 0.25, 1)   # phi(0) = 0
# rows of T C the references compute; their truncations of T and M are deep
# enough that T_1024 M_1024 is the matrix of T C on these rows to rounding
REF_ROWS, REF_N = 128, 1024


@functools.cache
def reference_rows(m, beta=None):
    """Rows [:REF_ROWS] of the REF_N truncation of C_phi, or of W for a beta."""
    rows = composition_matrix(m, REF_N)[:REF_ROWS]
    if beta is None:
        return rows
    return analytic_toeplitz_matrix(canonical_weight_series(m, beta, REF_ROWS), REF_ROWS) @ rows


@functools.cache
def reference_conjugation(conj):
    return conjugation_operator(conj, REF_N)


def involution_defect(M, keep):
    """max norm of (M conj(M) - I) on the leading keep x keep block."""
    return float(np.abs((M @ np.conj(M) - np.eye(len(M)))[:keep, :keep]).max())


class TestCompositionMatrix:
    def test_dilation_is_diagonal(self):
        alpha = 0.6 * np.exp(0.5j)
        M = composition_matrix(LinearFractionalMap(alpha, 0, 0, 1), 8)
        assert np.allclose(M, np.diag(alpha ** np.arange(8)))

    def test_half_map(self):
        M = composition_matrix(LinearFractionalMap(1, 0, 0, 2), 4)
        assert np.allclose(M, np.diag([1, 0.5, 0.25, 0.125]))

    def test_first_column_is_delta_second_is_series(self):
        M = composition_matrix(GENERIC, 32)
        e0 = np.zeros(32)
        e0[0] = 1
        assert np.array_equal(M[:, 0], e0)
        assert np.array_equal(M[:, 1], lft_power_series(*GENERIC.coefficients(), 32))

    def test_block_stability(self):
        # leading block of the double truncation equals the small truncation
        small = composition_matrix(GENERIC, 24)
        big = composition_matrix(GENERIC, 48)
        assert np.array_equal(big[:24, :24][:, :24], small)

    def test_rejects_non_self_map(self):
        with pytest.raises(ValueError, match="not a validated self-map"):
            composition_matrix(LinearFractionalMap(2, 0, 0, 1), 8)


class TestToeplitz:
    def test_identity_symbol(self):
        assert np.allclose(analytic_toeplitz_matrix(np.array([1.0]), 5), np.eye(5))

    def test_shift_symbol(self):
        M = analytic_toeplitz_matrix(np.array([0.0, 1.0]), 4)
        assert np.allclose(M, np.eye(4, k=-1))

    def test_geometric_symbol(self):
        M = analytic_toeplitz_matrix(kernel_series(0.5, 6), 6)
        for k in range(6):
            assert np.allclose(np.diag(M, -k), 0.5 ** k)

    @pytest.mark.parametrize("length,N", [(16, 16), (5, 16), (40, 16), (1, 1), (3, 1),
                                          (2, 2), (3, 3), (17, 17), (42, 42), (100, 100)])
    def test_matches_column_loop(self, rng, length, N):
        symbol = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        loop = np.zeros((N, N), dtype=complex)
        padded = np.pad(symbol[:N], (0, max(0, N - length)))
        for j in range(N):
            loop[j:, j] = padded[: N - j]
        M = analytic_toeplitz_matrix(symbol, N)
        assert np.array_equal(M, loop)
        assert M.flags.c_contiguous and M.flags.writeable


class TestWeightedComposition:
    def test_unit_weight_reduces_to_composition(self):
        psi = np.zeros(16, dtype=complex)
        psi[0] = 1.0
        assert np.allclose(weighted_composition_matrix(psi, GENERIC, 16),
                           composition_matrix(GENERIC, 16))

    def test_constant_weight_scales(self):
        beta = 0.7 - 0.2j
        psi = np.zeros(16, dtype=complex)
        psi[0] = beta
        assert np.allclose(weighted_composition_matrix(psi, GENERIC, 16),
                           beta * composition_matrix(GENERIC, 16))

    def test_canonical_weight_series(self):
        # beta K_{sigma(0)} for GENERIC: sigma(0) = -0.25, series (-0.25)^n
        psi = canonical_weight_series(GENERIC, 1.0, 4)
        assert np.allclose(psi, [1.0, -0.25, 0.0625, -0.015625])


class TestAdjointViaCowen:
    def test_dilation_exact(self):
        m = LinearFractionalMap(1, 0, 0, 2)
        A = adjoint_via_cowen(m, 16)
        assert np.allclose(A, composition_matrix(m, 16).conj().T, atol=1e-15)

    @pytest.mark.parametrize("m", [
        GENERIC,
        LinearFractionalMap(-1.0, 0.5, -0.5, 1.0),        # automorphism, q = 0.5
        LinearFractionalMap(0.3 + 0.2j, 0.1, 0.1j, 1.0),
    ])
    def test_matches_conjugate_transpose(self, m):
        N = 64
        A = adjoint_via_cowen(m, N)
        B = composition_matrix(m, N).conj().T
        assert np.abs((A - B)[:16, :16]).max() < 1e-8

    def test_difference_does_not_grow_with_truncation(self):
        # the construction is block-exact, so the defect sits at rounding level
        for seed in range(5):
            m = random_self_map(np.random.default_rng(seed), max_offset=0.5)
            if abs(m.c / m.d) > 0.5:
                continue
            diffs = []
            for N in (64, 128):
                D = adjoint_via_cowen(m, N) - composition_matrix(m, N).conj().T
                diffs.append(np.abs(D[: N // 4, : N // 4]).max())
            assert diffs[1] <= max(diffs[0], 1e-12)


class TestConjugationOperator:
    def test_jmu_unit_is_identity_matrix(self):
        M = conjugation_operator(JMu(1.0), 8)
        assert np.allclose(M, np.eye(8))

    def test_jmu_applied_twice_fixes_basis_vectors(self):
        M = conjugation_operator(JMu(np.exp(1.3j)), 16)
        for n in (0, 3, 15):
            e = np.zeros(16, dtype=complex)
            e[n] = 1.0
            assert np.allclose(M @ np.conj(M @ np.conj(e)), e, atol=1e-14)

    def test_jwp_involution_defect_on_stable_block(self):
        # the 32x32 leading block is clean at truncation 128 ...
        M = conjugation_operator(JWp(0.4), 128)
        assert involution_defect(M, 32) < 1e-8
        # ... but NOT at truncation 64: powers of the inner factor move
        # coefficient mass past the cut, so only rows within the stable block
        # (stable_keep -> 21 here) are reliable
        M64 = conjugation_operator(JWp(0.4), 64)
        assert involution_defect(M64, stable_keep(64, C=JWp(0.4))) < 1e-5
        assert involution_defect(M64, 32) > 1e-3

    def test_double_application_equals_linearization(self, rng):
        # applying twice through the action equals the linear map M conj(M)
        M = conjugation_operator(JWp(0.3 + 0.2j), 32)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        assert np.abs(M @ np.conj(M @ np.conj(x))
                      - (M @ np.conj(M)) @ x).max() <= 1e-14 * np.abs(x).max() * 100


    @pytest.mark.parametrize("N", [32, 64, 128, 256])
    def test_matrix_is_symmetric(self, N):
        # <Cx, y> = <Cy, x> gives M = M^T, which cnormal_residual_matrix uses
        M = conjugation_operator(JMu(np.exp(0.9j)), N)
        assert np.array_equal(M, M.T)
        for p in (0.4, 0.3 + 0.25j, -0.7j, 0.85, 0.1):
            M = conjugation_operator(JWp(p), N)
            assert np.abs(M - M.T).max() <= 1e-14


class TestCnormalResidualMatrix:
    def test_dilation_jmu_machine_zero(self):
        m = LinearFractionalMap(0.6 * np.exp(0.4j), 0, 0, 1)
        T = composition_matrix(m, 64)
        C = conjugation_operator(JMu(np.exp(0.9j)), 64)
        assert cnormal_residual_matrix(T, C) < 1e-12

    def test_rotation_jwp_small_on_stable_block(self):
        m = LinearFractionalMap(np.exp(0.7j), 0, 0, 1)
        N = 128
        T = composition_matrix(m, N)
        C = conjugation_operator(JWp(0.4), N)
        keep = stable_keep(N, m=m, C=JWp(0.4))
        assert cnormal_residual_matrix(T, C, keep) < 1e-8

    def test_translated_map_fails_jwp(self):
        # phi(0) != 0: the identity genuinely fails, residual stays large
        N = 128
        T = composition_matrix(GENERIC, N)
        C = conjugation_operator(JWp(0.4), N)
        keep = stable_keep(N, m=GENERIC, C=JWp(0.4))
        assert cnormal_residual_matrix(T, C, keep) > 1e-3

    @pytest.mark.parametrize("case,conj", [
        (CaseId.COMP_JMU, JMu(np.exp(0.9j))),
        (CaseId.WEIGHTED_JMU, JMu(-1.0)),
        (CaseId.COMP_JW, JWp(0.4)),
        (CaseId.WEIGHTED_JW, JWp(0.3 - 0.5j)),
    ])
    @pytest.mark.parametrize("m", [GENERIC, LinearFractionalMap(0.6 * np.exp(0.4j), 0, 0, 1)])
    def test_block_matches_full_products(self, case, conj, m):
        # the kept block formed alone equals the block of the four full products
        N = 64
        if case.weighted:
            T = weighted_composition_matrix(canonical_weight_series(m, 0.7 + 0.2j, N), m, N)
        else:
            T = composition_matrix(m, N)
        M = conjugation_operator(conj, N)
        full = M @ np.conj(T.conj().T @ T) @ np.conj(M) - T @ T.conj().T
        for keep in (1, 5, 16, 32):
            want = np.linalg.norm(full[:keep, :keep])
            got = cnormal_residual_matrix(T, M, keep)
            assert abs(got - want) <= 8 * N * np.finfo(float).eps * max(1.0, want)

    @pytest.mark.parametrize("case,conj", [
        (CaseId.COMP_JMU, JMu(np.exp(0.9j))),
        (CaseId.WEIGHTED_JMU, JMu(-1.0)),
        (CaseId.COMP_JW, JWp(0.4)),
        (CaseId.WEIGHTED_JW, JWp(0.3 - 0.5j)),
    ])
    @pytest.mark.parametrize("m", [GENERIC, LinearFractionalMap(0.6 * np.exp(0.4j), 0, 0, 1),
                                   AUTOMORPHISM])
    @pytest.mark.parametrize("keep", [1, 5, "stable"])
    def test_blocks_match_the_full_builds(self, case, conj, m, keep):
        # the blocks built once at N = 128 and sliced give, at every N, the
        # residual of the full N x N truncations for J_mu, and for JW_p the
        # residual whose left block reads the exact rows of T C
        beta = 0.7 + 0.2j if case.weighted else None
        sizes = [(N, stable_keep(N, m=m, C=conj) if keep == "stable" else keep)
                 for N in (32, 64, 128)]
        got = kept_block_residuals(m, conj, sizes, beta=beta)
        for (N, k), value in zip(sizes, got):
            if case.weighted:
                T = weighted_composition_matrix(canonical_weight_series(m, beta, N), m, N)
            else:
                T = composition_matrix(m, N)
            if isinstance(conj, JMu):
                want = cnormal_residual_matrix(T, conjugation_operator(conj, N), k)
            else:   # X is the block of T C itself, not of T_N M_N
                X = reference_rows(m, beta) @ reference_conjugation(conj)[:, :k]
                want = kept_block_residual(X[:N], T[:k])
            assert abs(value - want) <= 1e-13 * max(1.0, want)

    @pytest.mark.parametrize("case,conj", [
        (CaseId.COMP_JMU, JMu(np.exp(0.4j))),
        (CaseId.WEIGHTED_JMU, JMu(np.exp(0.4j))),
        (CaseId.COMP_JW, JWp(0.3 + 0.2j)),
        (CaseId.WEIGHTED_JW, JWp(0.3 + 0.2j)),
    ])
    @pytest.mark.parametrize("seed", range(4))
    def test_residual_ignores_a_conjugation_phase(self, case, conj, seed):
        # lam C is a conjugation for unimodular lam, with matrix lam M, and
        # (lam C) X (lam C) = |lam|^2 C X C: a phase never changes the answer
        g = np.random.default_rng(seed)
        lam = np.exp(2j * np.pi * g.uniform())
        N = 64
        M = conjugation_operator(conj, N)
        for m in (random_self_map(g, max_offset=0.4), LinearFractionalMap(np.exp(0.7j), 0, 0, 1),
                  LinearFractionalMap(0.6 * np.exp(0.2j), 0, 0, 1)):
            if case.weighted:
                T = weighted_composition_matrix(canonical_weight_series(m, 0.7 + 0.2j, N), m, N)
            else:
                T = composition_matrix(m, N)
            for keep in (1, 5, 16, 32):
                want = cnormal_residual_matrix(T, M, keep)
                got = cnormal_residual_matrix(T, lam * M, keep)
                assert abs(got - want) <= 8 * N * np.finfo(float).eps * max(1.0, want)

    def test_dimension_mismatch(self):
        T = np.eye(8, dtype=complex)
        C = conjugation_operator(JMu(1.0), 16)
        with pytest.raises(ValueError):
            cnormal_residual_matrix(T, C)


class TestBuildOnce:
    @pytest.mark.parametrize("p", [0.4, 0.3 + 0.2j, -0.85j])
    def test_jw_matrix_is_prefix_exact(self, p):
        # verify slices the largest build for the smaller truncations
        big = jw_weighted_matrix(JWp(p), 128)
        for n in (32, 64):
            assert np.array_equal(big[:n, :n], jw_weighted_matrix(JWp(p), n))

    @pytest.mark.parametrize("case,conj", [
        (CaseId.COMP_JMU, JMu(1j)),
        (CaseId.COMP_JW, JWp(0.4)),
        (CaseId.WEIGHTED_JMU, JMu(-1.0)),
        (CaseId.WEIGHTED_JW, JWp(0.4)),
    ])
    def test_verify_builds_each_operator_once(self, monkeypatch, case, conj):
        # each chain built once at the largest N = 128 and k = keep there, and
        # no N x N build and no truncated conjugation matrix.  JW_p builds the
        # first k columns of T C and the first k columns of T on k rows.
        # J_mu builds T's first k columns, which give X and R's first k
        # columns.  Unless phi(0) = 0, when the rest of R is zero, one
        # k-term power phi^k gives the rest of R, with no further chain
        sizes, powers = [], []
        original = cnormal.operators.hardy.power_matrix
        original_power = cnormal.operators.hardy.series_power

        def counted(first, f, N, cols=None):
            sizes.append((N, N if cols is None else cols))
            return original(first, f, N, cols)

        def counted_power(f, e, N):
            powers.append((len(f), e, N))
            return original_power(f, e, N)

        def unreachable(*args):
            raise AssertionError("verify built a truncated conjugation matrix")

        monkeypatch.setattr(cnormal.operators.hardy, "power_matrix", counted)
        monkeypatch.setattr(cnormal.operators.hardy, "series_power", counted_power)
        monkeypatch.setattr(cnormal.operators, "conjugation_operator", unreachable)
        monkeypatch.setattr(cnormal.operators, "jw_weighted_matrix", unreachable)
        for m in (GENERIC, FIXES_ORIGIN):
            sizes.clear()
            powers.clear()
            r = verify(case, m, conj, truncations=(32, 64, 128))
            assert [n for n, _ in r.matrix_residuals] == [32, 64, 128]
            k = max(keep for _, keep in r.matrix_keep)
            assert sizes == ([(128, k), (k, k)] if isinstance(conj, JWp) else [(128, k)])
            assert powers == ([(k, k, k)] if m is GENERIC else [])


class TestJMuBlocks:
    @pytest.mark.parametrize("m", [GENERIC, LinearFractionalMap(0.6 * np.exp(0.4j), 0, 0, 1),
                                   AUTOMORPHISM])
    @pytest.mark.parametrize("beta", [None, 0.7 + 0.2j])
    def test_one_chain_gives_both_blocks(self, m, beta):
        # R's first k columns are the k-row chain of T[:k] bit for bit, and
        # its block products past them equal the chain to rounding; X is T's
        # first k columns times conj(mu)^i, the basis-image chain of T C to
        # rounding
        C = JMu(np.exp(0.9j))
        n = REF_ROWS
        k = stable_keep(n, m=m, C=C)
        X, R = kept_blocks(m, C, n, k, beta)
        first = np.eye(n, 1).ravel() if beta is None else canonical_weight_series(m, beta, n)
        chain = power_matrix(first[:k], lft_power_series(*m.coefficients(), k), k, cols=n)
        assert np.array_equal(R[:, :k], chain[:, :k])
        assert np.abs(R[:, k:] - chain[:, k:]).max() <= 1e-13 * np.abs(chain).max()
        # C e_i = (conj(mu) z)^i, so column i of T C holds first (conj(mu) phi)^i
        h_phi = lft_power_series(np.conj(C.mu) * m.a, np.conj(C.mu) * m.b, m.c, m.d, n)
        want = power_matrix(first, h_phi, n, cols=k)
        assert np.abs(X - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("conj", [JMu(np.exp(0.9j)), JWp(0.3 - 0.5j)])
    @pytest.mark.parametrize("m", [GENERIC, AUTOMORPHISM])
    @pytest.mark.parametrize("beta", [None, 0.7 + 0.2j])
    @pytest.mark.parametrize("k", [4, 5, 17, 42])
    def test_block_products_give_the_rows_of_t(self, conj, m, beta, k):
        # past column k, each block of R is G = Toeplitz(phi^k) times the k
        # columns before it; 128 is no multiple of 5, 17 or 42, so the last
        # block is clipped.  R's first k columns are the k-row chain bit for
        # bit, and all of R matches both the chain and T[:k, :128] of the
        # deep reference truncation to rounding
        n = REF_ROWS
        _, R = kept_blocks(m, conj, n, k, beta)
        first = np.eye(n, 1).ravel() if beta is None else canonical_weight_series(m, beta, n)
        chain = power_matrix(first[:k], lft_power_series(*m.coefficients(), k), k, cols=n)
        assert R.shape == (k, n)
        assert np.array_equal(R[:, :k], chain[:, :k])
        for want in (chain, reference_rows(m, beta)[:k, :n]):
            assert np.abs(R - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("conj", [JMu(np.exp(0.9j)), JWp(0.3 - 0.5j)])
    @pytest.mark.parametrize("beta", [None, 0.7 + 0.2j])
    def test_r_past_column_k_takes_no_chain_step(self, monkeypatch, conj, beta):
        # R's columns past k cost the 7 convolutions of phi^64 by squaring
        # and no step of a chain: J_mu convolves only for T's first 64
        # columns, JW_p also for the first 64 columns of T C and of T[:64]
        lengths, convolve = [], np.convolve

        def recording_convolve(a, v):
            lengths.append((len(a), len(v)))
            return convolve(a, v)

        monkeypatch.setattr(np, "convolve", recording_convolve)
        kept_blocks(GENERIC, conj, 128, 64, beta)
        if isinstance(conj, JWp):   # the chain of first (w o phi), then T[:64]'s chain
            chains = [(128, 128)] * 63 + [(64, 64)] * 63
        else:
            chains = [(128, 128)] * 63
        assert lengths == chains + [(64, 64)] * 7

    @pytest.mark.parametrize("conj", [JMu(np.exp(0.9j)), JWp(0.3 - 0.5j)])
    @pytest.mark.parametrize("m", [FIXES_ORIGIN, LinearFractionalMap(0.6 * np.exp(0.4j), 0, 0, 1)])
    @pytest.mark.parametrize("beta", [None, 0.7 + 0.2j])
    def test_zero_columns_are_skipped(self, conj, m, beta):
        # phi(0) = 0: R[:keep, :N] is zero past column keep, so R R* over
        # R[:keep, :keep] is the product over all N columns to rounding
        sizes = [(N, stable_keep(N, m=m, C=conj)) for N in (32, 64, 128)]
        X, R = kept_blocks(m, conj, 128, max(keep for _, keep in sizes), beta)
        got = kept_block_residuals(m, conj, sizes, beta=beta)
        for (N, keep), value in zip(sizes, got):
            assert not R[:keep, keep:N].any()
            want = kept_block_residual(X[:N, :keep], R[:keep, :N])
            assert abs(value - want) <= 1e-15 * max(1.0, want)


class TestBasisImages:
    @pytest.mark.parametrize("C", [JWp(p) for p in (0.4, 0.3 + 0.25j, -0.7j, 0.85,
                                                    -0.5, 0.1, 0.6 - 0.6j, 0.2 + 0.7j)])
    def test_identity_map_gives_the_conjugation_matrix(self, C):
        # column i of M holds C e_i = w h^i, the conjugate of xi_p tau_p^i,
        # which the reference builds from xi_p and tau_p themselves
        w, h = (lft_power_series(*q, 64)
                for q in basis_images(C, LinearFractionalMap(1, 0, 0, 1)))
        assert np.abs(power_matrix(w, h, 64) - np.conj(jw_xi_tau_matrix(C, 64))).max() <= 1e-14

    @pytest.mark.parametrize("conj", [JWp(0.4), JWp(0.3 - 0.5j)])
    @pytest.mark.parametrize("m", [GENERIC, AUTOMORPHISM])
    @pytest.mark.parametrize("beta", [None, 0.7 + 0.2j])
    def test_column_block_is_the_block_of_t_times_c(self, conj, m, beta):
        # X is the exact leading block of T C, which T_1024 M_1024 gives on
        # its first 128 rows to rounding
        k = stable_keep(REF_ROWS, m=m, C=conj)
        X, _ = kept_blocks(m, conj, REF_ROWS, k, beta)
        want = reference_rows(m, beta) @ reference_conjugation(conj)[:, :k]
        assert np.abs(X - want).max() <= 1e-13 * np.abs(want).max()


class TestStableKeep:
    def test_strict_contraction_keeps_half(self):
        assert stable_keep(64, m=GENERIC) == 32
        assert stable_keep(64, m=GENERIC, C=JMu(1.0)) == 32

    def test_jw_reduces_block(self):
        assert stable_keep(64, C=JWp(0.4)) < 32

    def test_automorphism_reduces_block(self):
        m = LinearFractionalMap(-1.0, 0.5, -0.5, 1.0)
        assert stable_keep(128, m=m) < 64


class TestQuadratureReference:
    """The kept block of C T*T C - T T* as <u_i, u_j> - <v_j, v_i> by
    quadrature on the circle (reference.quadrature_grams), the matrix
    oracle that needs no truncation."""

    @staticmethod
    def draws(seed, samples):
        """The sweep's draws: sample_case on SeedSequence(seed).spawn, index i."""
        for case in CaseId:
            for i, seq in enumerate(np.random.SeedSequence(seed).spawn(samples)):
                yield (case, *cli.sample_case(case, np.random.default_rng(seq), i))

    @staticmethod
    def n128_draws():
        """The verify_n128 inputs of seeds 3 and 7 (bench/workloads.py)."""
        for seed in (3, 7):
            for i in range(48):
                for index, case in enumerate(CaseId):
                    rng = np.random.default_rng(np.random.SeedSequence([seed, index, i]))
                    yield (case, *cli.sample_case(case, rng, i))

    def test_grams_match_the_kept_blocks(self):
        # 16 draws per case; X and R of kept_blocks are exact on their rows,
        # and at N = 2048 their tails are below rounding
        for case, m, conj, beta in self.draws(77, 16):
            beta = beta if case.weighted else None
            X, R = kept_blocks(m, conj, 2048, 16, beta)
            left, right = quadrature_grams(m, conj, 16, 1024, beta)
            for got, want in ((left, X.T @ np.conj(X)), (right, R @ R.conj().T)):
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_decides_every_sampled_input_as_the_predicate_does(self):
        # 4 x 200 seed-42 sweep draws and the 384 verify_n128 inputs, every
        # beta unimodular: true inputs read at most 2e-14 and false ones at
        # least 0.05
        for case, m, conj, beta in [*self.draws(42, 200), *self.n128_draws()]:
            residual = quadrature_residual(m, conj, M=1024,
                                           beta=beta if case.weighted else None)
            if cnormal.case_predicate(case, m, conj):
                assert residual <= 1e-12, (case, m, conj)
            else:
                assert residual >= 1e-2, (case, m, conj)

    @pytest.mark.parametrize("m", [GENERIC, AUTOMORPHISM, FIXES_ORIGIN,
                                   *(random_self_map(np.random.default_rng([9, i]))
                                     for i in range(4))])
    def test_weighted_adjoint_is_g_times_powers_of_sigma(self, m):
        # v_i = W* e_i = g sigma^i with g = conj(beta) K_{b/d}, the route
        # quadrature_grams reads for W*, against the conjugate transpose of
        # the truncated W, as criterion 2 checks Cowen's formula for C_phi
        beta, N = 0.7 + 0.2j, 256
        V = power_matrix(np.conj(beta) * kernel_series(m.b / m.d, N),
                         lft_power_series(*adjoint_symbol(m).coefficients(), N), N)
        W = weighted_composition_matrix(canonical_weight_series(m, beta, N), m, N)
        want = W.conj().T[:64, :64]
        assert np.abs(V[:64, :64] - want).max() <= 1e-14 * np.abs(want).max()

    def test_near_inner_true_instance(self):
        # verify reads residuals 13.1, 11.0 and 0.91 on its kept blocks at
        # N = 32, 64, 128; quadrature needs M = 4096 (2.0e-5 at M = 1024)
        m = LinearFractionalMap(1, 0.95 * np.exp(0.4j), 0.95 * np.exp(-0.4j), 1)
        assert cnormal.case_predicate(CaseId.WEIGHTED_JMU, m, JMu(1.0))
        assert quadrature_residual(m, JMu(1.0), M=4096, beta=1.0) <= 1e-12

    def test_kept_block_growth_witness_is_true(self):
        # seed-42 weighted_jmu draw 46, consistent at --trunc 16,32 only on
        # the block both truncations share
        m = LinearFractionalMap(1, -0.39049142547478044 + 0.2702811794631007j,
                                -0.39049142547478044 - 0.2702811794631007j, 1)
        conj = JMu(-0.30048661680630945 - 0.9537860310993751j)
        assert cnormal.case_predicate(CaseId.WEIGHTED_JMU, m, conj)
        assert quadrature_residual(m, conj, M=1024, beta=1.0) <= 1e-12
