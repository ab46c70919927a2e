import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_self_map
from cnops.cli import sample_case
from cnops.cnormal import CaseId
from cnops.conjugations import JWp, basis_images
from cnops.hardy import (
    lft_power_series,
    power_matrix,
    series_multiply,
    series_power,
)
from cnops.moebius import LinearFractionalMap
from cnops.operators import canonical_weight_series
from reference import jw_tau, jw_xi_series, kernel_series, lft_eval

disk_points = st.builds(
    lambda r, t: r * np.exp(1j * t),
    st.floats(0.0, 0.9), st.floats(0.0, 2 * np.pi),
)


class TestKernel:
    def test_kernel_at_origin_is_one(self):
        # K_0 = 1: the first coefficient only
        for N in (1, 8, 64):
            assert np.array_equal(kernel_series(0.0, N), np.eye(N, 1).ravel())

    def test_half_half(self):
        # K_w(w) = 1/(1 - |w|^2) = 4/3 at w = 1/2
        assert np.polynomial.polynomial.polyval(0.5, kernel_series(0.5, 64)) == pytest.approx(
            4.0 / 3.0, abs=1e-15)

    def test_reproducing_property(self, rng):
        # <f, K_w> recovers f(w) exactly for polynomials of degree < N
        f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        for w in (0.2, -0.5 + 0.3j, 0.9):
            kw = kernel_series(w, 16)
            assert np.vdot(kw, f) == pytest.approx(np.polynomial.polynomial.polyval(w, f),
                                                   abs=1e-12)


class TestPowerSeries:
    def test_dilation(self):
        p = lft_power_series(1, 0, 0, 2, 6)
        assert np.allclose(p, [0, 0.5, 0, 0, 0, 0])

    def test_alternating_example(self):
        # z/(z/2 + 1): p0 = 0, p1 = 1, then ratio -1/2
        p = lft_power_series(1, 0, 0.5, 1, 5)
        assert np.allclose(p, [0, 1, -0.5, 0.25, -0.125])

    def test_generic_recurrence(self):
        p = lft_power_series(0.5, 0.25, 0.25, 1, 4)
        assert p[0] == pytest.approx(0.25)
        assert p[1] == pytest.approx(0.5 - 0.25 * 0.25)
        assert p[2] == pytest.approx(-0.25 * p[1])

    def test_pole_at_origin_rejected(self):
        with pytest.raises(ValueError, match="pole at the origin"):
            lft_power_series(0, 1, 1, 0, 8)

    def test_pole_in_disk_rejected(self):
        with pytest.raises(ValueError, match="inside the closed disk"):
            lft_power_series(1, 0, 2, 1, 8)

    def test_subnormal_c_gives_the_affine_series(self):
        # the pole test compares |d| with |c| and divides by neither, so a
        # subnormal c raises no OverflowError; the tail underflows to ~0
        m = LinearFractionalMap(1j, 0, 1.1125369292536007e-308j, 1.5 + 1.5j)
        p = lft_power_series(*m.coefficients(), 4)
        assert p[0] == 0 and p[1] == pytest.approx(m.a / m.d, abs=1e-16)
        assert np.all(np.abs(p[2:]) <= 1e-300)

    def test_tail_ratio(self, rng):
        m = LinearFractionalMap(0.5, 0.25, 0.25, 1)
        p = lft_power_series(*m.coefficients(), 40)
        ratio = abs(m.c / m.d)
        for n in range(2, 39):
            if abs(p[n]) > 0:
                assert abs(p[n + 1] / p[n]) == pytest.approx(ratio)

    def test_matches_evaluation(self):
        m = LinearFractionalMap(0.5, 0.25, 0.25, 1)
        p = lft_power_series(*m.coefficients(), 64)
        for z in (0.3, -0.6 + 0.2j):
            assert (np.polynomial.polynomial.polyval(z, p)
                    == pytest.approx(lft_eval(m, z), abs=1e-14))


def builder_quadruples():
    """110 quadruples (a, b, c, d) with |d| > |c|: 100 random ones, and c = 0,
    b = 0, |c/d| = 0.999 and the constants (t c, t d, c, d) with ad - bc = 0."""
    g = np.random.default_rng(34)

    def point():
        return complex(*g.standard_normal(2))

    out = []
    for _ in range(100):
        c, a, b = point(), point(), point()
        out.append((a, b, c, c / g.uniform(0.01, 0.99) * np.exp(2j * np.pi * g.uniform())))
    for _ in range(2):
        a, b, c, d = (point() for _ in range(4))
        out += [(a, b, 0j, d), (a, 0j, c, abs(c) / 0.999 * np.exp(2j * np.pi * g.uniform())),
                (a, b, 0.999 * d * np.exp(2j * np.pi * g.uniform()), d)]
    out += [(c, d, c, d) for c, d in ((0.5, 1.0), (0.3 - 0.4j, -1j))]
    out += [(2.5j * c, 2.5j * d, c, d) for c, d in ((0.0, 0.7 + 0.1j), (-0.2 + 0.6j, 0.9))]
    return out


class TestBuilder:
    """lft_power_series expands any quadruple with its pole off the closed
    disk, a constant (ad - bc = 0) included."""

    def test_matches_fifty_digit_taylor_coefficients(self):
        mp = pytest.importorskip("mpmath")
        N = 40
        with mp.workdps(50):
            for a, b, c, d in builder_quadruples():
                A, B, C, D = (mp.mpc(x) for x in (a, b, c, d))
                want = np.array([complex(x) for x in
                                 mp.taylor(lambda z: (A * z + B) / (C * z + D), 0, N - 1)])
                got = lft_power_series(a, b, c, d, N)
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (a, b, c, d)

    @pytest.mark.parametrize("c, d", [(0.5, 1.0), (0.3 - 0.4j, -1j), (0.0, 2.0)])
    def test_constant_quadruple_is_one(self, c, d):
        # (c z + d)/(c z + d) = 1
        assert np.array_equal(lft_power_series(c, d, c, d, 16), np.eye(16, 1).ravel())

    def test_weight_cancels_against_the_first_basis_image(self):
        # psi (w o phi) = beta d/(c z + d) s_p (c z + d)/(e z + f), so the
        # quadruple (0, beta s_p d, e, f) gives the product of the two series,
        # on 50 weighted_jw draws at their own p and at p = 1e-12, 0.3, 0.99
        N = 64
        for i in range(50):
            m, conj, beta = sample_case(CaseId.WEIGHTED_JW, np.random.default_rng([34, i]), i)
            for C in (conj, JWp(1e-12), JWp(0.3), JWp(0.99)):
                w = basis_images(C, m)[0]
                want = series_multiply(canonical_weight_series(m, beta, N),
                                       lft_power_series(*w, N), N)
                got = lft_power_series(0, beta * w[1], *w[2:], N)
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (m, C)


class TestSeriesMultiply:
    def test_one_is_neutral(self, rng):
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        one = np.zeros(8, dtype=complex)
        one[0] = 1.0
        assert np.allclose(series_multiply(f, one, 8), f)

    def test_difference_of_squares(self):
        f = np.array([1.0, 1.0])
        g = np.array([1.0, -1.0])
        assert np.allclose(series_multiply(f, g, 4), [1, 0, -1, 0])

    def test_geometric_square(self):
        # (sum z^n/2^n)^2 has coefficients (n+1)/2^n
        geo = 0.5 ** np.arange(12)
        sq = series_multiply(geo, geo, 12)
        n = np.arange(12)
        assert np.allclose(sq, (n + 1) / 2.0 ** n)

    @pytest.mark.parametrize("seed", range(5))
    def test_commutative_associative(self, seed):
        g = np.random.default_rng(seed)
        f1, f2, f3 = (g.standard_normal(16) + 1j * g.standard_normal(16) for _ in range(3))
        assert np.abs(series_multiply(f1, f2, 16) - series_multiply(f2, f1, 16)).max() <= 1e-13
        lhs = series_multiply(series_multiply(f1, f2, 16), f3, 16)
        rhs = series_multiply(f1, series_multiply(f2, f3, 16), 16)
        assert np.abs(lhs - rhs).max() <= 1e-13 * max(1.0, np.abs(lhs).max())


class TestSeriesPower:
    @pytest.mark.parametrize("e", [0, 1, 2, 63, 64])
    @pytest.mark.parametrize("N", [1, 16, 64])
    def test_equals_repeated_series_multiply(self, e, N):
        # multiplying by 1 is exact, so through f^2 both sides form the same
        # products bit for bit; past it squaring reorders them, and the two
        # agree to rounding
        g = np.random.default_rng(N + e)
        for f in (lft_power_series(*random_self_map(g).coefficients(), N),
                  lft_power_series(1, 0.95 * np.exp(0.4j), 0.95 * np.exp(-0.4j), 1, N),
                  lft_power_series(0.6 * np.exp(0.5j), 0, -0.3 + 0.2j, 1, N)):
            want = np.eye(N, 1, dtype=complex).ravel()
            for _ in range(e):
                want = series_multiply(want, f, N)
            got = series_power(f, e, N)
            assert got.shape == (N,)
            if e <= 2:
                assert np.array_equal(got, want)
            else:
                assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


def cauchy_columns(first, f, N):
    """Reference for power_matrix: column j is the lower-triangular Toeplitz
    matrix of f (built by index arithmetic) times column j - 1."""
    f = np.asarray(f, dtype=complex)[:N]
    i, j = np.indices((N, N))
    L = np.where(i >= j, f[np.clip(i - j, 0, N - 1)], 0)
    out = np.zeros((N, N), dtype=complex)
    out[:, 0] = first
    for k in range(1, N):
        out[:, k] = L @ out[:, k - 1]
    return out


def series_multiply_chain(first, f, N, cols):
    """Reference for power_matrix: every one of the cols columns computed by
    series_multiply of the previous one, in a row-major array."""
    out = np.zeros((N, cols), dtype=complex)
    out[:, 0] = first
    for j in range(1, cols):
        out[:, j] = series_multiply(out[:, j - 1], f, N)
    return out


AFFINE = LinearFractionalMap(0.5, 0.3, 0, 1)   # phi = 0.5 z + 0.3: c = 0, b != 0


def chain_inputs(g, N):
    """(first, f) pairs with f(0) != 0 and with f(0) = 0 (maps fixing 0)."""
    e0 = np.eye(N, 1).ravel()
    rand = g.standard_normal((3, N)) + 1j * g.standard_normal((3, N))
    fixing_0 = LinearFractionalMap(0.6 * np.exp(0.5j), 0, -0.3 + 0.2j, 1)
    return [(e0, lft_power_series(*random_self_map(g).coefficients(), N)),
            (rand[0], rand[1]),
            (e0, lft_power_series(*fixing_0.coefficients(), N)),
            (rand[2], lft_power_series(0.8j, 0, 0, 1, N))]


class TestPowerMatrix:
    @pytest.mark.parametrize("N", [16, 48])
    def test_equals_the_series_multiply_chain(self, N):
        g = np.random.default_rng(N + 2)
        inputs = chain_inputs(g, N)
        assert [f[0] == 0 for _, f in inputs] == [False, False, True, True]
        for first, f in inputs:
            for cols in (1, N // 3, N - 1, N, N + 1, 2 * N + 3):
                assert np.array_equal(power_matrix(first, f, N, cols=cols),
                                      series_multiply_chain(first, f, N, cols))

    @pytest.mark.parametrize("N", [16, 48])
    def test_columns_past_n_are_zero_when_f_fixes_0(self, N):
        # column j = first f^j has order j: its leading entry first[0] f[1]^j
        # is the product of the chain, and columns j >= N vanish exactly
        g = np.random.default_rng(N + 3)
        for first, f in chain_inputs(g, N)[2:]:
            M = power_matrix(first, f, N, cols=N + 7)
            lead = first[0] * f[1] ** np.arange(N)
            assert np.allclose(np.diagonal(M), lead, rtol=1e-12, atol=0)
            assert np.all(np.diagonal(M) != 0)
            assert not M[:, N:].any()
            assert not np.triu(M[:, :N], 1).any()

    @pytest.mark.parametrize("N", [32, 64, 128, 256])
    def test_matches_cauchy_reference(self, N):
        # entries are coefficients of functions of H^2 norm <= 1, so rounding
        # of the N-term sums bounds the difference
        g = np.random.default_rng(N)
        tol = 8 * N * np.finfo(float).eps
        for _ in range(3):
            m = random_self_map(g)
            first, f = np.eye(N, 1).ravel(), lft_power_series(*m.coefficients(), N)
            assert np.abs(power_matrix(first, f, N) - cauchy_columns(first, f, N)).max() <= tol
            C = JWp(g.uniform(0.1, 0.9) * np.exp(2j * np.pi * g.uniform()))
            first, f = jw_xi_series(C, N), lft_power_series(*jw_tau(C).coefficients(), N)
            assert np.abs(power_matrix(first, f, N) - cauchy_columns(first, f, N)).max() <= tol
        first, f = np.eye(N, 1).ravel(), lft_power_series(*AFFINE.coefficients(), N)
        assert np.abs(power_matrix(first, f, N) - cauchy_columns(first, f, N)).max() <= tol

    @pytest.mark.parametrize("N", [16, 48])
    def test_each_step_convolves_the_nonzero_prefix_of_f(self, N, monkeypatch):
        # an affine phi (c = 0) has two nonzero coefficients; a dense f has N
        lengths, convolve = [], np.convolve

        def recording_convolve(a, v):
            lengths.append((len(a), len(v)))
            return convolve(a, v)

        g = np.random.default_rng(N + 4)
        monkeypatch.setattr(np, "convolve", recording_convolve)
        power_matrix(np.eye(N, 1).ravel(), lft_power_series(*AFFINE.coefficients(), N), N)
        assert lengths == [(N, 2)] * (N - 1)
        lengths.clear()
        power_matrix(np.eye(N, 1).ravel(), lft_power_series(*random_self_map(g).coefficients(), N), N)
        assert lengths == [(N, N)] * (N - 1)

    @pytest.mark.parametrize("N", [32, 128])
    def test_leading_blocks_are_bit_exact(self, N):
        # verify builds only the first columns, or only the first rows from
        # the leading entries of first and f, and slices them for smaller N
        g = np.random.default_rng(N + 1)
        C = JWp(0.7 * np.exp(0.4j))
        inputs = [(np.eye(N, 1).ravel(), lft_power_series(*random_self_map(g).coefficients(), N)),
                  (jw_xi_series(C, N), lft_power_series(*jw_tau(C).coefficients(), N)),
                  (g.standard_normal(N) + 1j * g.standard_normal(N),
                   g.standard_normal(N) + 1j * g.standard_normal(N)),
                  (g.standard_normal(N) + 1j * g.standard_normal(N),
                   lft_power_series(0.9 * np.exp(0.7j), 0, 0, 1, N)),
                  (np.eye(N, 1).ravel(), lft_power_series(*AFFINE.coefficients(), N))]
        for first, f in inputs:
            full = power_matrix(first, f, N)
            for r in (1, 5, N // 3, N // 2):
                assert np.array_equal(power_matrix(first, f, N, cols=r), full[:, :r])
                assert np.array_equal(power_matrix(first[:r], f[:r], r, cols=N), full[:r])
                assert np.array_equal(power_matrix(first[:r], f[:r], r), full[:r, :r])


class TestInnerProduct:
    def test_truncated_kernel_pairing(self):
        # <K_w^(N), K_v^(N)> = sum_{n<N} (conj(w) v)^n -> 1/(1 - conj(w) v)
        w, v, N = 0.6 + 0.2j, -0.4 + 0.7j, 96
        got = np.vdot(kernel_series(v, N), kernel_series(w, N))
        assert got == pytest.approx(1 / (1 - np.conj(w) * v), abs=1e-13)


@given(w=disk_points, v=disk_points, N=st.integers(8, 64))
@settings(max_examples=80, deadline=None)
def test_truncated_kernel_geometric_bound(w, v, N):
    x = np.conj(w) * v
    partial = np.vdot(kernel_series(v, N), kernel_series(w, N))
    bound = abs(x) ** N / (1.0 - abs(x)) + 1e-13
    assert abs(partial - 1.0 / (1.0 - x)) <= bound
