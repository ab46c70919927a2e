import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cnops.moebius import (
    SELF_MAP_TOL,
    LinearFractionalMap,
    adjoint_symbol,
    boundary_derivative_sup,
    image_disk,
    lft_is_self_map,
    parse_complex,
    parse_map,
)
from reference import (
    lft_compose,
    lft_eval,
    lft_fixed_points,
    proportional,
    rescaled,
    sigma_at_zero,
)

IDENTITY = LinearFractionalMap(1, 0, 0, 1)
HALF = LinearFractionalMap(1, 0, 0, 2)
GENERIC = LinearFractionalMap(0.5, 0.25, 0.25, 1)


complex_units = st.builds(
    lambda r, t: r * np.exp(1j * t),
    st.floats(0.1, 10.0), st.floats(0.0, 2 * np.pi),
)


class TestEval:
    def test_identity(self):
        assert lft_eval(IDENTITY, 0.5) == 0.5

    def test_half(self):
        assert lft_eval(HALF, 0.6) == pytest.approx(0.3)

    def test_generic_at_one(self):
        # (0.5 + 0.25) / (0.25 + 1)
        assert lft_eval(GENERIC, 1.0) == pytest.approx(0.6)

    def test_pole_raises(self):
        m = LinearFractionalMap(1, 0, 1, -0.5)
        with pytest.raises(ZeroDivisionError, match="pole"):
            lft_eval(m, 0.5)

    def test_vectorized(self):
        z = np.array([0.1, 0.2 + 0.3j])
        out = lft_eval(HALF, z)
        assert np.allclose(out, z / 2)


class TestConstruction:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="numerically zero"):
            LinearFractionalMap(1, 2, 2, 4)

    @pytest.mark.parametrize("t", [1.0, 1.4, 1.5, 0.7, 0.75, 4.0, 3e-160j, 1e-300, 1e300])
    def test_stored_divided_by_the_nearest_power_of_two(self, t):
        m = LinearFractionalMap(t, 0, 0, t / 2)
        ratio = m.a / t
        assert ratio.imag == 0 and math.frexp(ratio.real)[0] == 0.5
        assert 2 ** -0.5 <= m.scale < 2 ** 0.5 and m.d == m.a / 2

    @pytest.mark.parametrize("coeffs", [(0, 0, 0, 0), (float("inf"), 0, 0, 1)])
    def test_zero_or_infinite_scale_rejected(self, coeffs):
        with pytest.raises(ValueError, match="numerically zero"):
            LinearFractionalMap(*coeffs)


class TestSelfMap:
    @pytest.mark.parametrize("m,expected", [
        (HALF, True),
        (LinearFractionalMap(2, 0, 0, 1), False),
        (GENERIC, True),
        (LinearFractionalMap(1, 0, 0.5, 1), False),   # sup |phi| = 2 at z = -1
    ])
    def test_examples(self, m, expected):
        assert lft_is_self_map(m) is expected

    def test_pole_in_disk_rejected(self):
        # phi = 1/(2z + 0.5) has its pole at -0.25
        assert not lft_is_self_map(LinearFractionalMap(0, 1, 2, 0.5))
        assert image_disk(LinearFractionalMap(0, 1, 2, 0.5)) is None

    def test_image_disk_matches_boundary_image(self):
        centre, radius = image_disk(GENERIC)
        boundary = lft_eval(GENERIC, np.exp(2j * np.pi * np.arange(64) / 64))
        assert np.allclose(np.abs(boundary - centre), radius, rtol=0, atol=1e-14)


def boundary_sup_modulus(m, n=4096, rounds=3):
    """max |phi| on the unit circle from an n-point grid refined around its argmax.

    |phi| along the image circle has a single maximum, so it lies within one
    grid step of the grid argmax; each round zooms into those two steps.
    """
    theta = 2 * np.pi * np.arange(n) / n
    for _ in range(rounds):
        e = np.exp(1j * theta)
        vals = np.abs((m.a * e + m.b) / (m.c * e + m.d))
        k = int(np.argmax(vals))
        step = theta[1] - theta[0]
        theta = theta[k] + np.linspace(-step, step, n)
    return float(vals.max())


def reference_is_self_map(m) -> bool:
    """The boundary-grid test the closed form replaced, made dense."""
    if abs(m.d) <= abs(m.c):         # pole -d/c in the closed disk; no d/c, which overflows
        return False
    return boundary_sup_modulus(m) <= 1.0 + SELF_MAP_TOL


def disk_image_map(centre, radius, gamma, q, t):
    """t-rescaled quadruple of centre + radius * gamma (q - z)/(1 - conj(q) z),
    whose image of the disk is the disk of that centre and radius."""
    return rescaled(LinearFractionalMap(-centre * np.conj(q) - radius * gamma,
                                        centre + radius * gamma * q,
                                        -np.conj(q), 1.0), t)


coefficients = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@given(a=coefficients, b=coefficients, c=coefficients, d=coefficients)
@settings(max_examples=300, deadline=None)
def test_self_map_closed_form_matches_dense_boundary_random(a, b, c, d):
    try:
        m = LinearFractionalMap(a, b, c, d)
    except ValueError:
        assume(False)
    assume(abs(abs(m.d) - abs(m.c)) > 1e-6 * m.scale)   # keep the boundary values finite
    assert lft_is_self_map(m) is reference_is_self_map(m)


@given(offset=st.sampled_from([-1e-9, 1e-9]) | st.floats(-0.5, 0.5),
       centre_abs=st.floats(0.0, 0.9), centre_arg=st.floats(0.0, 2 * np.pi),
       gamma_arg=st.floats(0.0, 2 * np.pi), q=st.floats(0.0, 0.8), t=complex_units)
@settings(max_examples=300, deadline=None)
def test_self_map_closed_form_matches_dense_boundary_near_tangency(
        offset, centre_abs, centre_arg, gamma_arg, q, t):
    # sup |phi| = |centre| + radius = 1 + offset
    assume(abs(offset) >= 1e-9)
    radius = 1.0 + offset - centre_abs
    assume(radius > 0.05)
    m = disk_image_map(centre_abs * np.exp(1j * centre_arg), radius,
                       np.exp(1j * gamma_arg), q * np.exp(1j * gamma_arg / 3), t)
    assert lft_is_self_map(m) is (offset <= 0)
    assert reference_is_self_map(m) is (offset <= 0)


class TestFixedPoints:
    def test_dilation_fixes_origin(self):
        fp = lft_fixed_points(HALF)
        assert fp.points == (0,)
        assert fp.kinds == ("interior",)

    def test_identity_flag(self):
        fp = lft_fixed_points(IDENTITY)
        assert fp.is_identity and fp.points == ()

    def test_affine_no_fixed_point(self):
        fp = lft_fixed_points(LinearFractionalMap(1, 0.3, 0, 1))
        assert fp.points == () and not fp.is_identity

    def test_hermitian_pair(self):
        m = LinearFractionalMap(0.11, 0.3, -0.3, 1)
        fp = lft_fixed_points(m)
        assert sorted(fp.kinds) == ["exterior", "interior"]
        for z in fp.points:
            assert abs(lft_eval(m, z) - z) <= 1e-10
        # reciprocal pair: product of roots is -b/c = 1
        assert np.prod(fp.points) == pytest.approx(1.0)

    def test_boundary_classification(self):
        # (a z + b)/(b z + a) fixes 1 and -1 on the circle
        fp = lft_fixed_points(LinearFractionalMap(1, 0.4, 0.4, 1))
        assert set(fp.kinds) == {"boundary"}

    @pytest.mark.parametrize("seed", range(8))
    def test_residual_random(self, seed):
        g = np.random.default_rng(seed)
        m = LinearFractionalMap(*(g.standard_normal(4) + 1j * g.standard_normal(4)))
        for z in lft_fixed_points(m).points:
            assert abs(lft_eval(m, z) - z) <= 1e-10 * max(1.0, abs(z)) * m.scale


class TestCompose:
    def test_identity_neutral(self):
        assert proportional(lft_compose(IDENTITY, GENERIC), GENERIC)

    def test_dilations_multiply(self):
        m = lft_compose(LinearFractionalMap(0.3j, 0, 0, 1),
                        LinearFractionalMap(0.5, 0, 0, 1))
        assert proportional(m, LinearFractionalMap(0.15j, 0, 0, 1))

    def test_tau_p_is_involution(self):
        p = 0.4
        lam = np.conj(p) / p
        tau = LinearFractionalMap(-lam, lam * p, -np.conj(p), 1.0)
        assert proportional(lft_compose(tau, tau), IDENTITY)

    @pytest.mark.parametrize("seed", range(6))
    def test_consistency_with_eval(self, seed):
        g = np.random.default_rng(seed)
        m1 = LinearFractionalMap(*(g.standard_normal(4) + 1j * g.standard_normal(4)))
        m2 = LinearFractionalMap(*(g.standard_normal(4) + 1j * g.standard_normal(4)))
        z = 0.3 * np.exp(2j * np.pi * g.uniform())
        lhs = lft_eval(lft_compose(m1, m2), z)
        rhs = lft_eval(m1, lft_eval(m2, z))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestAdjointSymbol:
    def test_dilation(self):
        assert proportional(adjoint_symbol(HALF), HALF)

    def test_generic_coefficients(self):
        assert adjoint_symbol(GENERIC).coefficients() == (0.5, -0.25, -0.25, 1.0)

    def test_unitary_family_sigma_zero(self):
        q = 0.5
        m = LinearFractionalMap(-1.0, q, -np.conj(q), 1.0)
        assert sigma_at_zero(m) == pytest.approx(q)

    @pytest.mark.parametrize("seed", range(6))
    def test_sigma_involution(self, seed):
        g = np.random.default_rng(seed)
        m = LinearFractionalMap(*(g.standard_normal(4) + 1j * g.standard_normal(4)))
        again = adjoint_symbol(adjoint_symbol(m))
        assert again.coefficients() == m.coefficients()


@given(t=complex_units, theta=st.floats(0.0, 2 * np.pi), r=st.floats(0.0, 0.95))
@settings(max_examples=100, deadline=None)
def test_eval_scale_invariance(t, theta, r):
    z = r * np.exp(1j * theta)
    assert abs(lft_eval(rescaled(GENERIC, t), z) - lft_eval(GENERIC, z)) <= 1e-12


def test_boundary_derivative_sup_dilation():
    # phi = alpha z has |phi'| = |alpha| everywhere
    assert boundary_derivative_sup(LinearFractionalMap(0.7, 0, 0, 1)) == pytest.approx(0.7)


def test_boundary_derivative_sup_between_grid_points():
    # min |c z + d| = |d| - |c| = 0.1 is attained at z = -exp(i pi/512), halfway
    # between two points of a 512-point grid, so such a grid misses the sup
    # |ad - bc| / 0.1^2 = 0.05 / 0.01 = 5
    m = LinearFractionalMap(0.05, 0, 0.9, np.exp(1j * np.pi / 512))
    assert lft_is_self_map(m)
    assert boundary_derivative_sup(m) == pytest.approx(5.0, rel=1e-12)
    theta = np.exp(2j * np.pi * np.arange(512) / 512)
    assert np.abs(m.det / (m.c * theta + m.d) ** 2).max() < (1 - 1e-3) * 5.0


class TestParsing:
    @pytest.mark.parametrize("text,value", [
        ("0.5", 0.5), ("-1", -1.0), ("0.25+0i", 0.25), ("0.5-0.3i", 0.5 - 0.3j),
        ("1i", 1j), ("-2.5i", -2.5j), ("1e-3", 1e-3), ("2+1e-2i", 2 + 0.01j),
    ])
    def test_complex_literals(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize("text", ["", "abc", "1+2", "1,2", "i+1"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_complex(text)

    def test_map_string(self):
        m = parse_map("0.5,0.25+0i,0.25,1")
        assert m.coefficients() == (0.5, 0.25, 0.25, 1.0)

    def test_map_string_wrong_arity(self):
        with pytest.raises(ValueError):
            parse_map("1,2,3")
