"""Reference implementations that the tests hold cnops to.

cnops decides every case from cnormal.predicate_margin.  This module keeps the
paper's own statements, which nothing in cnops runs, so that tests can compare
the two:

  * the quadruple form of the weighted kernel identity: each side of
    C W W* K_w(z) = W* W C K_w(z) is a numerator over (A w + B) z + C w + D,
    so the sides agree identically iff the two quadruples coincide; their
    differences are the defects of the weighted predicates, and for JW_p the
    paper's two equalities e1 and e2, of which predicate_margin reads e2;
  * the paper-form predicates: the Hermitian family, normal maps with a
    boundary fixed point (with the fixed points of a linear fractional map
    they need) and unitary weighted composition operators;
  * the truncated references: the kernel series K_w, Cowen's adjoint formula
    as a matrix, JW_p's matrix from xi_p and tau_p, the kept-block residual
    of two blocks, and the coefficient action of a conjugation with its
    axiom residuals;
  * the map operations that cnops never needs: evaluation, inverse,
    rescaling and composition of a linear fractional map, sigma(0), and the
    Hermitian family with its real JW_p root;
  * the kernel residual with its denominators cleared
    (cleared_kernel_residual), which scales like the predicate's margin;
  * the reduction of weighted_jw to weighted_jmu by the change of variables
    that turns JW_p's reflection into J_mu's (reflect_to_jmu);
  * the kept block of C T*T C - T T* as a difference of two Gram matrices,
    by quadrature on the circle with no truncation (quadrature_grams), the
    matrix oracle that needs no N.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from cnops.cnormal import (
    EXACT_TOL,
    GRID_N,
    WEIGHTED_TOL,
    CaseId,
    _kernel_denominator,
    _sides,
    case_predicate,
    ring_grid,
)
from cnops.conjugations import Conjugation, JMu, JWp, conj_apply_kernel
from cnops.hardy import lft_power_series, power_matrix
from cnops.moebius import LinearFractionalMap, adjoint_symbol, lft_is_self_map
from cnops.operators import conjugation_operator

BOUNDARY_FP_TOL = 1e-10   # ||z| - 1| below this classifies a fixed point as boundary


@dataclass(frozen=True)
class QuadrupleSet:
    """Denominator coefficients of both sides in a weighted case: side i is a
    numerator over (Ai w + Bi) z + Ci w + Di, so the sides agree identically
    iff the quadruples coincide."""

    A1: complex
    B1: complex
    C1: complex
    D1: complex
    A2: complex
    B2: complex
    C2: complex
    D2: complex

    def differences(self):
        return (self.A1 - self.A2, self.B1 - self.B2,
                self.C1 - self.C2, self.D1 - self.D2)

    def max_difference(self) -> float:
        return max(abs(x) for x in self.differences())

    def denominators(self, w, z):
        """The two side denominators at (w, z), elementwise."""
        return ((self.A1 * w + self.B1) * z + self.C1 * w + self.D1,
                (self.A2 * w + self.B2) * z + self.C2 * w + self.D2)


def weighted_jmu_quadruples(m, mu: complex) -> QuadrupleSet:
    """The eight denominator coefficients against J_mu.

    Side 1 is J_mu W W* K_w, side 2 is W* W J_mu K_w; both equal
    |beta|^2 |d|^2 / ((A w + B) z + C w + D).  The differences are
    ((|c|^2-|b|^2) mubar, L, conj(L) mubar, |c|^2-|b|^2) with L the linear
    defect that predicate_margin reads for weighted_jmu.
    """
    a, b, c, d = m.coefficients()
    mb = np.conj(complex(mu))
    return QuadrupleSet(
        A1=(abs(c) ** 2 - abs(a) ** 2) * mb,
        B1=(np.conj(c) * d - np.conj(a) * b) * mb,
        C1=c * np.conj(d) - a * np.conj(b),
        D1=abs(d) ** 2 - abs(b) ** 2,
        A2=-(abs(a) ** 2 - abs(b) ** 2) * mb,
        B2=np.conj(a) * c - np.conj(b) * d,
        C2=(a * np.conj(c) - b * np.conj(d)) * mb,
        D2=abs(d) ** 2 - abs(c) ** 2,
    )


def weighted_jw_quadruples(m, p: complex) -> QuadrupleSet:
    """The eight denominator coefficients against JW_p, with lam = conj(p)/p.

    Side 1 is J W W* k_w, side 2 is W* W (JW) k_w; both equal
    |beta|^2 |d|^2 sqrt(1-|p|^2) / ((A w + B) z + C w + D).
    """
    a, b, c, d = m.coefficients()
    p = complex(p)
    lb = p / np.conj(p)   # conj(lam) for lam = conj(p)/p
    return QuadrupleSet(
        A1=(a * np.conj(b) - c * np.conj(d)) * p + (abs(a) ** 2 - abs(c) ** 2) * lb,
        B1=(abs(b) ** 2 - abs(d) ** 2) * p + (np.conj(a) * b - d * np.conj(c)) * lb,
        C1=c * np.conj(d) - a * np.conj(b) + (abs(c) ** 2 - abs(a) ** 2) * p,
        D1=abs(d) ** 2 - abs(b) ** 2 + (d * np.conj(c) - np.conj(a) * b) * p,
        A2=(-np.conj(a) * c + np.conj(b) * d) * p + (abs(a) ** 2 - abs(b) ** 2) * lb,
        B2=np.conj(a) * c - np.conj(b) * d - p * (abs(a) ** 2 - abs(b) ** 2),
        C2=-(abs(d) ** 2 - abs(c) ** 2) * p + (b * np.conj(d) - a * np.conj(c)) * lb,
        D2=abs(d) ** 2 - abs(c) ** 2 - p * (b * np.conj(d) - a * np.conj(c)),
    )


def weighted_jw_terms(m):
    """(A, Delta, X, Y, K) of the paper's JW_p equalities: A = |a|^2 - |d|^2,
    Delta = |b|^2 - |c|^2, X = conj(a) c - conj(b) d, Y = conj(a) b - conj(c) d
    and K = -X - conj(Y)."""
    a, b, c, d = m.coefficients()
    X = np.conj(a) * c - np.conj(b) * d
    Y = np.conj(a) * b - np.conj(c) * d
    return abs(a) ** 2 - abs(d) ** 2, abs(b) ** 2 - abs(c) ** 2, X, Y, -X - np.conj(Y)


def weighted_jw_equations(m, p: complex):
    """The paper's two JW_p equalities as values (e1, e2), e1 = Delta p - K |p|^2
    and e2 = A |p|^2 - X conj(p) + Y p (weighted_jw_terms).  predicate_margin
    reads e2 alone, which forces e1 = 0 on a self-map."""
    A, Delta, X, Y, K = weighted_jw_terms(m)
    return Delta * p - K * abs(p) ** 2, A * abs(p) ** 2 - X * np.conj(p) + Y * p


def quadruple_sides(m, beta: complex, C, w, z):
    """Both weighted sides as num / D from the quadruples."""
    num = abs(beta) ** 2 * abs(m.d) ** 2
    if isinstance(C, JMu):
        D1, D2 = weighted_jmu_quadruples(m, C.mu).denominators(w, z)
    else:
        num *= np.sqrt(1.0 - abs(C.p) ** 2)
        D1, D2 = weighted_jw_quadruples(m, C.p).denominators(w, z)
    return num / D1, num / D2


def cleared_kernel_residual(case: CaseId, m: LinearFractionalMap, conj: Conjugation,
                            beta: complex = 1.0, grid_n: int = GRID_N) -> float:
    """cnormal.kernel_residual with the kernel denominators cleared: the max
    over the grid pairs of |lhs - rhs| times _kernel_denominator(phi, eta_z, w)
    and _kernel_denominator(sigma, eta_w, z), the two that _sides divides by,
    over s^4 (s = m.scale), so that it is homogeneous of degree 0 in
    (a, b, c, d).  Near an automorphism those denominators are small and
    amplify a coefficient defect pair by pair, where the predicate's margin
    is not amplified."""
    pts = ring_grid(grid_n)
    w, z = pts[:, None], pts[None, :]
    lhs, rhs = _sides(m, conj, w, z, beta if case.weighted else None)
    eta_z = conj_apply_kernel(conj, z)[1]
    eta_w = conj_apply_kernel(conj, w)[1]
    cleared = ((lhs - rhs) * _kernel_denominator(m, eta_z, w)
               * _kernel_denominator(adjoint_symbol(m), eta_w, z))
    return float(np.abs(cleared).max()) / m.scale ** 4


# --------------------------------------------------------------------------
# evaluation, inverse, rescaling and composition of a linear fractional map
# --------------------------------------------------------------------------

def lft_eval(m: LinearFractionalMap, z):
    """Evaluate phi(z); raises ZeroDivisionError when c z + d vanishes numerically.

    Accepts scalars or numpy arrays of points.
    """
    z = np.asarray(z, dtype=complex)
    den = m.c * z + m.d
    if np.any(np.abs(den) <= 1e-14 * m.scale * np.maximum(1.0, np.abs(z))):
        raise ZeroDivisionError(f"evaluation at a pole of {m}")
    out = (m.a * z + m.b) / den
    return out if out.ndim else complex(out)


def lft_inverse(m: LinearFractionalMap) -> LinearFractionalMap:
    return LinearFractionalMap(m.d, -m.b, -m.c, m.a)


def rescaled(m: LinearFractionalMap, t: complex) -> LinearFractionalMap:
    """The map of coefficients t (a, b, c, d): the same map, which the
    constructor stores divided by a power of two."""
    t = complex(t)
    return LinearFractionalMap(t * m.a, t * m.b, t * m.c, t * m.d)


def lft_compose(m1: LinearFractionalMap, m2: LinearFractionalMap) -> LinearFractionalMap:
    """Coefficient-matrix product: (m1 o m2)(z) = m1(m2(z))."""
    a = m1.a * m2.a + m1.b * m2.c
    b = m1.a * m2.b + m1.b * m2.d
    c = m1.c * m2.a + m1.d * m2.c
    d = m1.c * m2.b + m1.d * m2.d
    return LinearFractionalMap(a, b, c, d)   # constructor rejects degenerate products


def sigma_at_zero(m: LinearFractionalMap) -> complex:
    """sigma(0) = -conj(c)/conj(d), the kernel point of the canonical weight."""
    return -np.conj(m.c) / np.conj(m.d)


# --------------------------------------------------------------------------
# the Hermitian family
# --------------------------------------------------------------------------

def _hermitian_params(a0: complex, a1: float):
    """(a0, a1) as (complex, float); ValueError unless a0 lies in the open
    disk and a1 is real."""
    a0 = complex(a0)
    if abs(a0) >= 1.0:
        raise ValueError("a0 must lie in the open disk")
    if abs(complex(a1).imag) > 0.0:
        raise ValueError(f"a1 must be real, got {a1}")
    return a0, float(np.real(a1))


def hermitian_family(a0: complex, a1: float) -> LinearFractionalMap:
    """Map phi(z) = a0 + a1 z/(1 - conj(a0) z) of the Hermitian family.

    Normalized coefficients: (a, b, c, d) = (a1 - |a0|^2, a0, -conj(a0), 1).
    a1 must be real; a0 must lie in the open disk.
    """
    a0, a1 = _hermitian_params(a0, a1)
    return LinearFractionalMap(a1 - abs(a0) ** 2, a0, -np.conj(a0), 1.0)


def hermitian_jw_solved_p(a0: float, a1: float) -> float:
    """The positive real p solving the Hermitian JW condition, when one exists.

    For real a0 the condition reads (a^2 - 1) p^2 = -(a + 1) 2 a0 p with
    a = a1 - a0^2, giving p = 2 a0 / (1 - a).
    """
    a0, a1 = float(a0), float(a1)
    a = a1 - a0 ** 2
    if abs(1.0 - a) < 1e-14:
        raise ValueError("condition degenerates at a = 1")
    p = 2.0 * a0 / (1.0 - a)
    if not 0.0 < p < 1.0:
        raise ValueError(f"solved p = {p} is not in (0, 1)")
    return p


# --------------------------------------------------------------------------
# JW_p as J_mu after a change of variables
# --------------------------------------------------------------------------

def reflect_to_jmu(m: LinearFractionalMap, p: complex):
    """(phi', mu) with weighted_jw(phi, p) iff weighted_jmu(phi', mu).

    JW_p's point map eta is the reflection in the hyperbolic geodesic that
    bisects 0 and conj(p); its point nearest 0 is
    x = conj(p) (1 - sqrt(1 - |p|^2)) / |p|^2 = conj(p) / (1 + sqrt(1 - |p|^2)).
    With alpha(z) = (z + x)/(1 + conj(x) z), alpha^-1 o eta o alpha is
    z -> mu conj(z), mu = -lam = -conj(p)/p, so phi' = alpha^-1 o phi o alpha.
    """
    p = complex(p)
    x = np.conj(p) / (1.0 + np.sqrt(1.0 - abs(p) ** 2))
    alpha = LinearFractionalMap(1.0, x, np.conj(x), 1.0)
    alpha_inverse = LinearFractionalMap(1.0, -x, -np.conj(x), 1.0)
    return lft_compose(alpha_inverse, lft_compose(m, alpha)), -JWp(p).lam


# --------------------------------------------------------------------------
# fixed points of a linear fractional map
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointResult:
    points: tuple
    kinds: tuple          # "interior" | "boundary" | "exterior", aligned with points
    is_identity: bool = False


def _classify(z: complex) -> str:
    r = abs(z)
    if abs(r - 1.0) <= BOUNDARY_FP_TOL:
        return "boundary"
    return "interior" if r < 1.0 else "exterior"


def lft_fixed_points(m: LinearFractionalMap) -> FixedPointResult:
    """Roots of c z^2 + (d - a) z - b = 0, classified by modulus.

    The identity map fixes everything and is reported through the
    ``is_identity`` flag with an empty root list; c = 0, a = d, b != 0 has no
    fixed point in the plane.
    """
    a, b, c, d = m.coefficients()
    s = m.scale
    tol = 1e-14 * s
    if abs(b) <= tol and abs(c) <= tol and abs(d - a) <= tol:
        return FixedPointResult((), (), is_identity=True)
    if abs(c) <= tol:
        if abs(d - a) <= tol:
            return FixedPointResult((), ())
        z0 = b / (d - a)
        return FixedPointResult((z0,), (_classify(z0),))
    beta = d - a
    disc_sq = beta * beta + 4.0 * c * b
    if abs(disc_sq) <= 1e-13 * s * s:
        # numerically double root; the formula root -beta/(2c) is exact while
        # the split pair would be sqrt(eps) off
        roots = [-beta / (2.0 * c)]
    else:
        # stable quadratic: take the root avoiding cancellation, recover the
        # other from the product -b/c (or the sum when b = 0)
        disc = np.sqrt(complex(disc_sq))
        if abs(-beta + disc) >= abs(-beta - disc):
            r1 = (-beta + disc) / (2.0 * c)
        else:
            r1 = (-beta - disc) / (2.0 * c)
        if abs(b) > tol and abs(r1) > 0:
            roots = [r1, (-b / c) / r1]
        else:
            roots = [r1, (a - d) / c - r1]
    pts = tuple(complex(r) for r in roots)
    return FixedPointResult(pts, tuple(_classify(r) for r in pts))


def has_boundary_fixed_point(m: LinearFractionalMap) -> bool:
    fp = lft_fixed_points(m)
    return fp.is_identity or any(k == "boundary" for k in fp.kinds)


def proportional(m1: LinearFractionalMap, m2: LinearFractionalMap) -> bool:
    """Projective equality of coefficient quadruples, to a relative 1e-12."""
    v1 = np.array(m1.coefficients())
    v2 = np.array(m2.coefficients())
    k = int(np.argmax(np.abs(v2)))
    t = v1[k] / v2[k]
    return bool(np.abs(v1 - t * v2).max() <= 1e-12 * max(np.abs(v1).max(), abs(t) * np.abs(v2).max()))


# --------------------------------------------------------------------------
# paper-form predicates
# --------------------------------------------------------------------------

class HypothesisViolationError(ValueError):
    """Input violates a structural hypothesis (boundary fixed point, |b|=|c|, ...)."""


def is_disk_automorphism(m: LinearFractionalMap) -> bool:
    """True iff sigma o phi is proportional to the identity (within
    WEIGHTED_TOL) and both phi and its inverse pass the self-map test."""
    comp = lft_compose(adjoint_symbol(m), m)
    s2 = m.scale ** 2
    off = max(abs(comp.b), abs(comp.c), abs(comp.a - comp.d))
    if off > WEIGHTED_TOL * s2:
        return False
    return lft_is_self_map(m) and lft_is_self_map(lft_inverse(m))


def predicate_unitary_wco(m: LinearFractionalMap, gamma: complex, q: complex) -> bool:
    """W with weight gamma K_q / ||K_q|| is unitary iff phi is an automorphism,
    |gamma| = 1 and phi(q) = 0."""
    gamma, q = complex(gamma), complex(q)
    if abs(q) >= 1.0:
        raise ValueError("q must lie in the open disk")
    if abs(abs(gamma) - 1.0) > EXACT_TOL:
        return False
    if not is_disk_automorphism(m):
        return False
    return abs(lft_eval(m, q)) <= WEIGHTED_TOL


def predicate_hermitian_jmu(a0: complex, a1: float, mu: complex) -> bool:
    """(a0 - conj(a0) mu)(1 + a1 - |a0|^2) = 0 within 1e-12.

    Equivalent to the weighted_jmu case on the family map for every valid
    (a0, a1, mu); the second factor is 1 + a, a = a1 - |a0|^2.
    """
    a0, a1 = _hermitian_params(a0, a1)
    mu = complex(mu)
    return abs((a0 - np.conj(a0) * mu) * (1.0 + a1 - abs(a0) ** 2)) <= EXACT_TOL


def predicate_hermitian_jw(a0: complex, a1: float, p: complex) -> bool:
    """[(a1-|a0|^2)^2 - 1]|p|^2 = -(a1 - |a0|^2 + 1) 2 Re(a0 p) within 1e-10."""
    a0, a1 = _hermitian_params(a0, a1)
    p = complex(p)
    a = a1 - abs(a0) ** 2
    lhs = (a * a - 1.0) * abs(p) ** 2
    rhs = -(a + 1.0) * 2.0 * np.real(a0 * p)
    return abs(lhs - rhs) <= WEIGHTED_TOL


def predicate_normal_bdyfix(m: LinearFractionalMap, param: complex, which: str) -> bool:
    """Conjugation-normality predicates under the normal-family hypotheses.

    Requires a boundary fixed point and |b| = |c| (else
    HypothesisViolationError).  which = "jmu": the single condition
    (cbar d - abar b) conj(mu) = abar c - bbar d.  which = "jw": the pair
    a bbar - c dbar = bbar d - abar c and
    (|a|^2 - |d|^2)|p|^2 = 2 Re((a cbar - b dbar) p); the cross-term is
    b dbar (a |d|^2 variant in circulation is not equivalent, see
    predicate_normal_bdyfix_jw_dsq_variant).
    """
    if abs(abs(m.b) - abs(m.c)) / m.scale > WEIGHTED_TOL:
        raise HypothesisViolationError("|b| = |c| hypothesis fails")
    if not has_boundary_fixed_point(m):
        raise HypothesisViolationError("no boundary fixed point")
    if which == "jmu":
        return case_predicate(CaseId.WEIGHTED_JMU, m, JMu(param))   # |b| = |c| already holds
    if which != "jw":
        raise ValueError("which must be 'jmu' or 'jw'")
    return _bdyfix_jw_margin(m, param, m.b * np.conj(m.d)) <= WEIGHTED_TOL


def _bdyfix_jw_margin(m: LinearFractionalMap, p: complex, cross: complex) -> float:
    """Relative defect of the normal-family JW pair with cross-term `cross`:
    a bbar - c dbar = bbar d - abar c and
    (|a|^2 - |d|^2)|p|^2 = 2 Re((a cbar - cross) p)."""
    a, b, c, d = m.coefficients()
    p = complex(p)
    first = a * np.conj(b) - c * np.conj(d) - (np.conj(b) * d - np.conj(a) * c)
    second = ((abs(a) ** 2 - abs(d) ** 2) * abs(p) ** 2
              - 2.0 * np.real((a * np.conj(c) - cross) * p))
    return max(abs(first), abs(second)) / m.scale ** 2


def predicate_normal_bdyfix_jw_dsq_variant(m: LinearFractionalMap, p: complex) -> bool:
    """Misprinted variant with |d|^2 in place of the b dbar cross-term.

    Not equivalent to the derived condition; kept so the discrepancy stays
    documented by a failing-equivalence regression test.
    """
    return _bdyfix_jw_margin(m, p, m.d * np.conj(m.d)) <= WEIGHTED_TOL


# --------------------------------------------------------------------------
# truncated references
# --------------------------------------------------------------------------

def kernel_series(w: complex, N: int) -> np.ndarray:
    """First N Taylor coefficients of K_w: (conj(w)^n)_{n<N}."""
    return np.conj(complex(w)) ** np.arange(N)


def adjoint_via_cowen(m: LinearFractionalMap, N: int) -> np.ndarray:
    """C_phi* = T_g C_sigma T_h*: column n is g (conj(d) sigma^n + conj(c) sigma^(n-1)).

    g = 1/(conj(d) - conj(b) z) = K_{b/d}/conj(d), and one power_matrix of
    (g, sigma) holds every g sigma^n, so the result is the exact truncation
    of C_phi*.  Raises when sigma has its pole in the closed disk; warns when
    sigma fails the self-map test (its powers may then grow under truncation).
    """
    if not lft_is_self_map(m):
        raise ValueError(f"{m} is not a validated self-map")
    sigma = adjoint_symbol(m)
    if not lft_is_self_map(sigma):
        warnings.warn(f"adjoint symbol {sigma} is not a self-map; "
                      "truncation may diverge", RuntimeWarning, stacklevel=2)
    _, b, c, d = m.coefficients()
    g = kernel_series(b / d, N) / np.conj(d)
    P = power_matrix(g, lft_power_series(*sigma.coefficients(), N), N)
    A = np.conj(d) * P
    A[:, 1:] += np.conj(c) * P[:, :-1]
    return A


def jw_tau(C: JWp) -> LinearFractionalMap:
    """tau_p(z) = lam (p - z)/(1 - conj(p) z), a disk automorphism."""
    lam = C.lam
    return LinearFractionalMap(-lam, lam * C.p, -np.conj(C.p), 1.0)


def jw_xi_series(C: JWp, N: int) -> np.ndarray:
    """Coefficients of xi_p = sqrt(1-|p|^2) K_p (unit-norm kernel at p)."""
    return np.sqrt(1.0 - abs(C.p) ** 2) * kernel_series(C.p, N)


def jw_xi_tau_matrix(C: JWp, N: int) -> np.ndarray:
    """Truncated matrix of W_{xi_p, tau_p} from xi_p and tau_p: column j holds
    the coefficients of xi_p tau_p^j (cnops builds it from C's basis images)."""
    return power_matrix(jw_xi_series(C, N), lft_power_series(*jw_tau(C).coefficients(), N), N)


def kept_block_residual(X: np.ndarray, R: np.ndarray) -> float:
    """Frobenius norm of X^T conj(X) - R R*: the kept block of C T*T C - T T*
    for X = T M[:, :keep] and R = T[:keep] (operators.cnormal_residual_matrix)."""
    return float(np.linalg.norm(X.T @ np.conj(X) - R @ R.conj().T))


def conj_apply_series(C: Conjugation, f: np.ndarray, N: int) -> np.ndarray:
    """Coefficients of C f from the leading N coefficients of f (zero-padded):
    conjugation_operator(C, N) @ conj(f).

    JMu is exact.  For JWp, entries near the tail carry truncation error
    (geometrically small on the leading block for inputs with decaying
    coefficients).
    """
    f = np.asarray(f, dtype=complex)[:N]
    return conjugation_operator(C, N) @ np.conj(np.pad(f, (0, N - len(f))))


def conj_axiom_residuals(C: Conjugation, N: int, sample_count: int,
                         rng: np.random.Generator | None = None) -> tuple[float, float]:
    """Involution and antiunitarity defects of the truncated action.

    Test vectors are random complex gaussians damped by 0.35^n, so the
    measured defect reflects truncation of the action rather than the tail
    mass of the inputs; the involution defect is taken on the leading N/2
    coefficients, the antiunitary defect |<Cx, Cy> - <y, x>| on full length-N
    vectors.
    """
    if N < 32:
        raise ValueError("N must be at least 32")
    rng = rng or np.random.default_rng(0)
    damp = 0.35 ** np.arange(N)
    xs = [(rng.standard_normal(N) + 1j * rng.standard_normal(N)) * damp
          for _ in range(sample_count)]
    involution = 0.0
    for x in xs:
        ccx = conj_apply_series(C, conj_apply_series(C, x, N), N)
        involution = max(involution, float(np.abs((ccx - x)[: N // 2]).max()))
    antiunitary = 0.0
    for x, y in zip(xs, xs[1:] + xs[:1]):
        cx = conj_apply_series(C, x, N)
        cy = conj_apply_series(C, y, N)
        antiunitary = max(antiunitary, abs(np.vdot(cy, cx) - np.vdot(x, y)))
    return involution, antiunitary


# --------------------------------------------------------------------------
# the kept block by quadrature on the circle
# --------------------------------------------------------------------------

def quadrature_grams(m: LinearFractionalMap, C: Conjugation, k: int, M: int,
                     beta: complex | None = None) -> tuple:
    """The two Gram matrices whose difference is the leading k x k block of
    C T*T C - T T*, for T = C_phi or, with beta, W = T_psi C_phi with
    psi = beta K_{sigma(0)}, as means over the M-th roots of unity.

    Entry (i, j) of the block is <u_i, u_j> - <v_j, v_i>, u_i = T C e_i and
    v_i = T* e_i; the first matrix holds <u_i, u_j>, the second <v_j, v_i>.
    u_i = g (C e_i) o phi with g = 1 or psi, and C e_i = conj(mu)^i z^i (J_mu)
    or w h^i (JW_p, conjugations.basis_images).  Cowen's formula gives
    v_i = G (conj(d) sigma^i + conj(c) sigma^(i-1)) with
    G = 1/(conj(d) - conj(b) z) for C_phi, and W* = T_g C_sigma with
    g = conj(beta) K_{b/d} gives v_i = g sigma^i for W.  Every u_i and v_i is
    rational with its poles off the closed disk, so the mean of f conj(g)
    over the roots is <f, g> up to aliasing that falls geometrically in M.
    """
    a, b, c, d = m.coefficients()
    z = np.exp(2j * np.pi * np.arange(M) / M)
    powers = np.arange(k)
    phi = (a * z + b) / (c * z + d)
    g = np.ones(M) if beta is None else beta * d / (c * z + d)
    if isinstance(C, JMu):
        U = g[:, None] * (np.conj(C.mu) * phi)[:, None] ** powers
    else:
        p = C.p
        w = np.sqrt(1.0 - abs(p) ** 2) / (1.0 - p * phi)
        h = np.conj(C.lam) * (np.conj(p) - phi) / (1.0 - p * phi)
        U = (g * w)[:, None] * h[:, None] ** powers
    sa, sb, sc, sd = adjoint_symbol(m).coefficients()
    S = ((sa * z + sb) / (sc * z + sd))[:, None] ** powers
    if beta is None:
        V = np.conj(d) * S
        V[:, 1:] += np.conj(c) * S[:, :-1]
        V /= (np.conj(d) - np.conj(b) * z)[:, None]
    else:
        V = (np.conj(beta) / (1.0 - np.conj(b / d) * z))[:, None] * S
    return U.T @ np.conj(U) / M, np.conj(V).T @ V / M


def quadrature_residual(m: LinearFractionalMap, C: Conjugation, k: int = 16,
                        M: int = 1024, beta: complex | None = None) -> float:
    """Frobenius norm of the leading k x k block of C T*T C - T T*
    (quadrature_grams), with no truncation of T."""
    left, right = quadrature_grams(m, C, k, M, beta)
    return float(np.linalg.norm(left - right))
