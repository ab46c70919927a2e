"""Kernel identities and coefficient predicates for conjugation-normality.

An operator T is C-normal for a conjugation C when C T* T C = T T*, or
equivalently T T* C = C T* T.  Each case is decided by three independent
routes, which must agree and which the verify() report records:

  * a coefficient predicate deciding the identity exactly;
  * the kernel oracle: both sides applied to K_w and evaluated at z, in closed
    form, reading C only through its kernel action conj_apply_kernel and
    T = T_g C_phi only through its kernel actions T* K_x = conj(g(x)) K_{phi(x)}
    and T K_e = g (c z + d) / (d - b conj(e)) K_{sigma(e)}, with g = 1 for
    C_phi and g = psi for W (_sides);
  * a matrix oracle: the defect of C T*T C - T T* on a leading kept block at
    each truncation N, formed from the exact leading block X of T C and from
    the block R = T[:keep] (operators.kept_block_residuals).  For J_mu, X is
    T's first keep columns times conj(mu)^i, and R's first keep columns
    are those columns' first keep rows; for JW_p, X has columns
    psi (w o phi)(h o phi)^i for its basis images C e_i = w h^i.
"""

from __future__ import annotations

import json
import math
import operator
import time
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from . import operators
from .conjugations import FAMILIES, Conjugation, JMu, JWp, conj_apply_kernel
from .moebius import LinearFractionalMap, adjoint_symbol, lft_is_self_map

GRID_RADII = (0.3, 0.6, 0.9)
GRID_N = 12                   # default points per ring of the kernel grid
MAX_GRID_N = 512              # largest: (3 * 512)^2 grid pairs; kernel_residual then
                              # peaks at five 38 MB complex arrays (3.5 for W's sides)
SINGULAR_RTOL = 1e-6          # read by bench/workloads.py only; no cnops code reads it
EXACT_TOL = 1e-12             # relative margin under which a composition case holds
WEIGHTED_TOL = 1e-10          # relative margin under which a weighted case holds
VERDICT_TRUE_MAX = 1e-9       # a true verdict demands kernel residual below this
VERDICT_FALSE_MIN = 1e-7      # a false verdict demands kernel residual above this
MATRIX_FLOOR = 1e-12          # matrix residuals may rise in N while below this
MATRIX_FLOOR_RTOL = 4 * np.finfo(float).eps   # or this * sqrt(N) * keep (rounding)
STANDARD_TRUNCATIONS = (32, 64, 128)   # the default truncation sizes
MIN_TRUNCATION = 8            # smallest N whose N/2 holds stable_keep's floor of 4 rows
MAX_TRUNCATION = 4096         # largest N; its kept blocks take at most 256 MB (320 MB
                              # while R is filled), and the kept-block defect of
                              # operators.kept_block_residuals peaks near 512 MB


class CaseId(str, Enum):
    COMP_JMU = "comp_jmu"
    COMP_JW = "comp_jw"
    WEIGHTED_JMU = "weighted_jmu"
    WEIGHTED_JW = "weighted_jw"

    @property
    def weighted(self) -> bool:
        """True for the weighted operator W, False for plain C_phi."""
        return self.value.startswith("weighted")

    @property
    def conj_type(self) -> type:
        """The conjugation class (JMu or JWp) the case is stated for."""
        return FAMILIES[self.value.split("_")[1]]


# --------------------------------------------------------------------------
# closed-form side evaluators (vectorized over w, z)
# --------------------------------------------------------------------------

def _kernel_denominator(m: LinearFractionalMap, x, y):
    """conj(c x + d)(c y + d) - conj(a x + b)(a y + b), which is
    (1 - conj(m(x)) m(y)) conj(c x + d)(c y + d), expanded in conj(x) and y so
    that its coefficients cancel before any point is read."""
    a, b, c, d = m.coefficients()
    return (abs(d) ** 2 - abs(b) ** 2 + (np.conj(d) * c - np.conj(b) * a) * y
            + np.conj(x) * (np.conj(c) * d - np.conj(a) * b + (abs(c) ** 2 - abs(a) ** 2) * y))


def _sides(m: LinearFractionalMap, C: Conjugation, w, z, beta=None):
    """Both sides of C T T* K_w(z) = T* T C K_w(z) for T = T_g C_phi, with
    g = 1 (C_phi, beta None) or g = psi = beta d / (c z + d) (W), reading C
    only through conj_apply_kernel, C K_x = u_x K_{eta_x} (ValueError when
    any |w| or |z| >= 1).

    T* K_x = conj(g(x)) K_{phi(x)} and T K_e = G / (d - b conj(e)) K_{sigma(e)},
    G = g (c z + d) and sigma Cowen's adjoint symbol.  With
    (X K_w)(z) = <X K_w, K_z>, lhs = <T* C K_z, T* K_w>
    = u_z conj(G(eta_z)) G(w) / _kernel_denominator(phi, eta_z, w), and
    rhs = <T C K_w, T K_z>.  For W, G = beta d and
    rhs = u_w |beta d|^2 / _kernel_denominator(sigma, eta_w, z).  For C_phi,
    G = c z + d, <(c z + d) K_x, (c z + d) K_y>
    = (c + d conj(x))(conj(c) + conj(d) y) / (1 - conj(x) y) + |d|^2 and
    c + d conj(sigma(e)) = conj(e)(ad - bc) / (d - b conj(e)), so
    rhs = u_w (|d|^2 + conj(eta_w) z |ad - bc|^2 / _kernel_denominator(sigma, eta_w, z))
    / ((d - b conj(eta_w)) conj(d - b conj(z))).  No side has a removable pole.
    On (0.5, -0.4999999999995, -0.999999999999, 1), near both a constant map
    and the circle, every side stays within 5e-13 relative of its exact value,
    where the product form 1 - conj(phi(x)) phi(y) is 4e-4 off for W and
    1.4e-5 for C_phi.
    Every side is homogeneous of degree 0 in (a, b, c, d), and a map is stored
    with scale near 1 (LinearFractionalMap), so |ad - bc|^2 neither overflows
    nor underflows.
    """
    a, b, c, d = m.coefficients()
    u_z, eta_z = conj_apply_kernel(C, z)
    u_w, eta_w = conj_apply_kernel(C, w)
    sigma_den = _kernel_denominator(adjoint_symbol(m), eta_w, z)
    if beta is not None:
        scale = abs(beta * d) ** 2
        return u_z * scale / _kernel_denominator(m, eta_z, w), u_w * scale / sigma_den
    lhs = u_z * np.conj(c * eta_z + d) * (c * w + d) / _kernel_denominator(m, eta_z, w)
    rhs = (np.conj(eta_w) * abs(m.det) ** 2) * z / sigma_den + abs(d) ** 2
    return lhs, u_w / (d - b * np.conj(eta_w)) * rhs / np.conj(d - b * np.conj(z))


def eval_sides_weighted_jmu(m: LinearFractionalMap, beta: complex, mu: complex, w, z):
    """Both sides for W = T_{beta K_{sigma(0)}} C_phi against J_mu (_sides)."""
    return _sides(m, JMu(mu), w, z, beta)


def eval_sides_weighted_jw(m: LinearFractionalMap, beta: complex, p: complex, w, z):
    """Both sides for W against JW_p (_sides)."""
    return _sides(m, JWp(p), w, z, beta)


# --------------------------------------------------------------------------
# kernel-grid residual oracle
# --------------------------------------------------------------------------

def _integer(value, name: str) -> int:
    """value as an int (operator.index, so numpy integers pass); ValueError
    for a float or any other non-integral value."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def ring_grid(grid_n: int) -> np.ndarray:
    """Deterministic points on concentric rings of radius <= 0.9.

    grid_n angles per ring, an integer from 8 to MAX_GRID_N, offset
    ring-to-ring by the golden angle so that no two rings share a ray (keeps
    accidental symmetry out of the grid).
    """
    grid_n = _integer(grid_n, "grid_n")
    if not 8 <= grid_n <= MAX_GRID_N:
        raise ValueError(f"grid_n must be at least 8 and at most {MAX_GRID_N}, got {grid_n}")
    golden = 2.0 * np.pi * 0.381966011250105
    ring = np.arange(len(GRID_RADII))[:, None]
    ang = 2.0 * np.pi * np.arange(grid_n) / grid_n + ring * golden
    return (np.array(GRID_RADII)[:, None] * np.exp(1j * ang)).ravel()


def kernel_residual(case: CaseId, m: LinearFractionalMap, conj: Conjugation,
                    beta: complex = 1.0, grid_n: int = GRID_N) -> float:
    """max over every (w, z) pair of the grid of |lhs - rhs| for the case's
    identity; no pair is excluded.

    The sides take w = pts[:, None] and z = pts[None, :], pts = ring_grid(grid_n),
    so each factor of w alone or z alone is computed on the 3 grid_n points and
    only the final combination is broadcast onto the pairs; nothing is cached.

    Every side is finite on the open bidisk: for a self-map |d| exceeds |b|
    and |c|, so c z + d and d - b conj(z) have no zero on the closed disk,
    and phi and sigma map the disk into itself, so neither
    _kernel_denominator vanishes.
    """
    pts = ring_grid(grid_n)
    lhs, rhs = _sides(m, conj, pts[:, None], pts[None, :],
                      beta if case.weighted else None)
    return float(np.abs(lhs - rhs).max())


# --------------------------------------------------------------------------
# coefficient predicates
# --------------------------------------------------------------------------

def predicate_margin(case: CaseId, m: LinearFractionalMap,
                     conj: Conjugation | None) -> float:
    """Relative distance of the instance from the case's defining equalities.

    Coefficient defects are divided by the matching power of m.scale, so the
    margin is invariant under rescaling (a, b, c, d).  The composition cases
    hold or fail for every conjugation parameter at once and ignore conj.
    Each weighted case is one equation; the paper's other equality follows
    from it on a self-map.  weighted_jw's equation e2 carries a factor of p,
    so its margin is |e2| / (|p| s^2): it tends to weighted_jmu's at
    mu = -lam as p -> 0, where |e2| / s^2 would read true for every map.
    """
    a, b, c, d = m.coefficients()
    s = m.scale
    if case is CaseId.COMP_JMU:
        return max(abs(b), abs(c)) / s
    if case is CaseId.COMP_JW:
        return max(abs(b) / s, abs(c) / s, abs(abs(a / d) - 1.0))
    # With A = |a|^2 - |d|^2, Delta = |b|^2 - |c|^2, X = conj(a) c - conj(b) d
    # and Y = conj(a) b - conj(c) d, |X|^2 - |Y|^2 + A Delta = 0 identically.
    # On a self-map A = 0 forces Delta = 0 and b conj(d) = a conj(c):
    # normalise d = 1, so |a| = 1; the self-map test
    # |b - a conj(c)| + |a - bc| <= 1 - |c|^2 (moebius.image_disk) gives
    # ||b| - |c|| <= |b - a conj(c)|
    # <= 1 - |c|^2 - |a - bc| <= |c| (|b| - |c|), and |c| < 1 forces both.
    X = np.conj(a) * c - np.conj(b) * d
    Y = np.conj(a) * b - np.conj(c) * d
    if case is CaseId.WEIGHTED_JMU:
        # The paper's lin = (conj(c) d - conj(a) b) conj(mu) - X is
        # -(Y conj(mu) + X).  lin = 0 with |mu| = 1 gives |X| = |Y|, so
        # A Delta = 0, and with the above Delta = 0: the paper's |b| = |c|
        # follows and is not tested.
        return float(abs(Y * np.conj(conj.mu) + X) / s ** 2)
    # The paper's e1 = Delta p - K |p|^2 = 0, K = -X - conj(Y), follows from
    # e2 = A |p|^2 + K conj(p) + 2 Re(Y p) = 0 and is not tested.  e2 = 0
    # makes K conj(p) real, so p = t K with t real when K != 0, and there
    # A e1 + K e2 = 0 identically, so e1 = 0 when A != 0.  If K = 0, then
    # |K|^2 + 2 Re(Y K) + A Delta = 0 (an identity) gives A Delta = 0, so
    # Delta = 0 as above and e1 = 0.  K != 0 with A = 0 does not occur on a
    # self-map: there b conj(d) = a conj(c) and |a| = |d| give K = 0.
    # Read e2 / |p| with u = p / |p|, so that a tiny p loses no digits.
    p = conj.p
    u = p / abs(p)
    e2_over_p = (abs(a) ** 2 - abs(d) ** 2) * abs(p) - (X * np.conj(u) - Y * u)
    return float(abs(e2_over_p) / s ** 2)


def case_predicate(case: CaseId, m: LinearFractionalMap, conj: Conjugation | None) -> bool:
    """The case holds iff its margin is within EXACT_TOL (composition cases)
    or WEIGHTED_TOL (weighted cases)."""
    return predicate_margin(case, m, conj) <= (WEIGHTED_TOL if case.weighted else EXACT_TOL)


# --------------------------------------------------------------------------
# verification report
# --------------------------------------------------------------------------

CSV_HEADER = "sample,case,verdict,kernel_residual,matrix_residual_max_n,consistent"


@dataclass
class VerificationReport:
    case: str
    verdict: bool
    kernel_residual: float
    matrix_residuals: list          # [(N, residual)], increasing N
    matrix_keep: list               # [(N, keep)]: the kept block size at each N
    params: dict
    grid: dict                      # rings, points_per_ring and pairs, all evaluated
    margin: float = math.nan        # predicate_margin of the instance
    warnings: list = field(default_factory=list)
    consistent: bool = True
    timing_s: float = 0.0

    def to_json(self) -> str:
        return json.dumps(finite_json_dict(asdict(self)), indent=2, sort_keys=True)

    def csv_row(self, sample: int) -> str:
        max_n = max((r for _, r in self.matrix_residuals), default=float("nan"))
        return (f"{sample},{self.case},{str(self.verdict).lower()},"
                f"{self.kernel_residual!r},{max_n!r},{str(self.consistent).lower()}")


def finite_json_dict(row: dict) -> dict:
    """row as plain JSON values with each non-finite float (inf, nan) written
    as None (null), and one warnings entry naming each field that held one."""
    out = json.loads(json.dumps(row), parse_constant=lambda _: None)
    out["warnings"] += [f"{key}: non-finite value written as null" for key in row
                        if json.dumps(out[key]) != json.dumps(row[key])]
    return out


def _matrix_residuals_non_increasing(residuals, floors) -> bool:
    return all(nxt <= max(prev, floor)
               for prev, nxt, floor in zip(residuals, residuals[1:], floors[1:]))


def _conj_params(conj: Conjugation) -> dict:
    if isinstance(conj, JMu):
        return {"family": "jmu", "mu": [conj.mu.real, conj.mu.imag]}
    return {"family": "jw", "p": [conj.p.real, conj.p.imag]}


def check_instance(case: CaseId, m: LinearFractionalMap, conj: Conjugation, beta: complex):
    """ValueError unless phi is a self-map of the disk, conj is of the case's
    family and, for a weighted case, |beta|^2 is a finite non-zero float
    (both weighted residuals scale as |beta|^2)."""
    if not lft_is_self_map(m):
        raise ValueError(f"{m} is not a validated self-map")
    if not isinstance(conj, case.conj_type):
        raise ValueError(f"case {case.value} needs a {case.conj_type.__name__} conjugation")
    beta_sq = abs(beta) * abs(beta)
    if case.weighted and not (math.isfinite(beta_sq) and beta_sq > 0):
        raise ValueError(f"|beta|^2 must be a finite non-zero float, got {beta_sq!r} "
                         f"for beta = {beta!r}")


def verify(case: CaseId, m: LinearFractionalMap, conj: Conjugation,
           beta: complex = 1.0, grid_n: int = GRID_N,
           truncations=STANDARD_TRUNCATIONS) -> VerificationReport:
    """Run predicate + kernel oracle + matrix oracle and gather the report.

    consistency_flag: a true verdict demands kernel residual < 1e-9 and
    matrix residuals on the block every truncation shares, the smallest keep
    k0 sliced at each N from the same X and R, non-increasing in N above a
    rounding floor of max(1e-12, 4 eps sqrt(N) k0); a false verdict demands
    kernel residual > 1e-7.  Both residuals of a weighted case are |beta|^2 times
    those at beta / |beta|, so those cases run both oracles at beta / s, s the
    power of two nearest |beta|, test them against the thresholds times
    |beta / s|^2 and report them times s^2.
    The matrix residual at each N is the Frobenius defect of C T*T C - T T*
    on the truncation-stable leading keep x keep block (operators.stable_keep;
    matrix_keep lists keep at each N): X^T conj(X) - R R* with X the exact
    leading N x keep block of T C and R = T[:keep, :N]
    (operators.kept_block_residuals).  For J_mu, X is T's first keep columns
    times conj(mu)^i, and R's first keep columns are those columns'
    first keep rows; for JW_p, column i of X holds the coefficients of
    psi (w o phi)(h o phi)^i for its basis images C e_i = w h^i.
    grid_n and every truncation must be integers, each truncation in
    [MIN_TRUNCATION, MAX_TRUNCATION], and the input must pass check_instance
    (ValueError otherwise).
    """
    t0 = time.perf_counter()
    grid_n = _integer(grid_n, "grid_n")
    truncations = sorted(_integer(n, "truncations") for n in truncations)
    if not (truncations and MIN_TRUNCATION <= truncations[0]
            and truncations[-1] <= MAX_TRUNCATION):
        raise ValueError(f"truncations must be non-empty and each at least {MIN_TRUNCATION} "
                         f"and at most {MAX_TRUNCATION}, got {truncations}")
    check_instance(case, m, conj, beta)

    verdict = case_predicate(case, m, conj)
    # Dividing by a power of two is exact, so short of overflow or underflow
    # the reported residuals are bit for bit those at beta, and for any beta
    # that check_instance takes the oracles see |beta / s| in [0.7, 1.5].
    s = 2.0 ** round(math.log2(abs(beta))) if case.weighted else 1.0
    beta_s = beta / s
    unit = abs(beta_s) ** 2 if case.weighted else 1.0
    k_res = kernel_residual(case, m, conj, beta=beta_s, grid_n=grid_n)

    sizes = [(N, operators.stable_keep(N, m=m, C=conj)) for N in truncations]
    # a true verdict's growth test reads the block every N shares, the smallest keep
    k0 = min(keep for _, keep in sizes)
    common = [(N, k0) for N in truncations] if verdict else []
    residuals = operators.kept_block_residuals(
        m, conj, sizes + common, beta=beta_s if case.weighted else None)
    residuals, common_residuals = residuals[:len(sizes)], residuals[len(sizes):]

    if verdict:
        floors = [unit * max(MATRIX_FLOOR, MATRIX_FLOOR_RTOL * np.sqrt(N) * k0)
                  for N in truncations]
        consistent = (k_res < VERDICT_TRUE_MAX * unit and
                      _matrix_residuals_non_increasing(common_residuals, floors))
    else:
        consistent = k_res > VERDICT_FALSE_MIN * unit

    params = {"map": [[x.real, x.imag] for x in m.coefficients()],
              "conjugation": _conj_params(conj)}
    if case.weighted:
        params["beta"] = [complex(beta).real, complex(beta).imag]
    return VerificationReport(
        case=case.value,
        verdict=verdict,
        kernel_residual=float(k_res * s * s),
        matrix_residuals=[(N, r * s * s) for N, r in zip(truncations, residuals)],
        matrix_keep=sizes,
        params=params,
        grid={"rings": list(GRID_RADII), "points_per_ring": grid_n,
              "pairs": (len(GRID_RADII) * grid_n) ** 2},
        margin=predicate_margin(case, m, conj),
        consistent=bool(consistent),
        timing_s=time.perf_counter() - t0,
    )
