"""Finite truncations of composition, Toeplitz and weighted composition operators.

Matrices follow the monomial-basis convention: entry (i, j) = <T z^j, z^i>, so
column j of a composition matrix holds the Taylor coefficients of phi(z)^j.
Lower-triangular factors make these products block-exact: the N x N truncation
of T_g C_phi equals the product of the N x N truncations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import hardy
from .conjugations import Conjugation, JMu, JWp, jw_weighted_matrix
from .errors import NotSelfMapError
from .moebius import (
    LinearFractionalMap,
    boundary_derivative_sup,
    cowen_triple,
    image_disk,
    lft_is_self_map,
    sigma_at_zero,
)

STANDARD_TRUNCATIONS = (32, 64, 128)


def composition_matrix(m: LinearFractionalMap, N: int, *,
                       require_self_map: bool = True) -> np.ndarray:
    """Truncated matrix of C_phi: column j = coefficients of phi^j.

    Columns are prefix-stable: the leading n x n block of the matrix at any
    N > n equals the matrix at n exactly, so a caller needing several sizes
    builds the largest once and slices it.  With require_self_map=False only
    expandability (pole outside the closed disk) is enforced, which
    adjoint_via_cowen needs for the adjoint symbol.
    """
    if require_self_map and not lft_is_self_map(m):
        raise NotSelfMapError(f"{m} is not a validated self-map")
    return hardy.power_matrix(np.eye(N, 1).ravel(), hardy.lft_power_series(m, N), N)


def analytic_toeplitz_matrix(symbol: np.ndarray, N: int) -> np.ndarray:
    """Lower-triangular Toeplitz matrix of multiplication by the symbol.

    Entry (i, j) is symbol[i - j] for i >= j.  Row i is the reversed length-N
    window at offset i of the symbol preceded by N - 1 zeros, read off a
    strided view.
    """
    symbol = np.asarray(symbol, dtype=complex)[:N]
    padded = np.zeros(2 * N - 1, dtype=complex)
    padded[N - 1:N - 1 + len(symbol)] = symbol
    return sliding_window_view(padded, N)[:, ::-1].copy()


def weighted_composition_matrix(psi: np.ndarray, m: LinearFractionalMap,
                                N: int) -> np.ndarray:
    """Truncation of W_{psi, phi} = T_psi C_phi."""
    return analytic_toeplitz_matrix(psi, N) @ composition_matrix(m, N)


def canonical_weight_series(m: LinearFractionalMap, beta: complex, N: int) -> np.ndarray:
    """Coefficients of beta K_{sigma(0)}: beta (-c/d)^n."""
    return complex(beta) * hardy.kernel_series(sigma_at_zero(m), N)


def adjoint_via_cowen(m: LinearFractionalMap, N: int) -> np.ndarray:
    """C_phi* through the adjoint triple: T_g(N) C_sigma(N) T_h(N)*.

    All three factors multiply block-exactly (T_g lower-triangular, T_h*
    upper-bidiagonal), so the result is the exact truncation of C_phi* and
    matches the conjugate transpose of composition_matrix up to rounding.
    Raises when sigma has its pole in the closed disk; warns when sigma fails
    the self-map test (its powers may then grow under truncation).
    """
    if not lft_is_self_map(m):
        raise NotSelfMapError(f"{m} is not a validated self-map")
    triple = cowen_triple(m)
    if not lft_is_self_map(triple.sigma):
        warnings.warn(f"adjoint symbol {triple.sigma} is not a self-map; "
                      "truncation may diverge", RuntimeWarning, stacklevel=2)
    # g = 1/(g_den0 + g_den1 z) expands geometrically with ratio conj(b)/conj(d)
    ratio = -triple.g_den1 / triple.g_den0
    g_series = (1.0 / triple.g_den0) * ratio ** np.arange(N)
    h_series = np.zeros(N, dtype=complex)
    h_series[0] = triple.h0
    if N > 1:
        h_series[1] = triple.h1
    Tg = analytic_toeplitz_matrix(g_series, N)
    Csig = composition_matrix(triple.sigma, N, require_self_map=False)
    Th = analytic_toeplitz_matrix(h_series, N)
    return Tg @ Csig @ Th.conj().T


@dataclass(frozen=True)
class AntilinearOperator:
    """Canonical form of an antilinear operator: x -> matrix @ conj(x)."""

    matrix: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ np.conj(np.asarray(x, dtype=complex))

    def involution_defect(self, keep: int) -> float:
        """max norm of (M conj(M) - I) on the leading keep x keep block."""
        M = self.matrix
        E = M @ np.conj(M) - np.eye(len(M))
        return float(np.abs(E[:keep, :keep]).max())


def conjugation_operator(C: Conjugation, N: int) -> AntilinearOperator:
    """Truncated matrix form of a conjugation spec.

    JMu: M = beta diag(conj(mu)^n), an exact representation.
    JWp: M = beta conj(W) with W the truncated matrix of W_{xi_p, tau_p}
    (the action x -> beta conj(W x) rewritten as x -> M conj(x)).
    """
    if isinstance(C, JMu):
        M = C.beta * np.diag(np.conj(C.mu) ** np.arange(N)).astype(complex)
        return AntilinearOperator(M)
    return AntilinearOperator(C.beta * np.conj(jw_weighted_matrix(C, N)))


def cnormal_residual_matrix(T: np.ndarray, C: AntilinearOperator,
                            keep: int | None = None) -> float:
    """Frobenius norm of (C T* T C - T T*) on the leading keep x keep block.

    With C x = M conj(x), the composition C T* T C linearizes to
    M conj(T* T) conj(M) = (M T^T)(conj(T) conj(M)).  Only the kept block is
    formed: its rows need M[:keep] and its columns M[:, :keep], so the cost
    is O(keep N^2) rather than four N x N products.  Default keep is N/2;
    truncation corrupts trailing rows of the products, and for inner-type
    symbols or JW conjugations the corruption reaches further in (see
    stable_keep).
    """
    T = np.asarray(T, dtype=complex)
    N = len(T)
    if T.shape != C.matrix.shape:
        raise ValueError(f"dimension mismatch: T is {T.shape}, C is {C.matrix.shape}")
    keep = N // 2 if keep is None else keep
    if not 1 <= keep <= N // 2:
        raise ValueError(f"keep must be in [1, N/2] = [1, {N // 2}]")
    M = C.matrix
    lhs = (M[:keep] @ T.T) @ np.conj(T @ M[:, :keep])
    rhs = T[:keep] @ T[:keep].conj().T
    return float(np.linalg.norm(lhs - rhs))


def stable_keep(N: int, m: LinearFractionalMap | None = None,
                C: Conjugation | None = None) -> int:
    """Block size on which truncated products of the given factors are reliable.

    Powers of an inner-type symbol move coefficient mass outward at a rate
    bounded by the boundary derivative sup; a JW conjugation does the same at
    rate (1+|p|)/(1-|p|), and when it wraps an inner symbol the reaches
    compound, so the rates multiply.  Rows beyond N/rate are corrupted by
    truncation; the residual block is capped at N/(1.25 rate), never above
    N/2 and never below 4.
    """
    rate = 1.0
    if m is not None and lft_is_self_map(m):
        centre, radius = image_disk(m)
        if abs(centre) + radius > 0.98:   # sup |phi| over the disk
            rate *= boundary_derivative_sup(m)
    if isinstance(C, JWp):
        rate *= (1.0 + abs(C.p)) / (1.0 - abs(C.p))
    return max(4, min(N // 2, int(N / (1.25 * rate))))
