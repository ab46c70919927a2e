"""Finite truncations of composition, Toeplitz and weighted composition operators.

Matrices follow the monomial-basis convention: entry (i, j) = <T z^j, z^i>, so
column j of a composition matrix holds the Taylor coefficients of phi(z)^j.
Lower-triangular factors make these products block-exact: the N x N truncation
of T_g C_phi equals the product of the N x N truncations.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import hardy
from .conjugations import Conjugation, JMu, JWp, basis_image_series, jw_weighted_matrix
from .errors import NotSelfMapError
from .moebius import (
    LinearFractionalMap,
    boundary_derivative_sup,
    image_disk,
    lft_is_self_map,
    sigma_at_zero,
)

STANDARD_TRUNCATIONS = (32, 64, 128)


def composition_matrix(m: LinearFractionalMap, N: int) -> np.ndarray:
    """Truncated matrix of C_phi: column j = coefficients of phi^j.

    Columns are prefix-stable: the leading n x n block of the matrix at any
    N > n equals the matrix at n exactly, so a caller needing several sizes
    builds the largest once and slices it.
    """
    if not lft_is_self_map(m):
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


def conjugation_operator(C: Conjugation, N: int) -> np.ndarray:
    """Truncated matrix M of a conjugation spec, which acts as x -> M conj(x).

    JMu: M = diag(conj(mu)^n), an exact representation.
    JWp: M = conj(W) with W the truncated matrix of W_{xi_p, tau_p}
    (the action x -> conj(W x) rewritten as x -> M conj(x)).
    """
    if isinstance(C, JMu):
        return np.diag(np.conj(C.mu) ** np.arange(N)).astype(complex)
    return np.conj(jw_weighted_matrix(C, N))


def kept_block_residual(X: np.ndarray, R: np.ndarray) -> float:
    """Frobenius norm of X^T conj(X) - R R*: the kept block of C T*T C - T T*
    for X = T M[:, :keep] and R = T[:keep] (cnormal_residual_matrix)."""
    lhs = X.T @ np.conj(X)
    rhs = R @ R.conj().T
    return float(np.linalg.norm(lhs - rhs))


def cnormal_residual_matrix(T: np.ndarray, M: np.ndarray,
                            keep: int | None = None) -> float:
    """Frobenius norm of (C T* T C - T T*) on the leading keep x keep block.

    C is the conjugation x -> M conj(x) (see conjugation_operator), so the
    composition C T* T C linearizes to M conj(T* T) conj(M) =
    (M T^T)(conj(T) conj(M)).  M is symmetric (<Cx, y> = <Cy, x>), so with
    X = T M[:, :keep] the kept block is X^T conj(X) - R R*, R = T[:keep]
    (kept_block_residual), at a cost of O(keep N^2) rather than four N x N
    products; of M it reads only the first keep columns.
    Default keep is N/2; truncation corrupts trailing rows of the products,
    and for inner-type symbols or JW conjugations the corruption reaches
    further in (see stable_keep).
    """
    T = np.asarray(T, dtype=complex)
    N = len(T)
    if T.shape != M.shape:
        raise ValueError(f"dimension mismatch: T is {T.shape}, M is {M.shape}")
    keep = N // 2 if keep is None else keep
    if not 1 <= keep <= N // 2:
        raise ValueError(f"keep must be in [1, N/2] = [1, {N // 2}]")
    return kept_block_residual(T @ M[:, :keep], T[:keep])


def kept_blocks(m: LinearFractionalMap, C: Conjugation, n: int, k: int,
                beta: complex | None = None) -> tuple:
    """The blocks X = (T C)[:n, :k] and R = T[:k, :n] that the kept residual
    reads, exact in every entry.

    T is C_phi, or W = T_psi C_phi with psi = beta K_{sigma(0)} when beta is
    given.  With first = 1 or psi, column j of T holds the coefficients of
    first phi^j (one hardy.power_matrix), and column i of T C those of
    T (C e_i).  X is the leading block of the matrix of T C itself, not the
    product of the truncations of T and of C's matrix:

    J_mu is diagonal, C e_i = conj(mu)^i e_i, so X is T's first k
    columns times conj(mu)^i, and R's first k columns are those
    columns' first k rows.  Past column k, R continues the same chain on k
    rows; when phi(0) = 0, first phi^j has order at least j, so those
    columns are zero and are not built.
    JW_p reads its basis images, C e_i = w h^i (basis_image_series): column
    i of T C holds first (w o phi)(h o phi)^i, one more chain.

    Every build is prefix-exact in its rows and columns (power_matrix), so
    R is the chain power_matrix(first[:k], phi[:k], k, cols=n) bit for bit,
    and slices give the blocks at smaller sizes.
    """
    phi = hardy.lft_power_series(m, n)
    first = np.eye(n, 1).ravel() if beta is None else canonical_weight_series(m, beta, n)
    if isinstance(C, JMu):
        P = hardy.power_matrix(first, phi, n, cols=k)
        X = P * np.conj(C.mu) ** np.arange(k)
        R = np.zeros((k, n), dtype=complex, order="F")
        R[:, :k] = P[:k]
        if phi[0] != 0:
            R[:, k - 1:] = hardy.power_matrix(P[:k, k - 1], phi[:k], k, cols=n - k + 1)
        return X, R
    w_phi, h_phi = basis_image_series(C, m, n)
    X = hardy.power_matrix(hardy.series_multiply(first, w_phi, n), h_phi, n, cols=k)
    R = hardy.power_matrix(first[:k], phi[:k], k, cols=n)
    return X, R


def kept_block_residuals(m: LinearFractionalMap, C: Conjugation, sizes,
                         beta: complex | None = None) -> list:
    """The kept residual of C T*T C - T T* for each (N, keep) in sizes:
    kept_block_residual(X[:N, :keep], R[:keep, :N]) with X and R the
    kept_blocks, built once at the largest N and keep.

    R = T[:keep, :N], as in cnormal_residual_matrix of the truncations.  X[:N]
    is the exact leading block of T C, with columns psi (w o phi)(h o phi)^i
    (psi = 1 for C_phi), where cnormal_residual_matrix reads the product
    T_N M_N of the truncations.  The two agree for J_mu, whose matrix is
    diagonal; for JW_p they differ by the truncation error of that product.
    When phi(0) = 0, column j of R has order at least j, so R[:keep, :N] is
    zero past column keep and R R* is formed over R[:keep, :keep] alone.
    """
    n = max(N for N, _ in sizes)
    k = max(keep for _, keep in sizes)
    X, R = kept_blocks(m, C, n, k, beta)
    return [kept_block_residual(X[:N, :keep], R[:keep, :keep if m.b == 0 else N])
            for N, keep in sizes]


def stable_keep(N: int, m: LinearFractionalMap | None = None,
                C: Conjugation | None = None) -> int:
    """Block size on which truncated products of the given factors are reliable.

    Powers of an inner-type symbol move coefficient mass outward at a rate
    bounded by the boundary derivative sup; a JW conjugation does the same at
    rate (1+|p|)/(1-|p|), and when it wraps an inner symbol the reaches
    compound, so the rates multiply.  Rows beyond N/rate are corrupted by
    truncation; the residual block is capped at N/(1.25 rate), never above
    N/2 and never below 4.  m is taken to be a self-map, as its callers have
    already checked (cnormal.check_instance), so it is not tested again here.
    """
    rate = 1.0
    disk = image_disk(m) if m is not None else None
    if disk is not None and abs(disk[0]) + disk[1] > 0.98:   # sup |phi| over the disk
        rate *= boundary_derivative_sup(m)
    if isinstance(C, JWp):
        rate *= (1.0 + abs(C.p)) / (1.0 - abs(C.p))
    return max(4, min(N // 2, int(N / (1.25 * rate))))
