"""Finite truncations of composition, Toeplitz and weighted composition operators.

Matrices follow the monomial-basis convention: entry (i, j) = <T z^j, z^i>, so
column j of a composition matrix holds the Taylor coefficients of phi(z)^j.
Lower-triangular factors make these products block-exact: the N x N truncation
of T_g C_phi equals the product of the N x N truncations.
"""

from __future__ import annotations

import numpy as np

from . import hardy
from .conjugations import Conjugation, JMu, JWp, basis_image_series, jw_weighted_matrix
from .moebius import (
    LinearFractionalMap,
    boundary_derivative_sup,
    image_disk,
    lft_is_self_map,
    sigma_at_zero,
)


def composition_matrix(m: LinearFractionalMap, N: int) -> np.ndarray:
    """Truncated matrix of C_phi: column j = coefficients of phi^j.

    Columns are prefix-stable: the leading n x n block of the matrix at any
    N > n equals the matrix at n exactly, so a caller needing several sizes
    builds the largest once and slices it.
    """
    if not lft_is_self_map(m):
        raise ValueError(f"{m} is not a validated self-map")
    return hardy.power_matrix(np.eye(N, 1).ravel(), hardy.lft_power_series(m, N), N)


def analytic_toeplitz_matrix(symbol: np.ndarray, N: int) -> np.ndarray:
    """Lower-triangular Toeplitz matrix of multiplication by the symbol.

    Entry (i, j) is symbol[i - j] for i >= j.  Columns m to 2m - 1 are
    columns 0 to m - 1 moved down m rows, so log2(N) block copies fill it
    from the first column.
    """
    symbol = np.asarray(symbol, dtype=complex)[:N]
    T = np.zeros((N, N), dtype=complex)
    T[:len(symbol), 0] = symbol
    m = 1
    while m < N:
        w = min(m, N - m)
        T[m:, m:m + w] = T[:N - m, :w]
        m *= 2
    return T


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


def _kept_block_defect(X: np.ndarray, R: np.ndarray) -> np.ndarray:
    return X.T @ np.conj(X) - R @ R.conj().T


def kept_block_residual(X: np.ndarray, R: np.ndarray) -> float:
    """Frobenius norm of X^T conj(X) - R R*: the kept block of C T*T C - T T*
    for X = T M[:, :keep] and R = T[:keep] (cnormal_residual_matrix)."""
    return float(np.linalg.norm(_kept_block_defect(X, R)))


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
    reads, with no truncation error in any entry.

    T is C_phi, or W = T_psi C_phi with psi = beta K_{sigma(0)} when beta is
    given.  With first = 1 or psi, column j of T holds the coefficients of
    first phi^j (one hardy.power_matrix), and column i of T C those of
    T (C e_i).  X is the leading block of the matrix of T C itself, not the
    product of the truncations of T and of C's matrix:

    J_mu is diagonal, C e_i = conj(mu)^i e_i, so X is T's first k
    columns times conj(mu)^i, and R's first k columns are those
    columns' first k rows.
    JW_p reads its basis images, C e_i = w h^i (basis_image_series): column
    i of T C holds first (w o phi)(h o phi)^i, one more chain, and R's
    first k columns are the chain of T on k rows.

    Past column k, T[:k, j] = (phi^k T[:, j - k])[:k], so each further block
    of k columns of R is G times the k columns before it, with G the k x k
    lower-triangular Toeplitz matrix of phi^k (hardy.series_power); the last
    block is clipped at n.  R's first k columns are the chain
    power_matrix(first[:k], phi[:k], k) bit for bit, the rest equal its
    later columns to rounding.  When phi(0) = 0 (m.b == 0), first phi^j has
    order at least j, so the columns past k are zero and are not built.
    Every chain is prefix-exact in its rows and columns (power_matrix), so
    slices of X and of R[:, :k] give the blocks at smaller sizes.
    """
    phi = hardy.lft_power_series(m, n)
    first = np.eye(n, 1).ravel() if beta is None else canonical_weight_series(m, beta, n)
    R = np.zeros((k, n), dtype=complex, order="F")
    if isinstance(C, JMu):
        X = hardy.power_matrix(first, phi, n, cols=k)
        R[:, :k] = X[:k]
        X *= np.conj(C.mu) ** np.arange(k)
    else:
        w_phi, h_phi = basis_image_series(C, m, n)
        X = hardy.power_matrix(hardy.series_multiply(first, w_phi, n), h_phi, n, cols=k)
        R[:, :k] = hardy.power_matrix(first[:k], phi[:k], k)
    if m.b != 0:
        G = analytic_toeplitz_matrix(hardy.series_power(phi[:k], k, k), k)
        for q in range(k, n, k):
            w = min(k, n - q)
            np.matmul(G, R[:, q - k:q - k + w], out=R[:, q:q + w])
    return X, R


def kept_block_residuals(m: LinearFractionalMap, C: Conjugation, sizes,
                         beta: complex | None = None) -> list:
    """The kept residual of C T*T C - T T* for each (N, keep) in sizes:
    kept_block_residual(X[:N, :keep], R[:keep, :N]) with X and R the
    kept_blocks, built once at the largest N and keep.  At each N the defect
    X^T conj(X) - R R* is formed once, at its largest keep; a smaller keep
    reads its leading block, the defect of the leading columns of X.

    R = T[:keep, :N], as in cnormal_residual_matrix of the truncations, to
    rounding past column keep (kept_blocks).  X[:N] is the exact leading
    block of T C, with columns psi (w o phi)(h o phi)^i (psi = 1 for C_phi),
    where cnormal_residual_matrix reads the product T_N M_N of the
    truncations.  The two agree for J_mu, whose matrix is diagonal; for JW_p
    they differ by the truncation error of that product.  When phi(0) = 0
    (m.b == 0, the test kept_blocks reads), column j of R has order at least
    j, so R[:keep, :N] is zero past column keep and R R* is formed over
    R[:keep, :keep] alone.
    """
    n = max(N for N, _ in sizes)
    k = max(keep for _, keep in sizes)
    X, R = kept_blocks(m, C, n, k, beta)
    widest = {N: keep for N, keep in sorted(sizes)}     # the largest keep at each N
    defects = {N: _kept_block_defect(X[:N, :keep], R[:keep, :keep if m.b == 0 else N])
               for N, keep in widest.items()}
    return [float(np.linalg.norm(defects[N][:keep, :keep])) for N, keep in sizes]


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
