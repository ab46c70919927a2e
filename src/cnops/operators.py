"""Finite truncations of composition, Toeplitz and weighted composition operators.

Matrices follow the monomial-basis convention: entry (i, j) = <T z^j, z^i>, so
column j of a composition matrix holds the Taylor coefficients of phi(z)^j.
Lower-triangular factors make these products block-exact: the N x N truncation
of T_g C_phi equals the product of the N x N truncations.
"""

from __future__ import annotations

import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import hardy
from .conjugations import Conjugation, JMu, JWp, basis_image_series, jw_weighted_matrix
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


def adjoint_via_cowen(m: LinearFractionalMap, N: int) -> np.ndarray:
    """C_phi* = T_g C_sigma T_h*: column n is g (conj(d) sigma^n + conj(c) sigma^(n-1)).

    g = 1/(conj(d) - conj(b) z) = K_{b/d}/conj(d), and one power_matrix of
    (g, sigma) holds every g sigma^n, so the result is the exact truncation
    of C_phi*.  Raises when sigma has its pole in the closed disk; warns when
    sigma fails the self-map test (its powers may then grow under truncation).
    """
    if not lft_is_self_map(m):
        raise NotSelfMapError(f"{m} is not a validated self-map")
    sigma = cowen_triple(m).sigma
    if not lft_is_self_map(sigma):
        warnings.warn(f"adjoint symbol {sigma} is not a self-map; "
                      "truncation may diverge", RuntimeWarning, stacklevel=2)
    _, b, c, d = m.coefficients()
    g = hardy.kernel_series(b / d, N) / np.conj(d)
    P = hardy.power_matrix(g, hardy.lft_power_series(sigma, N), N)
    A = np.conj(d) * P
    A[:, 1:] += np.conj(c) * P[:, :-1]
    return A


def conjugation_operator(C: Conjugation, N: int) -> np.ndarray:
    """Truncated matrix M of a conjugation spec, which acts as x -> M conj(x).

    JMu: M = beta diag(conj(mu)^n), an exact representation.
    JWp: M = beta conj(W) with W the truncated matrix of W_{xi_p, tau_p}
    (the action x -> beta conj(W x) rewritten as x -> M conj(x)).
    """
    if isinstance(C, JMu):
        return C.beta * np.diag(np.conj(C.mu) ** np.arange(N)).astype(complex)
    return C.beta * np.conj(jw_weighted_matrix(C, N))


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
        antiunitary = max(antiunitary,
                          abs(hardy.inner_product(cx, cy) - hardy.inner_product(y, x)))
    return involution, antiunitary


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

    J_mu is diagonal, C e_i = beta conj(mu)^i e_i, so X is T's first k
    columns times beta conj(mu)^i, and R's first k columns are those
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
        X = P * (C.beta * np.conj(C.mu) ** np.arange(k))
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
