"""Hardy-space primitives on truncated coefficient vectors.

Functions here work on plain complex numpy arrays: entry n is the Taylor
coefficient of z^n.  The monomials are an orthonormal basis, so the inner
product is the plain sesquilinear dot product of coefficient arrays.

Every function that cnops expands is linear fractional: the symbol phi, the
canonical weight beta K_{sigma(0)} and JW_p's basis images composed with phi.
lft_power_series expands each from its four coefficients.
"""

from __future__ import annotations

import numpy as np


def lft_power_series(a, b, c, d, N: int) -> np.ndarray:
    """Taylor coefficients of (a z + b)/(c z + d) at 0, truncated to N.

    p0 = b/d, p1 = (a - c p0)/d, and p_n = -(c/d) p_{n-1} for n >= 2, so the
    tail is geometric with ratio -c/d.  ad - bc may vanish: (c, d, c, d) gives
    the constant 1.  Requires the pole strictly outside the closed disk,
    |d| > |c|, tested without dividing by c.
    """
    if abs(d) <= 1e-14 * max(abs(a), abs(b), abs(c), abs(d)):
        raise ValueError("pole at the origin: d = 0")
    if abs(d) <= abs(c):
        raise ValueError(f"pole -d/c = {-d / c} inside the closed disk")
    p = np.zeros(N, dtype=complex)
    p[0] = b / d
    if N > 1:
        p[1] = (a - c * p[0]) / d
    if N > 2 and abs(c) > 0:
        p[2:] = p[1] * (-c / d) ** np.arange(1, N - 1)
    return p


def series_multiply(f: np.ndarray, g: np.ndarray, N: int) -> np.ndarray:
    """Cauchy product truncated at degree N-1."""
    out = np.convolve(np.asarray(f, dtype=complex)[:N],
                      np.asarray(g, dtype=complex)[:N])[:N]
    if len(out) < N:
        out = np.pad(out, (0, N - len(out)))
    return out


def series_power(f: np.ndarray, e: int, N: int) -> np.ndarray:
    """f^e truncated at degree N-1, by repeated squaring: about 2 log2(e)
    truncated products, equal to e - 1 repeated products to rounding."""
    out = np.eye(N, 1, dtype=complex).ravel()
    while e:
        if e & 1:
            out = series_multiply(out, f, N)
        e >>= 1
        if e:
            f = series_multiply(f, f, N)
    return out


def power_matrix(first: np.ndarray, f: np.ndarray, N: int,
                 cols: int | None = None) -> np.ndarray:
    """N x cols matrix (cols defaults to N) whose column j holds the
    coefficients of first * f^j.

    Column j is column j - 1 times f, truncated at degree N - 1: an
    np.convolve of column j - 1 with f cut after its last nonzero entry, so
    a step costs N times that prefix (2 entries for an affine phi, c = 0;
    geometric tails that underflow to zero at large N are cut too).  That is
    the truncated Cauchy product entry for entry when f has no trailing zeros
    or one nonzero entry, and within rounding otherwise.  Entry n sums the same
    products at every N > n and reads only the leading n + 1 entries of
    first and f.  So the leading r rows of the result at any N > r equal
    power_matrix(first[:r], f[:r], r, cols) exactly, and the leading columns
    equal the result at a smaller cols exactly.

    The columns are contiguous (order "F"), so no column is copied.
    """
    cols = N if cols is None else cols
    f = np.asarray(f, dtype=complex)[:N]
    support = np.flatnonzero(f)
    f = f[:support[-1] + 1 if support.size else 1]
    M = np.zeros((N, cols), dtype=complex, order="F")
    M[:, 0] = first
    for j in range(1, cols):
        M[:, j] = np.convolve(M[:, j - 1], f)[:N]
    return M
