"""The two conjugation families on the Hardy space.

J_mu acts by f(z) -> conj(f(mu conj(z))) for unimodular mu: on coefficients it
conjugates entrywise and multiplies entry n by conj(mu)^n, an exact diagonal
antilinear action.

JW_p is plain coefficient conjugation composed with the weighted composition
operator of weight xi_p(z) = sqrt(1-|p|^2)/(1 - conj(p) z) and automorphism
tau_p(z) = lambda (p - z)/(1 - conj(p) z), lambda = conj(p)/p.  It is an
involution exactly because lambda p = conj(p).  Its coefficient action
through the truncated operator matrix (operators.conjugation_operator) carries
truncation error; the kernel action below is closed-form and exact.

JW_p is also given by its basis images C e_i = w h^i (basis_image_series),
which the matrix oracle reads: for T = T_psi C_phi, column i of the matrix of
T C holds the coefficients of T (C e_i) = psi (w o phi)(h o phi)^i, exactly
and with no truncated factor.  J_mu needs none: it is diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import hardy
from .moebius import LinearFractionalMap, lft_compose

UNIMODULAR_TOL = 1e-14


@dataclass(frozen=True)
class JMu:
    """Conjugation f(z) -> conj(f(mu conj(z))), |mu| = 1."""

    mu: complex

    def __post_init__(self):
        object.__setattr__(self, "mu", complex(self.mu))
        if not abs(abs(self.mu) - 1.0) <= UNIMODULAR_TOL:   # NaN fails too
            raise ValueError(f"|mu| must be 1, got |mu| = {abs(self.mu)}")


@dataclass(frozen=True)
class JWp:
    """Conjugation J W_{xi_p, tau_p}, 0 < |p| < 1."""

    p: complex

    def __post_init__(self):
        object.__setattr__(self, "p", complex(self.p))
        if not 0.0 < abs(self.p) < 1.0:
            raise ValueError(f"p must lie in the punctured open disk, got {self.p}")

    @property
    def lam(self) -> complex:
        """The unique unimodular solution of lambda p = conj(p)."""
        return np.conj(self.p) / self.p

    def tau(self) -> LinearFractionalMap:
        """tau_p(z) = lam (p - z)/(1 - conj(p) z), a disk automorphism."""
        lam = self.lam
        return LinearFractionalMap(-lam, lam * self.p, -np.conj(self.p), 1.0)

    def xi_series(self, N: int) -> np.ndarray:
        """Coefficients of xi_p = sqrt(1-|p|^2) K_p (unit-norm kernel at p)."""
        return np.sqrt(1.0 - abs(self.p) ** 2) * hardy.kernel_series(self.p, N)


Conjugation = Union[JMu, JWp]

FAMILIES = {"jmu": JMu, "jw": JWp}   # the family names of conjugation specs


def conj_apply_kernel(C: Conjugation, w):
    """Image of the reproducing kernel K_w as (weight, point): C K_w = weight K_point.

    JMu:  C K_w = K_{mu conj(w)}.
    JWp:  C K_w = sqrt(1-|p|^2)/(1 - w p) * K_eta with
          eta = (conj(p) - conj(w) lam) / (1 - conj(w p)).
    Elementwise over an array of w; raises ValueError if any |w| >= 1.
    """
    w = np.asarray(w, dtype=complex)
    if np.any(np.abs(w) >= 1.0):
        raise ValueError("kernel points must lie in the open disk")
    if isinstance(C, JMu):
        return np.ones_like(w), C.mu * np.conj(w)
    p, lam = C.p, C.lam
    weight = np.sqrt(1.0 - abs(p) ** 2) / (1.0 - w * p)
    eta = (np.conj(p) - np.conj(w) * lam) / (1.0 - np.conj(w * p))
    return weight, eta


def basis_image_series(C: JWp, m: LinearFractionalMap, N: int):
    """First N Taylor coefficients of w o phi and h o phi, where C e_i = w h^i.

    So (C e_i) o phi = (w o phi)(h o phi)^i, and at the identity map
    hardy.power_matrix of the two series is the matrix of C.  Here
    w = sqrt(1-|p|^2)/(1 - p z) and h = conj(lam) (conj(p) - z)/(1 - p z),
    that is xi_p and tau_p with conjugated coefficients;
    w o phi = sqrt(1-|p|^2) (c z + d)/(e z + f) with e = c - p a and
    f = d - p b, expanded here directly because its determinant p (ad - bc)
    vanishes as p -> 0 while the series does not.
    """
    a, b, c, d = m.coefficients()
    e, f = c - C.p * a, d - C.p * b
    g = (-e / f) ** np.arange(N) / f          # 1/(e z + f)
    w = d * g
    w[1:] += c * g[:-1]
    w *= np.sqrt(1.0 - abs(C.p) ** 2)
    h = LinearFractionalMap(*np.conj(C.tau().coefficients()))
    return w, hardy.lft_power_series(lft_compose(h, m), N)


def jw_weighted_matrix(C: JWp, N: int) -> np.ndarray:
    """Truncated matrix of W_{xi_p, tau_p}: column j holds coeffs of xi_p tau_p^j.

    Built cumulatively (column j = column j-1 convolved with tau_p), which
    equals the lower-triangular-Toeplitz(xi) times composition(tau) product
    entrywise on the block.
    """
    return hardy.power_matrix(C.xi_series(N), hardy.lft_power_series(C.tau(), N), N)


def parse_conjugation(text: str) -> Conjugation:
    """Parse 'jmu:<complex>' or 'jw:<complex>' specs."""
    from .moebius import parse_complex

    s = text.strip().lower()
    if ":" not in s:
        raise ValueError(f"conjugation spec {text!r} must look like 'jmu:<c>' or 'jw:<c>'")
    kind, _, value = s.partition(":")
    if kind not in FAMILIES:
        raise ValueError(f"unknown conjugation family {kind!r}")
    return FAMILIES[kind](parse_complex(value))
