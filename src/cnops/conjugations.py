"""The two conjugation families on the Hardy space.

J_mu acts by f(z) -> conj(f(mu conj(z))) for unimodular mu: on coefficients it
conjugates entrywise and multiplies entry n by conj(mu)^n, an exact diagonal
antilinear action.

JW_p is plain coefficient conjugation composed with the weighted composition
operator of weight xi_p(z) = sqrt(1-|p|^2)/(1 - conj(p) z) and automorphism
tau_p(z) = lambda (p - z)/(1 - conj(p) z), lambda = conj(p)/p.  It is an
involution exactly because lambda p = conj(p).  Its kernel action below is
closed-form and exact.  Its coefficient action is given by its basis images
C e_i = w h^i with w = conj(xi_p) and h = conj(tau_p), the conjugates taken
coefficientwise.  Composed with a map phi both images are linear fractional,
and basis_images gives their coefficient quadruples, which
hardy.lft_power_series expands: for T = T_psi C_phi, column i of the matrix
of T C holds the coefficients of T (C e_i) = psi (w o phi)(h o phi)^i,
exactly and with no truncated factor, and at the identity map these columns
form the matrix of C (jw_weighted_matrix).  J_mu needs none: it is diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import hardy
from .moebius import LinearFractionalMap

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


def basis_images(C: JWp, m: LinearFractionalMap):
    """Coefficient quadruples (a, b, c, d) of w o phi and h o phi, where
    C e_i = w h^i, so (C e_i) o phi = (w o phi)(h o phi)^i.

    Here w = sqrt(1-|p|^2)/(1 - p z) and h = conj(lam) (conj(p) - z)/(1 - p z),
    xi_p and tau_p with conjugated coefficients.  Both images share the
    denominator e z + f, e = c - p a and f = d - p b:
    w o phi = sqrt(1-|p|^2) (c z + d)/(e z + f) and
    h o phi = conj(lam) ((conj(p) c - a) z + (conj(p) d - b))/(e z + f).
    The determinant p (ad - bc) of w o phi vanishes as p -> 0, so its
    quadruple is kept as it is, not made a map.  For a self-map,
    e z + f = (c z + d)(1 - p phi(z)) has no zero on the closed disk, so
    |e| < |f|.
    """
    a, b, c, d = m.coefficients()
    p, s = C.p, np.sqrt(1.0 - abs(C.p) ** 2)
    e, f = c - p * a, d - p * b
    lb = np.conj(C.lam)
    return ((s * c, s * d, e, f),
            (lb * (np.conj(p) * c - a), lb * (np.conj(p) * d - b), e, f))


def jw_weighted_matrix(C: JWp, N: int) -> np.ndarray:
    """Truncated matrix of W_{xi_p, tau_p}: column j holds the coefficients of
    xi_p tau_p^j, the conjugate of column j of C's matrix, whose columns are
    the basis images w h^j (basis_images at the identity map)."""
    w, h = basis_images(C, LinearFractionalMap(1.0, 0.0, 0.0, 1.0))
    return np.conj(hardy.power_matrix(hardy.lft_power_series(*w, N),
                                      hardy.lft_power_series(*h, N), N))


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
