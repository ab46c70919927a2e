"""The conjugations J_mu and JW_p on the Hardy space, as one family of reflections.

JW_p is plain coefficient conjugation composed with the weighted composition
operator of weight xi_p(z) = sqrt(1-|p|^2)/(1 - conj(p) z) and automorphism
tau_p(z) = lambda (p - z)/(1 - conj(p) z), lambda = conj(p)/p, an involution
exactly because lambda p = conj(p).  On kernels it acts through the
reflection eta(w) = (conj(p) - lam conj(w))/(1 - conj(p w)) of the disk.
J_mu, f(z) -> conj(f(mu conj(z))) for unimodular mu, is the member p = 0,
lam = -mu, so every function below reads a conjugation only through (p, lam).

The kernel action (conj_apply_kernel) is closed-form and exact.  The
coefficient action is given by the basis images C e_i = w h^i, w = conj(xi_p)
and h = conj(tau_p) with the conjugates taken coefficientwise (w = 1 and
h = conj(mu) z for J_mu).  Composed with a map phi both are linear
fractional, and hardy.lft_power_series expands their coefficient quadruples
(basis_images): for T = T_psi C_phi, column i of the matrix of T C holds the
coefficients of T (C e_i) = psi (w o phi)(h o phi)^i, exactly and with no
truncated factor, and at the identity map these columns form the matrix of
C (jw_weighted_matrix).
"""

from __future__ import annotations

import math
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
    p = 0j                  # J_mu is JW_p's member p = 0 (module docstring)

    def __post_init__(self):
        object.__setattr__(self, "mu", complex(self.mu))
        if not abs(abs(self.mu) - 1.0) <= UNIMODULAR_TOL:   # NaN fails too
            raise ValueError(f"|mu| must be 1, got |mu| = {abs(self.mu)}")

    @property
    def lam(self) -> complex:
        """JW_p's lambda at p = 0: the reflection mu conj(w) is -lam conj(w)."""
        return -self.mu


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
    """Image of the reproducing kernel K_w as (weight, point): C K_w = weight K_point,
    weight = sqrt(1-|p|^2)/(1 - w p) and point = (conj(p) - lam conj(w))/(1 - conj(w p)),
    which are 1 and mu conj(w) for J_mu (p = 0, lam = -mu).
    Elementwise over an array of w; raises ValueError if any |w| >= 1.
    """
    w = np.asarray(w, dtype=complex)
    if np.any(np.abs(w) >= 1.0):
        raise ValueError("kernel points must lie in the open disk")
    p, lam = C.p, C.lam
    weight = np.sqrt(1.0 - abs(p) ** 2) / (1.0 - w * p)
    eta = (np.conj(p) - lam * np.conj(w)) / (1.0 - np.conj(w * p))
    return weight, eta


def basis_images(C: Conjugation, m: LinearFractionalMap):
    """(w o phi, g o phi, nu): the coefficient quadruples (a, b, c, d) of
    w o phi and g o phi, and the unimodular nu = -conj(lam), where C e_i = w h^i
    with h = nu g, so (C e_i) o phi = nu^i (w o phi)(g o phi)^i.

    Here w = sqrt(1-|p|^2)/(1 - p z) and g = (z - conj(p))/(1 - p z).  Both
    images share the denominator e z + f, e = c - p a and f = d - p b:
    w o phi = sqrt(1-|p|^2) (c z + d)/(e z + f) and
    g o phi = ((a - conj(p) c) z + (b - conj(p) d))/(e z + f), which at p = 0
    (J_mu) are the constant (c, d, c, d) and phi's own quadruple.  The
    determinant p (ad - bc) of w o phi vanishes as p -> 0, so its quadruple
    is kept as it is, not made a map.  For a self-map,
    e z + f = (c z + d)(1 - p phi(z)) has no zero on the closed disk, so
    |e| < |f|.
    """
    a, b, c, d = m.coefficients()
    # Python scalars, so that at p = 0 g o phi expands bit for bit as phi,
    # and psi (w o phi) as psi (lft_power_series divides Python complexes)
    p, s = C.p, math.sqrt(1.0 - abs(C.p) ** 2)
    e, f, q = c - p * a, d - p * b, p.conjugate()
    return (s * c, s * d, e, f), (a - q * c, b - q * d, e, f), -np.conj(C.lam)


def jw_weighted_matrix(C: Conjugation, N: int) -> np.ndarray:
    """Truncated matrix of W_{xi_p, tau_p}: column j holds the coefficients of
    xi_p tau_p^j, the conjugate of column j of C's matrix, whose columns are
    the basis images w h^j (basis_images at the identity map, with nu
    folded into g's numerator).  For J_mu it is diag(mu^j)."""
    w, g, nu = basis_images(C, LinearFractionalMap(1.0, 0.0, 0.0, 1.0))
    h = hardy.lft_power_series(nu * g[0], nu * g[1], *g[2:], N)
    return np.conj(hardy.power_matrix(hardy.lft_power_series(*w, N), h, N))


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
