"""The two conjugation families on the Hardy space.

J_mu acts by f(z) -> conj(f(mu conj(z))) for unimodular mu: on coefficients it
conjugates entrywise and multiplies entry n by conj(mu)^n, an exact diagonal
antilinear action.

JW_p is plain coefficient conjugation composed with the weighted composition
operator of weight xi_p(z) = sqrt(1-|p|^2)/(1 - conj(p) z) and automorphism
tau_p(z) = lambda (p - z)/(1 - conj(p) z), lambda = conj(p)/p.  It is an
involution exactly because lambda p = conj(p).  Its series action goes through
the truncated operator matrix, so it carries truncation error; the kernel
action below is closed-form and exact.

An optional unimodular phase beta multiplies either action (the classification
of conjugations of the form u(z) * conj(f(conj(v(z)))) allows it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import hardy
from .hardy import KernelCombo
from .moebius import LinearFractionalMap

UNIMODULAR_TOL = 1e-14


def _check_unimodular(value: complex, name: str):
    if abs(abs(value) - 1.0) > UNIMODULAR_TOL:
        raise ValueError(f"|{name}| must be 1, got |{name}| = {abs(value)}")


@dataclass(frozen=True)
class JMu:
    """Conjugation f(z) -> beta * conj(f(mu conj(z))), |mu| = |beta| = 1."""

    mu: complex
    beta: complex = 1.0 + 0.0j

    def __post_init__(self):
        object.__setattr__(self, "mu", complex(self.mu))
        object.__setattr__(self, "beta", complex(self.beta))
        _check_unimodular(self.mu, "mu")
        _check_unimodular(self.beta, "beta")


@dataclass(frozen=True)
class JWp:
    """Conjugation J W_{xi_p, tau_p} (times a phase beta), 0 < |p| < 1."""

    p: complex
    beta: complex = 1.0 + 0.0j

    def __post_init__(self):
        object.__setattr__(self, "p", complex(self.p))
        object.__setattr__(self, "beta", complex(self.beta))
        if not 0.0 < abs(self.p) < 1.0:
            raise ValueError(f"p must lie in the punctured open disk, got {self.p}")
        _check_unimodular(self.beta, "beta")

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


@dataclass(frozen=True)
class AuvParams:
    """Parameters of a conjugation candidate u(z) * conj(f(conj(v(z)))).

    family "i":  u = beta,                        v(z) = mu z
    family "ii": u = beta sqrt(1-|p|^2)/(1-p z),  v(z) = (p/conj(p)) (conj(p)-z)/(1-p z)
    """

    family: str
    beta: complex = 1.0 + 0.0j
    mu: complex = field(default=None)
    p: complex = field(default=None)

    def __post_init__(self):
        if self.family not in ("i", "ii"):
            raise ValueError(f"family must be 'i' or 'ii', got {self.family!r}")


def build_conjugation(params: AuvParams) -> Conjugation:
    """Classify the A_{u,v} parameters into a JMu or JWp spec.

    Family (i) passes (beta, mu) straight through.  Family (ii) realizes
    JWp with the same p and beta: both act on K_w as
    u(z) / (1 - w v(z)) (see conj_apply_kernel).
    """
    if params.family == "i":
        if params.mu is None:
            raise ValueError("family (i) requires mu")
        return JMu(mu=params.mu, beta=params.beta)
    if params.p is None:
        raise ValueError("family (ii) requires p")
    return JWp(p=params.p, beta=params.beta)


def conj_apply_kernel(C: Conjugation, w) -> KernelCombo:
    """Image of the reproducing kernel K_w as a single weighted kernel.

    JMu:  C K_w = beta K_{mu conj(w)}.
    JWp:  C K_w = beta sqrt(1-|p|^2)/(1 - w p) * K_eta with
          eta = (conj(p) - conj(w) lam) / (1 - conj(w p)).
    """
    w = complex(w)
    if abs(w) >= 1.0:
        raise ValueError("kernel point must lie in the open disk")
    if isinstance(C, JMu):
        return KernelCombo(((C.beta, C.mu * np.conj(w)),))
    p, lam = C.p, C.lam
    weight = C.beta * np.sqrt(1.0 - abs(p) ** 2) / (1.0 - w * p)
    eta = (np.conj(p) - np.conj(w) * lam) / (1.0 - np.conj(w * p))
    return KernelCombo(((weight, eta),))


def jw_weighted_matrix(C: JWp, N: int) -> np.ndarray:
    """Truncated matrix of W_{xi_p, tau_p}: column j holds coeffs of xi_p tau_p^j.

    Built cumulatively (column j = column j-1 convolved with tau_p), which
    equals the lower-triangular-Toeplitz(xi) times composition(tau) product
    entrywise on the block.
    """
    return hardy.power_matrix(C.xi_series(N), hardy.lft_power_series(C.tau(), N), N)


def conj_apply_series(C: Conjugation, f: np.ndarray, N: int) -> np.ndarray:
    """Coefficients of C f from the leading N coefficients of f.

    JMu is exact: entry n becomes beta conj(f_n) conj(mu)^n.  JWp applies the
    truncated W matrix and then conjugates, so entries near the tail carry
    truncation error (geometrically small on the leading block for inputs
    with decaying coefficients).
    """
    f = np.asarray(f, dtype=complex)[:N]
    if len(f) < N:
        f = np.pad(f, (0, N - len(f)))
    if isinstance(C, JMu):
        return C.beta * np.conj(f) * np.conj(C.mu) ** np.arange(N)
    return C.beta * np.conj(jw_weighted_matrix(C, N) @ f)


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


def parse_conjugation(text: str) -> Conjugation:
    """Parse 'jmu:<complex>' or 'jw:<complex>' specs."""
    from .moebius import parse_complex

    s = text.strip().lower()
    if ":" not in s:
        raise ValueError(f"conjugation spec {text!r} must look like 'jmu:<c>' or 'jw:<c>'")
    kind, _, value = s.partition(":")
    if kind == "jmu":
        return JMu(mu=parse_complex(value))
    if kind == "jw":
        return JWp(p=parse_complex(value))
    raise ValueError(f"unknown conjugation family {kind!r}")
