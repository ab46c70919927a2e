"""The paper's quadruple form of the weighted kernel identity.

For W = T_{beta K_{sigma(0)}} C_phi each side of C W W* K_w(z) = W* W C K_w(z)
is a numerator over (A w + B) z + C w + D, so the sides agree identically iff
the two quadruples coincide; their differences are the defects of the weighted
predicates.  cnops evaluates the sides from W's kernel actions instead
(cnormal._sides); the tests hold both routes, and the predicates, to
this form.
"""

from dataclasses import dataclass

import numpy as np

from cnops.conjugations import JMu


@dataclass(frozen=True)
class QuadrupleSet:
    """Denominator coefficients of both sides in a weighted case: side i is a
    numerator over (Ai w + Bi) z + Ci w + Di, so the sides agree identically
    iff the quadruples coincide."""

    A1: complex
    B1: complex
    C1: complex
    D1: complex
    A2: complex
    B2: complex
    C2: complex
    D2: complex

    def differences(self):
        return (self.A1 - self.A2, self.B1 - self.B2,
                self.C1 - self.C2, self.D1 - self.D2)

    def max_difference(self) -> float:
        return max(abs(x) for x in self.differences())

    def denominators(self, w, z):
        """The two side denominators at (w, z), elementwise."""
        return ((self.A1 * w + self.B1) * z + self.C1 * w + self.D1,
                (self.A2 * w + self.B2) * z + self.C2 * w + self.D2)


def weighted_jmu_quadruples(m, mu: complex) -> QuadrupleSet:
    """The eight denominator coefficients against J_mu.

    Side 1 is J_mu W W* K_w, side 2 is W* W J_mu K_w; both equal
    |beta|^2 |d|^2 / ((A w + B) z + C w + D).  The differences are
    ((|c|^2-|b|^2) mubar, L, conj(L) mubar, |c|^2-|b|^2) with L the linear
    defect of predicate_weighted_jmu.
    """
    a, b, c, d = m.coefficients()
    mb = np.conj(complex(mu))
    return QuadrupleSet(
        A1=(abs(c) ** 2 - abs(a) ** 2) * mb,
        B1=(np.conj(c) * d - np.conj(a) * b) * mb,
        C1=c * np.conj(d) - a * np.conj(b),
        D1=abs(d) ** 2 - abs(b) ** 2,
        A2=-(abs(a) ** 2 - abs(b) ** 2) * mb,
        B2=np.conj(a) * c - np.conj(b) * d,
        C2=(a * np.conj(c) - b * np.conj(d)) * mb,
        D2=abs(d) ** 2 - abs(c) ** 2,
    )


def weighted_jw_quadruples(m, p: complex) -> QuadrupleSet:
    """The eight denominator coefficients against JW_p, with lam = conj(p)/p.

    Side 1 is J W W* k_w, side 2 is W* W (JW) k_w; both equal
    |beta|^2 |d|^2 sqrt(1-|p|^2) / ((A w + B) z + C w + D).
    """
    a, b, c, d = m.coefficients()
    p = complex(p)
    lb = p / np.conj(p)   # conj(lam) for lam = conj(p)/p
    return QuadrupleSet(
        A1=(a * np.conj(b) - c * np.conj(d)) * p + (abs(a) ** 2 - abs(c) ** 2) * lb,
        B1=(abs(b) ** 2 - abs(d) ** 2) * p + (np.conj(a) * b - d * np.conj(c)) * lb,
        C1=c * np.conj(d) - a * np.conj(b) + (abs(c) ** 2 - abs(a) ** 2) * p,
        D1=abs(d) ** 2 - abs(b) ** 2 + (d * np.conj(c) - np.conj(a) * b) * p,
        A2=(-np.conj(a) * c + np.conj(b) * d) * p + (abs(a) ** 2 - abs(b) ** 2) * lb,
        B2=np.conj(a) * c - np.conj(b) * d - p * (abs(a) ** 2 - abs(b) ** 2),
        C2=-(abs(d) ** 2 - abs(c) ** 2) * p + (b * np.conj(d) - a * np.conj(c)) * lb,
        D2=abs(d) ** 2 - abs(c) ** 2 - p * (b * np.conj(d) - a * np.conj(c)),
    )


def quadruple_sides(m, beta: complex, C, w, z):
    """Both weighted sides as num / D from the quadruples."""
    num = abs(beta) ** 2 * abs(m.d) ** 2
    if isinstance(C, JMu):
        D1, D2 = weighted_jmu_quadruples(m, C.mu).denominators(w, z)
    else:
        num *= np.sqrt(1.0 - abs(C.p) ** 2)
        D1, D2 = weighted_jw_quadruples(m, C.p).denominators(w, z)
    return num / D1, num / D2
