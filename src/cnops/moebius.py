"""Linear fractional self-maps of the unit disk.

A map phi(z) = (a z + b)/(c z + d) is given by its coefficients up to a common
factor, and everything downstream is homogeneous of degree 0 in them.  So the
constructor divides the four, exactly, by the power of two nearest their
largest modulus: a stored map has scale in [2^-1/2, 2^1/2), and no product or
square of coefficients overflows or underflows, whatever the input's scale.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

DET_RTOL = 1e-14          # |ad - bc| <= DET_RTOL * scale^2 means degenerate
SELF_MAP_TOL = 1e-12      # sup |phi| on the closed disk may exceed 1 by this


@dataclass(frozen=True)
class LinearFractionalMap:
    """phi(z) = (a z + b)/(c z + d) with ad - bc != 0, stored divided by the
    power of two nearest max(|a|, |b|, |c|, |d|) when that is finite and not 0."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        coefficients = [complex(getattr(self, name)) for name in "abcd"]
        mantissa, e = math.frexp(max(map(abs, coefficients)))   # mantissa in [0.5, 1)
        e -= mantissa < math.sqrt(0.5)                          # 2^e is the nearest power
        for name, x in zip("abcd", coefficients):
            object.__setattr__(self, name,
                               complex(math.ldexp(x.real, -e), math.ldexp(x.imag, -e)))
        if abs(self.det) <= DET_RTOL * self.scale ** 2:
            raise ValueError(
                f"ad - bc = {self.det:.3e} is numerically zero for {self}")

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    @property
    def scale(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def __str__(self):
        return f"({self.a}*z + {self.b}) / ({self.c}*z + {self.d})"

    def coefficients(self):
        return self.a, self.b, self.c, self.d


def image_disk(m: LinearFractionalMap):
    """(centre, radius) of the disk phi(D), or None when |d| <= |c| puts the pole
    in the closed disk (Cowen & MacCluer, Composition Operators on Spaces of
    Analytic Functions, 1995, ch. 2)."""
    if abs(m.d) <= abs(m.c):
        return None
    gap = abs(m.d) ** 2 - abs(m.c) ** 2
    return complex(m.b * np.conj(m.d) - m.a * np.conj(m.c)) / gap, abs(m.det) / gap


def lft_is_self_map(m: LinearFractionalMap) -> bool:
    """True iff phi(D) lies in the closed disk: |centre| + radius <= 1 + SELF_MAP_TOL."""
    disk = image_disk(m)
    return disk is not None and abs(disk[0]) + disk[1] <= 1.0 + SELF_MAP_TOL


def adjoint_symbol(m: LinearFractionalMap) -> LinearFractionalMap:
    """Cowen's adjoint symbol sigma = (conj(a) z - conj(c)) / (-conj(b) z + conj(d)).

    Cowen's formula C_phi* = T_g C_sigma T_h* completes it with
    g = 1/(-conj(b) z + conj(d)) and h = c z + d.
    """
    a, b, c, d = m.coefficients()
    return LinearFractionalMap(np.conj(a), -np.conj(c), -np.conj(b), np.conj(d))


def sigma_at_zero(m: LinearFractionalMap) -> complex:
    """sigma(0) = -conj(c)/conj(d), the kernel point of the canonical weight."""
    return -np.conj(m.c) / np.conj(m.d)


def lft_compose(m1: LinearFractionalMap, m2: LinearFractionalMap) -> LinearFractionalMap:
    """Coefficient-matrix product: (m1 o m2)(z) = m1(m2(z))."""
    a = m1.a * m2.a + m1.b * m2.c
    b = m1.a * m2.b + m1.b * m2.d
    c = m1.c * m2.a + m1.d * m2.c
    d = m1.c * m2.b + m1.d * m2.d
    return LinearFractionalMap(a, b, c, d)   # constructor rejects degenerate products


def boundary_derivative_sup(m: LinearFractionalMap) -> float:
    """sup over the unit circle of |phi'| = |ad - bc| / |c z + d|^2, which is
    |ad - bc| / (|d| - |c|)^2 (infinite when |d| <= |c|)."""
    gap = abs(m.d) - abs(m.c)
    return abs(m.det) / gap ** 2 if gap > 0 else float("inf")


_COMPLEX_RE = re.compile(
    r"""^\s*(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?
         \s*(?P<im>[+-]\s*(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?
         \s*(?P<i>i)?\s*$""",
    re.VERBOSE,
)


def parse_complex(text: str) -> complex:
    """Parse 're', 're+imi', 're-imi' or a pure imaginary 'imi' literal.

    Examples: "0.5", "-1", "0.25+0i", "0.5-0.3i", "1i".
    """
    s = text.strip()
    if not s:
        raise ValueError("empty complex literal")
    m = _COMPLEX_RE.match(s)
    if m and m.group("i"):
        re_part = m.group("re")
        im_part = m.group("im")
        if im_part is not None:
            return complex(float(re_part or 0.0), float(im_part.replace(" ", "")))
        # pure imaginary: the 're' group actually holds the imaginary magnitude
        return complex(0.0, float(re_part if re_part is not None else 1.0))
    if m and m.group("re") is not None and m.group("im") is None:
        return complex(float(m.group("re")), 0.0)
    raise ValueError(f"cannot parse complex literal {text!r}")


def parse_map(text: str) -> LinearFractionalMap:
    """Parse 'a,b,c,d' with complex-literal entries into a raw map."""
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected 4 comma-separated coefficients, got {len(parts)}")
    a, b, c, d = (parse_complex(p) for p in parts)
    return LinearFractionalMap(a, b, c, d)
