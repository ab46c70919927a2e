"""Linear fractional self-maps of the unit disk.

A map phi(z) = (a z + b)/(c z + d) is stored un-normalized; two coefficient
quadruples describe the same map iff they are proportional.  Every predicate
downstream is invariant under that rescaling, so no normalization is imposed
here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMapError, PoleError

DET_RTOL = 1e-14          # |ad - bc| <= DET_RTOL * scale^2 means degenerate
SELF_MAP_TOL = 1e-12      # sup |phi| on the closed disk may exceed 1 by this
BOUNDARY_FP_TOL = 1e-10   # ||z| - 1| below this classifies a fixed point as boundary


@dataclass(frozen=True)
class LinearFractionalMap:
    """phi(z) = (a z + b)/(c z + d) with ad - bc != 0."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, complex(getattr(self, name)))
        if abs(self.det) <= DET_RTOL * self.scale ** 2:
            raise DegenerateMapError(
                f"ad - bc = {self.det:.3e} is numerically zero for {self}")

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    @property
    def scale(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def __call__(self, z):
        return lft_eval(self, z)

    def __str__(self):
        return f"({self.a}*z + {self.b}) / ({self.c}*z + {self.d})"

    def rescaled(self, t: complex) -> "LinearFractionalMap":
        t = complex(t)
        return LinearFractionalMap(t * self.a, t * self.b, t * self.c, t * self.d)

    def inverse(self) -> "LinearFractionalMap":
        return LinearFractionalMap(self.d, -self.b, -self.c, self.a)

    def coefficients(self):
        return self.a, self.b, self.c, self.d


@dataclass(frozen=True)
class CowenTriple:
    """Adjoint triple for C_phi* = T_g C_sigma T_h*.

    sigma(z) = (conj(a) z - conj(c)) / (-conj(b) z + conj(d)),
    g(z) = 1 / (g_den1 z + g_den0)  with  g_den1 = -conj(b), g_den0 = conj(d),
    h(z) = h1 z + h0               with  h1 = c, h0 = d.
    """

    sigma: LinearFractionalMap
    g_den0: complex
    g_den1: complex
    h0: complex
    h1: complex

    def g(self, z):
        return 1.0 / (self.g_den1 * z + self.g_den0)

    def h(self, z):
        return self.h1 * z + self.h0


def lft_eval(m: LinearFractionalMap, z):
    """Evaluate phi(z); raises PoleError when c z + d vanishes numerically.

    Accepts scalars or numpy arrays of points.
    """
    z = np.asarray(z, dtype=complex)
    den = m.c * z + m.d
    if np.any(np.abs(den) <= 1e-14 * m.scale * np.maximum(1.0, np.abs(z))):
        raise PoleError(f"evaluation at a pole of {m}")
    out = (m.a * z + m.b) / den
    return out if out.ndim else complex(out)


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


@dataclass(frozen=True)
class FixedPointResult:
    points: tuple
    kinds: tuple          # "interior" | "boundary" | "exterior", aligned with points
    is_identity: bool = False


def _classify(z: complex) -> str:
    r = abs(z)
    if abs(r - 1.0) <= BOUNDARY_FP_TOL:
        return "boundary"
    return "interior" if r < 1.0 else "exterior"


def lft_fixed_points(m: LinearFractionalMap) -> FixedPointResult:
    """Roots of c z^2 + (d - a) z - b = 0, classified by modulus.

    The identity map fixes everything and is reported through the
    ``is_identity`` flag with an empty root list; c = 0, a = d, b != 0 has no
    fixed point in the plane.
    """
    a, b, c, d = m.coefficients()
    s = m.scale
    tol = 1e-14 * s
    if abs(b) <= tol and abs(c) <= tol and abs(d - a) <= tol:
        return FixedPointResult((), (), is_identity=True)
    if abs(c) <= tol:
        if abs(d - a) <= tol:
            return FixedPointResult((), ())
        z0 = b / (d - a)
        return FixedPointResult((z0,), (_classify(z0),))
    beta = d - a
    disc_sq = beta * beta + 4.0 * c * b
    if abs(disc_sq) <= 1e-13 * s * s:
        # numerically double root; the formula root -beta/(2c) is exact while
        # the split pair would be sqrt(eps) off
        roots = [-beta / (2.0 * c)]
    else:
        # stable quadratic: take the root avoiding cancellation, recover the
        # other from the product -b/c (or the sum when b = 0)
        disc = np.sqrt(complex(disc_sq))
        if abs(-beta + disc) >= abs(-beta - disc):
            r1 = (-beta + disc) / (2.0 * c)
        else:
            r1 = (-beta - disc) / (2.0 * c)
        if abs(b) > tol and abs(r1) > 0:
            roots = [r1, (-b / c) / r1]
        else:
            roots = [r1, (a - d) / c - r1]
    pts = tuple(complex(r) for r in roots)
    return FixedPointResult(pts, tuple(_classify(r) for r in pts))


def has_boundary_fixed_point(m: LinearFractionalMap) -> bool:
    fp = lft_fixed_points(m)
    return fp.is_identity or any(k == "boundary" for k in fp.kinds)


def cowen_triple(m: LinearFractionalMap) -> CowenTriple:
    """sigma = (conj(a) z - conj(c)) / (-conj(b) z + conj(d)), g = 1/(-conj(b) z + conj(d)), h = c z + d."""
    a, b, c, d = m.coefficients()
    sigma = LinearFractionalMap(np.conj(a), -np.conj(c), -np.conj(b), np.conj(d))
    return CowenTriple(sigma=sigma, g_den0=np.conj(d), g_den1=-np.conj(b), h0=d, h1=c)


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


def proportional(m1: LinearFractionalMap, m2: LinearFractionalMap) -> bool:
    """Projective equality of coefficient quadruples, to a relative 1e-12."""
    v1 = np.array(m1.coefficients())
    v2 = np.array(m2.coefficients())
    k = int(np.argmax(np.abs(v2)))
    t = v1[k] / v2[k]
    return bool(np.abs(v1 - t * v2).max() <= 1e-12 * max(np.abs(v1).max(), abs(t) * np.abs(v2).max()))


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
