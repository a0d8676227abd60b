"""Linear algebra of Lorentz-Minkowski 4-space with signature (-,+,+,+).

The inner product is <x,y> = -x1*y1 + x2*y2 + x3*y3 + x4*y4 and the ternary
cross product is the formal determinant with first row (-e1, e2, e3, e4),
so that <cross(x,y,z), v> = det(v; x; y; z).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import NullVectorError

# Absolute tolerance for causal classification of numerically computed vectors.
TAU_NULL = 1e-10


class CausalCharacter(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    NULL = "null"


@dataclass(frozen=True)
class Vec4:
    """A point/vector of E_1^4. Components must be finite."""

    x1: float
    x2: float
    x3: float
    x4: float

    def __post_init__(self):
        for c in (self.x1, self.x2, self.x3, self.x4):
            if not math.isfinite(c):
                raise ValueError(f"non-finite component in Vec4: {c!r}")

    def __add__(self, other: "Vec4") -> "Vec4":
        return Vec4(self.x1 + other.x1, self.x2 + other.x2,
                    self.x3 + other.x3, self.x4 + other.x4)

    def __sub__(self, other: "Vec4") -> "Vec4":
        return Vec4(self.x1 - other.x1, self.x2 - other.x2,
                    self.x3 - other.x3, self.x4 - other.x4)

    def __mul__(self, a: float) -> "Vec4":
        return Vec4(self.x1 * a, self.x2 * a, self.x3 * a, self.x4 * a)

    __rmul__ = __mul__

    def __neg__(self) -> "Vec4":
        return Vec4(-self.x1, -self.x2, -self.x3, -self.x4)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.x2, self.x3, self.x4)


E1 = Vec4(1.0, 0.0, 0.0, 0.0)
E2 = Vec4(0.0, 1.0, 0.0, 0.0)
E3 = Vec4(0.0, 0.0, 1.0, 0.0)
E4 = Vec4(0.0, 0.0, 0.0, 1.0)


def inner(x: Vec4, y: Vec4) -> float:
    """Minkowski inner product, signature (-,+,+,+)."""
    return -x.x1 * y.x1 + x.x2 * y.x2 + x.x3 * y.x3 + x.x4 * y.x4


def triple_cross(x: Vec4, y: Vec4, z: Vec4) -> Vec4:
    """Ternary cross product; orthogonal to x, y, z and alternating."""
    # 2x2 minors of the lower two rows (y, z), indexed by column pair
    m12 = y.x1 * z.x2 - y.x2 * z.x1
    m13 = y.x1 * z.x3 - y.x3 * z.x1
    m14 = y.x1 * z.x4 - y.x4 * z.x1
    m23 = y.x2 * z.x3 - y.x3 * z.x2
    m24 = y.x2 * z.x4 - y.x4 * z.x2
    m34 = y.x3 * z.x4 - y.x4 * z.x3
    # cofactor expansion along the row x
    c1 = x.x2 * m34 - x.x3 * m24 + x.x4 * m23
    c2 = x.x1 * m34 - x.x3 * m14 + x.x4 * m13
    c3 = x.x1 * m24 - x.x2 * m14 + x.x4 * m12
    c4 = x.x1 * m23 - x.x2 * m13 + x.x3 * m12
    return Vec4(-c1, -c2, c3, -c4)


def causal_character(x: Vec4, tau: float = TAU_NULL) -> CausalCharacter:
    """Classify by the sign of <x,x>; the zero vector is spacelike."""
    if x.x1 == 0.0 and x.x2 == 0.0 and x.x3 == 0.0 and x.x4 == 0.0:
        return CausalCharacter.SPACELIKE
    q = inner(x, x)
    if q < -tau:
        return CausalCharacter.TIMELIKE
    if q > tau:
        return CausalCharacter.SPACELIKE
    return CausalCharacter.NULL


def norm(x: Vec4) -> float:
    """sqrt(|<x,x>|) >= 0."""
    return math.sqrt(abs(inner(x, x)))


def normalize(x: Vec4, tau: float = TAU_NULL) -> Vec4:
    """x scaled so |<result,result>| = 1. Raises NullVectorError on null x."""
    q = inner(x, x)
    if abs(q) <= tau:
        raise NullVectorError(f"cannot normalize a null vector (<x,x> = {q:g})")
    return x * (1.0 / math.sqrt(abs(q)))
