"""Linear algebra of Lorentz-Minkowski 4-space with signature (-,+,+,+).

The inner product is <x,y> = -x1*y1 + x2*y2 + x3*y3 + x4*y4 and the ternary
cross product is the formal determinant with first row (-e1, e2, e3, e4),
so that <cross(x,y,z), v> = det(v; x; y; z).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerance on |<x,x>| below which a numerically computed vector counts as null.
TAU_NULL = 1e-10


@dataclass(frozen=True)
class Vec4:
    """A point/vector of E_1^4 as the public API hands it out (canal_point,
    SurfacePatch.points, FrenetFrame.vectors); the computations themselves run
    on 4-tuples of floats and (..., 4) arrays. Components must be finite."""

    x1: float
    x2: float
    x3: float
    x4: float

    def __post_init__(self):
        for c in (self.x1, self.x2, self.x3, self.x4):
            if not math.isfinite(c):
                raise ValueError(f"non-finite component in Vec4: {c!r}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.x2, self.x3, self.x4)


def inner(x, y):
    """Minkowski inner product, signature (-,+,+,+), of two 4-tuples of floats,
    or over the last axis of (..., 4) arrays (elementwise, in the same order)."""
    if isinstance(x, tuple):
        return -x[0] * y[0] + x[1] * y[1] + x[2] * y[2] + x[3] * y[3]
    return (-x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]
            + x[..., 3] * y[..., 3])


def triple_cross(x, y, z):
    """Ternary cross product; orthogonal to x, y, z and alternating. Of three
    4-tuples of floats, or over the last axis of (..., 4) arrays (elementwise)."""
    tup = isinstance(x, tuple)
    (x1, x2, x3, x4), (y1, y2, y3, y4), (z1, z2, z3, z4) = (
        v if tup else (v[..., 0], v[..., 1], v[..., 2], v[..., 3]) for v in (x, y, z))
    # 2x2 minors of the lower two rows (y, z), indexed by column pair
    m12 = y1 * z2 - y2 * z1
    m13 = y1 * z3 - y3 * z1
    m14 = y1 * z4 - y4 * z1
    m23 = y2 * z3 - y3 * z2
    m24 = y2 * z4 - y4 * z2
    m34 = y3 * z4 - y4 * z3
    # cofactor expansion along the row x
    c1 = x2 * m34 - x3 * m24 + x4 * m23
    c2 = x1 * m34 - x3 * m14 + x4 * m13
    c3 = x1 * m24 - x2 * m14 + x4 * m12
    c4 = x1 * m23 - x2 * m13 + x3 * m12
    out = (-c1, -c2, c3, -c4)
    return out if tup else np.stack(out, axis=-1)


def norm(x) -> float:
    """sqrt(|<x,x>|) >= 0."""
    return math.sqrt(abs(inner(x, x)))
