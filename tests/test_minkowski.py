"""Inner product, ternary cross product, norm."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canal4.minkowski import Vec4, inner, norm, triple_cross

coord = st.floats(min_value=-10, max_value=10, allow_nan=False)
vec = st.tuples(coord, coord, coord, coord)
E1, E2, E3, E4 = (tuple(float(i == k) for i in range(4)) for k in range(4))


def test_signature():
    assert inner(E1, E1) == -1.0
    assert inner(E2, E2) == 1.0
    assert inner(E1, E2) == 0.0


def test_inner_timelike_tangent():
    # derivative of the timelike example curve at s = 0
    v = (2.0, 0.0, 0.0, math.sqrt(3.0))
    assert inner(v, v) == pytest.approx(-1.0, abs=1e-15)


def test_inner_null_vector():
    v = (1.0, 1.0, 0.0, 0.0)
    assert inner(v, v) == 0.0


def test_cross_basis():
    assert triple_cross(E2, E3, E4) == (-1.0, 0.0, 0.0, 0.0)
    assert triple_cross(E1, E2, E3) == (0.0, 0.0, 0.0, -1.0)


def test_cross_repeated_argument_vanishes():
    x = (1.0, 2.0, -0.5, 3.0)
    z = (0.3, -1.0, 2.0, 0.7)
    for c in triple_cross(x, x, z):
        assert abs(c) <= 1e-14
    for c in triple_cross(x, z, z):
        assert abs(c) <= 1e-14


def test_norms():
    assert norm((0.0, 3.0, 4.0, 0.0)) == 5.0
    assert norm((2.0, 0.0, 0.0, math.sqrt(3.0))) == pytest.approx(1.0, abs=1e-15)


def test_vec4_rejects_nonfinite():
    with pytest.raises(ValueError):
        Vec4(math.nan, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Vec4(0.0, math.inf, 0.0, 0.0)


def _scale(x, y, z):
    return max(1.0, *(abs(c) for v in (x, y, z) for c in v)) ** 3


@settings(max_examples=150)
@given(vec, vec, vec)
def test_cross_orthogonality(x, y, z):
    c = triple_cross(x, y, z)
    s = _scale(x, y, z)
    for v in (x, y, z):
        assert abs(inner(c, v)) <= 1e-12 * s * 10


@settings(max_examples=100)
@given(vec, vec, vec)
def test_cross_antisymmetry(x, y, z):
    c = triple_cross(x, y, z)
    for flipped in (triple_cross(y, x, z), triple_cross(x, z, y), triple_cross(z, y, x)):
        for a, b in zip(c, flipped):
            assert a == pytest.approx(-b, abs=1e-9 * _scale(x, y, z))


@settings(max_examples=100)
@given(vec, vec, vec)
def test_array_rows_equal_tuples(x, y, z):
    """Over the last axis of (..., 4) arrays, inner and triple_cross give each
    row the bits of the 4-tuple call."""
    rows = np.array([[x, y, z], [z, x, y]])
    cross = triple_cross(rows[..., 0, :], rows[..., 1, :], rows[..., 2, :])
    products = inner(rows[..., 0, :], rows[..., 2, :])
    for n, (a, b, c) in enumerate(rows.tolist()):
        assert repr(tuple(cross[n].tolist())) == repr(triple_cross(tuple(a), tuple(b), tuple(c)))
        assert repr(float(products[n])) == repr(inner(tuple(a), tuple(c)))


@settings(max_examples=100)
@given(vec, vec, vec, st.floats(-5, 5), st.floats(-5, 5))
def test_inner_bilinearity(x, y, z, a, b):
    lhs = inner(tuple(a * p + b * q for p, q in zip(x, y)), z)
    rhs = a * inner(x, z) + b * inner(y, z)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-12 * scale
