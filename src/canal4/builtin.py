"""Builtin example curves: a unit-speed timelike curve and a unit-speed
spacelike curve with timelike binormal, both with radius 2s and a default
w = 2 slice for projections."""
from __future__ import annotations

from .curve import CurveSpec
from .errors import UnknownExampleError

EXAMPLE_DOMAIN = (0.25, 3.0)   # keeps r = 2s away from the r = 0 apex
EXAMPLE_RADIUS = "2*s"
EXAMPLE_SLICE_W = 2.0

_CURVES = {
    "beta1": ("2*sinh(s)", "2*cosh(s)", "sqrt(3)*cos(s)", "sqrt(3)*sin(s)"),
    "beta2": ("sqrt(3)*sinh(s)", "sqrt(3)*cosh(s)", "2*cos(s)", "2*sin(s)"),
}

# frame type of each example curve (timelike tangent / timelike binormal)
EXAMPLE_FRAME_TYPE = {"beta1": 1, "beta2": 3}


def example_names() -> tuple[str, ...]:
    return tuple(sorted(_CURVES))


def example_curve(name: str) -> CurveSpec:
    try:
        comps = _CURVES[name]
    except KeyError:
        raise UnknownExampleError(
            f"unknown example {name!r}; available: {', '.join(example_names())}")
    return CurveSpec(comps, EXAMPLE_DOMAIN)


def example_components(name: str) -> tuple[str, str, str, str]:
    if name not in _CURVES:
        raise UnknownExampleError(
            f"unknown example {name!r}; available: {', '.join(example_names())}")
    return _CURVES[name]

