"""Isometry invariance: a proper orthochronous isometry P -> L P + T of E_1^4
maps each moving frame by L and keeps eps, k1, k2, k3 and the closed-form K
and H. Here L is a boost in (x1, x2) times a rotation in (x3, x4); improper
and time-reversing L are not covered yet."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from canal4.canal import CanalConfig, RadiusProfile
from canal4.curvature import Route, curvature_report
from canal4.curve import CurveSpec

# Tolerances: at least 10x the worst of 60 seeded draws from the ranges below
# (frames 8.3e-13, k 6.9e-14 and K, H 2.3e-14 relative).
FRAME_TOL = 1e-11
K_REL_TOL = 1e-12
KH_REL_TOL = 3e-13
S_VALUES = (0.6, 1.0, 1.4)
NODES = ((0.6, 0.3, 0.2), (1.0, -0.4, 0.5), (1.4, 0.1, -0.3))      # (s, t, w)
RADIUS = RadiusProfile.from_expr("0.3 + 0.1*s")


def _isometry(rapidity, angle):
    """L: a boost of the rapidity in (x1, x2), a rotation by the angle in (x3, x4)."""
    ch, sh, c, sn = math.cosh(rapidity), math.sinh(rapidity), math.cos(angle), math.sin(angle)
    return ((ch, sh, 0.0, 0.0), (sh, ch, 0.0, 0.0), (0.0, 0.0, c, -sn), (0.0, 0.0, sn, c))


def _moved(curve, L, T):
    """The curve L b + T, written as component text."""
    x = [f"({c})" for c in curve.components]
    return CurveSpec([" + ".join(f"({L[i][k]!r})*{x[k]}" for k in range(4) if L[i][k])
                      + f" + ({T[i]!r})" for i in range(4)], curve.domain)


def _rel(a, b):
    return abs(a - b) / abs(a)


@settings(max_examples=40, deadline=None)
@given(rapidity=st.floats(-0.5, 0.5), angle=st.floats(-3.0, 3.0),
       T=st.tuples(*[st.floats(-2.0, 2.0)] * 4))
def test_frames_and_curvatures_are_isometry_invariant(family_curves, rapidity, angle, T):
    """One curve of each frame type, with lam = +1 for j = 1 and -1 otherwise
    and r = 0.3 + 0.1 s (the standard variant of each)."""
    L = _isometry(rapidity, angle)
    for j, curve in family_curves.items():
        image = _moved(curve, L, T)
        for s in S_VALUES:
            fr, moved = curve.frame(s), image.frame(s)
            assert moved.eps == fr.eps
            assert np.abs(np.array(moved.tetrad) - np.array(fr.tetrad) @ np.transpose(L)).max() \
                <= FRAME_TOL
            for a, b in zip((fr.k1, fr.k2, fr.k3), (moved.k1, moved.k2, moved.k3)):
                assert _rel(a, b) <= K_REL_TOL
        config = CanalConfig(j, 1 if j == 1 else -1, RADIUS)
        for s, t, w in NODES:
            here = curvature_report(curve, config, s, t, w, Route.CLOSED_FORM)
            there = curvature_report(image, config, s, t, w, Route.CLOSED_FORM)
            assert _rel(here.K, there.K) <= KH_REL_TOL and _rel(here.H, there.H) <= KH_REL_TOL
