"""Isometry invariance: a proper orthochronous isometry P -> L P + T of E_1^4
maps each moving frame by L and each sampled point P to L P + T, and keeps
eps, k1, k2, k3 and the closed-form K, H and mu. Here L is a boost in
(x1, x2) times a rotation in (x3, x4); improper and time-reversing L are not
covered yet. The families are every (j, lam) of conftest.ALL_FAMILIES, one
supercritical tube and one null cone (j = 3, lam = 0: points only)."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_FAMILIES, tubular_variant
from canal4 import expr as ex
from canal4.canal import CanalConfig, GridSpec, RadiusProfile, sample_grid
from canal4.curvature import Route, curvature_report
from canal4.curve import CurveSpec

# Tolerances: at least 10x the worst of the 40 seeded draws from the ranges
# below: frames 5.5e-13, k 6.3e-14 relative, points 5.0e-14 of 1 + max |P|, and
# K, H and mu 3.8e-14 relative (the j = 2 families give the worst points, K and
# mu3; the four standard families of one curve per j alone gave K, H 2.3e-14).
FRAME_TOL = 1e-11
K_REL_TOL = 1e-12
POINT_TOL = 1e-12
KH_REL_TOL = 5e-13
S_VALUES = (0.6, 1.0, 1.4)
NODES = ((0.6, 0.3, 0.2), (1.0, -0.4, 0.5), (1.4, 0.1, -0.3))      # (s, t, w)
GRID = GridSpec(S_VALUES, (-0.4, 0.1, 0.3), (-0.3, 0.2, 0.5))
RADIUS = RadiusProfile.from_expr("0.3 + 0.1*s")     # r'^2 < 1: supercritical for j >= 2, lam = +1
STEEP = RadiusProfile.from_expr("0.3 + 1.5*s")      # r'^2 > 1, which (j, lam) = (1, -1) needs
_A_FREE = tuple(ex.parse(a, ("s", "t", "w")) for a in ("w*cos(t)", "w*sin(t)"))
CONFIGS = ([CanalConfig(j, lam, STEEP if (j, lam) == (1, -1) else RADIUS, 1,
                        tubular_variant(j, lam)) for j, lam in ALL_FAMILIES]
           + [CanalConfig(2, 1, RadiusProfile.from_constant(0.7), 1, tubular_variant(2, 1)),
              CanalConfig(3, 0, a_free=_A_FREE)])


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
    """One curve of each frame type j carries every family of that j."""
    L = _isometry(rapidity, angle)
    images = {j: _moved(curve, L, T) for j, curve in family_curves.items()}
    for j, curve in family_curves.items():
        for s in S_VALUES:
            fr, moved = curve.frame(s), images[j].frame(s)
            assert moved.eps == fr.eps
            assert np.abs(np.array(moved.tetrad) - np.array(fr.tetrad) @ np.transpose(L)).max() \
                <= FRAME_TOL
            for a, b in zip((fr.k1, fr.k2, fr.k3), (moved.k1, moved.k2, moved.k3)):
                assert _rel(a, b) <= K_REL_TOL
    for config in CONFIGS:
        curve, image = family_curves[config.j], images[config.j]
        P = sample_grid(curve, config, GRID).coords
        moved = sample_grid(image, config, GRID).coords
        scale = 1.0 + np.abs(P).max()
        assert np.abs(moved - (P @ np.transpose(L) + T)).max() <= POINT_TOL * scale
        if config.lam == 0:
            continue
        for s, t, w in NODES:
            here = curvature_report(curve, config, s, t, w, Route.CLOSED_FORM)
            there = curvature_report(image, config, s, t, w, Route.CLOSED_FORM)
            for a, b in zip((here.K, here.H, *here.mu), (there.K, there.H, *there.mu)):
                assert _rel(a, b) <= KH_REL_TOL
