"""Shared fixtures: example curves for every frame type and sweep helpers."""
import math
import random

import numpy as np
import pytest
from hypothesis import settings

from canal4.canal import CanalConfig, RadiusProfile, Variant
from canal4.curvature import gauss_mean_principal
from canal4.curve import CurveSpec, FrenetFrame
from canal4.minkowski import Vec4

# every property test draws the same examples on every run
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def beta1():
    """Unit-speed timelike curve (frame type 1), constant curvatures."""
    return CurveSpec(("2*sinh(s)", "2*cosh(s)", "sqrt(3)*cos(s)", "sqrt(3)*sin(s)"),
                     (0.25, 3.0))


@pytest.fixture(scope="session")
def beta2():
    """Unit-speed spacelike curve with timelike binormal (frame type 3)."""
    return CurveSpec(("sqrt(3)*sinh(s)", "sqrt(3)*cosh(s)", "2*cos(s)", "2*sin(s)"),
                     (0.25, 3.0))


@pytest.fixture(scope="session")
def gamma2():
    """Unit-speed spacelike curve with timelike principal normal (type 2)."""
    return CurveSpec(("0.4*cosh(2*s)", "0.4*sinh(2*s)", "0.6*sin(s)", "-0.6*cos(s)"),
                     (0.25, 3.0))


@pytest.fixture(scope="session")
def gamma4():
    """Unit-speed spacelike curve with timelike trinormal (frame type 4)."""
    return CurveSpec(("0.6*cosh(s)", "0.6*sinh(s)", "0.4*sin(2*s)", "-0.4*cos(2*s)"),
                     (0.25, 3.0))


@pytest.fixture(scope="session")
def varying_curvature_curve():
    """Timelike curve with k1(s) = cosh s (non-constant curvatures)."""
    return CurveSpec(("sinh(s)",
                      "(cosh(s)*cos(s) + sinh(s)*sin(s))/2",
                      "(cosh(s)*sin(s) - sinh(s)*cos(s))/2",
                      "0"), (0.3, 1.6))


@pytest.fixture(scope="session")
def spacelike_line():
    return CurveSpec(("0", "s", "0", "0"), (0.5, 2.5))


@pytest.fixture(scope="session")
def timelike_line():
    return CurveSpec(("s", "0", "0", "0"), (0.5, 2.5))


@pytest.fixture(scope="session")
def family_curves(beta1, gamma2, beta2, gamma4):
    """Curve of each frame type, keyed by j."""
    return {1: beta1, 2: gamma2, 3: beta2, 4: gamma4}


ALL_FAMILIES = [(j, lam) for j in (1, 2, 3, 4) for lam in (1, -1)]
TUBULAR_FAMILIES = [fam for fam in ALL_FAMILIES if fam != (1, -1)]


def tubular_variant(j, lam):
    """A constant radius has r'^2 - lam*eps1 < 0 exactly when j >= 2 and lam = +1."""
    return Variant.ALT_SUPERCRITICAL if j >= 2 and lam == 1 else Variant.STANDARD


def tubular_kh(j, lam, r, k1, t, w):
    """(K, H) of the constant-radius family (j, lam): the general family
    formulas of gauss_mean_principal at r' = r'' = 0."""
    eps = tuple(-1 if i == j else 1 for i in (1, 2, 3, 4))
    return gauss_mean_principal(j, lam, tubular_variant(j, lam), eps, k1, r, 0.0, 0.0, t, w)[:2]

# sweep parameter windows per frame type: the j = 2 curve has a cosh(2s)
# amplitude, so large s amplifies FD rounding noise in the numeric oracle
SWEEP_S_RANGE = {1: (0.4, 2.2), 2: (0.4, 1.6), 3: (0.4, 2.2), 4: (0.4, 2.2)}


def random_polynomial_radius(rng, j, lam, s_range):
    """Degree <= 2 radius keeping r > 0 and the standard variant admissible."""
    s0, s1 = s_range
    eps1 = -1 if j == 1 else 1
    for _ in range(200):
        if lam * eps1 == 1:
            # needs |r'| > 1 across the range
            b = rng.uniform(1.25, 2.2)
            c = rng.uniform(-0.05, 0.05)
            a = rng.uniform(0.2, 0.8)
        else:
            b = rng.uniform(-0.6, 0.8)
            c = rng.uniform(-0.15, 0.15)
            a = rng.uniform(0.6, 1.6)
        r = lambda s: a + b * s + c * s * s
        rp = lambda s: b + 2 * c * s
        samples = [s0 + (s1 - s0) * i / 24 for i in range(25)]
        if min(r(s) for s in samples) < 0.25:
            continue
        if lam * eps1 == 1 and min(abs(rp(s)) for s in samples) < 1.1:
            continue
        text = f"{a!r} + {b!r}*s + {c!r}*s^2"
        return RadiusProfile.from_expr(text)
    raise AssertionError("failed to draw an admissible radius")


def admissible_node(rng, curve, config, s_range, d_floor=0.2, a_floor=1e-3,
                    f_floor=0.0):
    """Random (s,t,w) away from metric degeneracy and the focal denominator."""
    from canal4.canal import degeneracy_factor, family_function
    for _ in range(500):
        s = rng.uniform(*s_range)
        if config.j == 1:
            t = rng.uniform(0.0, 2 * math.pi)
            w = rng.uniform(-1.2, 1.2)
        else:
            t = rng.uniform(-1.3, 1.3)
            w = rng.uniform(-1.3, 1.3)
        if abs(degeneracy_factor(config.j, config.variant, w)) < max(a_floor, 1e-3):
            continue
        f = family_function(config.j, config.variant, t, w)
        if abs(f) < f_floor:
            continue
        fr = curve.frame(s)
        e1, e2 = fr.eps[0], fr.eps[1]
        r = config.radius(s)
        rp = config.radius.r_prime(s)
        rpp = config.radius.r_second(s)
        v = config.variant.sign         # the supercritical variant: q -> -q, r'' -> -r''
        q = v * (rp * rp - config.lam * e1)
        d = (q + v * e2 * config.lam * fr.k1 * (config.sigma * f) * r * math.sqrt(q)
             + r * (v * rpp))
        if abs(d) < d_floor * max(1.0, q):
            continue
        return s, t, w
    raise AssertionError("failed to draw an admissible node")


def arr(v):
    """A Vec4 or a 4-tuple as a (4,) float array, for vector arithmetic."""
    return np.array(v.as_tuple() if isinstance(v, Vec4) else v, dtype=float)


def frames_of(curve, s_values):
    """curve.frames(s_values) as a list: the FrenetFrame of each row whose
    numbers it holds, None for the others."""
    out = curve.frames(s_values)
    if out is None:
        return [None] * len(s_values)
    basis, ks, eps, ok = out
    tetrads, ks, eps, ok = (x.tolist() for x in (basis[:, 1:], ks, eps, ok))
    return [FrenetFrame(tuple(map(tuple, t)), tuple(e), *k) if good else None
            for t, k, e, good in zip(tetrads, ks, eps, ok)]


def make_config(j, lam, radius, sigma=1):
    return CanalConfig(j, lam, radius, sigma, Variant.STANDARD)


@pytest.fixture
def rng():
    return random.Random(20240817)
