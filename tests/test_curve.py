"""Frame construction, frame goldens for the example curves, and the moving
frame differential relations."""
import math
import statistics

import numpy as np
import pytest

from conftest import frames_of
from canal4.curve import STENCIL_REACH, CurveSpec
from canal4.errors import (CanalError, DomainError, FrameDegenerateError, NonUnitSpeedError,
                           NullResidualError, OutOfDomainError)
from canal4.minkowski import Vec4, inner

SQ7 = math.sqrt(7.0)
SQ37 = math.sqrt(3.0 / 7.0)


def beta1_frame(s):
    """Published frame of the timelike example curve."""
    ch, sh, c, si = math.cosh(s), math.sinh(s), math.cos(s), math.sin(s)
    r3 = math.sqrt(3.0)
    return ((2 * ch, 2 * sh, -r3 * si, r3 * c),
            (2 / SQ7 * sh, 2 / SQ7 * ch, -SQ37 * c, -SQ37 * si),
            (-r3 * ch, -r3 * sh, 2 * si, -2 * c),
            (SQ37 * sh, SQ37 * ch, 2 / SQ7 * c, 2 / SQ7 * si))


def beta2_frame(s):
    """Published frame of the spacelike example curve (timelike binormal)."""
    ch, sh, c, si = math.cosh(s), math.sinh(s), math.cos(s), math.sin(s)
    r3 = math.sqrt(3.0)
    return ((r3 * ch, r3 * sh, -2 * si, 2 * c),
            (SQ37 * sh, SQ37 * ch, -2 / SQ7 * c, -2 / SQ7 * si),
            (2 * ch, 2 * sh, -r3 * si, r3 * c),
            (2 / SQ7 * sh, 2 / SQ7 * ch, SQ37 * c, SQ37 * si))


def _max_component_delta(a, b) -> float:
    return max(abs(x - y) for x, y in zip(a, b))


def test_beta1_derivative_golden(beta1):
    d1 = beta1.derivative(0.25, 1)
    exact = (2 * math.cosh(0.25), 2 * math.sinh(0.25),
             -math.sqrt(3) * math.sin(0.25), math.sqrt(3) * math.cos(0.25))
    assert _max_component_delta(d1, exact) < 1e-14
    with pytest.raises(ValueError, match="order must be 0..4"):
        beta1.derivative(0.25, 5)


def test_derivative_at_zero_values():
    # domains extended to include 0 for the tangent golden
    b1 = CurveSpec(("2*sinh(s)", "2*cosh(s)", "sqrt(3)*cos(s)", "sqrt(3)*sin(s)"), (-1.0, 1.0))
    assert _max_component_delta(b1.derivative(0.0, 1), (2.0, 0.0, 0.0, math.sqrt(3.0))) < 1e-15
    b2 = CurveSpec(("sqrt(3)*sinh(s)", "sqrt(3)*cosh(s)", "2*cos(s)", "2*sin(s)"), (-1.0, 1.0))
    assert _max_component_delta(b2.derivative(0.0, 1), (math.sqrt(3.0), 0.0, 0.0, 2.0)) < 1e-15


def test_line_second_derivative_vanishes(spacelike_line):
    assert spacelike_line.derivative(1.0, 2) == (0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("s", [0.3, 0.8, 1.7, 2.6])
def test_beta1_frame_golden(beta1, s):
    fr = beta1.frenet(s)
    assert fr.eps == (-1, 1, 1, 1)
    assert fr.frame_type == 1
    assert fr.k1 == pytest.approx(SQ7, abs=1e-12)
    assert fr.k2 == pytest.approx(4 * SQ37, abs=1e-12)
    assert fr.k3 == pytest.approx(1 / SQ7, abs=1e-12)
    for got, exact in zip(fr.tetrad, beta1_frame(s)):
        assert _max_component_delta(got, exact) < 1e-10


@pytest.mark.parametrize("s", [0.3, 0.8, 1.7, 2.6])
def test_beta2_frame_golden(beta2, s):
    fr = beta2.frenet(s)
    assert fr.eps == (1, 1, -1, 1)
    assert fr.frame_type == 3
    assert fr.k1 == pytest.approx(SQ7, abs=1e-12)
    assert fr.k2 == pytest.approx(4 * SQ37, abs=1e-12)
    assert fr.k3 == pytest.approx(1 / SQ7, abs=1e-12)
    for got, exact in zip(fr.tetrad, beta2_frame(s)):
        assert _max_component_delta(got, exact) < 1e-10


def test_invented_frame_types(gamma2, gamma4):
    assert gamma2.frenet(0.9).eps == (1, -1, 1, 1)
    assert gamma4.frenet(0.9).eps == (1, 1, 1, -1)


def test_frame_orthonormality(family_curves, rng):
    for curve in family_curves.values():
        smin, smax = curve.domain
        for _ in range(50):
            fr = curve.frenet(rng.uniform(smin, smax))
            worst = 0.0
            for i, (fi, ei) in enumerate(zip(fr.tetrad, fr.eps)):
                for jj, fj in enumerate(fr.tetrad):
                    target = ei if i == jj else 0.0
                    worst = max(worst, abs(inner(fi, fj) - target))
            assert worst <= 1e-8


def test_frenet_ode_residual(family_curves):
    """dF_i/ds matches the frame relations (FD step 1e-4, relative 1e-5)."""
    h = 1e-4
    for curve in family_curves.values():
        for s in (0.6, 1.1, 1.9):
            fr = curve.frenet(s)
            plus = curve.frenet(s + h)
            minus = curve.frenet(s - h)
            e1, e2, e3, e4 = fr.eps
            k1, k2, k3 = fr.k1, fr.k2, fr.k3
            F1, F2, F3, F4 = map(np.array, fr.tetrad)
            rhs = (k1 * F2,
                   (e3 * e4 * k1) * F1 + k2 * F3,
                   (e1 * e4 * k2) * F2 + k3 * F4,
                   (e1 * e2 * k3) * F3)
            scale = 1.0 + max(k1, k2, abs(k3))
            for fp, fm, r in zip(plus.tetrad, minus.tetrad, rhs):
                d = (np.array(fp) - np.array(fm)) * (1.0 / (2 * h))
                assert _max_component_delta(d, r) <= 1e-5 * scale


def test_curvature_constancy(beta1, beta2):
    for curve in (beta1, beta2):
        samples = [curve.frenet(0.3 + 2.4 * i / 49) for i in range(50)]
        for attr in ("k1", "k2", "k3"):
            vals = [getattr(fr, attr) for fr in samples]
            assert statistics.pstdev(vals) <= 1e-8


def _outcome(fn):
    try:
        return fn()
    except CanalError as exc:
        return exc


# K = 1e-11: b' = (s, sqrt(K + s^2), sqrt(1 - K), 0) is unit spacelike, and
# b'' = (1, s/sqrt(K + s^2), 0, 0) has <b'',b''> = -K/(K + s^2): null within
# TAU_NULL, but k1 = sqrt(K)/s > TAU_K
NULL_NORMAL = CurveSpec(("s^2/2", "(s*sqrt(1e-11 + s^2) + 1e-11*log(s + sqrt(1e-11 + s^2)))/2",
                         "sqrt(1 - 1e-11)*s", "0"), (0.5, 1.5))
# m = 1e-6: b' = (sqrt(m) sinh(s + 12), sqrt(m) cosh(s + 12), sqrt(1 - m) cos s,
# sqrt(1 - m) sin s) is unit spacelike; rho3 = 2 sqrt(m) (sinh, cosh, 0, 0) +
# O(m), with <rho3,rho3> ~ 4m against a Euclidean |rho3|^2 ~ 4m cosh(2s + 24):
# null within TAU_NULL, but k2 ~ 2e-3 > TAU_K
NULL_BINORMAL = CurveSpec(("0.001*cosh(s + 12)", "0.001*sinh(s + 12)", "sqrt(1 - 1e-6)*sin(s)",
                           "-sqrt(1 - 1e-6)*cos(s)"), (0.5, 1.5))
# a helix of radius 1e-4 (k1 ~ 1e4) that climbs 5e-17 per unit s: k2 = 5e-9
FLAT_HELIX = CurveSpec(("0", "0.0001*cos(s/0.0001)", "0.0001*sin(s/0.0001)", "5e-17*s/0.0001"),
                       (0.5, 1.5))


def test_frenet_equals_array_reference(family_curves, varying_curvature_curve, timelike_line):
    """Gram-Schmidt on float tuples gives the frames of the array original bit
    for bit (by repr) on every curve, and its errors with the same type and
    message: non-unit speed, a null tangent, k1 = 0 (where frame falls back
    to the line frame), a null principal normal, k2 = 0, a null binormal and
    0 < k2 <= TAU_K; frames gives each failing row no frame (the line its
    line frame)."""
    import oracles
    curves = [*family_curves.values(), varying_curvature_curve]
    for curve in curves:
        smin, smax = curve.domain
        for i in range(9):
            s = smin + (smax - smin) * i / 8
            assert repr(curve.frenet(s)) == repr(oracles.reference_frenet(curve, s))
    bad = {"NonUnitSpeedError": CurveSpec(("0", "2*s", "0", "0"), (0.0, 2.0)),
           "NullResidualError": CurveSpec(("1048576*s", "1048576*s", "s", "0"), (0.0, 2.0)),
           "FrameDegenerateError": CurveSpec(("0", "s", "0", "0"), (0.5, 2.5)),
           "FrameDegenerateError k2": CurveSpec(("0", "cos(s)", "sin(s)", "0"), (0.0, 3.0)),
           "NullResidualError normal": NULL_NORMAL,
           "NullResidualError binormal": NULL_BINORMAL,
           "FrameDegenerateError small k2": FLAT_HELIX}
    line = bad["FrameDegenerateError"]
    for kind, curve in bad.items():
        got = _outcome(lambda: curve.frenet(1.0))
        one = _outcome(lambda: oracles.reference_frenet(curve, 1.0))
        assert type(got).__name__ == kind.split()[0] and type(got) is type(one)
        assert str(got) == str(one)
        assert frames_of(curve, [1.0]) == [line.frame_for_line() if curve is line else None]
    assert "k1 vanishes" in str(_outcome(lambda: bad["FrameDegenerateError"].frenet(1.0)))
    assert "k2 vanishes" in str(_outcome(lambda: bad["FrameDegenerateError k2"].frenet(1.0)))
    assert str(_outcome(lambda: NULL_NORMAL.frenet(1.0))) == (
        "principal normal direction is null at s=1.0")
    assert str(_outcome(lambda: NULL_BINORMAL.frenet(1.0))) == "binormal direction is null at s=1.0"
    assert str(_outcome(lambda: FLAT_HELIX.frenet(1.0))) == "k2 = 5e-09 <= 1e-08 at s=1.0"
    for other in (timelike_line, line):
        assert repr(other.frame(1.0)) == repr(other.frame_for_line()) == repr(
            oracles.reference_frame_for_line(other))
    assert str(_outcome(lambda: bad["FrameDegenerateError k2"].frame(1.0))) == str(
        _outcome(lambda: oracles.reference_frenet(bad["FrameDegenerateError k2"], 1.0)))


def test_line_frame_degenerate(spacelike_line):
    with pytest.raises(FrameDegenerateError):
        spacelike_line.frenet(1.0)


def test_frame_for_line_spacelike(spacelike_line):
    fr = spacelike_line.frame_for_line()
    assert fr.k1 == fr.k2 == fr.k3 == 0.0
    assert fr.eps.count(-1) == 1
    assert fr.frame_type == 2           # timelike axis lands in F2
    assert fr.tetrad[0] == (0.0, 1.0, 0.0, 0.0)
    assert fr.vectors == tuple(Vec4(*f) for f in fr.tetrad)


def test_line_frame_memoized(monkeypatch):
    """A straight line samples is_straight once and reuses its constant
    frame; frames outside the domain still raise."""
    line = CurveSpec(("0", "s", "0", "0"), (0.5, 2.5))
    calls = []
    original = CurveSpec.is_straight

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(CurveSpec, "is_straight", counted)
    first = line.frame(0.7)
    assert line.frame(1.9) is first
    assert first == line.frame_for_line()
    assert len(calls) == 1
    with pytest.raises(OutOfDomainError):
        line.frame(9.0)


def test_frame_for_line_timelike(timelike_line):
    fr = timelike_line.frame_for_line()
    assert fr.frame_type == 1
    assert fr.k1 == 0.0


def test_null_line_rejected():
    null_line = CurveSpec(("s/sqrt(2)", "s/sqrt(2)", "0", "0"), (0.5, 2.0))
    # speed is null, so the unit-speed guard trips first
    with pytest.raises((NonUnitSpeedError, NullResidualError)):
        null_line.frame_for_line()


def test_verify_unit_speed(beta1, beta2):
    assert beta1.verify_unit_speed(100).max_deviation <= 1e-9
    assert beta2.verify_unit_speed(100).passed


def test_verify_unit_speed_fails_for_speed_two():
    fast = CurveSpec(("0", "2*s", "0", "0"), (0.0, 2.0))
    rep = fast.verify_unit_speed(10)
    assert not rep.passed
    assert rep.max_deviation == pytest.approx(3.0)


def test_overflowing_speed_is_not_unit_speed():
    """<b',b'> = -inf + inf = nan: a deviation of inf, and no frame."""
    fast = CurveSpec(("1e200*s", "1e200*s", "s", "0"), (0.25, 3.0))
    rep = fast.verify_unit_speed(10)
    assert rep.max_deviation == math.inf and not rep.passed
    with pytest.raises(NonUnitSpeedError):
        fast.frame(1.0)
    with pytest.raises(NonUnitSpeedError):
        fast.frame_for_line()


def test_out_of_domain(beta1):
    with pytest.raises(OutOfDomainError):
        beta1.derivative(5.0, 0)


def test_domain_overhang_covers_the_stencil_reach(beta1):
    from canal4.analysis import WEINGARTEN_FD_STEP
    from canal4.curvature import FD_STEP2
    assert STENCIL_REACH >= max(2 * FD_STEP2, 2 * WEINGARTEN_FD_STEP)
    short = CurveSpec(beta1.components, (1.0, 1.5))
    for s in (1.0 - STENCIL_REACH, 1.5 + STENCIL_REACH):
        short.derivative(s, 2)
    with pytest.raises(OutOfDomainError):
        short.derivative(1.5 + 2 * STENCIL_REACH, 0)


def test_non_finite_frame_is_a_numeric_error():
    """A unit-speed helix whose x3, x4 wind at frequency 2e76: its third and
    fourth derivatives overflow, so the frame at s = 3.0 holds a nan. That is
    a DomainError naming s, raised before the frame signs are checked."""
    helix = CurveSpec(("2*sinh(s)", "2*cosh(s)", "sqrt(3)/2e76*cos(2e76*s)",
                       "sqrt(3)/2e76*sin(2e76*s)"), (0.25, 3.0))
    assert helix.verify_unit_speed(10).passed
    with pytest.raises(DomainError, match=r"^non-finite frame component or curvature at s=3.0$"):
        helix.frame(3.0)


def test_varying_curvature_frame(varying_curvature_curve):
    for s in (0.5, 0.9, 1.4):
        fr = varying_curvature_curve.frenet(s)
        assert fr.eps == (-1, 1, 1, 1)
        assert fr.k1 == pytest.approx(math.cosh(s), rel=1e-10)
        assert fr.k2 > 0.1
        assert abs(fr.k3) < 1e-9        # curve sits in a hyperplane


# ---------------------------------------------------------------------------
# array passes over an s axis: the bits of the scalar loop

_CURVES = ["beta1", "beta2", "gamma2", "gamma4", "varying_curvature_curve", "spacelike_line",
           "timelike_line"]


def _hex_rows(rows):
    return [[float(x).hex() for x in row] for row in rows]


@pytest.mark.parametrize("name", _CURVES)
def test_array_passes_equal_the_scalar_loop(name, request):
    """derivatives and the numbers of frames equal derivative(s, k) and
    frame(s) at every s bit for bit (by hex and repr), the stencil overhang
    and the lines' k1 = 0 rows included."""
    curve = request.getfixturevalue(name)
    smin, smax = curve.domain
    s = curve.sweep(37) + [smin - STENCIL_REACH, smax + STENCIL_REACH]
    for k in range(5):
        assert _hex_rows(curve.derivatives(s, k)[0].tolist()) == _hex_rows(
            [curve.derivative(x, k) for x in s])
    assert [repr(fr) for fr in frames_of(curve, s)] == [repr(curve.frame(x)) for x in s]


def test_array_passes_leave_failing_rows_to_the_scalar_path():
    """A row frenet rejects gets no frame from the pass; a pass that cannot
    vouch for some s (outside the domain, a math error) gives no arrays."""
    s = [0.5, 1.0, 1.5]
    for curve in (CurveSpec(("0", "2*s", "0", "0"), (0.0, 2.0)),            # not unit speed
                  CurveSpec(("1048576*s", "1048576*s", "s", "0"), (0.0, 2.0)),  # null tangent
                  CurveSpec(("0", "cos(s)", "sin(s)", "0"), (0.0, 3.0))):   # k2 = 0, not straight
        assert frames_of(curve, s) == [None] * 3
    beta1 = CurveSpec(("2*sinh(s)", "2*cosh(s)", "sqrt(3)*cos(s)", "sqrt(3)*sin(s)"), (0.25, 3.0))
    assert beta1.derivatives([1.0, 3.5], 1) is None
    assert beta1.frames([1.0, 3.5]) is None
    broken = CurveSpec(("2*sinh(s)", "2*cosh(s)", "sqrt(3)*cos(s)", "sqrt(3)*sin(s) + log(s - 1)"),
                       (0.25, 3.0))
    assert broken.derivatives([1.5, 0.5, 2.0], 0) is None
