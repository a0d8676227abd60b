"""Canal point construction, admissibility, null cones, and grid sampling."""
import math

import pytest

from conftest import ALL_FAMILIES, TUBULAR_FAMILIES, admissible_node, make_config
import oracles
from oracles import (example_surface_11, example_surface_1m1,
                     example_surface_31, example_surface_3m1)

from canal4 import expr as ex
from canal4.canal import (CanalConfig, GridSpec, PointMapCache, RadiusProfile,
                          Variant, canal_point, canal_points, nullcone_point,
                          resolve_variant, sample_grid, transverse_coefficients,
                          validate_config)
from canal4.curve import CurveSpec
from canal4.errors import (DomainError, FrameDegenerateError, InadmissibleConfigError,
                           VariantViolatedError)
from canal4.minkowski import Vec4, inner

R2S = RadiusProfile.from_expr("2*s")


def _delta(a: Vec4, b) -> float:
    bt = b.as_tuple() if isinstance(b, Vec4) else tuple(b)
    return max(abs(x - y) for x, y in zip(a.as_tuple(), bt))


def test_point_golden_frame_combination(beta1):
    """At (1,0,0) the sphere-family point is b + 4 F1 + 2 sqrt(5) F2."""
    cfg = make_config(1, 1, R2S)
    fr = beta1.frenet(1.0)
    expected = beta1.point(1.0) + 4.0 * fr.f1 + (2 * math.sqrt(5)) * fr.f2
    assert _delta(canal_point(beta1, cfg, 1.0, 0.0, 0.0), expected) < 1e-12


@pytest.mark.parametrize("node", [(1.0, 0.0, 0.0), (0.7, 0.9, -0.4),
                                  (1.3, 2.1, 0.8), (2.0, -1.0, 1.1)])
def test_point_matches_explicit_surfaces(beta1, beta2, node):
    s, t, w = node
    cases = [
        (beta1, make_config(1, 1, R2S), example_surface_11),
        (beta1, make_config(1, -1, R2S), example_surface_1m1),
        (beta2, make_config(3, 1, R2S), example_surface_31),
        (beta2, make_config(3, -1, R2S), example_surface_3m1),
    ]
    for curve, cfg, surface in cases:
        got = canal_point(curve, cfg, s, t, w)
        scale = 1.0 + max(abs(c) for c in got.as_tuple())
        assert _delta(got, surface(s, t, w)) < 1e-12 * scale


def test_sphere_membership_sweep(family_curves, rng):
    """<C - b, C - b> = lam r^2 on 1000 random admissible nodes."""
    import conftest
    count = 0
    while count < 1000:
        j, lam = ALL_FAMILIES[count % len(ALL_FAMILIES)]
        curve = family_curves[j]
        radius = conftest.random_polynomial_radius(rng, j, lam, curve.domain)
        sigma = 1 if count % 2 == 0 else -1
        cfg = CanalConfig(j, lam, radius, sigma)
        s, t, w = admissible_node(rng, curve, cfg, curve.domain, d_floor=0.0)
        p = canal_point(curve, cfg, s, t, w)
        d = p - curve.point(s)
        r = radius(s)
        assert abs(inner(d, d) - lam * r * r) <= 1e-9 * (1.0 + r * r)
        count += 1


def test_offset_is_normal_direction(beta1, rng):
    """<C - b, dC/du> vanishes for u in {s, t, w} (FD partials)."""
    cfg = make_config(1, 1, R2S)
    h = 1e-5
    for _ in range(10):
        s, t, w = admissible_node(rng, beta1, cfg, (0.5, 2.5), d_floor=0.0)
        b = beta1.point(s)
        d = canal_point(beta1, cfg, s, t, w) - b
        for axis in range(3):
            args_p = [s, t, w]
            args_m = [s, t, w]
            args_p[axis] += h
            args_m[axis] -= h
            part = (canal_point(beta1, cfg, *args_p) - canal_point(beta1, cfg, *args_m)) * (1 / (2 * h))
            assert abs(inner(d, part)) <= 1e-6 * (1.0 + abs(inner(d, d)))


def test_tubular_specialization_bit_exact(family_curves):
    """Constant radius reproduces the tubular reference patterns exactly."""
    rc = 0.3
    for j, lam in TUBULAR_FAMILIES:
        curve = family_curves[j]
        variant = Variant.ALT_SUPERCRITICAL if (j >= 2 and lam == 1) else Variant.STANDARD
        for sigma in (1, -1):
            cfg = CanalConfig(j, lam, RadiusProfile.from_constant(rc), sigma, variant)
            for (s, t, w) in [(0.8, 0.5, 0.6), (1.4, -0.9, 0.3)]:
                fr = curve.frame(s)
                a2, a3, a4 = transverse_coefficients(j, variant, t, w)
                expected = (curve.point(s) + (sigma * rc * a2) * fr.f2
                            + (sigma * rc * a3) * fr.f3 + (sigma * rc * a4) * fr.f4)
                got = canal_point(curve, cfg, s, t, w)
                assert _delta(got, expected) <= 1e-14


def test_branch_symmetry(beta1, rng):
    """sigma = +-1 points mirror through the axial offset center."""
    for lam in (1, -1):
        plus = CanalConfig(1, lam, R2S, 1)
        minus = CanalConfig(1, lam, R2S, -1)
        for _ in range(5):
            s, t, w = admissible_node(rng, beta1, plus, (0.6, 2.4), d_floor=0.0)
            fr = beta1.frenet(s)
            r, rp = 2 * s, 2.0
            center = beta1.point(s) + (-lam * fr.eps[0] * r * rp) * fr.f1
            total = canal_point(beta1, plus, s, t, w) + canal_point(beta1, minus, s, t, w)
            assert _delta(total, 2.0 * center) <= 1e-12 * (1 + abs(r))


def test_validate_config_rules(beta1, beta2):
    assert not validate_config(beta1, CanalConfig(1, -1, RadiusProfile.from_constant(2.0))).passed
    assert validate_config(beta1, make_config(1, 1, R2S)).passed
    rep = validate_config(beta2, make_config(1, 1, R2S))
    assert not rep.passed
    assert any("frame type" in r for r in rep.reasons)


def test_variant_rules(beta1, beta2):
    # (1,-1) needs |r'| > 1: r = 2s qualifies, constants do not
    assert validate_config(beta1, make_config(1, -1, R2S)).passed
    assert resolve_variant(beta2, 3, 1, RadiusProfile.from_constant(0.5)) is Variant.ALT_SUPERCRITICAL
    with pytest.raises(InadmissibleConfigError):
        resolve_variant(beta1, 1, -1, RadiusProfile.from_constant(0.5))
    # declared standard but the data selects supercritical
    cfg = CanalConfig(3, 1, RadiusProfile.from_constant(0.5), 1, Variant.STANDARD)
    assert not validate_config(beta2, cfg).passed
    with pytest.raises(VariantViolatedError):
        canal_point(beta2, cfg, 1.0, 0.3, 0.4)


def test_radius_boundary_slope_inadmissible(beta2):
    # |r'| = 1 sits exactly on the variant boundary for lam*eps1 = +1
    with pytest.raises(InadmissibleConfigError):
        resolve_variant(beta2, 3, 1, RadiusProfile.from_expr("s + 1"))


def test_lambda0_rules(beta2):
    a2 = ex.parse("w*cos(t)", ("s", "t", "w"))
    a4 = ex.parse("w*sin(t)", ("s", "t", "w"))
    with pytest.raises(InadmissibleConfigError):
        CanalConfig(1, 0, None, 1, Variant.STANDARD, (a2, a4))
    with pytest.raises(InadmissibleConfigError):
        nullcone_point(beta2, 1, (a2, a4), 1.0, 0.5, 0.5)


def test_nullcone_unit_circle_directions(beta2):
    """a3 = cos t, a4 = sin t makes the determined coefficient exactly 1... for j=2."""
    # frame type must match; beta2 has j = 3, so use slots (a2, a4)
    a2 = ex.parse("cos(t)", ("s", "t", "w"))
    a4 = ex.parse("sin(t)", ("s", "t", "w"))
    s, t = 1.0, 0.7
    fr = beta2.frenet(s)
    got = nullcone_point(beta2, 3, (a2, a4), s, t, 0.0, sigma=1)
    expected = (beta2.point(s) + math.cos(t) * fr.f2 + 1.0 * fr.f3 + math.sin(t) * fr.f4)
    assert _delta(got, expected) < 1e-12
    d = got - beta2.point(s)
    assert abs(inner(d, d)) < 1e-12


def test_nullcone_degenerate_point_is_center(beta2):
    zero = ex.parse("0", ("s", "t", "w"))
    got = nullcone_point(beta2, 3, (zero, zero), 1.2, 0.4, 0.9)
    assert _delta(got, beta2.point(1.2)) < 1e-14


def test_nullcone_condition_sweep(family_curves, rng):
    """sum eps_i a_i^2 residual <= 1e-9 across random nodes and frame types."""
    a_first = ex.parse("w*cos(t) + 0.3*s", ("s", "t", "w"))
    a_second = ex.parse("w*sin(t) - 0.2", ("s", "t", "w"))
    for j in (2, 3, 4):
        curve = family_curves[j]
        for _ in range(20):
            s = rng.uniform(0.4, 2.5)
            t = rng.uniform(-1.0, 1.0)
            w = rng.uniform(-1.0, 1.0)
            p = nullcone_point(curve, j, (a_first, a_second), s, t, w,
                               sigma=1 if rng.random() < 0.5 else -1)
            d = p - curve.point(s)
            assert abs(inner(d, d)) <= 1e-9


def test_nullcone_nonfinite_coefficient_rejected(beta2):
    bad = ex.parse("exp(1000*s)", ("s", "t", "w"))      # overflows at s = 1
    good = ex.parse("1", ("s", "t", "w"))
    with pytest.raises(DomainError):
        nullcone_point(beta2, 3, (bad, good), 1.0, 0.2, 0.3)


def test_sample_grid_sphere_condition(beta1):
    cfg = make_config(1, 1, R2S)
    grid = GridSpec.regular((0.5, 2.0), (0.0, 2 * math.pi), (2.0, 2.0), (10, 10, 1))
    patch = sample_grid(beta1, cfg, grid)
    assert patch.shape == (10, 10, 1)
    assert patch.max_sphere_residual() <= 1e-9 * (1 + 16.0)


def test_empty_grid_gives_empty_patch(beta1):
    cfg = make_config(1, 1, R2S)
    patch = sample_grid(beta1, cfg, GridSpec((), (), ()))
    assert patch.shape == (0, 0, 0)
    assert patch.points == ()


def test_degenerate_nodes_flagged(beta1):
    cfg = make_config(1, 1, R2S)
    grid = GridSpec((1.0, 1.5), (0.0, 1.0), (0.5, math.pi / 2))
    patch = sample_grid(beta1, cfg, grid)
    flagged = [(i, jj, k) for i, jj, k, *_ in patch.nodes(include_degenerate=True)
               if patch.is_degenerate(i, jj, k)]
    assert all(k == 1 for _, _, k in flagged)
    assert len(flagged) == 4            # every node at w = pi/2


def test_validate_config_reports_frame_errors(beta1, monkeypatch):
    def degenerate(self, s):
        raise FrameDegenerateError("k1 vanished")

    monkeypatch.setattr(CurveSpec, "frame", degenerate)
    report = validate_config(beta1, make_config(1, 1, R2S))
    assert not report.passed
    assert "frame construction failed: k1 vanished" in report.reasons


def test_validate_config_lets_programming_errors_through(beta1, monkeypatch):
    def broken(self, s):
        raise RuntimeError("bug")

    monkeypatch.setattr(CurveSpec, "frame", broken)
    with pytest.raises(RuntimeError, match="bug"):
        validate_config(beta1, make_config(1, 1, R2S))


def _reference_cases(family_curves, rng):
    """(curve, config) per family: both branches of the standard variant on a
    random radius, and the supercritical tubular families."""
    import conftest
    for j, lam in ALL_FAMILIES:
        radius = conftest.random_polynomial_radius(rng, j, lam, conftest.SWEEP_S_RANGE[j])
        for sigma in (1, -1):
            yield family_curves[j], CanalConfig(j, lam, radius, sigma)
    for j in (2, 3, 4):
        yield family_curves[j], CanalConfig(j, 1, RadiusProfile.from_constant(0.6), 1,
                                            Variant.ALT_SUPERCRITICAL)


def test_sample_grid_equals_scalar_reference(family_curves, rng):
    """The batched point map reproduces the scalar Vec4 formula bit for bit."""
    for curve, cfg in _reference_cases(family_curves, rng):
        t_range = (0.0, 6.0) if cfg.j == 1 else (-1.3, 1.3)
        grid = GridSpec.regular((0.5, 2.0), t_range, (-0.9, 1.1), (3, 4, 3))
        patch = sample_grid(curve, cfg, grid)
        for i, jj, k, s, t, w, p in patch.nodes(include_degenerate=True):
            expected = oracles.reference_point(curve, cfg, s, t, w)
            assert p == expected
            assert canal_point(curve, cfg, s, t, w) == expected
        assert patch.frames == tuple(curve.frame(s) for s in grid.s_values)


def test_canal_points_batch_matches_scalar_map(gamma2, rng):
    """Unordered, repeated (s, t, w) triples in one call: each row equals its
    own single-node call, and a shared cache changes nothing."""
    radius = RadiusProfile.from_expr("0.5 + 1.5*s")
    cfg = CanalConfig(2, -1, radius)
    nodes = [(rng.choice((0.6, 0.9, 1.2)), rng.uniform(-1, 1), rng.uniform(-1, 1))
             for _ in range(20)]
    nodes += nodes[:3]
    cache = PointMapCache(gamma2, cfg)
    batch = canal_points(gamma2, cfg, *zip(*nodes), cache=cache)
    assert batch.shape == (len(nodes), 4)
    for row, (s, t, w) in zip(batch.tolist(), nodes):
        assert Vec4(*row) == canal_point(gamma2, cfg, s, t, w)
    again = canal_points(gamma2, cfg, *zip(*nodes), cache=cache)
    assert (again == batch).all()


def test_canal_points_rejects_misaligned_columns(beta1):
    cfg = make_config(1, 1, R2S)
    with pytest.raises(ValueError):
        canal_points(beta1, cfg, (1.0, 1.1), (0.0,), (0.0,))


def test_nullcone_grid_equals_nullcone_point(beta2):
    a2 = ex.parse("w*cos(t)", ("s", "t", "w"))
    a4 = ex.parse("w*sin(t)", ("s", "t", "w"))
    cfg = CanalConfig(3, 0, a_free=(a2, a4))
    grid = GridSpec((0.8, 1.4), (0.0, 0.7), (0.3, 0.9))
    patch = sample_grid(beta2, cfg, grid)
    for i, jj, k, s, t, w, p in patch.nodes():
        assert p == nullcone_point(beta2, 3, (a2, a4), s, t, w)
