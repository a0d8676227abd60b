"""Canal point construction, admissibility, null cones, and grid sampling."""
import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_FAMILIES, TUBULAR_FAMILIES, admissible_node, arr, frames_of, make_config
import oracles
from oracles import (example_surface_11, example_surface_1m1,
                     example_surface_31, example_surface_3m1)

from canal4 import canal
from canal4 import expr as ex
from canal4.analysis import _hermite, solve_minimal_radius
from canal4.canal import (CanalConfig, GridSpec, PointMapCache, RadiusProfile,
                          Variant, canal_point, canal_points, degeneracy_factor,
                          family_function, nullcone_point, resolve_variant, sample_grid,
                          transverse, validate_config)
from canal4.curve import CurveSpec
from canal4.errors import (CanalError, DomainError, ExprSyntaxError, FrameDegenerateError,
                           InadmissibleConfigError, VariantViolatedError)
from canal4.minkowski import Vec4, inner

R2S = RadiusProfile.from_expr("2*s")


def _delta(a, b) -> float:
    """Largest component difference of two Vec4s, 4-tuples or (4,) arrays."""
    return float(np.abs(arr(a) - arr(b)).max())


def _b(curve, s):
    """The curve point b(s) as a (4,) array."""
    return np.array(curve.derivative(s, 0))


def test_point_golden_frame_combination(beta1):
    """At (1,0,0) the sphere-family point is b + 4 F1 + 2 sqrt(5) F2."""
    cfg = make_config(1, 1, R2S)
    F1, F2, _, _ = map(np.array, beta1.frenet(1.0).tetrad)
    expected = _b(beta1, 1.0) + 4.0 * F1 + (2 * math.sqrt(5)) * F2
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
        d = arr(canal_point(curve, cfg, s, t, w)) - _b(curve, s)
        r = radius(s)
        assert abs(inner(d, d) - lam * r * r) <= 1e-9 * (1.0 + r * r)
        count += 1


def test_offset_is_normal_direction(beta1, rng):
    """<C - b, dC/du> vanishes for u in {s, t, w} (FD partials)."""
    cfg = make_config(1, 1, R2S)
    h = 1e-5
    for _ in range(10):
        s, t, w = admissible_node(rng, beta1, cfg, (0.5, 2.5), d_floor=0.0)
        d = arr(canal_point(beta1, cfg, s, t, w)) - _b(beta1, s)
        for axis in range(3):
            args_p = [s, t, w]
            args_m = [s, t, w]
            args_p[axis] += h
            args_m[axis] -= h
            part = (arr(canal_point(beta1, cfg, *args_p))
                    - arr(canal_point(beta1, cfg, *args_m))) * (1 / (2 * h))
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
                _, F2, F3, F4 = map(np.array, curve.frame(s).tetrad)
                (a2, a3, a4), _, _ = transverse(j, variant, t, w)
                expected = (_b(curve, s) + (sigma * rc * a2) * F2
                            + (sigma * rc * a3) * F3 + (sigma * rc * a4) * F4)
                got = canal_point(curve, cfg, s, t, w)
                assert _delta(got, expected) <= 1e-14


# The seven transverse patterns of the paper, written out: (a2, a3, a4), their
# t- and w-partials, and the degeneracy factor A, per (j, variant).
_c, _s, _ch, _sh = math.cos, math.sin, math.cosh, math.sinh
PAPER_PATTERNS = {
    (1, Variant.STANDARD): (
        lambda t, w: (_c(t) * _c(w), _s(t) * _c(w), _s(w)),
        lambda t, w: (-_s(t) * _c(w), _c(t) * _c(w), 0.0),
        lambda t, w: (-_c(t) * _s(w), -_s(t) * _s(w), _c(w)),
        _c),
    (2, Variant.STANDARD): (
        lambda t, w: (_ch(t) * _ch(w), _sh(w), _sh(t) * _ch(w)),
        lambda t, w: (_sh(t) * _ch(w), 0.0, _ch(t) * _ch(w)),
        lambda t, w: (_ch(t) * _sh(w), _ch(w), _sh(t) * _sh(w)),
        _ch),
    (3, Variant.STANDARD): (
        lambda t, w: (_sh(t) * _ch(w), _ch(t) * _ch(w), _sh(w)),
        lambda t, w: (_ch(t) * _ch(w), _sh(t) * _ch(w), 0.0),
        lambda t, w: (_sh(t) * _sh(w), _ch(t) * _sh(w), _ch(w)),
        _ch),
    (4, Variant.STANDARD): (
        lambda t, w: (_sh(w), _sh(t) * _ch(w), _ch(t) * _ch(w)),
        lambda t, w: (0.0, _ch(t) * _ch(w), _sh(t) * _ch(w)),
        lambda t, w: (_ch(w), _sh(t) * _sh(w), _ch(t) * _sh(w)),
        _ch),
    (2, Variant.ALT_SUPERCRITICAL): (
        lambda t, w: (_ch(t) * _sh(w), _ch(w), _sh(t) * _sh(w)),
        lambda t, w: (_sh(t) * _sh(w), 0.0, _ch(t) * _sh(w)),
        lambda t, w: (_ch(t) * _ch(w), _sh(w), _sh(t) * _ch(w)),
        _sh),
    (3, Variant.ALT_SUPERCRITICAL): (
        lambda t, w: (_sh(t) * _sh(w), _ch(t) * _sh(w), _ch(w)),
        lambda t, w: (_ch(t) * _sh(w), _sh(t) * _sh(w), 0.0),
        lambda t, w: (_sh(t) * _ch(w), _ch(t) * _ch(w), _sh(w)),
        _sh),
    (4, Variant.ALT_SUPERCRITICAL): (
        lambda t, w: (_ch(w), _sh(t) * _sh(w), _ch(t) * _sh(w)),
        lambda t, w: (0.0, _ch(t) * _sh(w), _sh(t) * _sh(w)),
        lambda t, w: (_sh(w), _sh(t) * _ch(w), _ch(t) * _ch(w)),
        _sh),
}


def test_transverse_pattern_table_matches_the_paper():
    """transverse, family_function (= a2) and degeneracy_factor (= A) give the
    paper's patterns bit for bit (repr tells -0.0 from 0.0), at nodes of every
    sign."""
    nodes = [(0.3, 0.7), (-1.1, 0.4), (2.5, -0.9), (-0.6, -1.7), (0.0, 0.0)]
    for (j, variant), (a, a_t, a_w, A) in PAPER_PATTERNS.items():
        for t, w in nodes:
            assert (repr(transverse(j, variant, t, w))
                    == repr((a(t, w), a_t(t, w), a_w(t, w)))), (j, variant, t, w)
            assert repr(family_function(j, variant, t, w)) == repr(a(t, w)[0])
            assert repr(degeneracy_factor(j, variant, w)) == repr(A(w))


def test_branch_symmetry(beta1, rng):
    """sigma = +-1 points mirror through the axial offset center."""
    for lam in (1, -1):
        plus = CanalConfig(1, lam, R2S, 1)
        minus = CanalConfig(1, lam, R2S, -1)
        for _ in range(5):
            s, t, w = admissible_node(rng, beta1, plus, (0.6, 2.4), d_floor=0.0)
            fr = beta1.frenet(s)
            r, rp = 2 * s, 2.0
            center = _b(beta1, s) + (-lam * fr.eps[0] * r * rp) * np.array(fr.tetrad[0])
            total = arr(canal_point(beta1, plus, s, t, w)) + arr(canal_point(beta1, minus, s, t, w))
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
    _, F2, F3, F4 = map(np.array, beta2.frenet(s).tetrad)
    got = nullcone_point(beta2, 3, (a2, a4), s, t, 0.0, sigma=1)
    expected = _b(beta2, s) + math.cos(t) * F2 + 1.0 * F3 + math.sin(t) * F4
    assert _delta(got, expected) < 1e-12
    d = arr(got) - _b(beta2, s)
    assert abs(inner(d, d)) < 1e-12


def test_nullcone_degenerate_point_is_center(beta2):
    zero = ex.parse("0", ("s", "t", "w"))
    got = nullcone_point(beta2, 3, (zero, zero), 1.2, 0.4, 0.9)
    assert _delta(got, _b(beta2, 1.2)) < 1e-14


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
            d = arr(p) - _b(curve, s)
            assert abs(inner(d, d)) <= 1e-9


def test_nullcone_nonfinite_coefficient_rejected(beta2):
    bad = ex.parse("exp(1000*s)", ("s", "t", "w"))      # overflows at s = 1
    good = ex.parse("1", ("s", "t", "w"))
    with pytest.raises(DomainError):
        nullcone_point(beta2, 3, (bad, good), 1.0, 0.2, 0.3)


def test_sample_grid_sphere_condition(beta1):
    cfg = make_config(1, 1, R2S)
    grid = GridSpec(GridSpec.linspace((0.5, 2.0), 10),
                    GridSpec.linspace((0.0, 2 * math.pi), 10, False), (2.0,))
    patch = sample_grid(beta1, cfg, grid)
    assert patch.shape == (10, 10, 1)
    assert patch.max_sphere_residual() <= 1e-9 * (1 + 16.0)


def test_empty_grid_gives_empty_patch(beta1):
    cfg = make_config(1, 1, R2S)
    patch = sample_grid(beta1, cfg, GridSpec((), (), ()))
    assert patch.shape == (0, 0, 0)
    assert len(patch.points) == 0
    assert patch.coords.shape == (0, 4)


def test_degenerate_nodes_flagged(beta1):
    cfg = make_config(1, 1, R2S)
    grid = GridSpec((1.0, 1.5), (0.0, 1.0), (0.5, math.pi / 2))
    patch = sample_grid(beta1, cfg, grid)
    assert patch.degenerate == {1, 3, 5, 7}         # every node at w = pi/2
    assert [node[2] for node in patch.nodes()] == [0] * 4


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
    """The batched point map reproduces the scalar array formula bit for bit."""
    for curve, cfg in _reference_cases(family_curves, rng):
        t_range = (0.0, 6.0) if cfg.j == 1 else (-1.3, 1.3)
        grid = GridSpec(GridSpec.linspace((0.5, 2.0), 3), GridSpec.linspace(t_range, 4, False),
                        GridSpec.linspace((-0.9, 1.1), 3))
        patch = sample_grid(curve, cfg, grid)
        nodes = itertools.product(grid.s_values, grid.t_values, grid.w_values)
        for point, (s, t, w) in zip(patch.points, nodes):
            expected = Vec4(*oracles.reference_point(curve, cfg, s, t, w).tolist())
            assert point == expected
            assert canal_point(curve, cfg, s, t, w) == expected
        assert patch.frames == tuple(curve.frame(s) for s in grid.s_values)


def test_sample_grid_coords_equal_per_row_reference(family_curves, beta2, rng):
    """One point-map call over the lattice gives the bits of one canal_points
    call per s row: every family on both branches, the tubes, the
    supercritical variant and the null cone."""
    cases = list(_reference_cases(family_curves, rng))
    for j, lam in TUBULAR_FAMILIES:
        variant = Variant.ALT_SUPERCRITICAL if (j >= 2 and lam == 1) else Variant.STANDARD
        for sigma in (1, -1):
            cases.append((family_curves[j], CanalConfig(j, lam, RadiusProfile.from_constant(0.3),
                                                        sigma, variant)))
    a_free = (ex.parse("w*cos(t)", ("s", "t", "w")), ex.parse("w*sin(t)", ("s", "t", "w")))
    cases.append((beta2, CanalConfig(3, 0, a_free=a_free)))
    for curve, cfg in cases:
        t_range = (0.0, 6.0) if cfg.j == 1 else (-1.3, 1.3)
        grid = GridSpec(GridSpec.linspace((0.5, 2.0), 3), GridSpec.linspace(t_range, 5, False),
                        GridSpec.linspace((-0.9, 1.1), 4))
        coords = sample_grid(curve, cfg, grid).coords
        assert coords.shape == (60, 4)
        assert coords.tobytes() == oracles.reference_grid_coords(curve, cfg, grid).tobytes()


def test_sample_grid_reports_an_earlier_nonfinite_point_before_a_later_row_error(beta2):
    """Row by row, t = 800 overflows cosh in the first row before r(2.5) < 0
    fails the second; the one-call lattice keeps that order."""
    cfg = make_config(3, -1, RadiusProfile.from_expr("2 - s"))
    with pytest.raises(InadmissibleConfigError, match=r"radius r\(2.5\)"):
        sample_grid(beta2, cfg, GridSpec((1.0, 2.5), (0.5,), (0.1,)))
    with pytest.raises(DomainError, match=r"non-finite surface point at s=1.0, t=800.0, w=0.1"):
        sample_grid(beta2, cfg, GridSpec((1.0, 2.5), (0.5, 800.0), (0.1,)))
    with pytest.raises(InadmissibleConfigError, match=r"radius r\(2.5\)"):
        sample_grid(beta2, cfg, GridSpec((2.5, 1.0), (0.5, 800.0), (0.1,)))


def test_patch_pipeline_builds_no_vec4_per_node(beta1, monkeypatch, tmp_path):
    """sample_grid -> JSON -> patch -> OBJ builds no Vec4 (frames stay float
    tuples, points an array) and len(patch.points) builds none; neither do the
    verify (kh, weingarten-tw) and curvature commands on beta1."""
    from canal4.cli import main
    from canal4.io import export_obj, patch_from_json, patch_to_json
    built = [0]
    post_init = Vec4.__post_init__

    def counting(self):
        built[0] += 1
        post_init(self)
    monkeypatch.setattr(Vec4, "__post_init__", counting)
    cfg = make_config(1, 1, R2S)
    for nt, nw in ((3, 2), (30, 20)):
        grid = GridSpec(GridSpec.linspace((0.5, 2.0), 2), GridSpec.linspace((0.0, 6.0), nt, False),
                        GridSpec.linspace((-0.9, 1.1), nw))
        patch = patch_from_json(patch_to_json(sample_grid(beta1, cfg, grid)))
        export_obj(patch)
        assert len(patch.points) == 2 * nt * nw
    assert built[0] == 0
    assert main(["verify", "--example", "beta1", "--check", "kh,weingarten-tw"]) == 0
    assert main(["curvature", "--example", "beta1", "--out", str(tmp_path / "curv.csv")]) == 0
    assert built[0] == 0


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


def test_hyperbolic_overflow_is_a_domain_error(beta2):
    """Past |x| ~ 710 cosh and sinh overflow: DomainError from the transverse
    pattern with its partials, f_j, A and the point map's trig table."""
    std, alt = Variant.STANDARD, Variant.ALT_SUPERCRITICAL
    for fn, args in ((transverse, (3, std, 800.0, 0.1)),
                     (transverse, (2, alt, 0.1, -800.0)),
                     (family_function, (4, std, 0.0, 800.0)),
                     (family_function, (3, alt, 800.0, 0.0)),
                     (degeneracy_factor, (2, alt, 800.0))):
        with pytest.raises(DomainError, match="cosh or sinh overflows"):
            fn(*args)
    with pytest.raises(DomainError, match=r"non-finite surface point at s=1.0, t=800.0, w=0.1"):
        canal_points(beta2, make_config(3, 1, R2S), (1.0, 1.0), (0.5, 800.0), (0.1, 0.1))


def test_domain_error_names_curve_component_and_a_function(beta2):
    curve = CurveSpec(("s", "0", "0", "exp(800*s)"), (0.5, 2.5))
    with pytest.raises(DomainError, match=r"^x4\(s\) = exp\(800\*s\) at s=1.0: "):
        curve.derivative(1.0, 0)
    with pytest.raises(DomainError, match=r"^x4'\(s\) = "):
        curve.derivative(1.0, 1)
    a_free = (ex.parse("exp(800*w)", ("s", "t", "w")), ex.parse("w", ("s", "t", "w")))
    cfg = CanalConfig(3, 0, a_free=a_free)
    with pytest.raises(DomainError, match=r"^a2\(s, t, w\) = exp\(800\*w\) at s=1.0, "):
        canal_points(beta2, cfg, (1.0,), (0.0,), (1.0,))


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
    for i, jj, k, s, t, w in patch.nodes():
        assert patch.points[(i * 2 + jj) * 2 + k] == nullcone_point(beta2, 3, (a2, a4),
                                                                   s, t, w)


def _null_config(j, sigma, first, second):
    return CanalConfig(j, 0, None, sigma, Variant.STANDARD,
                       tuple(ex.parse(a, ("s", "t", "w")) for a in (first, second)))


@pytest.mark.parametrize("j", [2, 3, 4])
@pytest.mark.parametrize("sigma", [1, -1])
def test_nullcone_points_equal_node_by_node_reference(family_curves, j, sigma):
    """sample_grid (its 2 and 20 s rows: the scalar rows and fill's array
    pass) and canal_points give the bits of the node-by-node null-cone
    reference on every frame type and branch; in the second pair of
    a-functions 1e200*s*1e200 overflows, which the array pass cannot vouch
    for, so scalar calls give every value (exp(-inf) = 0)."""
    curve = family_curves[j]
    for first, second in (("w*cos(t) + 0.3*s", "w*sin(t) - 0.2"),
                          ("exp(-(1e200*s*1e200)) + t*w", "1e-3*s - exp(w)")):
        cfg = _null_config(j, sigma, first, second)
        for ns in (2, 20):
            grid = GridSpec(GridSpec.linspace((0.5, 2.5), ns), (-1.3, 0.0, 0.4, 1.1),
                            (-0.9, 0.2, 1.1))
            nodes = list(itertools.product(grid.s_values, grid.t_values, grid.w_values))
            expected = np.array([oracles.reference_nullcone_point(curve, cfg, *p)
                                 for p in nodes])
            assert sample_grid(curve, cfg, grid).coords.tobytes() == expected.tobytes()
            got = canal_points(curve, cfg, *zip(*nodes[::-1]))
            assert got.tobytes() == expected[::-1].tobytes()


@pytest.mark.parametrize("first, second", [
    ("1/(t - 0.7)", "log(w + 1)"),         # both fail; the second first, at the first node
    ("log(w + 1.5) + 1/(t - 0.7)", "w"),   # the first, at a later node
    ("t", "sqrt(0.6 - s)"),                # the second, in the second s row
], ids=["second-at-first-node", "first-later", "second-later-row"])
def test_nullcone_a_function_error_is_the_references_first(beta2, first, second):
    """When an a-function fails at some node, sample_grid and canal_points
    raise the first error of the node-by-node reference, its type and its
    message."""
    cfg = _null_config(3, 1, first, second)
    grid = GridSpec((0.5, 0.8), (0.0, 0.7), (-1.0, 0.5))
    nodes = list(itertools.product(grid.s_values, grid.t_values, grid.w_values))
    for p in nodes:
        try:
            oracles.reference_nullcone_point(beta2, cfg, *p)
        except CanalError as exc:
            expected = exc
            break
    else:
        raise AssertionError("no node fails")
    for build in (lambda: sample_grid(beta2, cfg, grid),
                  lambda: canal_points(beta2, cfg, *zip(*nodes))):
        with pytest.raises(type(expected)) as info:
            build()
        assert str(info.value) == str(expected)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(coeffs=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       start=st.floats(-2.0, 2.0),
       gaps=st.lists(st.floats(0.25, 1.0), min_size=1, max_size=6),
       at=st.lists(st.floats(-0.25, 1.25), min_size=1, max_size=8))
def test_hermite_reproduces_cubics_and_node_values(coeffs, start, gaps, at):
    """Through the values and slopes of a cubic, _hermite is that cubic, inside
    the table and past its ends, to 1e-12 of the table's size; at the nodes it
    gives the table's r bit for bit."""
    c0, c1, c2, c3 = coeffs
    s = list(itertools.accumulate([start] + gaps))
    r = [c0 + x * (c1 + x * (c2 + x * c3)) for x in s]
    rp = [c1 + x * (2.0 * c2 + 3.0 * c3 * x) for x in s]
    f = _hermite(s, r, rp)
    assert [f(x) for x in s] == r
    size = max(map(abs, r + rp)) + 1e-300
    for frac in at:
        x = s[0] + frac * (s[-1] - s[0])
        assert abs(f(x) - (c0 + x * (c1 + x * (c2 + x * c3)))) <= 1e-12 * size, x


# ---------------------------------------------------------------------------
# PointMapCache.fill: rows of one array pass, or the scalar path's errors

def _outcome(cache, s):
    """The row at s as the hex of its bytes (every field's), or the type and
    message of the error it raises."""
    try:
        row = cache.row(s)
    except CanalError as exc:
        return type(exc).__name__, str(exc)
    return row.tobytes().hex()


def _taken(cache, keys):
    """take(keys) as _outcome's text per key, in key order; asserts that a row
    is nan in every field exactly where its key has an error."""
    rows, errors = cache.take(keys)
    assert rows.dtype == canal.ROW and len(rows) == len(errors) == len(keys)
    nan = np.isnan(rows.view(float).reshape(len(keys), canal.ROW.itemsize // 8))
    failed = [e is not None for e in errors]
    assert nan.all(axis=1).tolist() == nan.any(axis=1).tolist() == failed
    return [(type(e).__name__, str(e)) if e else row.tobytes().hex()
            for row, e in zip(rows, errors)]


def _filled(curve, config, s):
    cache = PointMapCache(curve, config)
    cache.fill(s)
    return cache


_A_FREE = (ex.parse("w*cos(t)", ("s", "t", "w")), ex.parse("w*sin(t)", ("s", "t", "w")))


@pytest.mark.parametrize("curve, config", [
    ("beta1", CanalConfig(1, 1, R2S)),
    ("beta2", CanalConfig(3, -1, RadiusProfile.from_expr("1 + 0.3*s"), sigma=-1)),
    ("beta2", CanalConfig(3, 0, a_free=_A_FREE)),
    ("gamma2", CanalConfig(2, 1, RadiusProfile.from_constant(0.7), 1, Variant.ALT_SUPERCRITICAL)),
    ("gamma4", CanalConfig(4, -1, RadiusProfile.from_expr("exp(s/4)"))),
    ("varying_curvature_curve", CanalConfig(1, 1, RadiusProfile.from_expr("2 + sin(s)"))),
    ("spacelike_line", CanalConfig(2, -1, solve_minimal_radius(1, 1.0, 1.0, (0.5, 2.5)))),
    ("timelike_line", CanalConfig(1, 1, RadiusProfile.from_constant(1.5))),
], ids=["beta1", "beta2", "nullcone", "tube-alt", "gamma4", "varying", "minimal", "line-tube"])
def test_fill_builds_the_rows_of_the_scalar_path(curve, config, request):
    """Every row from the one pass, but those of a minimal profile, which has
    no array pass (its rows come from row(s)); the scalar path's bits."""
    curve = request.getfixturevalue(curve)
    s = curve.sweep(canal.BATCH_MIN_S + 3)
    batch = _filled(curve, config, s)
    assert set(batch._at) == (set() if config.radius and config.radius.generator[0] == "minimal"
                              else set(s))
    scalar = PointMapCache(curve, config)
    outcomes = [_outcome(scalar, x) for x in s]
    assert _taken(_filled(curve, config, s), [*s, s[0]]) == outcomes + outcomes[:1]
    assert [_outcome(batch, x) for x in s] == outcomes
    assert _taken(batch, []) == []


@pytest.mark.parametrize("curve, config", [
    (CurveSpec(("0", "2*s", "0", "0"), (0.0, 2.0)), CanalConfig(2, -1, R2S)),     # not unit speed
    (CurveSpec(("0", "cos(s)", "sin(s)", "0"), (0.0, 3.0)), CanalConfig(2, -1, R2S)),  # k2 = 0
    ("beta1", CanalConfig(2, -1, R2S)),                                   # frame type mismatch
    ("beta1", CanalConfig(1, 1, RadiusProfile.from_expr("1.7 - s"))),     # r <= 0 from s = 1.7
    ("gamma2", CanalConfig(2, 1, RadiusProfile.from_expr("0.5*s^2"))),    # variant violated below 1
    ("beta1", CanalConfig(1, 1, RadiusProfile.from_expr("2 + 1/(s - 1.625)"))),  # r fails at 1.625
    ("beta1", CanalConfig(1, 1, RadiusProfile.from_expr("2 + sqrt(s - 1) - sqrt(s - 1)"))),  # below 1
], ids=["speed", "k2", "frame-type", "radius-sign", "variant", "radius-pole", "radius-sqrt"])
def test_fill_leaves_every_failing_row_to_the_scalar_error(curve, config, request):
    """A row that fails a check gets, from row(s) and take, the scalar path's
    error with its type and message; the other rows are the scalar path's rows."""
    if isinstance(curve, str):
        curve = request.getfixturevalue(curve)
    s = curve.sweep(2 * canal.BATCH_MIN_S + 7)      # 0.25 + 0.0625 * i hits 1.625 on beta1
    batch, scalar = _filled(curve, config, s), PointMapCache(curve, config)
    outcomes = [_outcome(scalar, x) for x in s]
    keys = [*s, *s[-2:]]                            # the last two keys again
    assert _taken(_filled(curve, config, s), keys) == outcomes + outcomes[-2:]
    assert [_outcome(batch, x) for x in s] == outcomes
    assert any(isinstance(o, tuple) for o in outcomes)


def test_row_checks_r_before_it_evaluates_r_prime(beta1):
    """r > 0 is checked before r' is evaluated: at s = 1 the radius
    sqrt(s - 1)^3 - 1 is -1 and r' divides by zero, and row raises r's
    error, also after a fill whose array pass cannot vouch for s < 1."""
    radius = RadiusProfile.from_expr("sqrt(s - 1)^3 - 1")
    with pytest.raises(DomainError, match=r"^r'\(s\) = .* at s=1\.0: float division by zero$"):
        radius.r_prime(1.0)
    cache = PointMapCache(beta1, CanalConfig(1, 1, radius))
    cache.fill(beta1.sweep(2 * canal.BATCH_MIN_S + 13))        # 0.25 + 0.0625 * i hits 1.0
    with pytest.raises(InadmissibleConfigError, match=r"^radius r\(1\.0\) = -1 must be positive$"):
        cache.row(1.0)


def test_each_new_row_calls_the_curve_once(beta1):
    """row builds a new s from one call of the curve's one compiled function
    (the frame's orders and b alike), with the bits of a fresh curve's row."""
    curve = CurveSpec(beta1.components, beta1.domain)
    config = CanalConfig(1, 1, RadiusProfile.from_expr("2*s"))
    fn, calls = curve.derived.derive(), []
    curve.derived._all = lambda s: calls.append(s) or fn(s)
    cache = PointMapCache(curve, config)
    rows = [cache.row(s) for s in (0.5, 1.0, 1.5)]
    assert calls == [0.5, 1.0, 1.5]
    fresh = PointMapCache(CurveSpec(beta1.components, beta1.domain), config)
    for s, row in zip((0.5, 1.0, 1.5), rows):
        assert row.tobytes() == fresh.row(s).tobytes()


def test_radius_derivative_refusal_comes_from_the_constructor():
    """A radius whose r' tree outgrows MAX_DERIVATIVE_NODES is refused when
    the profile is built, with differentiate's message."""
    with pytest.raises(ExprSyntaxError, match="^expression too large to differentiate: "
                                              "a derivative of 11808 nodes, more than 10000$"):
        RadiusProfile.from_expr("2 + 1e-300*" + "sin(" * 30 + "s" + ")" * 30)


@pytest.mark.parametrize("tail, error", [
    (" + ((s - 1.625)/(s - 1.625) - 1)", "DomainError"),       # b^(k) fails at s = 1.625 only
    ("", "InadmissibleConfigError"),                           # r <= 0 from s = 1.625 on
])
def test_sample_grid_checks_the_earlier_rows_before_the_first_error(tail, error, monkeypatch):
    """On a curve or radius that fails at an interior s, sample_grid raises the
    scalar path's error only after the points of the earlier rows are built
    and checked; the array pass and the scalar rows agree."""
    curve = CurveSpec(("2*sinh(s)", "2*cosh(s)", "sqrt(3)*cos(s)", "sqrt(3)*sin(s)" + tail),
                      (0.25, 3.0))
    config = CanalConfig(1, 1, R2S if tail else RadiusProfile.from_expr("1.625 - s"))
    grid = GridSpec(curve.sweep(2 * canal.BATCH_MIN_S + 7), (0.1, 0.2), (0.3,))
    runs = []
    for batch_min in (canal.BATCH_MIN_S, 10 ** 9):          # the array pass, then scalar rows
        monkeypatch.setattr(canal, "BATCH_MIN_S", batch_min)
        rows = []
        monkeypatch.setattr(canal, "_points_at", lambda *a, f=canal._points_at:
                            rows.append(len(a[2])) or f(*a))
        with pytest.raises(CanalError) as err:
            sample_grid(curve, config, grid)
        runs.append((type(err.value).__name__, str(err.value), rows))
        monkeypatch.undo()
    assert runs[0] == runs[1]
    assert runs[0][0] == error and runs[0][2] == [grid.s_values.index(1.625)]


@st.composite
def _unit_speed_curves(draw):
    """Closed-form unit-speed curves on (0.25, 3.0): (a sinh cs, a cosh cs,
    b cos ds, b sin ds) with b^2 d^2 - a^2 c^2 = +-1 (beta1 has -1, beta2 +1),
    or (a cosh cs, a sinh cs, b sin ds, -b cos ds) with a^2 c^2 + b^2 d^2 = 1
    (as gamma2 and gamma4)."""
    c, d = draw(st.floats(0.3, 2.0)), draw(st.floats(0.3, 2.0))
    if draw(st.booleans()):
        a, b = draw(st.floats(0.2, 2.0)), draw(st.floats(0.2, 2.0))
        if draw(st.booleans()):
            b = math.sqrt(a * a * c * c + 1.0) / d      # b^2 d^2 - a^2 c^2 = 1
        else:
            a = math.sqrt(b * b * d * d + 1.0) / c      # b^2 d^2 - a^2 c^2 = -1
        x = (f"{a!r}*sinh({c!r}*s)", f"{a!r}*cosh({c!r}*s)", f"{b!r}*cos({d!r}*s)",
             f"{b!r}*sin({d!r}*s)")
    else:
        angle = draw(st.floats(0.1, 1.47))
        a, b = math.cos(angle) / c, math.sin(angle) / d
        x = (f"{a!r}*cosh({c!r}*s)", f"{a!r}*sinh({c!r}*s)", f"{b!r}*sin({d!r}*s)",
             f"-{b!r}*cos({d!r}*s)")
    return CurveSpec(x, (0.25, 3.0))


@settings(max_examples=100, deadline=None)
@given(curve=_unit_speed_curves(),
       s=st.lists(st.floats(0.25, 3.0), min_size=1, max_size=2 * canal.BATCH_MIN_S + 4),
       r=st.tuples(st.floats(0.5, 2.0), st.floats(-0.1, 0.5)))
def test_array_and_scalar_paths_agree_on_drawn_curves(curve, s, r):
    """On drawn unit-speed curves and s values on both sides of BATCH_MIN_S:
    each row of frames is frame(s)'s, bit for bit, or none where frame(s)
    raises; fill's rows are row(s)'s, field for field; sample_grid gives the
    same bits, or the same error, with and without the array pass."""
    def frame(x):
        try:
            return repr(curve.frame(x))
        except CanalError:
            return repr(None)
    assert [repr(fr) for fr in frames_of(curve, s)] == [frame(x) for x in s]
    fr = curve.frame(1.5)           # r'^2 - lam*eps1 = r'^2 + 1 with lam = -eps1
    config = CanalConfig(fr.frame_type, -fr.eps[0],
                         RadiusProfile.from_expr(f"{r[0]!r} + {r[1]!r}*s"))
    batch, scalar = _filled(curve, config, s), PointMapCache(curve, config)
    assert [_outcome(batch, x) for x in s] == [_outcome(scalar, x) for x in s]
    grid, runs = GridSpec(tuple(s), (0.3,), (0.4,)), []
    for batch_min in (canal.BATCH_MIN_S, 10 ** 9):          # the array pass, then scalar rows
        with mock.patch.object(canal, "BATCH_MIN_S", batch_min):
            try:
                patch = sample_grid(curve, config, grid)
                runs.append((patch.coords.tobytes(), [repr(f) for f in patch.frames]))
            except CanalError as exc:
                runs.append((type(exc).__name__, str(exc)))
    assert runs[0] == runs[1]


def test_point_map_overflow_raises_no_numpy_warning(beta2):
    """A product of finite trig values that overflows gives a DomainError,
    with no RuntimeWarning (an error under -W error) on the way."""
    config = CanalConfig(3, 1, R2S)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="non-finite surface point at s=1.0, t=400.0"):
            sample_grid(beta2, config, GridSpec((1.0,), (400.0,), (400.0,)))


@pytest.mark.parametrize("shape, lam", [((9, 75), 1), ((9, 9), 1), ((9, 75), 0), ((9, 9), 0)],
                         ids=["stencil", "square", "stencil-null-cone", "square-null-cone"])
def test_indexed_points_with_two_dimensional_indices(beta2, shape, lam):
    """s, t and w index arrays of shape (n, m) give, element by element, the
    bits of a one-node call: axial and phi, or the null cone's coefficients,
    follow each element's own s index (a square index array must not pair
    them with another element's)."""
    from canal4.canal import indexed_points
    cfg = (CanalConfig(3, 1, RadiusProfile.from_expr("0.6 + 0.3*s"), 1,
                       Variant.ALT_SUPERCRITICAL) if lam else
           _null_config(3, -1, "w*cos(t) + s", "s*s*sin(t)"))
    cache = PointMapCache(beta2, cfg)
    keys = (np.linspace(0.5, 2.5, 7).tolist(), np.linspace(-1.3, 1.3, 5).tolist(),
            np.linspace(0.2, 1.2, 6).tolist())
    rng = np.random.default_rng(17)
    at = [rng.integers(0, len(k), size=shape) for k in keys]
    P = indexed_points(cfg, cache, keys[0], at[0], keys[1], at[1], keys[2], at[2])
    assert P.shape == (*shape, 4)
    for n, m in itertools.product(*map(range, shape)):
        one = indexed_points(cfg, cache, *(x for k, a in zip(keys, at) for x in (k, [a[n, m]])))
        assert P[n, m].tobytes() == one[0].tobytes()
