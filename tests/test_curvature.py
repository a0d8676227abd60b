"""Fundamental forms, shape operator, curvatures: closed form vs finite
differences vs the transcribed per-family reference tables."""
import math

import numpy as np
import pytest

import conftest
from conftest import ALL_FAMILIES, TUBULAR_FAMILIES, admissible_node, make_config
import oracles

from canal4.canal import (CanalConfig, PointMapCache, RadiusProfile, Variant,
                          degeneracy_factor)
from canal4.curvature import (Route, closed_fundamental_forms, curvature_report,
                              curvatures, fundamental_forms,
                              numeric_fundamental_forms, shape_operator,
                              tubular_curvatures, unit_normal)
from canal4.errors import (DegenerateNodeError, InadmissibleConfigError,
                           PoleAtNodeError, SingularMetricError)
from canal4.minkowski import Vec4, inner

R2S = RadiusProfile.from_expr("2*s")
SQ35 = math.sqrt(35.0)
SQ21 = math.sqrt(21.0)


def _vdelta(a: Vec4, b: Vec4) -> float:
    return max(abs(x - y) for x, y in zip(a.as_tuple(), b.as_tuple()))


def _family_cases(family_curves, rng, per_family=6, d_floor=0.25):
    for j, lam in ALL_FAMILIES:
        curve = family_curves[j]
        s_range = conftest.SWEEP_S_RANGE[j]
        radius = conftest.random_polynomial_radius(rng, j, lam, s_range)
        cfg = CanalConfig(j, lam, radius)
        for _ in range(per_family):
            s, t, w = admissible_node(rng, curve, cfg, s_range, d_floor=d_floor)
            yield curve, cfg, s, t, w


# ---------------------------------------------------------------------------
# unit normal

def test_normal_closed_form_golden(beta1):
    """Sphere family over the timelike curve: N = -(r' F1 + sqrt(r'^2+1) F2) at (1,0,0)."""
    cfg = make_config(1, 1, R2S)
    fr = beta1.frenet(1.0)
    N = unit_normal(beta1, cfg, 1.0, 0.0, 0.0)
    expected = -(2.0 * fr.f1 + math.sqrt(5.0) * fr.f2)
    assert _vdelta(N, expected) < 1e-12
    assert inner(N, N) == pytest.approx(1.0, abs=1e-10)


def test_normal_sign_is_lambda(beta1, beta2):
    for curve, j in ((beta1, 1), (beta2, 3)):
        for lam in (1, -1):
            cfg = make_config(j, lam, R2S)
            N = unit_normal(curve, cfg, 1.0, 0.4, 0.3)
            assert inner(N, N) == pytest.approx(lam, abs=1e-10)


def test_normal_matches_reference_table(family_curves, rng):
    """The per-family normal lines (with the corrected (2,-1) sign)."""
    for curve, cfg, s, t, w in _family_cases(family_curves, rng, per_family=3):
        fr = curve.frenet(s)
        N = unit_normal(curve, cfg, s, t, w)
        expected = oracles.normal_table(cfg.j, cfg.lam, fr, cfg.radius.r_prime(s), t, w)
        assert _vdelta(N, expected) <= 1e-10 * (1 + abs(cfg.radius.r_prime(s)))


def test_tubular_normal_reduces_to_transverse_sum(beta1):
    """Constant radius: N = -eps3 eps4 lam^j * (sum a_i F_i) (here -(sum))."""
    cfg = CanalConfig(1, 1, RadiusProfile.from_constant(0.4))
    fr = beta1.frenet(0.9)
    t, w = 0.5, 0.7
    N = unit_normal(beta1, cfg, 0.9, t, w)
    a2 = math.cos(t) * math.cos(w)
    a3 = math.sin(t) * math.cos(w)
    a4 = math.sin(w)
    expected = -(a2 * fr.f2 + a3 * fr.f3 + a4 * fr.f4)
    assert _vdelta(N, expected) < 1e-12


def test_normal_routes_agree(beta1):
    cfg = make_config(1, -1, R2S)
    N_cf = unit_normal(beta1, cfg, 1.1, 0.7, 0.4, Route.CLOSED_FORM)
    N_num = unit_normal(beta1, cfg, 1.1, 0.7, 0.4, Route.NUMERIC)
    assert _vdelta(N_cf, N_num) < 1e-7


def test_normal_orthogonal_to_fd_partials(beta1):
    cfg = make_config(1, 1, R2S)
    s, t, w = 1.2, 0.6, 0.3
    N = unit_normal(beta1, cfg, s, t, w)
    from canal4.canal import canal_point
    h = 1e-5
    for axis in range(3):
        p = [s, t, w]
        m = [s, t, w]
        p[axis] += h
        m[axis] -= h
        tangent = (canal_point(beta1, cfg, *p) - canal_point(beta1, cfg, *m)) * (1 / (2 * h))
        assert abs(inner(N, tangent)) <= 1e-8 * (1 + abs(inner(tangent, tangent)))


# ---------------------------------------------------------------------------
# fundamental forms

def test_g33_and_detg_goldens(beta1):
    cfg = make_config(1, 1, R2S)
    g, h = fundamental_forms(beta1, cfg, 1.0, 0.0, 0.0)
    assert g[2, 2] == pytest.approx(20.0, rel=1e-12)          # (r'^2+lam) r^2
    assert g[1, 2] == 0.0 and g[2, 1] == 0.0
    det_g = float(np.linalg.det(g))
    expected = -80.0 * (5 + 2 * SQ35) ** 2                    # ~ -22665.7
    assert det_g == pytest.approx(expected, rel=1e-9)
    assert det_g == pytest.approx(-22665.73, abs=0.01)


def test_forms_match_reference_tables(family_curves, rng):
    """Every transcribed g/h entry that survives verification, all 8 families."""
    for curve, cfg, s, t, w in _family_cases(family_curves, rng, per_family=4):
        fr = curve.frenet(s)
        g, h = fundamental_forms(curve, cfg, s, t, w)
        gt, ht = oracles.table_g_h(cfg.j, cfg.lam, (fr.k1, fr.k2, fr.k3),
                                   cfg.radius(s), cfg.radius.r_prime(s),
                                   cfg.radius.r_second(s), t, w)
        for i in range(3):
            for jj in range(3):
                if not math.isnan(gt[i, jj]):
                    assert g[i, jj] == pytest.approx(gt[i, jj], rel=1e-9, abs=1e-9), \
                        (cfg.j, cfg.lam, "g", i, jj)
                assert h[i, jj] == pytest.approx(ht[i, jj], rel=1e-9, abs=1e-9), \
                    (cfg.j, cfg.lam, "h", i, jj)


def test_det_formulas_all_families(family_curves, rng):
    for curve, cfg, s, t, w in _family_cases(family_curves, rng, per_family=4):
        fr = curve.frenet(s)
        g, h = fundamental_forms(curve, cfg, s, t, w)
        from canal4.canal import family_function
        dg, dh = oracles.table_dets(cfg.j, cfg.lam, fr.eps, fr.k1, cfg.radius(s),
                                    cfg.radius.r_prime(s), cfg.radius.r_second(s),
                                    t, w, degeneracy_factor(cfg.j, cfg.variant, w),
                                    family_function(cfg.j, t, w))
        assert float(np.linalg.det(g)) == pytest.approx(dg, rel=1e-8)
        assert float(np.linalg.det(h)) == pytest.approx(dh, rel=1e-8)
        # hypersurface causal type: det g sign is -lam
        assert math.copysign(1.0, np.linalg.det(g)) == -cfg.lam


def test_routes_agree_on_forms(family_curves, rng):
    for curve, cfg, s, t, w in _family_cases(family_curves, rng, per_family=2):
        g_cf, h_cf, _ = closed_fundamental_forms(curve, cfg, s, t, w)
        g_num, h_num, _ = numeric_fundamental_forms(curve, cfg, s, t, w)
        assert np.max(np.abs(g_cf - g_num) / (1 + np.abs(g_cf))) <= 1e-5
        assert np.max(np.abs(h_cf - h_num) / (1 + np.abs(h_cf))) <= 1e-4


def test_numeric_route_equals_scalar_reference(family_curves, rng):
    """The one-call stencil gives g, h and N bit for bit equal to the per-node
    scalar stencil, with and without a cache shared across nodes."""
    for j, lam in ALL_FAMILIES:
        curve = family_curves[j]
        s_range = conftest.SWEEP_S_RANGE[j]
        cfg = CanalConfig(j, lam, conftest.random_polynomial_radius(rng, j, lam, s_range))
        cache = PointMapCache(curve, cfg)
        s0, t0, w0 = admissible_node(rng, curve, cfg, s_range, d_floor=0.25)
        # the second node shares s with the first, so it reads cached rows
        for s, t, w in ((s0, t0, w0), (s0, -t0, 0.5 * w0)):
            g_ref, h_ref, N_ref = oracles.reference_numeric_forms(curve, cfg, s, t, w)
            for shared in (None, cache):
                g, h, N = numeric_fundamental_forms(curve, cfg, s, t, w, cache=shared)
                assert np.array_equal(g, g_ref)
                assert np.array_equal(h, h_ref)
                assert N == N_ref


def test_numeric_route_needs_no_closed_form(family_curves, rng, monkeypatch):
    """The numeric route orients N from its own stencil: with the closed-form
    forms unavailable it still gives the same g, h and N bit for bit."""
    import canal4.curvature as curvature
    cases = [(curve, cfg, s, t, w) for curve, cfg, s, t, w
             in _family_cases(family_curves, rng, per_family=1)]
    expected = [numeric_fundamental_forms(*case) for case in cases]

    def unavailable(*args, **kwargs):
        raise AssertionError("the numeric route called the closed form")

    monkeypatch.setattr(curvature, "closed_fundamental_forms", unavailable)
    for case, (g_ref, h_ref, N_ref) in zip(cases, expected):
        g, h, N = numeric_fundamental_forms(*case)
        assert np.array_equal(g, g_ref)
        assert np.array_equal(h, h_ref)
        assert N == N_ref


def test_metric_signature(family_curves, rng):
    """lam = -1 induces a positive-definite metric, lam = +1 a Lorentzian one."""
    for curve, cfg, s, t, w in _family_cases(family_curves, rng, per_family=2):
        g, _ = fundamental_forms(curve, cfg, s, t, w)
        eigs = np.linalg.eigvalsh(0.5 * (g + g.T))
        if cfg.lam == -1:
            assert np.all(eigs > 0)
        else:
            assert np.sum(eigs < 0) == 1


# ---------------------------------------------------------------------------
# shape operator and curvatures

def test_shape_operator_structure(beta1, rng):
    for lam in (1, -1):
        cfg = make_config(1, lam, R2S)
        s, t, w = admissible_node(rng, beta1, cfg, (0.5, 2.5))
        g, h = fundamental_forms(beta1, cfg, s, t, w)
        S = shape_operator(g, h)
        assert S[1, 1] == pytest.approx(lam / (2 * s), rel=1e-9)
        assert S[2, 2] == pytest.approx(lam / (2 * s), rel=1e-9)
        for idx in ((0, 1), (0, 2), (1, 2), (2, 1)):
            assert abs(S[idx]) <= 1e-9 * (1 + np.max(np.abs(S)))
        assert np.max(np.abs(g @ S - h)) <= 1e-9 * (1 + np.max(np.abs(h)))


def test_shape_diag_all_families(family_curves, rng):
    for curve, cfg, s, t, w in _family_cases(family_curves, rng, per_family=2):
        g, h = fundamental_forms(curve, cfg, s, t, w)
        S = shape_operator(g, h)
        expected = oracles.table_shape_diag(cfg.j, cfg.lam, cfg.radius(s))
        assert S[1, 1] == pytest.approx(expected, rel=1e-9)
        assert S[2, 2] == pytest.approx(expected, rel=1e-9)


def test_singular_metric_raises():
    with pytest.raises(SingularMetricError):
        shape_operator(np.zeros((3, 3)), np.eye(3))


def test_degenerate_node_raises(beta1):
    cfg = make_config(1, 1, R2S)
    with pytest.raises(DegenerateNodeError):
        curvatures(beta1, cfg, 1.0, 0.3, math.pi / 2)


def test_curvature_goldens(beta1, beta2):
    """The four frozen single-point golden values at (s,t,w) = (1,0,0)."""
    mu3_11 = 5 * (SQ35 + 14) / (5 + 2 * SQ35) ** 2
    mu3_1m1 = 3 * (SQ21 - 14) / (3 - 2 * SQ21) ** 2
    cases = [
        (beta1, 1, 1, (0.5, 0.5, mu3_11)),
        (beta1, 1, -1, (-0.5, -0.5, mu3_1m1)),
        (beta2, 3, 1, (-0.5, -0.5, 0.0)),
        (beta2, 3, -1, (0.5, 0.5, 0.0)),
    ]
    for curve, j, lam, mu_exp in cases:
        K, H, m1, m2, m3 = curvatures(curve, make_config(j, lam, R2S), 1.0, 0.0, 0.0)
        assert m1 == pytest.approx(mu_exp[0], abs=1e-9)
        assert m2 == pytest.approx(mu_exp[1], abs=1e-9)
        assert m3 == pytest.approx(mu_exp[2], abs=1e-9)
        assert K == pytest.approx(mu_exp[0] * mu_exp[1] * mu_exp[2], abs=1e-9)
        assert H == pytest.approx(sum(mu_exp) / 3, abs=1e-9)


def test_curvatures_match_example_formulas(beta1, beta2, rng):
    cases = [
        (beta1, make_config(1, 1, R2S), oracles.example_curvatures_11),
        (beta1, make_config(1, -1, R2S), oracles.example_curvatures_1m1),
        (beta2, make_config(3, 1, R2S), oracles.example_curvatures_31),
        (beta2, make_config(3, -1, R2S), oracles.example_curvatures_3m1),
    ]
    for curve, cfg, formula in cases:
        for _ in range(6):
            s, t, w = admissible_node(rng, curve, cfg, (0.5, 2.5))
            K, H, m1, m2, m3 = curvatures(curve, cfg, s, t, w)
            Ke, He, mue = formula(s, t, w)
            assert K == pytest.approx(Ke, rel=1e-9, abs=1e-12)
            assert H == pytest.approx(He, rel=1e-9, abs=1e-12)
            assert (m1, m2, m3) == pytest.approx(mue, rel=1e-9, abs=1e-12)


def test_route_agreement_mini_sweep(family_curves, rng):
    for curve, cfg, s, t, w in _family_cases(family_curves, rng, per_family=3):
        cf = curvature_report(curve, cfg, s, t, w, Route.CLOSED_FORM)
        num = curvature_report(curve, cfg, s, t, w, Route.NUMERIC)
        assert abs(cf.K - num.K) <= 1e-4 * (1 + abs(cf.K))
        assert abs(cf.H - num.H) <= 1e-4 * (1 + abs(cf.H))
        for a, b in zip(cf.mu, num.mu):
            assert abs(a - b) <= 1e-4 * (1 + abs(a))
        assert cf.eps_N == num.eps_N == cfg.lam


def test_eigenstructure_and_consistency(family_curves, rng):
    """Double root eps3 eps4 lam^j / r; sums/products match trace and det."""
    for curve, cfg, s, t, w in _family_cases(family_curves, rng, per_family=2):
        rep = curvature_report(curve, cfg, s, t, w, Route.NUMERIC)
        fr = curve.frenet(s)
        expected_double = fr.eps[2] * fr.eps[3] * cfg.lam ** cfg.j / cfg.radius(s)
        assert rep.mu[0] == pytest.approx(expected_double, rel=1e-5)
        assert rep.mu[1] == pytest.approx(expected_double, rel=1e-5)
        scale = 1 + max(abs(m) for m in rep.mu)
        assert sum(rep.mu) == pytest.approx(float(np.trace(rep.S)), abs=1e-9 * scale ** 2)
        assert rep.mu[0] * rep.mu[1] * rep.mu[2] == pytest.approx(
            float(np.linalg.det(rep.S)), abs=1e-9 * scale ** 3)
        assert rep.K == pytest.approx(float(np.linalg.det(rep.h) / np.linalg.det(rep.g)),
                                      rel=1e-12)


def test_varying_curvature_route_agreement(varying_curvature_curve):
    cfg = make_config(1, 1, RadiusProfile.from_expr("0.5 + 0.4*s + 0.1*s^2"))
    for (s, t, w) in [(0.6, 0.5, 0.4), (1.0, 2.2, -0.6), (1.3, 4.0, 0.8)]:
        cf = curvature_report(varying_curvature_curve, cfg, s, t, w, Route.CLOSED_FORM)
        num = curvature_report(varying_curvature_curve, cfg, s, t, w, Route.NUMERIC)
        assert abs(cf.K - num.K) <= 1e-4 * (1 + abs(cf.K))
        assert abs(cf.H - num.H) <= 1e-4 * (1 + abs(cf.H))


def test_supercritical_variant_route_agreement(beta2):
    cfg = CanalConfig(3, 1, RadiusProfile.from_expr("0.6 + 0.3*s + 0.05*s^2"),
                      1, Variant.ALT_SUPERCRITICAL)
    for (s, t, w) in [(0.7, 0.5, -0.4), (1.3, -0.8, 0.6)]:
        cf = curvature_report(beta2, cfg, s, t, w, Route.CLOSED_FORM)
        num = curvature_report(beta2, cfg, s, t, w, Route.NUMERIC)
        assert abs(cf.K - num.K) <= 1e-4 * (1 + abs(cf.K))
        assert abs(cf.H - num.H) <= 1e-4 * (1 + abs(cf.H))
        for a, b in zip(cf.mu, num.mu):
            assert abs(a - b) <= 1e-4 * (1 + abs(a))


def test_negative_branch_route_agreement(beta1, rng):
    cfg = CanalConfig(1, 1, R2S, sigma=-1)
    for _ in range(4):
        s, t, w = admissible_node(rng, beta1, cfg, conftest.SWEEP_S_RANGE[1])
        cf = curvature_report(beta1, cfg, s, t, w, Route.CLOSED_FORM)
        num = curvature_report(beta1, cfg, s, t, w, Route.NUMERIC)
        assert abs(cf.K - num.K) <= 1e-4 * (1 + abs(cf.K))
        assert abs(cf.mu[2] - num.mu[2]) <= 1e-4 * (1 + abs(cf.mu[2]))


def test_tubular_curvature_goldens(beta1):
    k1 = math.sqrt(7.0)
    r = 0.3
    # f vanishes at t = pi/2: K = 0, H = 2/(3r)
    K, H = tubular_curvatures(1, 1, r, k1, math.pi / 2, 0.0)
    assert K == pytest.approx(0.0, abs=1e-12)
    assert H == pytest.approx(2.0 / (3 * r), rel=1e-12)
    with pytest.raises(PoleAtNodeError):
        # r k1 cos t cos w = -1 exactly
        tubular_curvatures(1, 1, 1.0 / k1, k1, math.pi, 0.0)
    with pytest.raises(InadmissibleConfigError):
        tubular_curvatures(1, -1, r, k1, 0.0, 0.0)
    # hyperbolic family row at w = 0
    t = 0.7
    K, H = tubular_curvatures(2, -1, r, k1, t, 0.0)
    u = k1 * math.cosh(t)
    assert K == pytest.approx(u / (r * r * (1 + r * u)), rel=1e-12)


def test_tubular_matches_numeric_all_families(family_curves):
    rc = 0.2
    for j, lam in TUBULAR_FAMILIES:
        curve = family_curves[j]
        variant = Variant.ALT_SUPERCRITICAL if (j >= 2 and lam == 1) else Variant.STANDARD
        cfg = CanalConfig(j, lam, RadiusProfile.from_constant(rc), 1, variant)
        s, t, w = 0.9, 0.5, 0.6
        fr = curve.frame(s)
        K_t, H_t = tubular_curvatures(j, lam, rc, fr.k1, t, w)
        K_o, H_o = oracles.tubular_table(j, lam, rc, fr.k1, t, w)
        assert K_t == pytest.approx(K_o, rel=1e-12)
        assert H_t == pytest.approx(H_o, rel=1e-12)
        num = curvature_report(curve, cfg, s, t, w, Route.NUMERIC)
        assert num.K == pytest.approx(K_t, rel=1e-4)
        assert num.H == pytest.approx(H_t, rel=1e-4)


def test_lambda0_has_no_curvature(beta2):
    from canal4 import expr as ex
    a2 = ex.parse("w*cos(t)", ("s", "t", "w"))
    a4 = ex.parse("w*sin(t)", ("s", "t", "w"))
    cfg = CanalConfig(3, 0, None, 1, Variant.STANDARD, (a2, a4))
    with pytest.raises(InadmissibleConfigError):
        curvatures(beta2, cfg, 1.0, 0.5, 0.5)


def test_complex_eigenvalues_detected():
    from canal4.curvature import principal_from_shape
    rotation_like = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(Exception) as err:
        principal_from_shape(rotation_like)
    assert "complex" in str(err.value)


def test_closed_route_internal_consistency(family_curves, rng):
    """Rational K/H/mu formulas equal det/trace of the exact closed g, h, S."""
    for curve, cfg, s, t, w in _family_cases(family_curves, rng, per_family=2):
        rep = curvature_report(curve, cfg, s, t, w, Route.CLOSED_FORM)
        assert rep.K == pytest.approx(
            float(np.linalg.det(rep.h) / np.linalg.det(rep.g)), rel=1e-10)
        assert rep.H == pytest.approx(float(np.trace(rep.S)) / 3.0, rel=1e-10)
        assert rep.mu[0] == pytest.approx(float(rep.S[1, 1]), rel=1e-10)
        assert rep.mu[1] == pytest.approx(float(rep.S[2, 2]), rel=1e-10)
