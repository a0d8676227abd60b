"""Fundamental forms, shape operator, curvatures: closed form vs finite
differences vs the transcribed per-family reference tables."""
import math

import numpy as np
import pytest

import conftest
from conftest import (ALL_FAMILIES, TUBULAR_FAMILIES, admissible_node, arr, make_config,
                      tubular_kh, tubular_variant)
import oracles

from canal4.canal import (CanalConfig, PointMapCache, RadiusProfile, Variant,
                          degeneracy_factor)
from canal4.curvature import (Route, _check_metric, _numeric_forms, _principal,
                               curvature_report)
from canal4.errors import (CanalError, DegenerateNodeError, InadmissibleConfigError,
                           SingularMetricError, unwrap)
from canal4.minkowski import inner

R2S = RadiusProfile.from_expr("2*s")
SQ35 = math.sqrt(35.0)
SQ21 = math.sqrt(21.0)


def _vdelta(a, b) -> float:
    return float(np.abs(a - b).max())


def _normal(curve, cfg, s, t, w, route=Route.CLOSED_FORM) -> np.ndarray:
    return np.array(curvature_report(curve, cfg, s, t, w, route).N)


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
    F1, F2, _, _ = map(np.array, beta1.frenet(1.0).tetrad)
    N = _normal(beta1, cfg, 1.0, 0.0, 0.0)
    expected = -(2.0 * F1 + math.sqrt(5.0) * F2)
    assert _vdelta(N, expected) < 1e-12
    assert inner(N, N) == pytest.approx(1.0, abs=1e-10)


def test_normal_sign_is_lambda(beta1, beta2):
    for curve, j in ((beta1, 1), (beta2, 3)):
        for lam in (1, -1):
            cfg = make_config(j, lam, R2S)
            N = _normal(curve, cfg, 1.0, 0.4, 0.3)
            assert inner(N, N) == pytest.approx(lam, abs=1e-10)


def test_normal_matches_reference_table(family_curves, rng):
    """The per-family normal lines (with the corrected (2,-1) sign)."""
    for curve, cfg, s, t, w in _family_cases(family_curves, rng, per_family=3):
        fr = curve.frenet(s)
        N = _normal(curve, cfg, s, t, w)
        expected = oracles.normal_table(cfg.j, cfg.lam, fr, cfg.radius.r_prime(s), t, w)
        assert _vdelta(N, expected) <= 1e-10 * (1 + abs(cfg.radius.r_prime(s)))


def test_tubular_normal_reduces_to_transverse_sum(beta1):
    """Constant radius: N = -eps3 eps4 lam^j * (sum a_i F_i) (here -(sum))."""
    cfg = CanalConfig(1, 1, RadiusProfile.from_constant(0.4))
    _, F2, F3, F4 = map(np.array, beta1.frenet(0.9).tetrad)
    t, w = 0.5, 0.7
    N = _normal(beta1, cfg, 0.9, t, w)
    a2 = math.cos(t) * math.cos(w)
    a3 = math.sin(t) * math.cos(w)
    a4 = math.sin(w)
    expected = -(a2 * F2 + a3 * F3 + a4 * F4)
    assert _vdelta(N, expected) < 1e-12


def test_normal_routes_agree(beta1):
    cfg = make_config(1, -1, R2S)
    N_cf = _normal(beta1, cfg, 1.1, 0.7, 0.4, Route.CLOSED_FORM)
    N_num = _normal(beta1, cfg, 1.1, 0.7, 0.4, Route.NUMERIC)
    assert _vdelta(N_cf, N_num) < 1e-7


def test_normal_orthogonal_to_fd_partials(beta1):
    cfg = make_config(1, 1, R2S)
    s, t, w = 1.2, 0.6, 0.3
    N = _normal(beta1, cfg, s, t, w)
    from canal4.canal import canal_point
    h = 1e-5
    for axis in range(3):
        p = [s, t, w]
        m = [s, t, w]
        p[axis] += h
        m[axis] -= h
        tangent = (arr(canal_point(beta1, cfg, *p))
                   - arr(canal_point(beta1, cfg, *m))) * (1 / (2 * h))
        assert abs(inner(N, tangent)) <= 1e-8 * (1 + abs(inner(tangent, tangent)))


# ---------------------------------------------------------------------------
# fundamental forms

def test_g33_and_detg_goldens(beta1):
    cfg = make_config(1, 1, R2S)
    g = curvature_report(beta1, cfg, 1.0, 0.0, 0.0).g
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
        rep = curvature_report(curve, cfg, s, t, w)
        g, h = rep.g, rep.h
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
        rep = curvature_report(curve, cfg, s, t, w)
        g, h = rep.g, rep.h
        from canal4.canal import family_function
        dg, dh = oracles.table_dets(cfg.j, cfg.lam, fr.eps, fr.k1, cfg.radius(s),
                                    cfg.radius.r_prime(s), cfg.radius.r_second(s),
                                    t, w, degeneracy_factor(cfg.j, cfg.variant, w),
                                    family_function(cfg.j, cfg.variant, t, w))
        assert float(np.linalg.det(g)) == pytest.approx(dg, rel=1e-8)
        assert float(np.linalg.det(h)) == pytest.approx(dh, rel=1e-8)
        # hypersurface causal type: det g sign is -lam
        assert math.copysign(1.0, np.linalg.det(g)) == -cfg.lam


def test_routes_agree_on_forms(family_curves, rng):
    for curve, cfg, s, t, w in _family_cases(family_curves, rng, per_family=2):
        cf = curvature_report(curve, cfg, s, t, w, Route.CLOSED_FORM)
        num = curvature_report(curve, cfg, s, t, w, Route.NUMERIC)
        assert np.max(np.abs(cf.g - num.g) / (1 + np.abs(cf.g))) <= 1e-5
        assert np.max(np.abs(cf.h - num.h) / (1 + np.abs(cf.h))) <= 1e-4


def _keys(nodes):
    """(s_keys, s_at, t_keys, t_at, w_keys, w_at) of a list of (s, t, w) nodes."""
    from canal4.canal import _distinct
    return tuple(x for axis in zip(*nodes) for x in _distinct(axis))


def test_numeric_route_equals_scalar_reference(family_curves, rng):
    """The stencil gives g, h and N bit for bit equal to the per-node scalar
    stencil, from curvature_report and from one pass over a block of nodes of
    three s rows on a cache shared across nodes; the pass's K and H are the
    per-node reference's."""
    for j, lam in ALL_FAMILIES:
        curve = family_curves[j]
        s_range = conftest.SWEEP_S_RANGE[j]
        cfg = CanalConfig(j, lam, conftest.random_polynomial_radius(rng, j, lam, s_range))
        nodes = [admissible_node(rng, curve, cfg, s_range, d_floor=0.25) for _ in range(3)]
        # the second node shares s with the first, so it reads cached rows
        s0, t0, w0 = nodes[0]
        nodes.insert(1, (s0, -t0, 0.5 * w0))
        forms, errors = _numeric_forms(cfg, PointMapCache(curve, cfg), *_keys(nodes))
        assert errors == [None] * len(nodes)
        for n, (s, t, w) in enumerate(nodes):
            g_ref, h_ref, N_ref = oracles.reference_numeric_forms(curve, cfg, s, t, w)
            rep = curvature_report(curve, cfg, s, t, w, Route.NUMERIC)
            for g, h, N in ((rep.g, rep.h, np.array(rep.N)), (forms[0][n], forms[1][n],
                                                              forms[3][n])):
                assert np.array_equal(g, g_ref)
                assert np.array_equal(h, h_ref)
                assert N.tobytes() == N_ref.tobytes()
            K, H, _ = oracles.reference_numeric_report(curve, cfg, s, t, w)
            assert (float(forms[4][n]), float(forms[5][n])) == (K, H) == (rep.K, rep.H)


def test_numeric_route_needs_no_closed_form(family_curves, rng, monkeypatch):
    """The numeric route orients N from its own stencil: with the closed-form
    forms unavailable it still gives the same g, h and N bit for bit."""
    import canal4.curvature as curvature
    cases = [(curve, cfg, s, t, w, Route.NUMERIC) for curve, cfg, s, t, w
             in _family_cases(family_curves, rng, per_family=1)]
    expected = [curvature_report(*case) for case in cases]

    def unavailable(*args, **kwargs):
        raise AssertionError("the numeric route called the closed form")

    monkeypatch.setattr(curvature, "_closed_forms", unavailable)
    monkeypatch.setitem(curvature._PASSES, Route.CLOSED_FORM, unavailable)
    for case, ref in zip(cases, expected):
        rep = curvature_report(*case)
        assert np.array_equal(rep.g, ref.g)
        assert np.array_equal(rep.h, ref.h)
        assert rep.N == ref.N


def _row_configs(family_curves, rng):
    """A config per family and branch, a supercritical one and the tubes."""
    for j, lam in ALL_FAMILIES:
        radius = conftest.random_polynomial_radius(rng, j, lam, conftest.SWEEP_S_RANGE[j])
        for sigma in (1, -1):
            yield family_curves[j], CanalConfig(j, lam, radius, sigma)
    yield family_curves[3], CanalConfig(3, 1, RadiusProfile.from_expr("0.6 + 0.3*s"), -1,
                                        Variant.ALT_SUPERCRITICAL)
    for j, lam in TUBULAR_FAMILIES:
        variant = Variant.ALT_SUPERCRITICAL if (j >= 2 and lam == 1) else Variant.STANDARD
        yield family_curves[j], CanalConfig(j, lam, RadiusProfile.from_constant(0.2), 1, variant)


def test_row_pass_equals_scalar_reference(family_curves, rng):
    """One pass over a block of nodes from three s rows gives every node's g,
    h and N bit for bit equal to the per-node scalar stencil."""
    for curve, cfg in _row_configs(family_curves, rng):
        s = sorted(rng.uniform(*conftest.SWEEP_S_RANGE[cfg.j]) for _ in range(3))
        t = [rng.uniform(0.0, 6.0) if cfg.j == 1 else rng.uniform(-1.3, 1.3) for _ in range(2)]
        w = [rng.choice((-1, 1)) * rng.uniform(0.3, 1.2) for _ in range(2)]
        nodes = [(a, b, c) for a in s for b in t for c in w]
        (g, h, _, N, *_), errors = _numeric_forms(cfg, PointMapCache(curve, cfg), *_keys(nodes))
        assert errors == [None] * len(nodes)
        for n, node in enumerate(nodes):
            g_ref, h_ref, N_ref = oracles.reference_numeric_forms(curve, cfg, *node)
            assert np.array_equal(g[n], g_ref)
            assert np.array_equal(h[n], h_ref)
            assert N[n].tobytes() == N_ref.tobytes()


def _outcome(fn):
    try:
        return fn()
    except CanalError as exc:
        return exc


def test_row_errors_match_one_node_calls(beta2):
    """One block over three s rows, the middle one past the domain: good
    nodes, a degenerate one (supercritical w = 0) and one whose stencil
    overflows cosh in each row. Each node gets the result or the error (type
    and message) of its one-node call. The stencil s past the domain fails
    only its own row's nodes, after the degenerate node's own check."""
    from canal4.curvature import CurvatureReport
    cfg = CanalConfig(3, 1, RadiusProfile.from_expr("0.6 + 0.3*s"), 1,
                      Variant.ALT_SUPERCRITICAL)
    t = (0.3, -0.4, 800.0, 0.3, 0.9)
    w = (0.4, 0.0, 0.5, -0.7, 0.0)
    nodes = [(s, *node) for s in (1.2, 3.001, 1.5) for node in zip(t, w)]
    forms, errors = _numeric_forms(cfg, PointMapCache(beta2, cfg), *_keys(nodes))
    g, h, S, N, K, H, eig = forms
    kinds = []
    for n, (node, error) in enumerate(zip(nodes, errors)):
        one = _outcome(lambda: curvature_report(beta2, cfg, *node, Route.NUMERIC))
        if error is None:
            assert type(one) is CurvatureReport
            for got, want in ((g[n], one.g), (h[n], one.h), (S[n], one.S)):
                assert np.array_equal(got, want)
            assert ((tuple(N[n].tolist()), float(K[n]), float(H[n]), _principal(eig[n]))
                    == (one.N, one.K, one.H, one.mu))
        else:
            assert type(error) is type(one)
            assert str(error) == str(one)
        kinds.append(type(one).__name__)
    assert kinds == ["CurvatureReport", "DegenerateNodeError", "DomainError",
                     "CurvatureReport", "DegenerateNodeError", "OutOfDomainError",
                     "DegenerateNodeError", "OutOfDomainError", "OutOfDomainError",
                     "DegenerateNodeError", "CurvatureReport", "DegenerateNodeError",
                     "DomainError", "CurvatureReport", "DegenerateNodeError"]


def _assert_same_outcome(got, one):
    """The same error (type and message), or reports equal bit for bit."""
    assert type(got) is type(one)
    if isinstance(one, Exception):
        assert str(got) == str(one)
        return
    for field in ("g", "h", "S"):
        assert getattr(got, field).tobytes() == getattr(one, field).tobytes()
    assert repr(got.N) == repr(one.N)
    assert repr((got.eps_N, got.K, got.H, got.mu, got.f_j, got.A, got.route)) == repr(
        (one.eps_N, one.K, one.H, one.mu, one.f_j, one.A, one.route))


def _row_keys(s, t, w):
    """The key and index lists of the closed-form pass over the nodes (s, t[n], w[n])."""
    return (s,), [0] * len(t), t, range(len(t)), w, range(len(w))


def _assert_pass_node(forms, n, ref):
    """Node n of a _closed_forms pass equals the reference report bit for bit."""
    g, h, S, N, K, H, mu = (x[n] for x in forms)
    for got, one in ((g, ref.g), (h, ref.h), (S, ref.S)):
        assert got.tobytes() == one.tobytes()
    assert repr((tuple(N.tolist()), float(K), float(H), tuple(mu.tolist()))) == repr(
        (ref.N, ref.K, ref.H, ref.mu))


def test_closed_row_pass_equals_per_node_reference(family_curves, rng):
    """The closed-form pass over the nodes of an s row gives every node's g,
    h, S, N, K, H, mu and f_j bit for bit equal to the original per-node
    closed form, on every family and branch, the supercritical variant and
    the tubes; so do the one-node calls, which are passes of one node."""
    from canal4.curvature import _closed_forms
    for curve, cfg in _row_configs(family_curves, rng):
        s = rng.uniform(*conftest.SWEEP_S_RANGE[cfg.j])
        t = [rng.uniform(0.0, 6.0) if cfg.j == 1 else rng.uniform(-1.3, 1.3) for _ in range(3)]
        w = [rng.choice((-1, 1)) * rng.uniform(0.3, 1.2) for _ in range(3)]
        t, w = [x for x in t for _ in w], w * len(t)
        forms, errors = _closed_forms(cfg, PointMapCache(curve, cfg), *_row_keys(s, t, w))
        assert errors == [None] * len(t)
        for n, node in enumerate(zip(t, w)):
            g_ref, h_ref, N_ref = oracles.reference_closed_forms(curve, cfg, s, *node)
            assert forms[0][n].tobytes() == g_ref.tobytes()
            assert forms[1][n].tobytes() == h_ref.tobytes()
            assert forms[3][n].tobytes() == N_ref.tobytes()
            ref = oracles.reference_closed_report(curve, cfg, s, *node)
            _assert_pass_node(forms, n, ref)
            _assert_same_outcome(curvature_report(curve, cfg, s, *node), ref)


def test_closed_row_errors_match_per_node_reference(beta2):
    """One supercritical row mixes good nodes, a degenerate one (w = 0), one
    whose cosh overflows (t = 800) and one on the focal locus D = 0: each
    node gets the report or the error (type and message) of the per-node
    reference, in the pass and from curvature_report (f_j included). Past the
    domain the row fails every node after its own degenerate check."""
    from canal4.curvature import _closed_forms
    cfg = CanalConfig(3, 1, RadiusProfile.from_expr("0.6 + 0.3*s"), 1,
                      Variant.ALT_SUPERCRITICAL)
    r, rp, rpp = PointMapCache(beta2, cfg).row(1.2)[["r", "rp", "rpp"]].tolist()
    fr = beta2.frame(1.2)
    Q, R = -(rp ** 2 - fr.eps[0]), -rpp
    # D = Q - eps2 r k1 f sqrt(Q) + r R = 0 with f = sinh(t) sinh(w), w = 0.5
    f = (Q + r * R) / (fr.eps[1] * r * fr.k1 * math.sqrt(Q))
    t = (0.3, -0.4, 800.0, 0.3, math.asinh(f / math.sinh(0.5)))
    w = (0.4, 0.0, 0.5, -0.7, 0.5)
    kinds = []
    for s in (1.2, 3.01):
        forms, errors = _closed_forms(cfg, PointMapCache(beta2, cfg), *_row_keys(s, t, w))
        for n, node in enumerate(zip(t, w)):
            one = _outcome(lambda: oracles.reference_closed_report(beta2, cfg, s, *node))
            if errors[n] is None:
                _assert_pass_node(forms, n, one)
            else:
                assert type(errors[n]) is type(one) and str(errors[n]) == str(one)
            _assert_same_outcome(_outcome(lambda: curvature_report(beta2, cfg, s, *node)), one)
            kinds.append(type(errors[n] or one).__name__)
    assert kinds == ["CurvatureReport", "DegenerateNodeError", "DomainError",
                     "CurvatureReport", "SingularMetricError", "OutOfDomainError",
                     "DegenerateNodeError", "OutOfDomainError", "OutOfDomainError",
                     "OutOfDomainError"]


def test_gauss_mean_principal_equals_float_reference(family_curves, rng):
    """The scalar wrapper of the array formulas gives the float formulas' bits,
    or their error: Q <= 0, a cosh overflow in f_j, a focal denominator."""
    from canal4.curvature import gauss_mean_principal
    cases = [(cfg.j, cfg.lam, cfg.variant, curve.frame(s).eps, curve.frame(s).k1, cfg.radius(s),
              cfg.radius.r_prime(s), cfg.radius.r_second(s), t, w, cfg.sigma)
             for curve, cfg in _row_configs(family_curves, rng)
             for s, t, w in [admissible_node(rng, curve, cfg, conftest.SWEEP_S_RANGE[cfg.j])]]
    cases += [(1, 1, Variant.STANDARD, (-1, 1, 1, 1), 0.5, 1.0, 0.0, 0.0, 0.3, 0.4, 1),
              (1, 1, Variant.STANDARD, (1, -1, 1, 1), 0.5, 1.0, 1.0, 0.0, 0.3, 0.4, 1),
              (2, 1, Variant.STANDARD, (1, -1, 1, 1), 0.5, 1.0, 2.0, 0.1, 800.0, 0.4, 1),
              (1, 1, Variant.STANDARD, (-1, 1, 1, 1), 0.0, 1.0, 0.0, -1.0, 0.3, 0.4, 1)]
    kinds = []
    for case in cases:
        got = _outcome(lambda: gauss_mean_principal(*case))
        one = _outcome(lambda: oracles.reference_gauss_mean_principal(*case))
        assert type(got) is type(one) and repr(got) == repr(one)
        kinds.append(type(got).__name__)
    assert kinds[-4:] == ["tuple", "InadmissibleConfigError", "DomainError",
                          "SingularMetricError"]


def test_numeric_patch_loops_equal_per_node_reference(beta1, beta2):
    """check_kh_relation on the numeric route and the CSV export give the
    report and the bytes of the node-by-node reference loop, the last patch
    in more than one numeric block, in blocks that cross s rows."""
    from canal4.analysis import check_kh_relation
    from canal4.canal import GridSpec, sample_grid
    from canal4.curvature import BLOCK_NODES
    from canal4.io import export_curvature_csv
    cases = [(beta1, make_config(1, 1, R2S), (0.0, 6.0), (-1.2, 1.2), (2, 3, 3)),
             (beta2, make_config(3, -1, R2S), (-1.3, 1.3), (-1.2, 1.2), (2, 3, 3)),
             (beta2, CanalConfig(3, 1, RadiusProfile.from_expr("0.6 + 0.3*s"), 1,
                                 Variant.ALT_SUPERCRITICAL), (-1.3, 1.3), (-1.0, 1.0), (2, 3, 3)),
             (beta1, make_config(1, 1, R2S), (0.0, 6.0), (-1.2, 1.2), (3, 6, 4))]
    for curve, cfg, t_range, w_range, (ns, nt, nw) in cases:
        grid = GridSpec(GridSpec.linspace((0.6, 2.4), ns), GridSpec.linspace(t_range, nt, False),
                        GridSpec.linspace(w_range, nw))
        patch = sample_grid(curve, cfg, grid)
        assert check_kh_relation(patch, Route.NUMERIC) == oracles.reference_kh_report(patch)
        assert export_curvature_csv(patch) == oracles.reference_curvature_csv(patch)
    assert len(patch.node_keys()[1]) > BLOCK_NODES[Route.NUMERIC]


def test_metric_signature(family_curves, rng):
    """lam = -1 induces a positive-definite metric, lam = +1 a Lorentzian one."""
    for curve, cfg, s, t, w in _family_cases(family_curves, rng, per_family=2):
        g = curvature_report(curve, cfg, s, t, w).g
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
        rep = curvature_report(beta1, cfg, s, t, w)
        g, h, S = rep.g, rep.h, rep.S
        assert S[1, 1] == pytest.approx(lam / (2 * s), rel=1e-9)
        assert S[2, 2] == pytest.approx(lam / (2 * s), rel=1e-9)
        for idx in ((0, 1), (0, 2), (1, 2), (2, 1)):
            assert abs(S[idx]) <= 1e-9 * (1 + np.max(np.abs(S)))
        assert np.max(np.abs(g @ S - h)) <= 1e-9 * (1 + np.max(np.abs(h)))


def test_shape_diag_all_families(family_curves, rng):
    for curve, cfg, s, t, w in _family_cases(family_curves, rng, per_family=2):
        S = curvature_report(curve, cfg, s, t, w).S
        expected = oracles.table_shape_diag(cfg.j, cfg.lam, cfg.radius(s))
        assert S[1, 1] == pytest.approx(expected, rel=1e-9)
        assert S[2, 2] == pytest.approx(expected, rel=1e-9)


def test_singular_metric_raises():
    with pytest.raises(SingularMetricError):
        _check_metric(0.0, float(np.linalg.det(np.zeros((3, 3)))))


def test_degenerate_node_raises(beta1):
    cfg = make_config(1, 1, R2S)
    with pytest.raises(DegenerateNodeError):
        curvature_report(beta1, cfg, 1.0, 0.3, math.pi / 2)


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
        rep = curvature_report(curve, make_config(j, lam, R2S), 1.0, 0.0, 0.0)
        K, H, (m1, m2, m3) = rep.K, rep.H, rep.mu
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
            rep = curvature_report(curve, cfg, s, t, w)
            K, H, (m1, m2, m3) = rep.K, rep.H, rep.mu
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
    K, H = tubular_kh(1, 1, r, k1, math.pi / 2, 0.0)
    assert K == pytest.approx(0.0, abs=1e-12)
    assert H == pytest.approx(2.0 / (3 * r), rel=1e-12)
    with pytest.raises(SingularMetricError):
        # r k1 cos t cos w = -1 exactly
        tubular_kh(1, 1, 1.0 / k1, k1, math.pi, 0.0)
    with pytest.raises(InadmissibleConfigError):
        tubular_kh(1, -1, r, k1, 0.0, 0.0)
    # hyperbolic family row at w = 0
    t = 0.7
    K, H = tubular_kh(2, -1, r, k1, t, 0.0)
    u = k1 * math.cosh(t)
    assert K == pytest.approx(u / (r * r * (1 + r * u)), rel=1e-12)


def test_tubular_matches_numeric_all_families(family_curves):
    rc = 0.2
    for j, lam in TUBULAR_FAMILIES:
        curve = family_curves[j]
        cfg = CanalConfig(j, lam, RadiusProfile.from_constant(rc), 1, tubular_variant(j, lam))
        s, t, w = 0.9, 0.5, 0.6
        fr = curve.frame(s)
        K_t, H_t = tubular_kh(j, lam, rc, fr.k1, t, w)
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
        curvature_report(beta2, cfg, 1.0, 0.5, 0.5)


def test_complex_eigenvalues_detected():
    rotation_like = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(Exception) as err:
        _principal(np.linalg.eigvals(rotation_like))
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
