"""Theorem checks: the K-H identity, Weingarten pairs, flatness, minimality."""
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conftest
import oracles
from conftest import ALL_FAMILIES, make_config

from canal4.analysis import (check_kh_relation, classify_flat, classify_minimal,
                             minimal_radius_residual, solve_minimal_radius,
                             weingarten_check)
from canal4.canal import (CanalConfig, GridSpec, RadiusProfile, sample_grid,
                          validate_config)
from canal4.curvature import Route, curvature_report
from canal4.curve import CurveSpec
from canal4.errors import CanalError, DomainExitError, InadmissibleConfigError

R2S = RadiusProfile.from_expr("2*s")


def _patch(curve, cfg, j):
    s0, s1 = conftest.SWEEP_S_RANGE[j]
    s0 = max(s0, curve.domain[0] + 0.01)
    s1 = min(s1, curve.domain[1] - 0.01)
    if j == 1:
        t_vals = (0.35, 1.15, 2.05, 3.85, 5.35)
        w_vals = (-1.05, -0.35, 0.45, 1.05)
    else:
        t_vals = (-1.25, -0.55, 0.35, 0.85, 1.25)
        w_vals = (-1.05, -0.45, 0.55, 1.15)
    return sample_grid(curve, cfg, GridSpec(GridSpec.linspace((s0, s1), 5), t_vals, w_vals))


def test_kh_identity_golden_arithmetic(beta1):
    """3 H r - K r^3 - 2 at the frozen single-point golden values."""
    cfg = make_config(1, 1, R2S)
    rep = curvature_report(beta1, cfg, 1.0, 0.0, 0.0, Route.CLOSED_FORM)
    assert abs(3 * rep.H * 2.0 - rep.K * 8.0 - 2.0) <= 1e-12


def test_kh_identity_closed_and_numeric(beta1):
    cfg = make_config(1, 1, R2S)
    patch = _patch(beta1, cfg, 1)
    rep_cf = check_kh_relation(patch, Route.CLOSED_FORM)
    assert rep_cf.passed and rep_cf.max_residual <= 1e-9
    rep_num = check_kh_relation(patch, Route.NUMERIC)
    assert rep_num.passed and rep_num.max_residual <= 1e-4


@pytest.mark.parametrize("route", [Route.CLOSED_FORM, Route.NUMERIC])
def test_kh_relation_on_a_patch_without_s_values(beta1, route):
    """A patch with no s values has no nodes: a passing report of 0 nodes, as
    weingarten_check gives, not an IndexError from its missing frames."""
    patch = sample_grid(beta1, make_config(1, 1, R2S), GridSpec((), (0.1,), (0.2,)))
    rep = check_kh_relation(patch, route)
    assert (rep.passed, rep.nodes_checked, rep.max_residual) == (True, 0, 0.0)
    assert weingarten_check(patch, "tw").nodes_checked == 0


def test_kh_identity_all_families(family_curves, rng):
    for j, lam in ALL_FAMILIES:
        curve = family_curves[j]
        radius = conftest.random_polynomial_radius(rng, j, lam, conftest.SWEEP_S_RANGE[j])
        patch = _patch(curve, CanalConfig(j, lam, radius), j)
        rep = check_kh_relation(patch, Route.CLOSED_FORM)
        assert rep.passed, (j, lam, rep)


def test_kh_identity_tubular_rows(family_curves):
    """The constant-radius K/H rows satisfy the identity exactly."""
    for j, lam in conftest.TUBULAR_FAMILIES:
        curve = family_curves[j]
        fr = curve.frame(0.9)
        sgn = fr.eps[2] * fr.eps[3] * lam ** j
        for (t, w) in [(0.4, 0.7), (-0.8, 0.3), (1.1, -0.9)]:
            K, H = conftest.tubular_kh(j, lam, 0.25, fr.k1, t, w)
            assert abs(3 * H * 0.25 - K * 0.25 ** 3 - 2 * sgn) <= 1e-9
            K_o, H_o = oracles.tubular_table(j, lam, 0.25, fr.k1, t, w)
            assert K == pytest.approx(K_o, rel=1e-12) and H == pytest.approx(H_o, rel=1e-12)


def test_weingarten_tw_always(family_curves, rng):
    for j, lam in ALL_FAMILIES:
        curve = family_curves[j]
        radius = conftest.random_polynomial_radius(rng, j, lam, conftest.SWEEP_S_RANGE[j])
        patch = _patch(curve, CanalConfig(j, lam, radius), j)
        rep = weingarten_check(patch, "tw")
        assert rep.passed and rep.max_residual <= 1e-8, (j, lam, rep)


def test_weingarten_sw_fails_for_growing_radius(beta1):
    patch = _patch(beta1, make_config(1, 1, R2S), 1)
    rep = weingarten_check(patch, "sw")
    assert not rep.passed
    assert rep.max_residual > 1e-3


def test_weingarten_sw_passes_for_tubular(beta1):
    patch = _patch(beta1, CanalConfig(1, 1, RadiusProfile.from_constant(0.3)), 1)
    rep = weingarten_check(patch, "sw")
    assert rep.passed and rep.max_residual <= 1e-8


def test_weingarten_st_unconditional_for_j4(gamma4, rng):
    radius = conftest.random_polynomial_radius(rng, 4, 1, conftest.SWEEP_S_RANGE[4])
    patch = _patch(gamma4, CanalConfig(4, 1, radius), 4)
    rep = weingarten_check(patch, "st")
    assert rep.passed and rep.max_residual <= 1e-12


def test_weingarten_st_fails_for_j1_growing_radius(beta1):
    patch = _patch(beta1, make_config(1, 1, R2S), 1)
    rep = weingarten_check(patch, "st")
    assert not rep.passed and rep.max_residual > 1e-3


# ---------------------------------------------------------------------------
# flatness

def test_flat_battery(spacelike_line, timelike_line, beta1, beta2, gamma2):
    """20 cases: lines x linear/nonlinear radii, curved centers, boundary."""
    flat_cases = [
        (spacelike_line, RadiusProfile.from_expr("0.5*s + 1")),       # 1
        (timelike_line, RadiusProfile.from_expr("0.5*s + 1")),        # 2
        (spacelike_line, RadiusProfile.from_expr("0.2*s + 0.8")),     # 3
        (timelike_line, RadiusProfile.from_expr("0.3 + 0.1*s")),      # 4
        (spacelike_line, RadiusProfile.from_expr("2 - 0.4*s")),       # 5
        (spacelike_line, RadiusProfile.from_constant(0.7)),           # 6
        (timelike_line, RadiusProfile.from_constant(1.3)),            # 7
    ]
    for curve, radius in flat_cases:
        rep = classify_flat(curve, radius)
        assert rep.verdict == "flat", rep
        assert rep.sampled_max_K <= 1e-9

    not_flat_cases = [
        (spacelike_line, RadiusProfile.from_expr("0.5*s^2 + 1")),     # 8
        (spacelike_line, RadiusProfile.from_expr("2 + sin(s)/4")),    # 9
        (spacelike_line, RadiusProfile.from_expr("exp(s/4)")),        # 10
        (timelike_line, RadiusProfile.from_expr("0.1*s^2 + 0.5")),    # 11
        (beta1, R2S),                                                 # 12
        (beta1, RadiusProfile.from_constant(0.5)),                    # 13
        (beta1, RadiusProfile.from_expr("0.3*s^2 + 1")),              # 14
        (beta2, R2S),                                                 # 15
        (beta2, RadiusProfile.from_constant(0.4)),                    # 16
        (gamma2, RadiusProfile.from_constant(0.4)),                   # 17
        (gamma2, RadiusProfile.from_expr("1.5*s + 0.4")),             # 18
    ]
    for curve, radius in not_flat_cases:
        assert classify_flat(curve, radius).verdict == "not-flat"

    # |r'| = 1 sits on the admissibility boundary                     # 19, 20
    for radius_text in ("s + 0.5", "1 - s + 2.5"):
        rep = classify_flat(spacelike_line, RadiusProfile.from_expr(radius_text))
        assert rep.verdict == "excluded"


def test_classify_sweeps_b2_once_per_curve(beta1):
    """classify_flat and classify_minimal of one curve share one b'' sweep,
    kept on the curve, and report the same max k1 as a fresh curve's sweep."""
    curve, calls = CurveSpec(beta1.components, beta1.domain), []
    swept = curve.swept
    curve.swept = lambda n, order: calls.append((n, order)) or swept(n, order)
    flat, minimal = classify_flat(curve, R2S), classify_minimal(curve, R2S, 1)
    assert calls == [(200, 2)]
    fresh = classify_flat(CurveSpec(beta1.components, beta1.domain), R2S)
    assert flat.max_k1 == minimal.max_k1 == fresh.max_k1 > 0


def test_flat_agrees_with_sampled_K(spacelike_line):
    """Verdict iff sampled |K| <= 1e-9 on a constructed patch."""
    flat_radius = RadiusProfile.from_expr("0.4*s + 1")
    rep = classify_flat(spacelike_line, flat_radius)
    assert rep.verdict == "flat" and rep.sampled_max_K <= 1e-9
    curved_radius = RadiusProfile.from_expr("0.1*s^2 + 1")
    cfg = CanalConfig(2, -1, curved_radius)
    patch = _patch(spacelike_line, cfg, 2)
    worst = max(abs(curvature_report(patch.curve, cfg, s, t, w).K)
                for _, _, _, s, t, w in patch.nodes())
    assert worst > 1e-9
    assert classify_flat(spacelike_line, curved_radius).verdict == "not-flat"


# ---------------------------------------------------------------------------
# minimality

def test_minimal_radius_solver_basics():
    prof = solve_minimal_radius(1, 1.0, 1.0, (0.0, 1.5), 1)
    assert prof.r_prime(0.0) == pytest.approx(math.sqrt(2.0), rel=1e-9)
    values = [prof(0.1 * i) for i in range(15)]
    assert all(b > a for a, b in zip(values, values[1:]))
    # radius equation residual along the tabulated profile
    worst = max(abs(minimal_radius_residual(prof, 1, 0.1 * i)) for i in range(15))
    assert worst <= 1e-6
    # ODE residual: r' equals the closed-form slope of the tabulated r
    c43 = 1.0
    for s in (0.0, 0.4, 0.9, 1.4):
        rp = prof.r_prime(s)
        assert abs(rp - math.sqrt(1 + c43 * prof(s) ** (-4.0 / 3.0))) <= 1e-8


def test_minimal_radius_turning_point():
    # shrinking-radicand branch: eps1*lam = -1 needs r < |c1|; r' = 0 at r = 1,
    # reached at s = int_0.9^1 dr/sqrt(r^(-4/3) - 1) (mpmath.quad)
    with pytest.raises(DomainExitError) as err:
        solve_minimal_radius(-1, 1.0, 0.9, (0.0, 2.0), 1)
    assert abs(err.value.turning_s - 0.5369162587) <= 1e-5


def test_minimal_radius_just_before_turning_point():
    """s1 = 0.5369, 1.6e-5 before that turning point: the RK4 probes of the
    last interval leave the domain, but the profile itself does not, so the
    solver returns it (the radicand is about 1.2e-10 at s1)."""
    prof = solve_minimal_radius(-1, 1.0, 0.9, (0.0, 0.5369), 1)
    assert 0.0 < 1.0 - prof(0.5369) < 1e-9 and 0.0 < prof.r_prime(0.5369) < 1e-4
    for x in np.linspace(*np.linspace(0.0, 0.5369, 257)[-2:], 11):
        assert 0.0 <= prof.r_prime(x) < 2e-3


def test_minimal_radius_reaching_zero():
    """The shrinking branch reaches r = 0 at s = -2 + int_0^1 dr/sqrt(1 + r^(-4/3))
    (mpmath.quad): a DomainExitError there, with no warning on the way."""
    with pytest.raises(DomainExitError) as err:
        solve_minimal_radius(1, 1.0, 1.0, (-2.0, 2.0), sign=-1)
    assert abs(err.value.turning_s - -1.5128237763) <= 1e-5


@pytest.mark.parametrize("eps1_lambda, c1, r0, s_range", [
    (1, 1.0, 1.0, (0.0, 1.5)), (1, 1.0, 1.0, (0.5, 2.5)), (1, 0.7, 0.8, (0.5, 2.5))])
def test_minimal_profile_matches_quadrature(eps1_lambda, c1, r0, s_range):
    """The profile of each generator above against its inverse function
    s(r) = s0 + int_r0^r dr/sqrt(eps1*lam + (c1/r)^(4/3)), by mpmath.quad:
    r is off by |s(r) - s| r' to first order, within 1e-9 of r, at nodes and
    between them."""
    mpmath = pytest.importorskip("mpmath")
    prof = solve_minimal_radius(eps1_lambda, c1, r0, s_range, 1)
    with mpmath.workdps(30):
        c43 = (mpmath.mpf(c1) ** 2) ** (mpmath.mpf(2) / 3)

        def slope(r):
            return mpmath.sqrt(eps1_lambda + c43 * mpmath.mpf(r) ** (-mpmath.mpf(4) / 3))

        for s in np.linspace(*s_range, 61):         # 5 table nodes, 56 points between
            r = prof(s)
            s_of_r = s_range[0] + mpmath.quad(lambda x: 1 / slope(x), [r0, r])
            assert abs(float((s_of_r - s) * slope(r))) <= 1e-9 * r, s


def test_minimal_radius_rejects_bad_arguments():
    with pytest.raises(InadmissibleConfigError):
        solve_minimal_radius(1, 0.0, 1.0, (0.0, 1.0), 1)
    with pytest.raises(InadmissibleConfigError):
        solve_minimal_radius(1, 1.0, -0.5, (0.0, 1.0), 1)
    with pytest.raises(InadmissibleConfigError):
        solve_minimal_radius(1, 1.0, 1.0, (1.0, 0.0), 1)
    for n_nodes in (0, 1):
        with pytest.raises(InadmissibleConfigError):
            solve_minimal_radius(1, 1.0, 1.0, (0.0, 1.0), 1, n_nodes)


def test_minimal_profile_gives_minimal_canal(spacelike_line):
    """Line-centered canal over the solved profile has |H| <= 1e-5."""
    s0, s1 = spacelike_line.domain
    prof = solve_minimal_radius(1, 1.0, 1.0, (s0, s1), 1)
    rep = classify_minimal(spacelike_line, prof, 1)
    assert rep.verdict == "minimal"
    assert rep.sampled_max_H <= 1e-5
    cfg = CanalConfig(2, 1, prof)
    assert validate_config(spacelike_line, cfg).passed
    patch = _patch(spacelike_line, cfg, 2)
    worst = max(abs(curvature_report(patch.curve, cfg, s, t, w).H)
                for _, _, _, s, t, w in patch.nodes())
    assert worst <= 1e-5


def test_minimal_profile_timelike_line(timelike_line):
    # timelike center: eps1 = -1, so eps1*lam = +1 needs lam = -1
    s0, s1 = timelike_line.domain
    prof = solve_minimal_radius(1, 0.7, 0.8, (s0, s1), 1)
    rep = classify_minimal(timelike_line, prof, -1)
    assert rep.verdict == "minimal"


def test_not_minimal_cases(beta1, spacelike_line):
    assert classify_minimal(beta1, R2S, 1).verdict == "not-minimal"
    assert classify_minimal(beta1, RadiusProfile.from_constant(0.5), -1).verdict == "not-minimal"
    # constant radius on a line: H = 2 eps3 eps4 lam^j / (3r) != 0
    rep = classify_minimal(spacelike_line, RadiusProfile.from_constant(0.5), -1)
    assert rep.verdict == "not-minimal"
    cfg = CanalConfig(2, -1, RadiusProfile.from_constant(0.5))
    r = curvature_report(spacelike_line, cfg, 1.5, 0.4, 0.7)
    assert abs(r.H) == pytest.approx(2.0 / (3 * 0.5), rel=1e-9)
    assert abs(r.K) <= 1e-12


def test_minimal_second_factor_not_required(spacelike_line):
    """Only the first factor of the split equation must vanish."""
    s0, s1 = spacelike_line.domain
    prof = solve_minimal_radius(1, 1.0, 1.0, (s0, s1), 1)
    s = 1.3
    rp, rpp, r = prof.r_prime(s), prof.r_second(s), prof(s)
    first = -2 * (rp * rp - 1) - 3 * r * rpp
    second = 1 - rp * rp - r * rpp
    assert abs(first) <= 1e-6
    assert abs(second) > 1e-3      # recorded, not required to vanish


def test_weingarten_all_pairs_for_tubular(beta1, gamma4):
    """Constant radius is Weingarten in every parameter pair."""
    for curve, j in ((beta1, 1), (gamma4, 4)):
        lam = 1 if j == 1 else -1
        patch = _patch(curve, CanalConfig(j, lam, RadiusProfile.from_constant(0.3)), j)
        for pair in ("st", "sw", "tw"):
            rep = weingarten_check(patch, pair)
            assert rep.passed, (j, pair, rep)


def test_weingarten_evaluates_k_and_h_once_per_stencil_point(beta1, monkeypatch):
    """One array pass of the family formulas per patch for all the pairs asked:
    each node's stencil points (4 offsets along each axis a pair reads: 8 for
    one pair, 12 for all three) are array elements of that pass, each
    evaluated exactly once, and each pair gets its per-pair reference report."""
    from collections import Counter
    import canal4.analysis as analysis
    from canal4.analysis import WEINGARTEN_FD_STEP as h
    points, sizes = [], []
    kh_points, kernel = analysis._kh_points, analysis._family_curvatures

    def recorded(config, cache, s_keys, s_at, t_keys, t_at, w_keys, w_at):
        points.append([(s_keys[i], t_keys[j], w_keys[k]) for i, j, k in zip(s_at, t_at, w_at)])
        return kh_points(config, cache, s_keys, s_at, t_keys, t_at, w_keys, w_at)

    def counted(*args):
        sizes.append(args[-1].shape)
        return kernel(*args)

    patch = sample_grid(beta1, make_config(1, 1, R2S),
                        GridSpec((1.0, 1.5), (0.3, 1.2, 2.0), (0.4, -0.6)))
    expected = {pair: oracles.reference_weingarten(patch, pair) for pair in ("st", "sw", "tw")}
    for pairs, axes in ((("tw",), "tw"), (("sw",), "sw"), (("st",), "st"),
                        (("tw", "st"), "stw"), (("st", "sw", "tw", "sw"), "stw")):
        points.clear()
        sizes.clear()
        monkeypatch.setattr(analysis, "_kh_points", recorded)
        monkeypatch.setattr(analysis, "_family_curvatures", counted)
        reports = analysis.weingarten_checks(patch, pairs)
        monkeypatch.undo()
        assert {p: repr(r) for p, r in reports.items()} == {p: repr(expected[p]) for p in pairs}
        assert all(r.nodes_checked == 12 for r in reports.values())
        assert sizes == [(4 * len(axes) * 12,)] and len(points) == 1     # one call
        stencil = Counter(
            tuple(x + d if a == ax else x for a, x in enumerate(node[3:]))
            for node in patch.nodes()
            for ax in map("stw".index, axes) for d in (-2 * h, -h, h, 2 * h))
        assert Counter(points[0]) == stencil and max(stencil.values()) == 1
        assert len(points[0]) == 4 * len(axes) * 12


def _error_patches(beta1, gamma2):
    """Patches whose Weingarten stencils fail: a radius that turns negative
    one stencil step below the grid, cosh overflowing along t at one node and
    along w at an earlier one, and a null-cone family (no curvature)."""
    from canal4 import expr as ex
    from canal4.canal import SurfacePatch, Variant
    yield sample_grid(beta1, make_config(1, 1, RadiusProfile.from_expr("2*s - 1.999")),
                      GridSpec((1.0, 1.5), (0.3, 1.2), (0.4,))), "sw"
    cfg = CanalConfig(2, -1, RadiusProfile.from_expr("1 + 0.2*s"))
    grid = GridSpec((1.0, 1.2), (0.3, 710.475), (710.475, 0.3))
    yield SurfacePatch(gamma2, cfg, grid, np.zeros((8, 4)), frozenset()), "tw"
    a_free = tuple(ex.parse(a, ("s", "t", "w")) for a in ("t", "w"))
    yield sample_grid(gamma2, CanalConfig(2, 0, None, 1, Variant.STANDARD, a_free),
                      GridSpec((1.0,), (0.3,), (0.4,))), "st"


def test_weingarten_equals_scalar_reference(family_curves, beta1, gamma2, rng):
    """The row passes give the residual and node count of the original loop of
    8 scalar (K, H) evaluations per node, bit for bit, and on stencils that
    fail its first error (type and message)."""
    from canal4.canal import Variant
    cases = [(j, CanalConfig(j, lam, conftest.random_polynomial_radius(
                 rng, j, lam, conftest.SWEEP_S_RANGE[j]), sigma))
             for j, lam in ALL_FAMILIES for sigma in (1, -1)]
    cases += [(3, CanalConfig(3, 1, RadiusProfile.from_expr("0.6 + 0.3*s"), -1,
                              Variant.ALT_SUPERCRITICAL)),
              (4, CanalConfig(4, -1, RadiusProfile.from_constant(0.3)))]
    for j, cfg in cases:
        patch = _patch(family_curves[j], cfg, j)
        for pair in ("st", "sw", "tw"):
            got, one = weingarten_check(patch, pair), oracles.reference_weingarten(patch, pair)
            assert repr(got) == repr(one)
    kinds = []
    for patch, pair in _error_patches(beta1, gamma2):
        got, one = (_outcome(lambda: check(patch, pair))
                    for check in (weingarten_check, oracles.reference_weingarten))
        assert type(got) is type(one) and str(got) == str(one)
        kinds.append(f"{type(got).__name__}: {got}")
    assert [k.split(":")[0] for k in kinds] == ["InadmissibleConfigError", "DomainError",
                                               "InadmissibleConfigError"]
    assert "(2, 'standard', 0.3, 710.476)" in kinds[1]     # node 0's w offset comes first


def test_verify_reports_equal_the_per_check_references(family_curves, beta1, gamma2, rng,
                                                       monkeypatch, tmp_path):
    """verify (its Weingarten pairs in one shared pass), given check lists in
    several orders and with duplicates, reports in its --out JSON what each
    check made on its own by the references reports, bit for bit:
    reference_weingarten per pair and reference_kh_report's closed form,
    which solves S at every node. Where checks fail (the _error_patches), it
    raises the first failing check's error in list order, type and message."""
    from canal4 import cli
    from canal4.canal import SurfacePatch
    lists = [["kh", "weingarten-st", "weingarten-sw", "weingarten-tw"],
             ["weingarten-tw", "weingarten-sw", "weingarten-st", "kh"],
             ["weingarten-sw", "kh", "weingarten-sw", "weingarten-tw", "weingarten-st"],
             ["weingarten-tw", "weingarten-st", "weingarten-tw"],
             ["kh", "weingarten-tw"], ["weingarten-st", "kh"], ["weingarten-sw"]]
    patches = [_patch(family_curves[j], CanalConfig(j, lam, conftest.random_polynomial_radius(
                   rng, j, lam, conftest.SWEEP_S_RANGE[j]), sigma), j)
               for (j, lam), sigma in zip(ALL_FAMILIES[::2], (1, -1, 1, -1))]
    patches += [patch for patch, _ in _error_patches(beta1, gamma2)]
    patches.append(SurfacePatch(gamma2, CanalConfig(2, -1, RadiusProfile.from_expr("1 + 0.2*s")),
                                GridSpec((1.0,), (710.475,), (710.475,)), np.zeros((1, 4)),
                                frozenset()))      # cosh overflows along t and w at one node
    report, first_errors = tmp_path / "report.json", set()
    for patch in patches:
        monkeypatch.setattr(cli.Job, "validated_patch", lambda self, grid=None: patch)
        alone = {f"weingarten-{p}": _outcome(lambda: [oracles.reference_weingarten(patch, p)])
                 for p in ("st", "sw", "tw")}
        with np.errstate(all="ignore"):     # N overflows where cosh t cosh w does
            alone["kh"] = _outcome(lambda: [oracles.reference_kh_report(patch, Route.CLOSED_FORM)])
        for checks in lists:
            want = []
            for name in checks:
                if isinstance(alone[name], CanalError):
                    want = alone[name]
                    break
                want += alone[name]
            args = cli.build_parser().parse_args(["verify", "--example", "beta1", "--check",
                                                  ",".join(checks), "--out", str(report)])
            got = _outcome(lambda: cli.cmd_verify(args, {}))
            if isinstance(want, CanalError):
                assert type(got) is type(want) and str(got) == str(want), checks
                first_errors.add(f"{type(want).__name__}: {want}")
            else:
                assert json.loads(report.read_text()) == [vars(r) for r in want], checks
            report.unlink(missing_ok=True)
    # the overflow patches fail at a t or a w offset first, as the pair reads them, and det g
    # ~ 0 in the K-H check; the radius patch at a row, the null-cone one at its first check
    assert sorted(e.split(":")[0] for e in first_errors) == [
        "DomainError", "DomainError", "DomainError", "InadmissibleConfigError",
        "InadmissibleConfigError", "SingularMetricError"]


def test_kh_closed_form_equals_per_node_reference(family_curves, beta2, rng):
    """The closed-form K-H check, one pass over the patch, gives the residual
    bits and node count of the node-by-node reference loop; on patches whose
    nodes fail (a degenerate w the patch does not flag, an s row past the
    domain, a cosh overflow in transverse) it raises the reference's first
    error, type and message."""
    from canal4.canal import SurfacePatch, Variant
    cases = [(j, CanalConfig(j, lam, conftest.random_polynomial_radius(
                 rng, j, lam, conftest.SWEEP_S_RANGE[j]), sigma))
             for j, lam in ALL_FAMILIES for sigma in (1, -1)]
    cases += [(3, CanalConfig(3, 1, RadiusProfile.from_expr("0.6 + 0.3*s"), -1,
                              Variant.ALT_SUPERCRITICAL)),
              (4, CanalConfig(4, -1, RadiusProfile.from_constant(0.3)))]
    for j, cfg in cases:
        patch = _patch(family_curves[j], cfg, j)
        assert repr(check_kh_relation(patch)) == repr(
            oracles.reference_kh_report(patch, Route.CLOSED_FORM))
    cfg = CanalConfig(3, 1, RadiusProfile.from_expr("0.6 + 0.3*s"), 1, Variant.ALT_SUPERCRITICAL)
    kinds = []
    for s_vals, t_vals, w_vals in (((1.2, 1.4), (0.3, -0.4), (0.4, 0.0)),    # w = 0: A = 0
                                   ((1.2, 3.01), (0.3,), (0.4, -0.7)),        # s past the domain
                                   ((1.2,), (0.3, 800.0), (0.4,)),            # cosh(800)
                                   ((1.2, 3.01), (800.0, 0.3), (0.4, 0.0))):  # node 0 first
        grid = GridSpec(s_vals, t_vals, w_vals)
        patch = SurfacePatch(beta2, cfg, grid, np.zeros((len(s_vals) * len(t_vals)
                                                         * len(w_vals), 4)), frozenset())
        got, one = (_outcome(lambda: check(patch))
                    for check in (check_kh_relation, functools.partial(
                        oracles.reference_kh_report, route=Route.CLOSED_FORM)))
        assert type(got) is type(one) and str(got) == str(one)
        kinds.append(type(got).__name__)
    assert kinds == ["DegenerateNodeError", "OutOfDomainError", "DomainError", "DomainError"]
    # at t or w = 700 the forms overflow to inf and K, H are nan: skipped, with no warning
    patches = [SurfacePatch(beta2, cfg, GridSpec((1.2,), t_vals, w_vals),
                            np.zeros((len(t_vals) * len(w_vals), 4)), frozenset())
               for t_vals, w_vals in (((0.3, 700.0), (0.4, 700.0)), ((0.3,), (0.4,)))]
    got, one = map(check_kh_relation, patches)
    assert (got.max_residual, got.nodes_checked) == (one.max_residual, 4)


def _first_node_error(patch, route):
    """The error (type and message) of the first node, in node order, whose
    one-node curvature_report raises on the route; None if none does."""
    for _, _, _, s, t, w in patch.nodes():
        one = _outcome(lambda: curvature_report(patch.curve, patch.config, s, t, w, route))
        if isinstance(one, Exception):
            return one
    return None


def test_block_loops_equal_per_node_references(beta1, beta2, monkeypatch):
    """In blocks of 7 closed-form and 5 numeric nodes, on patches of several
    blocks, the K-H check on both routes, the CSV export and the Weingarten
    check give the node-by-node references' reports and bytes. Where the first
    failing node (node 8 past the domain in s, node 7 at t = 800, whose cosh
    overflows) sits in a later block than good nodes, each raises that node's
    error, type and message: the K-H checks its one-node call's, the CSV and
    Weingarten their references'; the CSV skips the numeric breakdowns."""
    import canal4.curvature as curvature
    from canal4.canal import SurfacePatch, Variant
    from canal4.io import export_curvature_csv
    monkeypatch.setitem(curvature.BLOCK_NODES, Route.CLOSED_FORM, 7)
    monkeypatch.setitem(curvature.BLOCK_NODES, Route.NUMERIC, 5)
    checks = [(lambda p, route=route: check_kh_relation(p, route),
               lambda p, route=route: (_first_node_error(p, route)
                                       or oracles.reference_kh_report(p, route)))
              for route in Route]
    checks += [(export_curvature_csv, oracles.reference_curvature_csv)]
    checks += [(lambda p, pair=pair: weingarten_check(p, pair),
                lambda p, pair=pair: oracles.reference_weingarten(p, pair))
               for pair in ("sw", "tw")]
    supercritical = CanalConfig(3, 1, RadiusProfile.from_expr("0.6 + 0.3*s"), 1,
                                Variant.ALT_SUPERCRITICAL)
    patches = [sample_grid(beta1, make_config(1, 1, R2S),
                           GridSpec((1.0, 1.5, 2.0), (0.3, 1.2, 2.0, 4.1), (0.4, -0.6, 1.0))),
               sample_grid(beta2, supercritical,
                           GridSpec((1.2, 1.5, 1.8), (-0.4, 0.3, 0.9), (0.4, -0.7)))]
    for s_vals, t_vals in (((1.2, 1.4, 3.01), (0.3, -0.4, 0.9, 1.1)),
                           ((1.2, 1.4), (0.3, -0.4, 0.9, 1.1, 0.2, -0.2, 0.5, 800.0))):
        # the row past the domain fails in the cache
        patches.append(SurfacePatch(beta2, supercritical, GridSpec(s_vals, t_vals, (0.4,)),
                                    np.zeros((len(s_vals) * len(t_vals), 4)), frozenset()))
    kinds = []
    for patch in patches:
        assert len(patch.node_keys()[1]) > 7
        for check, reference in checks:
            got, one = _outcome(lambda: check(patch)), _outcome(lambda: reference(patch))
            assert type(got) is type(one) and repr(got) == repr(one)
            kinds.append(type(got).__name__)
    assert kinds == (["TheoremReport"] * 2 + ["str"] + ["TheoremReport"] * 2) * 2 + [
        "OutOfDomainError"] * 5 + ["DomainError"] * 2 + ["str"] + ["DomainError"] * 2


def _outcome(fn):
    try:
        return fn()
    except CanalError as exc:
        return exc


def test_radius_evaluated_once_per_distinct_s(beta1):
    """The K-H check (both routes), the Weingarten check and the CSV export
    evaluate r, r' and r'' at most once per distinct s, not once per node;
    and since they share the cache sample_grid built the patch with, so do
    the patch's build and all four checks run on one patch."""
    from collections import Counter
    from canal4.io import export_curvature_csv
    calls = Counter()

    def counted(name, fn):
        def wrapper(s):
            calls[name, s] += 1
            return fn(s)
        return wrapper

    radius = RadiusProfile(counted("r", R2S.r), counted("r'", R2S.r_prime),
                           counted("r''", R2S.r_second), R2S.generator)

    config = make_config(1, 1, radius)

    def new_patch():
        calls.clear()
        return sample_grid(beta1, config, GridSpec((1.0, 1.5), (0.3, 1.2, 2.0), (0.4, -0.6)))

    checks = (lambda patch: check_kh_relation(patch, Route.CLOSED_FORM),
              lambda patch: check_kh_relation(patch, Route.NUMERIC),
              lambda patch: weingarten_check(patch, "sw"),
              export_curvature_csv)
    for check in checks:
        check(new_patch())
        assert {name for name, _ in calls} == {"r", "r'", "r''"}
        assert max(calls.values()) == 1
    patch = new_patch()
    for check in checks:
        check(patch)
    assert max(calls.values()) == 1


def test_numeric_loops_evaluate_the_point_map_once_per_pass(beta1, monkeypatch):
    """The numeric K-H check and the CSV export put the stencils of the
    patch's nodes through one point-map evaluation per numeric block in node
    order, blocks crossing s rows: ceil(n / block) calls of block nodes each,
    the last the rest. The closed-form K-H check and the CSV's closed form
    make as many pass calls over the closed-form blocks, and the Weingarten
    checks of all three pairs over blocks of as many stencil points (12 a
    node, 8 for one pair). Both at the real block sizes and at 7 (closed form)
    and 5."""
    import canal4.analysis as analysis
    import canal4.curvature as curvature
    from canal4.io import export_curvature_csv
    sizes, rows, cf_sizes, kh_sizes = [], [], [], []
    original, closed, kh_points = (curvature.indexed_points, curvature._closed_forms,
                                   analysis._kh_points)

    def counted(config, cache, s_keys, s_at, *rest):
        sizes.append(len(s_at))
        rows.append(len(s_keys) // 9)   # the s rows of the block, nine stencil values each
        return original(config, cache, s_keys, s_at, *rest)

    def closed_counted(config, cache, s_keys, s_at, *rest):
        cf_sizes.append(len(s_at))
        return closed(config, cache, s_keys, s_at, *rest)

    def kh_counted(config, cache, s_keys, s_at, *rest):
        kh_sizes.append(len(s_at) // 12)    # 12 stencil points per node
        return kh_points(config, cache, s_keys, s_at, *rest)

    monkeypatch.setattr(curvature, "indexed_points", counted)
    monkeypatch.setitem(curvature._PASSES, Route.CLOSED_FORM, closed_counted)
    monkeypatch.setattr(analysis, "_kh_points", kh_counted)
    real = curvature.BLOCK_NODES[Route.CLOSED_FORM], curvature.BLOCK_NODES[Route.NUMERIC]
    for cf_block, num_block in (real, (7, 5)):
        monkeypatch.setitem(curvature.BLOCK_NODES, Route.CLOSED_FORM, cf_block)
        monkeypatch.setitem(curvature.BLOCK_NODES, Route.NUMERIC, num_block)
        for t_values in ((0.3, 1.2, 2.0), tuple(0.1 * k for k in range(1, 23))):
            patch = sample_grid(beta1, make_config(1, 1, R2S),
                                GridSpec((1.0, 1.5, 2.0), t_values, (0.4, -0.6)))
            n = 3 * len(t_values) * 2

            def blocks(block):
                calls = -(-n // block)
                return [block] * (calls - 1) + [n - block * (calls - 1)]
            for check, expected in (
                    (lambda: check_kh_relation(patch, Route.NUMERIC), {"num": blocks(num_block)}),
                    (lambda: export_curvature_csv(patch),
                     {"num": blocks(num_block), "cf": blocks(cf_block)}),
                    (lambda: check_kh_relation(patch), {"cf": blocks(cf_block)}),
                    (lambda: analysis.weingarten_checks(patch, ("st", "sw", "tw")),
                     {"kh": blocks(8 * cf_block // 12)})):
                for recorded in (sizes, rows, cf_sizes, kh_sizes):
                    recorded.clear()
                check()
                assert {"num": sizes, "cf": cf_sizes, "kh": kh_sizes} == {
                    "num": [], "cf": [], "kh": [], **expected}
                if sizes:
                    assert max(rows) >= 2          # some block spans two s rows


def test_import_does_not_load_scipy():
    """A fresh interpreter imports canal4, solves a minimal-radius profile and
    round-trips a patch over it (rebuilt from its generator) through JSON, with
    no scipy module loaded."""
    import canal4
    src = str(Path(canal4.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = "\n".join([
        "import sys, canal4",
        "from canal4.io import patch_from_json, patch_to_json",
        "prof = canal4.solve_minimal_radius(1, 1.0, 1.0, (0.5, 2.5))",
        "line = canal4.CurveSpec(('0', 's', '0', '0'), (0.5, 2.5))",
        "grid = canal4.GridSpec((0.8, 1.6), (0.2, 0.9), (0.4,))",
        "patch = canal4.sample_grid(line, canal4.CanalConfig(2, 1, prof), grid)",
        "back = patch_from_json(patch_to_json(patch)).config.radius",
        "assert back == prof and back(1.3) == prof(1.3), (back(1.3), prof(1.3))",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
