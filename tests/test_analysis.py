"""Theorem checks: the K-H identity, Weingarten pairs, flatness, minimality."""
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conftest
from conftest import ALL_FAMILIES, make_config

from canal4.analysis import (check_kh_relation, classify_flat, classify_minimal,
                             minimal_radius_residual, solve_minimal_radius,
                             weingarten_check)
from canal4.canal import (CanalConfig, GridSpec, RadiusProfile, sample_grid,
                          validate_config)
from canal4.curvature import Route, curvature_report
from canal4.errors import DomainExitError, InadmissibleConfigError

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


def test_kh_identity_all_families(family_curves, rng):
    for j, lam in ALL_FAMILIES:
        curve = family_curves[j]
        radius = conftest.random_polynomial_radius(rng, j, lam, conftest.SWEEP_S_RANGE[j])
        patch = _patch(curve, CanalConfig(j, lam, radius), j)
        rep = check_kh_relation(patch, Route.CLOSED_FORM)
        assert rep.passed, (j, lam, rep)


def test_kh_identity_tubular_rows(family_curves):
    """The constant-radius K/H rows satisfy the identity exactly."""
    from canal4.curvature import tubular_curvatures
    for j, lam in conftest.TUBULAR_FAMILIES:
        curve = family_curves[j]
        fr = curve.frame(0.9)
        sgn = fr.eps[2] * fr.eps[3] * lam ** j
        for (t, w) in [(0.4, 0.7), (-0.8, 0.3), (1.1, -0.9)]:
            K, H = tubular_curvatures(j, lam, 0.25, fr.k1, t, w)
            assert abs(3 * H * 0.25 - K * 0.25 ** 3 - 2 * sgn) <= 1e-9


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
    rep = weingarten_check(patch, "st", tolerance=1e-12)
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


def test_flat_agrees_with_sampled_K(spacelike_line):
    """Verdict iff sampled |K| <= 1e-9 on a constructed patch."""
    flat_radius = RadiusProfile.from_expr("0.4*s + 1")
    rep = classify_flat(spacelike_line, flat_radius)
    assert rep.verdict == "flat" and rep.sampled_max_K <= 1e-9
    curved_radius = RadiusProfile.from_expr("0.1*s^2 + 1")
    cfg = CanalConfig(2, -1, curved_radius)
    patch = _patch(spacelike_line, cfg, 2)
    worst = max(abs(curvature_report(patch.curve, cfg, s, t, w).K)
                for _, _, _, s, t, w, _ in patch.nodes())
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
    # shrinking-radicand branch: eps1*lam = -1 needs r < |c1|
    with pytest.raises(DomainExitError) as err:
        solve_minimal_radius(-1, 1.0, 0.9, (0.0, 2.0), 1)
    assert 0.0 < err.value.turning_s < 2.0


def test_minimal_radius_rejects_bad_arguments():
    with pytest.raises(InadmissibleConfigError):
        solve_minimal_radius(1, 0.0, 1.0, (0.0, 1.0), 1)
    with pytest.raises(InadmissibleConfigError):
        solve_minimal_radius(1, 1.0, -0.5, (0.0, 1.0), 1)


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
                for _, _, _, s, t, w, _ in patch.nodes())
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
    """Both pair axes take 4 offsets each: 8 closed-form (K, H) per node."""
    import canal4.analysis as analysis
    calls = []
    original = analysis.gauss_mean_principal

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    patch = sample_grid(beta1, make_config(1, 1, R2S),
                        GridSpec((1.0, 1.5), (0.3, 1.2), (0.4,)))
    expected = weingarten_check(patch, "tw")
    monkeypatch.setattr(analysis, "gauss_mean_principal", counted)
    report = weingarten_check(patch, "tw")
    assert len(calls) == 8 * report.nodes_checked
    assert report == expected


def test_radius_evaluated_once_per_distinct_s(beta1):
    """The K-H check (both routes), the Weingarten check and the CSV export
    evaluate r, r' and r'' at most once per distinct s, not once per node."""
    from collections import Counter
    from canal4.io import export_curvature_csv
    calls = Counter()

    def counted(name, fn):
        def wrapper(s):
            calls[name, s] += 1
            return fn(s)
        return wrapper

    radius = RadiusProfile("expr", counted("r", R2S.r), counted("r'", R2S.r_prime),
                           counted("r''", R2S.r_second), expr=R2S.expr)
    patch = sample_grid(beta1, make_config(1, 1, radius),
                        GridSpec((1.0, 1.5), (0.3, 1.2, 2.0), (0.4, -0.6)))
    checks = (lambda: check_kh_relation(patch, Route.CLOSED_FORM),
              lambda: check_kh_relation(patch, Route.NUMERIC),
              lambda: weingarten_check(patch, "sw"),
              lambda: export_curvature_csv(patch))
    for check in checks:
        calls.clear()
        check()
        assert {name for name, _ in calls} == {"r", "r'", "r''"}
        assert max(calls.values()) == 1


def test_import_does_not_load_scipy():
    """scipy is imported only when the minimal-radius ODE is solved."""
    import canal4
    src = str(Path(canal4.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, canal4; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
