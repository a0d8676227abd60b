"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured residuals (run with `pytest tests/test_acceptance.py -v -s`).

The shared sweep (criteria 3-4) draws 500 random non-degenerate nodes per
(j, lambda) family — all eight families, random degree-<=2 polynomial radii —
and evaluates both curvature routes at every node.
"""
import math
import random
import time

import numpy as np
import pytest

import conftest
from conftest import ALL_FAMILIES, TUBULAR_FAMILIES, admissible_node

from canal4.analysis import (classify_flat, classify_minimal,
                             solve_minimal_radius, weingarten_check)
from canal4.canal import (CanalConfig, GridSpec, RadiusProfile, Variant,
                          sample_grid)
from canal4.cli import main as cli_main
from canal4.curvature import Route, curvature_report, tubular_curvatures
from canal4 import expr as ex
from canal4.minkowski import inner

SQ7 = math.sqrt(7.0)
SQ35 = math.sqrt(35.0)
SQ21 = math.sqrt(21.0)


def _line(label, detail):
    print(f"\n[acceptance] {label}: PASS — {detail}")


# ---------------------------------------------------------------------------

def test_criterion_1_frenet_goldens(beta1, beta2):
    t0 = time.perf_counter()
    k_expected = (SQ7, 4 * math.sqrt(3.0 / 7.0), 1 / SQ7)
    worst = 0.0
    for i in range(20):
        s = 0.3 + 2.6 * i / 19
        fr1 = beta1.frenet(s)
        assert fr1.eps[0] == -1
        fr2 = beta2.frenet(s)
        assert fr2.eps[2] == -1
        for fr in (fr1, fr2):
            for got, expected in zip((fr.k1, fr.k2, fr.k3), k_expected):
                worst = max(worst, abs(got - expected))
                assert abs(got - expected) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _line("criterion 1 (frame goldens)",
          f"max curvature deviation {worst:.3g} at 20 values of s, {elapsed:.2f}s")


def test_criterion_2_curvature_goldens(beta1, beta2):
    t0 = time.perf_counter()
    mu3_11 = 5 * (SQ35 + 14) / (5 + 2 * SQ35) ** 2
    mu3_1m1 = 3 * (SQ21 - 14) / (3 - 2 * SQ21) ** 2
    cases = [
        (beta1, 1, 1, (0.5, 0.5, mu3_11)),
        (beta1, 1, -1, (-0.5, -0.5, mu3_1m1)),
        (beta2, 3, 1, (-0.5, -0.5, 0.0)),
        (beta2, 3, -1, (0.5, 0.5, 0.0)),
    ]
    worst_cf = worst_num = 0.0
    for curve, j, lam, mu in cases:
        cfg = CanalConfig(j, lam, RadiusProfile.from_expr("2*s"))
        K_exp = mu[0] * mu[1] * mu[2]
        H_exp = sum(mu) / 3.0
        cf = curvature_report(curve, cfg, 1.0, 0.0, 0.0, Route.CLOSED_FORM)
        for got, expected in zip(cf.mu + (cf.K, cf.H), mu + (K_exp, H_exp)):
            worst_cf = max(worst_cf, abs(got - expected))
            assert abs(got - expected) <= 1e-9
        num = curvature_report(curve, cfg, 1.0, 0.0, 0.0, Route.NUMERIC)
        for got, expected in zip(num.mu + (num.K, num.H), mu + (K_exp, H_exp)):
            worst_num = max(worst_num, abs(got - expected))
            assert abs(got - expected) <= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _line("criterion 2 (curvature goldens)",
          f"closed-form dev {worst_cf:.3g} (<=1e-9), numeric dev {worst_num:.3g} "
          f"(<=1e-4), {elapsed:.2f}s")


@pytest.fixture(scope="module")
def family_sweep(family_curves):
    """500 random non-degenerate nodes per family, both routes evaluated."""
    rng = random.Random(424242)
    t0 = time.perf_counter()
    data = {}
    for j, lam in ALL_FAMILIES:
        curve = family_curves[j]
        s_range = conftest.SWEEP_S_RANGE[j]
        radius = conftest.random_polynomial_radius(rng, j, lam, s_range)
        cfg = CanalConfig(j, lam, radius)
        nodes = []
        for _ in range(500):
            s, t, w = admissible_node(rng, curve, cfg, s_range, d_floor=0.25)
            fr = curve.frame(s)
            cf = curvature_report(curve, cfg, s, t, w, Route.CLOSED_FORM)
            num = curvature_report(curve, cfg, s, t, w, Route.NUMERIC)
            nodes.append((s, t, w, fr, cf, num))
        data[(j, lam)] = (curve, cfg, nodes)
    return data, time.perf_counter() - t0


def test_criterion_3_kh_identity_sweep(family_sweep):
    data, build_time = family_sweep
    t0 = time.perf_counter()
    worst_cf = worst_num = 0.0
    for (j, lam), (curve, cfg, nodes) in data.items():
        for s, t, w, fr, cf, num in nodes:
            sgn = fr.eps[2] * fr.eps[3] * lam ** j
            r = cfg.radius(s)
            worst_cf = max(worst_cf, abs(3 * cf.H * r - cf.K * r ** 3 - 2 * sgn))
            worst_num = max(worst_num, abs(3 * num.H * r - num.K * r ** 3 - 2 * sgn))
    assert worst_cf <= 1e-9
    assert worst_num <= 1e-4
    elapsed = build_time + (time.perf_counter() - t0)
    assert elapsed < 30.0
    _line("criterion 3 (K-H identity, 8 families x 500 nodes)",
          f"closed-form residual {worst_cf:.3g} (<=1e-9), numeric "
          f"{worst_num:.3g} (<=1e-4), {elapsed:.1f}s incl. sweep build")


def test_criterion_4_oracle_equivalence(family_sweep):
    data, _ = family_sweep
    worst_g = worst_h = worst_S = worst_KH = 0.0
    for (j, lam), (curve, cfg, nodes) in data.items():
        for s, t, w, fr, cf, num in nodes:
            worst_g = max(worst_g, float(np.max(np.abs(cf.g - num.g) / (1 + np.abs(cf.g)))))
            worst_h = max(worst_h, float(np.max(np.abs(cf.h - num.h) / (1 + np.abs(cf.h)))))
            worst_S = max(worst_S, float(np.max(np.abs(cf.S - num.S) / (1 + np.abs(cf.S)))))
            worst_KH = max(worst_KH, abs(cf.K - num.K) / (1 + abs(cf.K)),
                           abs(cf.H - num.H) / (1 + abs(cf.H)),
                           max(abs(a - b) / (1 + abs(a)) for a, b in zip(cf.mu, num.mu)))
            assert math.copysign(1.0, np.linalg.det(cf.g)) == -lam
            assert math.copysign(1.0, np.linalg.det(num.g)) == -lam
    assert worst_g <= 1e-4
    assert worst_h <= 1e-4
    assert worst_S <= 1e-4
    assert worst_KH <= 1e-4
    _line("criterion 4 (route equivalence on the sweep)",
          f"max rel dev: g {worst_g:.3g}, h {worst_h:.3g}, S {worst_S:.3g}, "
          f"K/H/mu {worst_KH:.3g} (<=1e-4); sign(det g) = -lambda everywhere")


def _theorem_patch(curve, cfg, j):
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


def test_criterion_5_theorem_suite(family_curves, spacelike_line, beta1):
    rng = random.Random(31007)
    # (H,K)_tw-Weingarten on every family
    worst_tw = 0.0
    for j, lam in ALL_FAMILIES:
        curve = family_curves[j]
        radius = conftest.random_polynomial_radius(rng, j, lam, conftest.SWEEP_S_RANGE[j])
        rep = weingarten_check(_theorem_patch(curve, CanalConfig(j, lam, radius), j), "tw")
        worst_tw = max(worst_tw, rep.max_residual)
        assert rep.passed, (j, lam, rep)

    # (H,K)_sw: fails for growing radius, holds for tubular
    sw_fail = weingarten_check(
        _theorem_patch(beta1, CanalConfig(1, 1, RadiusProfile.from_expr("2*s")), 1), "sw")
    assert not sw_fail.passed and sw_fail.max_residual > 1e-3
    sw_pass = weingarten_check(
        _theorem_patch(beta1, CanalConfig(1, 1, RadiusProfile.from_constant(0.3)), 1), "sw")
    assert sw_pass.passed and sw_pass.max_residual <= 1e-8

    # flatness battery
    flat = classify_flat(spacelike_line, RadiusProfile.from_expr("0.5*s + 1"))
    assert flat.verdict == "flat" and flat.sampled_max_K <= 1e-9
    assert classify_flat(beta1, RadiusProfile.from_expr("2*s")).verdict == "not-flat"

    # minimal profile: sampled |H| on a line-centered canal
    s0, s1 = spacelike_line.domain
    prof = solve_minimal_radius(1, 1.0, 1.0, (s0, s1), 1)
    minimal = classify_minimal(spacelike_line, prof, 1)
    assert minimal.verdict == "minimal" and minimal.sampled_max_H <= 1e-5
    patch = _theorem_patch(spacelike_line, CanalConfig(2, 1, prof), 2)
    worst_H = max(abs(curvature_report(patch.curve, patch.config, s, t, w).H)
                  for _, _, _, s, t, w, _ in patch.nodes())
    assert worst_H <= 1e-5
    _line("criterion 5 (theorem suite)",
          f"tw residual {worst_tw:.3g} (<=1e-8) on all families; sw residual "
          f"{sw_fail.max_residual:.3g} (>1e-3) for r=2s vs {sw_pass.max_residual:.3g} "
          f"(<=1e-8) tubular; flat |K| {flat.sampled_max_K:.3g}; minimal |H| {worst_H:.3g}")


def test_criterion_6_tubular(family_curves, tmp_path):
    # the two impossible configurations exit with code 2
    assert cli_main(["build", "--example", "beta1", "--family", "j1,l-1",
                     "--radius", "0.5", "--out", str(tmp_path / "a.json")]) == 2
    assert cli_main(["build", "--example", "beta1", "--family", "j1,l0",
                     "--out", str(tmp_path / "b.json")]) == 2

    rng = random.Random(5150)
    rc = 0.2
    worst = 0.0
    for j, lam in TUBULAR_FAMILIES:
        curve = family_curves[j]
        variant = Variant.ALT_SUPERCRITICAL if (j >= 2 and lam == 1) else Variant.STANDARD
        cfg = CanalConfig(j, lam, RadiusProfile.from_constant(rc), 1, variant)
        for _ in range(10):
            s = rng.uniform(0.5, 2.0)
            t = rng.uniform(-1.0, 1.0) if j != 1 else rng.uniform(0.0, 2 * math.pi)
            w = rng.uniform(-1.0, 1.0)
            fr = curve.frame(s)
            K_t, H_t = tubular_curvatures(j, lam, rc, fr.k1, t, w)
            num = curvature_report(curve, cfg, s, t, w, Route.NUMERIC)
            dev = max(abs(num.K - K_t) / (1 + abs(K_t)), abs(num.H - H_t) / (1 + abs(H_t)))
            worst = max(worst, dev)
            assert dev <= 1e-4, (j, lam, s, t, w)
    _line("criterion 6 (tubular families)",
          f"impossible families exit 2; closed-form vs numeric K/H dev {worst:.3g} "
          f"(<=1e-4) over the 7 existing families")


def test_criterion_7_nullcone(family_curves):
    rng = random.Random(7411)
    a_first = ex.parse("w*cos(t) + 0.2*s", ("s", "t", "w"))
    a_second = ex.parse("(1 + w^2)*sin(t)", ("s", "t", "w"))
    from canal4.canal import nullcone_point
    worst = 0.0
    count = 0
    while count < 200:
        j = (2, 3, 4)[count % 3]
        curve = family_curves[j]
        s = rng.uniform(0.4, 2.4)
        t = rng.uniform(-1.2, 1.2)
        w = rng.uniform(-1.2, 1.2)
        sigma = 1 if count % 2 else -1
        p = nullcone_point(curve, j, (a_first, a_second), s, t, w, sigma)
        d = p - curve.point(s)
        worst = max(worst, abs(inner(d, d)))
        count += 1
    assert worst <= 1e-9
    _line("criterion 7 (null-cone construction)",
          f"null condition residual {worst:.3g} (<=1e-9) over 200 nodes, j in 2..4")


def test_criterion_8_export_determinism(tmp_path):
    from pathlib import Path
    golden = Path(__file__).parent / "golden" / "beta1_w2.obj"
    args = ["export", "--example", "beta1", "--family", "j1,l1",
            "--grid", "12x16x1", "--slice-w", "2"]
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    ca, cb = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--obj", str(a), "--csv", str(ca)]) == 0
    assert cli_main(args + ["--obj", str(b), "--csv", str(cb)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert ca.read_bytes() == cb.read_bytes()
    assert a.read_bytes() == golden.read_bytes()
    _line("criterion 8 (deterministic export)",
          f"OBJ/CSV byte-identical across runs; OBJ matches the checked-in "
          f"golden ({len(a.read_bytes())} bytes)")
