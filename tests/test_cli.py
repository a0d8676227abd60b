"""End-to-end CLI behavior: subcommands, exit codes, file formats,
determinism, and the checked-in OBJ golden."""
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
import oracles

from canal4 import expr as ex
from canal4.analysis import (check_kh_relation, classify_flat, classify_minimal,
                             solve_minimal_radius, weingarten_check)
from canal4.cli import main
from canal4.io import (CSV_HEADER, export_curvature_csv, export_obj, patch_from_json,
                       patch_to_json)
from canal4.canal import CanalConfig, GridSpec, RadiusProfile, Variant, sample_grid
from canal4.curve import CurveSpec
from canal4.curvature import Route, curvature_report
from canal4.errors import DegenerateNodeError

GOLDEN = Path(__file__).parent / "golden" / "beta1_w2.obj"

# the pinned golden export: 12 x 16 grid over the default example ranges, w = 2
GOLDEN_ARGS = ["export", "--example", "beta1", "--family", "j1,l1",
               "--grid", "12x16x1", "--slice-w", "2"]


def run(argv):
    return main(argv)


def test_example_subcommand(capsys):
    assert run(["example", "beta1"]) == 0
    out = capsys.readouterr().out
    assert "curve_x1 = 2*sinh(s)" in out
    assert "radius = 2*s" in out
    assert "family = j1,l1" in out
    assert run(["example", "beta2"]) == 0
    assert "family = j3,l1" in capsys.readouterr().out


@pytest.mark.parametrize("name, family", [("beta1", "j1,l1"), ("beta2", "j3,l1")])
def test_example_output_is_a_config_file(tmp_path, capsys, name, family):
    """The printed configuration, read back with --config, builds the bytes
    of --example: the example line is a comment, so the curve is given once."""
    assert run(["example", name]) == 0
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(capsys.readouterr().out)
    assert f"# example = {name}\n" in cfg.read_text()
    assert f"family = {family}\n" in cfg.read_text()
    outs = [tmp_path / "from-config.json", tmp_path / "from-example.json"]
    assert run(["build", "--config", str(cfg), "--grid", "3x4x2", "--out", str(outs[0])]) == 0
    assert run(["build", "--example", name, "--grid", "3x4x2", "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_unknown_config_key_exit_2(tmp_path, capsys):
    """A key that no option of the command takes is an error naming the file,
    the line and the key, not a silently ignored setting."""
    cfg = tmp_path / "job.cfg"
    cfg.write_text("example = beta1\nradus = 5\n")
    assert run(["build", "--config", str(cfg), "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cfg}:2: unknown key 'radus'\n"
    assert not (tmp_path / "x.json").exists()
    cfg.write_text("example = beta1\nobj = x.obj\n")      # an export option, not build's
    assert run(["build", "--config", str(cfg), "--out", str(tmp_path / "x.json")]) == 2
    assert "unknown key 'obj'" in capsys.readouterr().err


def test_unknown_example_exit_2():
    assert run(["example", "beta3"]) == 2


def test_verify_exit_codes():
    assert run(["verify", "--example", "beta1", "--family", "j1,l1",
                "--check", "kh,weingarten-tw"]) == 0
    assert run(["verify", "--example", "beta1", "--family", "j1,l1",
                "--check", "weingarten-sw"]) == 1


def test_verify_numeric_route():
    assert run(["verify", "--example", "beta2", "--family", "j3,l-1",
                "--check", "kh,sphere,unit-speed", "--route", "both"]) == 0


def test_verify_weingarten_on_a_supercritical_family(capsys):
    """Weingarten verdicts on beta2 (j3,l1) with the supercritical variant: a
    tube is Weingarten on every pair; a growing radius (k1 r' != 0) fails st
    and sw and passes tw."""
    args = ["verify", "--example", "beta2", "--family", "j3,l1", "--variant", "alt",
            "--check", "weingarten-st,weingarten-sw,weingarten-tw"]
    assert run(args + ["--radius", "0.5"]) == 0
    assert capsys.readouterr().out.count("PASS weingarten-") == 3
    assert run(args + ["--radius", "0.6+0.3*s"]) == 1
    out = capsys.readouterr().out
    assert ("FAIL weingarten-st" in out and "FAIL weingarten-sw" in out
            and "PASS weingarten-tw" in out)


def test_build_rejects_impossible_families(tmp_path):
    out = str(tmp_path / "p.json")
    for family in ("j1,l0", "j5,l0", "j0,l1"):      # no null cone for j = 1; no j = 5 or 0
        assert run(["build", "--example", "beta1", "--family", family, "--out", out]) == 2
    for radius in ("0.5", "2"):     # (1, -1) tubes fail the variant sign
        assert run(["build", "--example", "beta1", "--family", "j1,l-1",
                    "--radius", radius, "--out", out]) == 2
    # frame-type mismatch
    assert run(["build", "--example", "beta2", "--family", "j1,l1", "--out", out]) == 2


def test_numeric_breakdown_exit_3(tmp_path):
    # radius becomes non-evaluable inside the domain
    out = str(tmp_path / "p.json")
    code = run(["build", "--example", "beta1", "--family", "j1,l1",
                "--radius", "log(s - 1)", "--out", out])
    assert code == 3


def test_build_json_round_trip(tmp_path, beta1):
    out = tmp_path / "patch.json"
    assert run(["build", "--example", "beta1", "--family", "j1,l1",
                "--grid", "4x5x2", "--range-w", "0.2:0.8", "--out", str(out)]) == 0
    loaded = patch_from_json(out.read_text())
    cfg = CanalConfig(1, 1, RadiusProfile.from_expr("2*s"))
    grid = GridSpec(GridSpec.linspace((0.25, 3.0), 4),
                    GridSpec.linspace((0.0, 2 * math.pi), 5, endpoint=False),
                    GridSpec.linspace((0.2, 0.8), 2))
    direct = sample_grid(beta1, cfg, grid)
    assert loaded.shape == direct.shape
    for a, b in zip(loaded.points, direct.points):
        assert max(abs(x - y) for x, y in zip(a.as_tuple(), b.as_tuple())) <= 1e-15
    # serialization is exact: a second dump is byte-identical
    assert patch_to_json(loaded) == out.read_text()


def test_lambda0_build(tmp_path):
    out = tmp_path / "cone.json"
    assert run(["build", "--example", "beta2", "--family", "j3,l0",
                "--a2", "w*cos(t)", "--a4", "w*sin(t)",
                "--grid", "3x4x3", "--range-w", "0.2:1.0", "--out", str(out)]) == 0
    loaded = patch_from_json(out.read_text())
    assert loaded.config.lam == 0
    assert loaded.max_sphere_residual() <= 1e-9


def test_weingarten_on_a_null_cone_family_exit_2(capsys):
    """The Weingarten check rejects lam = 0 as the K-H check does, with its
    message: a null-cone row carries Q = 0, which no (K, H) pass reads."""
    for check in ("weingarten-tw", "kh"):
        assert run(["verify", "--example", "beta2", "--family", "j3,l0", "--a2", "w", "--a4", "t",
                    "--check", check]) == 2
        assert tuple(capsys.readouterr()) == (
            "", "error: curvature is not defined for the null-cone families (lambda = 0)\n")


def test_verify_refuses_a_check_list_naming_no_check_exit_2(tmp_path, capsys):
    """A check list with no name in it, from the flag or a config file, is
    refused with one error line and exit 2; it used to print nothing and exit 0."""
    cfg = tmp_path / "job.cfg"
    cfg.write_text("example = beta1\ncheck = ,\n")
    for args in (["--example", "beta1", "--check=,"], ["--example", "beta1", "--check", " , "],
                 ["--example", "beta1", "--check="], ["--config", str(cfg)]):
        assert run(["verify", *args]) == 2
        assert tuple(capsys.readouterr()) == (
            "", "error: --check names no check; available: kh, weingarten-st, weingarten-sw, "
                "weingarten-tw, unit-speed, sphere\n")


def test_export_determinism_and_golden(tmp_path):
    obj_a = tmp_path / "a.obj"
    obj_b = tmp_path / "b.obj"
    assert run(GOLDEN_ARGS + ["--obj", str(obj_a)]) == 0
    assert run(GOLDEN_ARGS + ["--obj", str(obj_b)]) == 0
    assert obj_a.read_bytes() == obj_b.read_bytes()
    assert obj_a.read_bytes() == GOLDEN.read_bytes()


def test_golden_obj_matches_reference_surface():
    """Vertices reproduce the explicit reference expansion at w = 2."""
    lines = GOLDEN.read_text().splitlines()
    vs = [tuple(float(x) for x in ln.split()[1:]) for ln in lines if ln.startswith("v ")]
    s_vals = GridSpec.linspace((0.25, 3.0), 12)
    t_vals = GridSpec.linspace((0.0, 2 * math.pi), 16, endpoint=False)
    assert len(vs) == len(s_vals) * len(t_vals)
    k = 0
    for s in s_vals:
        for t in t_vals:
            x = oracles.example_surface_11(s, t, 2.0)
            for got, exp in zip(vs[k], x[1:]):   # projection drops x1
                assert got == pytest.approx(exp, rel=1e-8, abs=1e-7)
            k += 1


def test_obj_two_by_two_grid(beta1):
    cfg = CanalConfig(1, 1, RadiusProfile.from_expr("2*s"))
    patch = sample_grid(beta1, cfg, GridSpec((1.0, 1.5), (0.0, 0.5), (0.3,)))
    text = export_obj(patch)
    lines = text.splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == 4
    assert sum(1 for ln in lines if ln.startswith("f ")) == 2


def test_obj_skips_faces_at_degenerate_nodes(beta1):
    cfg = CanalConfig(1, 1, RadiusProfile.from_expr("2*s"))
    # fixed-t slice over w including the pole w = pi/2
    patch = sample_grid(beta1, cfg, GridSpec((1.0, 1.5), (0.4,),
                                             (1.2, math.pi / 2, 1.9)))
    text = export_obj(patch, axis="t", index=0)
    lines = text.splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == 6   # vertices all emitted
    assert sum(1 for ln in lines if ln.startswith("f ")) == 0   # all faces touch the pole


def test_supercritical_degenerate_column_skipped(beta2):
    """At w = 0 the supercritical metric degenerates (sinh w = 0): that column
    is flagged, the CSV has one row per non-degenerate node, OBJ faces there
    are skipped and the curvature report refuses the node."""
    cfg = CanalConfig(3, 1, RadiusProfile.from_expr("0.5*s"), 1, Variant.ALT_SUPERCRITICAL)
    patch = sample_grid(beta2, cfg, GridSpec((1.0, 1.5, 2.0), (-0.5, 0.4, 1.0),
                                             (-1.0, 0.0, 1.0)))
    assert patch.degenerate == {(i * 3 + jj) * 3 + 1 for i in range(3) for jj in range(3)}
    rows = export_curvature_csv(patch).splitlines()[1:]
    assert len(rows) == len(list(patch.nodes())) == 18
    assert all(float(row.split(",")[2]) != 0.0 for row in rows)
    faces = [sum(1 for ln in export_obj(patch, axis="w", index=k).splitlines()
                 if ln.startswith("f ")) for k in range(3)]
    assert faces == [8, 0, 8]
    t_slice = export_obj(patch, axis="t", index=0).splitlines()
    assert sum(1 for ln in t_slice if ln.startswith("f ")) == 0   # every quad touches w = 0
    with pytest.raises(DegenerateNodeError):
        curvature_report(beta2, cfg, 1.5, 0.4, 0.0)


def test_csv_header_contract(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["curvature", "--example", "beta1", "--family", "j1,l1",
                "--grid", "3x4x1", "--slice-w", "0.5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER == "s,t,w,K_cf,H_cf,mu1,mu2,mu3,K_num,H_num"
    assert len(lines) == 1 + 3 * 4
    # numeric and closed-form columns agree to the route tolerance
    for ln in lines[1:]:
        vals = [float(x) for x in ln.split(",")]
        assert abs(vals[3] - vals[8]) <= 1e-4 * (1 + abs(vals[3]))
        assert abs(vals[4] - vals[9]) <= 1e-4 * (1 + abs(vals[4]))


def test_csv_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["curvature", "--example", "beta2", "--family", "j3,l-1",
            "--grid", "3x3x2", "--range-w", "0.2:0.9"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_classify_command(capsys):
    assert run(["classify", "--curve-x1", "0", "--curve-x2", "s", "--curve-x3", "0",
                "--curve-x4", "0", "--range-s", "0.5:2.5", "--family", "j2,l-1",
                "--radius", "0.5*s + 1"]) == 0
    out = capsys.readouterr().out
    assert "flat: flat" in out
    assert "not-minimal" in out


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("example = beta1\nfamily = j1,l1\ncheck = weingarten-sw\n")
    # file alone fails the sw check; the flag overrides it to a passing one
    assert run(["verify", "--config", str(cfg)]) == 1
    capsys.readouterr()
    assert run(["verify", "--config", str(cfg), "--check", "kh"]) == 0


def test_explicit_curve_requires_family():
    assert run(["verify", "--curve-x1", "0", "--curve-x2", "s",
                "--curve-x3", "0", "--curve-x4", "0"]) == 2


def test_example_and_explicit_curve_conflict():
    assert run(["verify", "--example", "beta1", "--curve-x1", "s",
                "--curve-x2", "0", "--curve-x3", "0", "--curve-x4", "0",
                "--family", "j1,l1"]) == 2


def _profile(radius, s_values):
    return [(radius(s), radius.r_prime(s), radius.r_second(s)) for s in s_values]


def test_minimal_radius_reloads_from_its_generator(spacelike_line):
    """The JSON document holds a minimal profile as its generator, and the
    reader solves it again: r, r', r'' equal bit for bit over the domain, and
    the profile stays minimal."""
    prof = solve_minimal_radius(1, 1.0, 1.0, (0.5, 2.5))
    patch = sample_grid(spacelike_line, CanalConfig(2, 1, prof),
                        GridSpec((0.8, 1.6), (0.2, 0.9), (0.4,)))
    text = patch_to_json(patch)
    assert json.loads(text)["config"]["radius"] == {
        "kind": "minimal", "eps1_lambda": 1, "c1": 1.0, "r0": 1.0, "s_range": [0.5, 2.5],
        "sign": 1, "n_nodes": 257}
    back = patch_from_json(text)
    s_values = spacelike_line.sweep(4001)
    assert _profile(back.config.radius, s_values) == _profile(prof, s_values)
    assert classify_minimal(spacelike_line, back.config.radius, 1).verdict == "minimal"
    assert back.config == patch.config and patch_to_json(back) == text


def test_minimal_reload_calls_the_solver_of_the_analysis_module(spacelike_line, monkeypatch):
    """patch_from_json solves a minimal profile again through
    canal4.analysis.solve_minimal_radius as that name stands when it is
    called, so a wrapper put on it after import (a tracer's) sees the solve."""
    import canal4.analysis as analysis
    prof = solve_minimal_radius(1, 1.0, 1.0, (0.5, 2.5))
    text = patch_to_json(sample_grid(spacelike_line, CanalConfig(2, 1, prof),
                                     GridSpec((0.8, 1.6), (0.2,), (0.4,))))
    calls = []

    def recorded(*args):
        calls.append(args)
        return solve_minimal_radius(*args)

    monkeypatch.setattr(analysis, "solve_minimal_radius", recorded)
    assert patch_from_json(text).config.radius == prof
    assert calls == [(1, 1.0, 1.0, [0.5, 2.5], 1, 257)]


@st.composite
def _line_radii(draw):
    """(domain, lam, radius) over a spacelike line: a constant, expr or
    minimal radius, admissible on the (j = 2, lam) family; the minimal
    generators solve with no turning point and r > 0."""
    s0 = draw(st.floats(0.0, 1.0))
    kind = draw(st.sampled_from(("constant", "expr", "minimal")))
    if kind == "constant":
        return (s0, s0 + 1.0), -1, RadiusProfile.from_constant(draw(st.floats(0.2, 3.0)))
    if kind == "expr":
        form = draw(st.sampled_from(("{a} + {b}*s", "{a} + {b}*s^2", "{a}*exp({b}*s)")))
        text = form.format(a=draw(st.floats(1.0, 2.0)), b=draw(st.floats(-0.1, 0.8)))
        return (s0, s0 + 2.0), -1, RadiusProfile.from_expr(text)
    eps1_lambda, sign, c1_sign = (draw(st.sampled_from((-1, 1))) for _ in range(3))
    if eps1_lambda == 1:        # |r'| < 1.6 while r > 1.3, so r stays above 1.3
        c1, r0, span = draw(st.floats(0.5, 1.5)), draw(st.floats(3.0, 4.0)), 1.0
    else:                       # r0 about |c1|/2: far from r = |c1| (r' = 0) and r = 0
        c1 = draw(st.floats(2.0, 3.0))
        r0, span = c1 * draw(st.floats(0.45, 0.55)), 0.25
    domain = (s0, s0 + span)
    return domain, eps1_lambda, solve_minimal_radius(
        eps1_lambda, c1_sign * c1, r0, domain, sign, draw(st.integers(2, 300)))


@settings(max_examples=40, deadline=None)
@given(_line_radii())
def test_radius_json_round_trip_keeps_profile_and_verdicts(case):
    """Every radius kind reloads as the same profile: r, r', r'' bit for bit at
    200 s values, and the same flat and minimal verdicts."""
    domain, lam, radius = case
    line = CurveSpec(("0", "s", "0", "0"), domain)
    grid = GridSpec(domain, (0.2, 0.9), (0.4,))
    patch = sample_grid(line, CanalConfig(2, lam, radius), grid)
    text = patch_to_json(patch)
    back = patch_from_json(text)
    again = back.config.radius
    assert back.config == patch.config and patch_to_json(back) == text
    s_values = line.sweep(200)
    assert _profile(again, s_values) == _profile(radius, s_values)
    assert classify_flat(line, again) == classify_flat(line, radius)
    assert classify_minimal(line, again, lam) == classify_minimal(line, radius, lam)


@pytest.mark.parametrize("curve, config, grid", [
    ("beta1", CanalConfig(1, 1, RadiusProfile.from_expr("2*s")),
     GridSpec((1.0, 1.5, 2.0), (0.35, 1.15, 2.05), (-0.35, 0.45))),
    ("beta2", CanalConfig(3, 1, RadiusProfile.from_expr("0.6 + 0.3*s"), 1,
                          Variant.ALT_SUPERCRITICAL),
     GridSpec((1.0, 1.5, 2.0), (-0.55, 0.35, 0.85), (-0.45, 0.55))),
    ("spacelike_line", CanalConfig(2, 1, solve_minimal_radius(1, 1.0, 1.0, (0.5, 2.5))),
     GridSpec((0.8, 1.2, 1.6), (0.2, 0.9), (0.4, -0.3))),
], ids=["beta1", "beta2-supercritical", "minimal-line"])
def test_patch_json_round_trip_keeps_the_geometry(curve, config, grid, request):
    """A reloaded patch, whose cache builds its rows from the curve, gives the
    K-H reports (both routes), the Weingarten reports and the curvature CSV of
    the patch it was written from, which reads sample_grid's cache."""
    patch = sample_grid(request.getfixturevalue(curve), config, grid)
    back = patch_from_json(patch_to_json(patch))
    checks = ([lambda p, route=route: check_kh_relation(p, route) for route in Route]
              + [lambda p, pair=pair: weingarten_check(p, pair) for pair in ("st", "sw", "tw")])
    for check in checks:
        report = check(patch)
        assert report.nodes_checked == len(patch.coords)
        assert repr(check(back)) == repr(report)
    assert export_curvature_csv(back).encode() == export_curvature_csv(patch).encode()


def test_patch_json_rejects_unknown_radius_and_other_curve_modes(beta1):
    """Also a tabulated radius, which documents no longer hold."""
    patch = sample_grid(beta1, CanalConfig(1, 1, RadiusProfile.from_expr("2*s")),
                        GridSpec((1.0,), (0.2,), (0.4,)))
    doc = json.loads(patch_to_json(patch))
    for kind in ("spline", "table"):
        doc["config"]["radius"] = {"kind": kind, "s": [0.0, 1.0], "r": [1.0, 2.0],
                                   "rp": [0.0, 0.0]}
        with pytest.raises(ValueError,
                           match=f"^config.radius.kind: unknown radius kind '{kind}'"):
            patch_from_json(json.dumps(doc))
    doc = json.loads(patch_to_json(patch))
    doc["curve"]["mode"]["kind"] = "finite_difference"
    with pytest.raises(ValueError, match="not a canal-patch v1 document"):
        patch_from_json(json.dumps(doc))
    for path in ("degenerate", "points", "grid", "frames", "config", "curve", "grid.w",
                 "config.radius", "curve.domain", "frames.0.eps"):
        doc = json.loads(patch_to_json(patch))
        *outer, key = path.split(".")
        parent = doc
        for name in outer:
            parent = parent[int(name) if name.isdigit() else name]
        del parent[key]
        missing = path.replace(".0.", "[0].")
        with pytest.raises(ValueError, match=rf"^{re.escape(missing)}: missing"):
            patch_from_json(json.dumps(doc))
    for path in ("degenerate", "frames", "grid.s", "grid.t", "grid.w", "curve.components",
                 "curve.domain"):
        for bad, kind in ((5, "int"), ({"0": 1.0}, "dict"), ("1.0", "str")):
            doc = json.loads(patch_to_json(patch))
            *outer, key = path.split(".")
            (doc[outer[0]] if outer else doc)[key] = bad
            expected = rf"^{re.escape(path)}: expected a list, got {kind}$"
            with pytest.raises(ValueError, match=expected):
                patch_from_json(json.dumps(doc))


def _small_patch_doc(beta1):
    """The JSON document of a 1x3x2 patch with its w = pi/2 column degenerate."""
    patch = sample_grid(beta1, CanalConfig(1, 1, RadiusProfile.from_expr("2*s")),
                        GridSpec((1.0,), (0.2, 0.9, 1.7), (0.4, math.pi / 2)))
    doc = json.loads(patch_to_json(patch))
    assert len(doc["points"]) == 6 and doc["degenerate"] == [1, 3, 5]
    return doc


@pytest.mark.parametrize("points", [
    lambda p: p[:-1],                        # a point missing
    lambda p: [q[:3] for q in p],            # 3-component points
    lambda p: [q + [0.0] for q in p],        # 5-component points
    lambda p: sum(p, []),                    # flat list of 24 numbers
    lambda p: p[:-1] + [[1.0, None, 0.0, 0.0]],
    lambda p: p[:-1] + [[1.0, "x", 0.0, 0.0]],
])
def test_patch_json_rejects_points_off_the_grid_shape(beta1, points):
    doc = _small_patch_doc(beta1)
    doc["points"] = points(doc["points"])
    with pytest.raises(ValueError, match="^points: "):
        patch_from_json(json.dumps(doc))


def test_patch_json_rejects_a_frame_count_other_than_ns(beta1):
    """Also a frame other than 4 vectors of 4 finite numbers, 4 signs with
    exactly one -1 and 3 finite curvatures."""
    doc = _small_patch_doc(beta1)
    doc["frames"] = doc["frames"] * 2
    with pytest.raises(ValueError, match=r"^frames: expected 1, one per s value, got 2"):
        patch_from_json(json.dumps(doc))
    for key, bad in (("vectors", lambda v: [v[0][:3]] + v[1:]),
                     ("vectors", lambda v: v[:3]),
                     ("vectors", lambda v: [[1.0, None, 0.0, 0.0]] + v[1:]),
                     ("vectors", lambda v: [["1", 0.0, 0.0, 0.0]] + v[1:]),
                     ("eps", lambda e: e[:2]),
                     ("eps", lambda e: [-1, -1, 1, 1]),
                     ("eps", lambda e: [-1, 1.0, 1, 1]),
                     ("eps", lambda e: [-1, 0, 1, 1]),
                     ("k", lambda k: k[:2]),
                     ("k", lambda k: k[:2] + ["x"])):
        doc = _small_patch_doc(beta1)
        doc["frames"][0][key] = bad(doc["frames"][0][key])
        with pytest.raises(ValueError, match=rf"^frames\[0\]\.{key}: expected "):
            patch_from_json(json.dumps(doc))


def test_patch_json_replaces_an_edited_frame_by_the_curves(beta1):
    """The reader checks each document frame but keeps none: a document edited
    to frames[0].k = [9, 9, 9] and frames[1].vectors[0] = [1, 0, 0, 0] reloads
    with the curve's frame at each s, bit for bit, and writes the unedited
    text back."""
    patch = sample_grid(beta1, CanalConfig(1, 1, RadiusProfile.from_expr("2*s")),
                        GridSpec((1.0, 1.5), (0.2, 0.9), (0.4,)))
    text = patch_to_json(patch)
    doc = json.loads(text)
    doc["frames"][0]["k"] = [9, 9, 9]
    doc["frames"][1]["vectors"][0] = [1, 0, 0, 0]
    back = patch_from_json(json.dumps(doc))
    assert [repr(fr) for fr in back.frames] == [repr(beta1.frame(s)) for s in (1.0, 1.5)]
    assert patch_to_json(back) == text


def test_patch_json_reloads_the_frames_bit_for_bit(family_curves, spacelike_line,
                                                   timelike_line, rng):
    """A reloaded patch takes its frames from the curve re-parsed from the
    document, on the scalar path: they are the frames of the patch it was
    written from (array pass rows, 20 s values), bit for bit, for every
    family, the supercritical variant, both lines and a null cone."""
    beta2 = family_curves[3]
    a_free = tuple(ex.parse(a, ("s", "t", "w")) for a in ("w*cos(t)", "w*sin(t)"))
    cases = [(family_curves[j], CanalConfig(j, lam, conftest.random_polynomial_radius(
                 rng, j, lam, conftest.SWEEP_S_RANGE[j]))) for j, lam in conftest.ALL_FAMILIES]
    cases += [(beta2, CanalConfig(3, 1, RadiusProfile.from_expr("0.6 + 0.3*s"), 1,
                                  Variant.ALT_SUPERCRITICAL)),
              (spacelike_line, CanalConfig(2, -1, RadiusProfile.from_expr("2*s"))),
              (timelike_line, CanalConfig(1, 1, RadiusProfile.from_expr("2*s"))),
              (beta2, CanalConfig(3, 0, a_free=a_free))]
    grid = GridSpec(GridSpec.linspace((0.6, 1.5), 20), (0.3,), (0.4,))
    for curve, config in cases:
        patch = sample_grid(curve, config, grid)
        back = patch_from_json(patch_to_json(patch))
        assert back.frames == patch.frames
        assert [repr(fr) for fr in back.frames] == [repr(curve.frame(s)) for s in grid.s_values]


@pytest.mark.parametrize("degenerate", [[1, 3, 99], [-1], [1.0], [True], ["1"]])
def test_patch_json_rejects_degenerate_indices_off_the_grid(beta1, degenerate):
    doc = _small_patch_doc(beta1)
    doc["degenerate"] = degenerate
    with pytest.raises(ValueError, match=r"^degenerate: .* \[0, 6\)"):
        patch_from_json(json.dumps(doc))


# the radius of a minimal-profile document over the spacelike line (0.5, 2.5)
_MINIMAL = {"kind": "minimal", "eps1_lambda": 1, "c1": 1.0, "r0": 1.0, "s_range": [0.5, 2.5],
            "sign": 1, "n_nodes": 257}


@pytest.mark.parametrize("path, bad, field", [
    ("config.radius.text", 5, None),
    ("config.radius.value", "abc", None),
    ("config.a_free", 5, None),
    ("config.j", "1", None),
    ("config.j", True, None),
    ("curve.components", [1, 2, 3, 4], None),
    ("grid.s", ["x"], None),
    ("version", True, None),
    ("config.variant", "xyz", None),
    ("config.a_free", ["s", "t"], None),                # on a lambda = +1 patch
    ("config.j", 2, "frames[0].eps"),                   # the frames have frame type 1
    ("frames.1.eps", [1, -1, 1, 1], "frames[1].eps"),   # config.j is 1
    ("config.radius", dict(_MINIMAL, n_nodes=1), "config.radius.n_nodes"),
    ("config.radius", dict(_MINIMAL, s_range="x"), "config.radius.s_range"),
    ("degenerate", list(range(8)), None),               # no node of the grid is degenerate
    ("grid.w", [800.0, 0.7], None),                     # cosh(800) overflows (j = 3 patch)
    ("config.j", 7, None),
    ("config.lambda", 0, "config.a_free"),              # a_free is null
    ("config.variant", "alt", "config"),                # j = 1 has no supercritical variant
    ("config.radius", None, "config"),                  # lambda = +1 needs a radius
    ("config.radius.value", -1.0, None),
    ("config", lambda c: dict(c, a_free=["t", "w"], **{"lambda": 0}), None),  # no j = 1 null cone
    ("config.radius.text", "2*", None),
    ("curve.components.0", "2*", "curve.components"),
    ("curve.domain", [3.0, 0.25], None),
], ids=["radius-text", "radius-value", "a_free", "j-str", "j-bool", "components", "grid-s",
        "version-bool", "variant", "a_free-lambda", "j-frame-type", "eps-frame-type",
        "generator-n_nodes", "generator-s_range", "degenerate-set", "grid-w-overflow",
        "j-range", "lambda0-no-a_free", "variant-alt-j1", "radius-null", "radius-negative",
        "lambda0-j1", "radius-text-syntax", "component-syntax", "domain-reversed"])
def test_patch_json_rejects_ill_typed_fields(beta1, beta2, path, bad, field):
    """A field of the wrong type, or at odds with the rest of the document, is
    a ValueError that names it (field, where that is not the edited path; bad
    may edit the value at path). The document is a beta1 j1,l1 patch; a w
    value overflows only the hyperbolic patterns, so that case edits a beta2
    j3,l1 patch."""
    radius = (RadiusProfile.from_constant(2.0) if path == "config.radius.value"
              else RadiusProfile.from_expr("2*s"))
    curve, j = (beta2, 3) if path == "grid.w" else (beta1, 1)
    grid = GridSpec((1.0, 1.5), (0.2, 0.9), (0.4, 0.7))
    doc = json.loads(patch_to_json(sample_grid(curve, CanalConfig(j, 1, radius), grid)))
    *outer, key = path.split(".")
    parent = doc
    for name in outer:
        parent = parent[int(name) if name.isdigit() else name]
    key = int(key) if key.isdigit() else key
    parent[key] = bad(parent[key]) if callable(bad) else bad
    with pytest.raises(ValueError, match=rf"^{re.escape(field or path)}: expected "):
        patch_from_json(json.dumps(doc))


@pytest.mark.parametrize("key, bad", [
    ("eps1_lambda", 0), ("eps1_lambda", 1.0), ("eps1_lambda", True),
    ("c1", 0.0), ("c1", "1"), ("r0", 0.0), ("r0", -1.0), ("r0", None),
    ("sign", 2), ("sign", -1.0),
    ("s_range", [2.5, 0.5]), ("s_range", [0.5]), ("s_range", [0.5, 1e400]),
    ("n_nodes", 1), ("n_nodes", 65538), ("n_nodes", 257.0),
    ("s_range", [-3.0, 2.5]),          # with sign -1, r reaches 0 at s = -2.513
], ids=["eps1_lambda-0", "eps1_lambda-float", "eps1_lambda-bool", "c1-zero", "c1-str",
        "r0-zero", "r0-negative", "r0-null", "sign-2", "sign-float", "s_range-reversed",
        "s_range-short", "s_range-inf", "n_nodes-1", "n_nodes-max", "n_nodes-float",
        "s_range-exit"])
def test_patch_json_rejects_bad_minimal_generators(spacelike_line, key, bad):
    """Each argument of a minimal radius's generator is checked, and a generator
    whose profile leaves its domain is rejected naming s_range; a missing one
    is named too."""
    prof = solve_minimal_radius(1, 1.0, 1.0, (0.5, 2.5))
    doc = json.loads(patch_to_json(sample_grid(spacelike_line, CanalConfig(2, 1, prof),
                                               GridSpec((0.8,), (0.2,), (0.4,)))))
    assert doc["config"]["radius"] == _MINIMAL
    if key == "s_range" and bad[0] == -3.0:
        doc["config"]["radius"]["sign"] = -1
    doc["config"]["radius"][key] = bad
    with pytest.raises(ValueError, match=rf"^config\.radius\.{key}: expected "):
        patch_from_json(json.dumps(doc))
    del doc["config"]["radius"][key]
    with pytest.raises(ValueError, match=rf"^config\.radius\.{key}: missing"):
        patch_from_json(json.dumps(doc))


def test_verify_shares_stencil_rows_between_checks(monkeypatch):
    """The checks of one verify command read one cache per patch: weingarten-st
    and weingarten-sw share their 20 off-grid stencil rows, so the command
    builds 26 frames for its 5 s values (1 to validate, 5 for the grid, 20
    stencil rows), not 46."""
    from canal4.curve import CurveSpec
    calls = []
    frenet = CurveSpec.frenet

    def counted(self, s):
        calls.append(s)
        return frenet(self, s)

    monkeypatch.setattr(CurveSpec, "frenet", counted)
    assert run(["verify", "--example", "beta1", "--check",
                "kh,weingarten-st,weingarten-sw,weingarten-tw", "--route", "cf"]) == 1
    assert len(calls) <= 26


def test_successive_main_calls_share_one_parser_and_no_state(tmp_path, capsys):
    """The parser is built once per process; a flag of one call (--out,
    --route) is not seen by the next, and argparse's exit 2 leaves it usable."""
    import canal4.cli as cli
    cli.build_parser.cache_clear()
    report = tmp_path / "verify.json"
    assert run(["verify", "--example", "beta1", "--check", "kh", "--route", "num",
                "--out", str(report)]) == 0
    assert "kh-relation[numeric]" in capsys.readouterr().out
    report.unlink()
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--no-such-flag"])
    assert exc.value.code == 2
    assert run(["classify", "--example", "beta2"]) == 0
    assert "flat:" in capsys.readouterr().out
    assert run(["verify", "--example", "beta1", "--check", "kh"]) == 0
    out = capsys.readouterr().out
    assert "kh-relation[closed-form]" in out and "numeric" not in out
    assert not report.exists()
    assert cli.build_parser.cache_info().misses == 1


def test_branch_flag_changes_surface(tmp_path):
    args = ["export", "--example", "beta1", "--family", "j1,l1",
            "--grid", "4x6x1", "--slice-w", "0.5"]
    plus, minus = tmp_path / "p.obj", tmp_path / "m.obj"
    assert run(args + ["--branch", "+", "--obj", str(plus)]) == 0
    assert run(args + ["--branch", "-", "--obj", str(minus)]) == 0
    assert plus.read_bytes() != minus.read_bytes()


def _bad_config_exit(capsys, argv):
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("radius", ["-" * 3000 + "s", "(" * 300 + "s" + ")" * 300,
                                    "+".join(["s"] * 400)], ids=["minus", "parens", "sum"])
def test_deeply_nested_radius_exit_2(tmp_path, capsys, radius):
    _bad_config_exit(capsys, ["build", "--example", "beta1", "--grid", "2x2x1",
                              f"--radius={radius}", "--out", str(tmp_path / "x.json")])


@pytest.mark.parametrize("tail, radius", [
    ("sin(" * 20 + "s" + ")" * 20, "1"), ("*".join(["s"] * 20), "1"),
    (None, "2 + 1e-300*" + "sin(" * 30 + "s" + ")" * 30)],
    ids=["nested-sin", "product", "radius-nested-sin"])
def test_derivative_blow_up_exit_2(tmp_path, capsys, tail, radius):
    """A unit-speed curve (or beta1's radius) whose derivative trees outgrow
    MAX_DERIVATIVE_NODES is a config error within seconds, not 11 s and
    1.3 GB (sin nested 20 deep) on the way to a fourth derivative."""
    curve = ["--example", "beta1"] if tail is None else _curve(f"s + 1e-300*{tail}", "1", "0", "0")
    start = time.perf_counter()
    assert run(["build", *curve, "--radius", radius,
                "--grid", "2x2x1", "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert "expression too large to differentiate" in err and "Traceback" not in err
    assert time.perf_counter() - start < 5.0


def test_infinite_constant_radius_exit_2(tmp_path, capsys):
    _bad_config_exit(capsys, ["build", "--example", "beta1", "--family", "j1,l1",
                              "--radius", "inf", "--out", str(tmp_path / "p.json")])


@pytest.mark.parametrize("flag", [["--slice-w", "abc"], ["--slice-w", "inf"],
                                  ["--range-t", "0:inf"]], ids=["word", "inf", "range"])
def test_bad_slice_or_range_exit_2(tmp_path, capsys, flag):
    _bad_config_exit(capsys, ["export", "--example", "beta1", "--family", "j1,l1", *flag,
                              "--obj", str(tmp_path / "x.obj")])


def test_missing_config_file_exit_2(tmp_path, capsys):
    _bad_config_exit(capsys, ["verify", "--config", str(tmp_path / "absent.cfg")])


_LINE = ["--curve-x1", "0", "--curve-x2", "s", "--curve-x3", "0", "--curve-x4", "0"]


@pytest.mark.parametrize("argv, config, message", [
    (["build", "--example", "beta1", "--family", "j1", "--out", "{tmp}/x"], None,
     "bad family 'j1'; expected like 'j1,l1' or 'j3,l-1'"),
    (["verify", "--example", "beta1", "--variant", "sideways"], None,
     "--variant must be auto|standard|alt, got 'sideways'"),
    (["export", "--example", "beta1", "--drop", "x5", "--obj", "{tmp}/x"], None,
     "--drop must be one of x1..x4, got 'x5'"),
    (["verify", "--example", "beta1", "--variant", "std"], None,
     "--variant must be auto|standard|alt, got 'std'"),
    (["export", "--example", "beta1", "--drop", "2", "--obj", "{tmp}/x"], None,
     "--drop must be one of x1..x4, got '2'"),
    (["verify", "--example", "beta1", "--check", "kh,nope"], None,
     "unknown check 'nope'; available: kh, weingarten-st, weingarten-sw, weingarten-tw, "
     "unit-speed, sphere"),
    (["verify", "--example", "beta1", "--route", "fast"], None,
     "--route must be cf|num|both, got 'fast'"),
    (["build", "--example", "beta1", "--grid", "2x2", "--out", "{tmp}/x"], None,
     "bad grid '2x2'; expected like '24x24x1'"),
    (["build", "--example", "beta1", "--grid", "2xAx2", "--out", "{tmp}/x"], None,
     "bad grid '2xAx2'; counts must be integers"),
    (["build", "--example", "beta1", "--grid", "2x0x2", "--out", "{tmp}/x"], None,
     "grid counts must be >= 1, got '2x0x2'"),
    (["build", "--example", "beta1", "--range-s", "0.5", "--out", "{tmp}/x"], None,
     "bad --range-s '0.5'; expected like '0.25:3'"),
    (["build", "--out", "{tmp}/x"], None, "a curve is required (--example or --curve-x1..x4)"),
    (["build", *_LINE[:4], "--family", "j2,l1", "--radius", "1", "--out", "{tmp}/x"], None,
     "all four of --curve-x1..x4 are required"),
    (["build", *_LINE, "--family", "j2,l-1", "--out", "{tmp}/x"], None,
     "--radius is required for lambda = +-1 families"),
    (["build", "--example", "beta2", "--family", "j3,l0", "--a2", "w", "--out", "{tmp}/x"],
     None, "lambda = 0 with j = 3 needs --a2 and --a4"),
    (["build", "--example", "beta1", "--grid", "2x2x1"], None,
     "--out PATH is required for build"),
    (["curvature", "--example", "beta1", "--grid", "2x2x1"], None,
     "--out PATH is required for curvature"),
    (["classify", "--example", "beta2", "--family", "j3,l0", "--a2", "w", "--a4", "t"], None,
     "classification applies to the lambda = +-1 families"),
    (["export", "--example", "beta1"], None, "export needs --obj and/or --csv"),
    (["build", "--out", "{tmp}/x"], "example = beta1\nbranch = *\n",
     "--branch must be '+' or '-', got '*'"),
    (["build", "--out", "{tmp}/x"], "example beta1\n",
     "{tmp}/job.cfg:1: expected key=value, got 'example beta1'"),
], ids=["family", "variant", "drop", "variant-std", "drop-digit", "check", "route", "grid-parts",
        "grid-integers", "grid-counts", "range-colon", "no-curve", "some-components", "no-radius",
        "no-a-functions", "build-out", "curvature-out", "classify-null-cone", "export-outputs",
        "config-branch", "config-line"])
def test_config_errors_exit_2_with_one_error_line(tmp_path, capsys, argv, config, message):
    """Each bad option or config line exits 2 with one error line naming it,
    prints nothing and writes no file."""
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    if config is not None:
        (tmp_path / "job.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "job.cfg")]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message.replace('{tmp}', str(tmp_path))}\n")
    assert not (tmp_path / "x").exists()


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="needs /proc/self/statm")
def test_a_grid_too_large_to_hold_exits_3(tmp_path):
    """A grid whose arrays do not fit in memory exits 3 with one error line and
    writes nothing; --grid has no node cap. The commands run in a child process
    whose address space is limited to its size after import plus 512 MiB, so no
    grid is allocated: the 10^10-node build, and a 10^8-node export --slice-t."""
    import canal4
    src = str(Path(canal4.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = "\n".join([
        "import json, resource, sys",
        "from canal4 import cli",
        "with open('/proc/self/statm') as fh:",
        "    limit = int(fh.read().split()[0]) * resource.getpagesize() + (512 << 20)",
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))",
        "print([cli.main(argv) for argv in json.loads(sys.argv[1])])"])
    common = ["--example", "beta1", "--family", "j1,l1"]
    outs = tmp_path / "x.json", tmp_path / "x.obj"
    commands = [["build", "--radius", "2*s", "--grid", "100000x100000x1", "--out", str(outs[0])],
                ["export", "--grid", "1000x1x100000", "--slice-t", "0.5", "--obj", str(outs[1])]]
    done = subprocess.run([sys.executable, "-c", code, json.dumps([c + common for c in commands])],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "[3, 3]\n"), done.stderr
    assert re.fullmatch(r"(error: Unable to allocate .* for an array .*\n){2}", done.stderr)
    assert not any(out.exists() for out in outs)
    from canal4 import cli
    assert cli._parse_grid("1000x1000x2") == (1000, 1000, 2)
    assert cli._parse_grid("100000x100000x1") == (100000, 100000, 1)


def test_export_slice_t_writes_the_fixed_t_slice(tmp_path, beta1):
    """export --slice-t writes the ns x nw vertices of the lattice at t =
    slice_t and skips the faces at the degenerate w columns (cos w ~ 0 at
    the ends of the default w range of j = 1)."""
    out = tmp_path / "t.obj"
    assert run(["export", "--example", "beta1", "--grid", "3x7x5", "--slice-t", "0.5",
                "--obj", str(out)]) == 0
    w_values = GridSpec.linspace((-0.5 * math.pi, 0.5 * math.pi), 5)
    grid = GridSpec(GridSpec.linspace((0.25, 3.0), 3), (0.5,), w_values)
    patch = sample_grid(beta1, CanalConfig(1, 1, RadiusProfile.from_expr("2*s")), grid)
    lines = out.read_text().splitlines()
    assert lines[1:16] == ["v %.9g %.9g %.9g" % tuple(p[1:]) for p in patch.coords.tolist()]
    faces = [[int(v) for v in line.split()[1:]] for line in lines[16:]]
    assert len(faces) == 8 and all(line.startswith("f ") for line in lines[16:])
    # vertex k + 1 is node (k // 5, k % 5): no face touches w columns 0 or 4
    assert {(v - 1) % 5 for face in faces for v in face} == {1, 2, 3}


def test_classify_out_writes_the_printed_verdicts(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert run(["classify", *_LINE, "--range-s", "0.5:2.5", "--family", "j2,l-1",
                "--radius", "0.5*s + 1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert capsys.readouterr().out == (
        f"flat: {doc['flat']['verdict']} ({doc['flat']['reason']})\n"
        f"minimal[lambda=-1]: {doc['minimal']['verdict']} ({doc['minimal']['reason']})\n")
    assert (doc["flat"]["verdict"], doc["minimal"]["verdict"]) == ("flat", "not-minimal")
    assert doc["minimal"]["lambda"] == -1


@pytest.mark.parametrize("argv", [
    ["build", "--example", "beta1", "--family", "j1,l1", "--grid", "2x2x1", "--out"],
    ["export", "--example", "beta1", "--family", "j1,l1", "--grid", "2x2x1", "--obj"],
    ["export", "--example", "beta1", "--family", "j1,l1", "--grid", "2x2x1", "--csv"],
], ids=["out", "obj", "csv"])
def test_unwritable_output_path_exit_2(tmp_path, capsys, argv):
    _bad_config_exit(capsys, argv + [str(tmp_path / "no-such-dir" / "file")])


def _curve(*components):
    """The flags of an explicit curve with the (j1, l1) family."""
    return [arg for i, c in enumerate(components, 1) for arg in (f"--curve-x{i}", c)] + [
        "--family", "j1,l1"]


@pytest.mark.parametrize("source, code", [
    (["--example", "beta1", "--radius", "1e309*s"], 2),      # literal overflows: syntax error
    (["--example", "beta1", "--radius", "1e308*10*s"], 3),   # product overflows: numeric breakdown
    (_curve("1e309*s", "0", "0", "0") + ["--radius", "2"], 2),
    # <b',b'> = -inf + inf = nan: not unit speed
    (_curve("1e200*s", "1e200*s", "s", "0") + ["--radius", "1", "--grid", "2x2x1"], 2),
    # unit speed, but the third derivative overflows: a nan in the frame at s = 3.0
    (_curve("2*sinh(s)", "2*cosh(s)", "sqrt(3)/2e76*cos(2e76*s)", "sqrt(3)/2e76*sin(2e76*s)")
     + ["--radius", "1", "--grid", "2x2x1"], 3),
], ids=["radius-literal", "radius-product", "curve-literal", "curve-speed", "frame-nan"])
def test_overflowing_expression_exit_code(tmp_path, capsys, source, code):
    assert run(["build", *source, "--out", str(tmp_path / "x.json")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error:" if code == 2 else "numeric breakdown:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["build", "curvature"])
@pytest.mark.parametrize("axis", ["--range-t=0:800", "--range-w=0:800"])
def test_hyperbolic_overflow_exit_3(tmp_path, capsys, command, axis):
    """cosh and sinh overflow past |x| ~ 710 on j >= 2 families: a numeric
    breakdown that names the node, not an OverflowError traceback."""
    assert run([command, "--example", "beta2", "--family", "j3,l1", "--radius", "2*s", axis,
                "--grid", "3x3x3", "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric breakdown: non-finite surface point at s=0.25, ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["build", "curvature", "verify", "export"])
@pytest.mark.parametrize("radius, at", [("1e200*s", "s=0.25 (r' = 1e+200)"),
                                        ("exp(1000*s)", "s=0.421875 (r' = 1.6519e+186)")])
def test_overflowing_radius_slope_exit_3(tmp_path, capsys, command, radius, at):
    """r'^2 overflows while the variant is resolved: a numeric breakdown that
    names r' and s, not an OverflowError traceback."""
    out = ["--obj" if command == "export" else "--out", str(tmp_path / "x")]
    assert run([command, "--example", "beta1", "--radius", radius, "--family", "j1,l1",
                "--grid", "2x2x1", *(out if command != "verify" else [])]) == 3
    assert capsys.readouterr().err == f"numeric breakdown: r'^2 - lam*eps1 overflows at {at}\n"


def test_domain_error_names_the_function(tmp_path, capsys):
    assert run(["build", "--example", "beta1", "--radius", "1e308*10*s",
                "--out", str(tmp_path / "x.json")]) == 3
    assert capsys.readouterr().err == (
        "numeric breakdown: r'(s) = 1e+308*10 at s=0.25: non-finite value inf\n")


def test_curvature_on_short_s_range(tmp_path):
    """The numeric route's stencils reach 2e-3 past the ends of an s-range of
    span 1 (the overhang used to be 1e-3 of the span)."""
    out = tmp_path / "c.csv"
    assert run(["curvature", "--example", "beta1", "--range-s=1:2", "--range-w=-1:1",
                "--grid", "3x3x3", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 27


@pytest.mark.parametrize("radius, route, cube", [
    ("1e120*s", "cf", "r^3 at s=0.26 (r = 2.6e+119)"),
    ("1e120*s", "num", "r^3 at s=0.26 (r = 2.6e+119)"),
    ("1e120*s", "both", "r^3 at s=0.26 (r = 2.6e+119)"),
    ("1e60*s", "cf", "scale^3 of det g (max |g_ij| = 3.87e+239)")])
def test_overflowing_cube_exit_3(capsys, radius, route, cube):
    """r^3 in the K-H check, on either route, and the singular-metric test's
    scale^3 overflow: a numeric breakdown that names the cube, not an
    OverflowError traceback."""
    assert run(["verify", "--example", "beta1", "--radius", radius, "--route", route]) == 3
    assert capsys.readouterr().err == f"numeric breakdown: {cube} overflows\n"


def test_overflowing_square_in_the_sphere_check_exit_3(capsys):
    """r^2 of the sphere check through the same guard as the K-H check's r^3:
    a numeric breakdown that names the square, not an OverflowError traceback."""
    assert run(["verify", "--example", "beta1", "--radius", "1e200", "--check", "sphere"]) == 3
    assert capsys.readouterr().err == (
        "numeric breakdown: r^2 at s=0.26 (r = 1e+200) overflows\n")


@pytest.mark.parametrize("command, flag", [("curvature", "--out"), ("export", "--csv")])
def test_csv_with_no_surviving_node_exit_3(tmp_path, capsys, command, flag):
    """When every node of a patch breaks down numerically (here the singular-
    metric test's scale^3 overflows at each), the CSV export raises the first
    node's error: exit 3, one numeric-breakdown line and no file, not a CSV
    of the header alone."""
    out = tmp_path / "c.csv"
    assert run([command, "--example", "beta1", "--radius", "2*s + 1e120", "--grid", "2x2x1",
                flag, str(out)]) == 3
    assert capsys.readouterr().err == (
        "numeric breakdown: scale^3 of det g (max |g_ij| = 3.22e+241) overflows\n")
    assert not out.exists()


_RADII = ("2*s", "1e120*s", "1e120", "0.5 + s", "1e200*s", "1e308", "exp(700*s)", "nan",
          "700", "2*s + 1e120", "-1e120*s", "1e308*s*s")
_RANGES = ("0.5:2", "1:1.001", "1:1.0000001", "2:0.5", "1e120:2e120", "700:701",
           "-1e200:1e200", "nan:1", "0:1e308")
_LITERALS = ("2", "1e120", "1e200", "1e308", "700", "nan", "-1e120", "0.5")
# free coefficients of the null-cone families: literals and short expressions in s, t, w
_A_FREE = _LITERALS + ("w*cos(t)", "s*t", "exp(w)", "t/w", "sinh(700*t)", "1e200*s*w",
                       "log(s - 1)", "sqrt(t)")
# explicit curves: lines, a nearly null line, the helix of beta1, planar ones,
# one whose speed overflows and one whose third derivative does
_CURVES = (("0", "s", "0", "0"), ("s", "0", "0", "0"), ("1.0000000001*s", "s", "0", "0"),
           ("2*sinh(s)", "2*cosh(s)", "sqrt(3)*cos(s)", "sqrt(3)*sin(s)"),
           ("sinh(s)", "cosh(s)", "0", "0"), ("s*s", "s", "0", "0"),
           ("1e200*s", "1e200*s", "s", "0"),
           ("2*sinh(s)", "2*cosh(s)", "sqrt(3)/2e76*cos(2e76*s)", "sqrt(3)/2e76*sin(2e76*s)"))


@st.composite
def _command_lines(draw):
    """(argv, config file text) of one build | curvature | verify | classify |
    export command over a builtin or explicit curve: radii made of ordinary
    and extreme literals, null-cone families with free coefficients of the
    same kind, and some ranges short, reversed or extreme; each option is a
    flag or a line of the config file. {tmp} stands for a writable directory."""
    command = draw(st.sampled_from(("verify", "build", "curvature", "classify", "export")))
    example = draw(st.sampled_from(("beta1", "beta2", None)))
    options = {"example": example}
    if example is None:
        options.update(zip(("curve_x1", "curve_x2", "curve_x3", "curve_x4"),
                           draw(st.sampled_from(_CURVES))))
    j = {"beta1": 1, "beta2": 3, None: draw(st.integers(1, 4))}[example]
    options.update({
        "radius": draw(st.sampled_from(_RADII)),
        "family": draw(st.sampled_from((None, f"j{j},l1", f"j{j},l-1", "j2,l1", f"j{j},l0",
                                        "j3,l0"))),
        "grid": draw(st.sampled_from(("2x2x1", "1x1x1", "3x2x2", "2x3x3"))),
    })
    if options["family"] in (f"j{j},l0", "j3,l0"):     # most draws give the slots of j
        options.update({k: draw(st.sampled_from((None, *_A_FREE, *_A_FREE)))
                        for k in ("a2", "a3", "a4")})
    for axis in "stw":
        if draw(st.integers(0, 3)) == 0:
            options[f"range_{axis}"] = draw(st.sampled_from(_RANGES))
    if command == "verify":
        options["route"] = draw(st.sampled_from(("cf", "num", "both")))
        options["check"] = ",".join(draw(st.lists(st.sampled_from(
            ("kh", "weingarten-st", "weingarten-tw", "unit-speed", "sphere")),
            max_size=3, unique=True))) or None      # none: the default kh,weingarten-tw
    elif command == "export":
        options["obj"], options["csv"] = "{tmp}/x.obj", "{tmp}/x.csv"
        options["slice_w"] = draw(st.sampled_from(_LITERALS))
    elif command != "classify":
        options["out"] = "{tmp}/x.out"
    argv, lines = [command], []
    for key, value in options.items():
        if value is None:
            continue
        if draw(st.booleans()):
            lines.append(f"{key} = {value}")
        else:
            argv.append(f"--{key.replace('_', '-')}={value}")
    return argv, "\n".join(lines)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_command_lines())
@example((["verify", "--example=beta1", "--radius=1e120*s"], ""))     # r^3 overflows
@example((["build", "--example=beta2", "--family=j3,l0", "--a2=2", "--a4=1e200", "--grid=2x2x2",
           "--out={tmp}/x.out"], ""))      # (1e200)^2 of the null condition overflows
@example((["verify", "--example=beta2", "--family=j3,l0", "--a2=2", "--a4=1e200",
           "--check=sphere"], ""))         # so does <P - b, P - b>: FAIL, with no warning
@example((["verify", "--example=beta1", "--radius=1e200", "--check=sphere"], ""))  # r^2 overflows
def test_any_command_line_keeps_the_exit_code_contract(case):
    """Every drawn command line, run in process with warnings as errors, exits
    0, 1, 2 or 3 and prints no traceback."""
    argv, config = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        if config:
            Path(tmp, "job.cfg").write_text(config.replace("{tmp}", tmp) + "\n")
            argv += ["--config", str(Path(tmp, "job.cfg"))]
        with (warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:       # argparse rejects the command line
                code = exc.code
    assert code in (0, 1, 2, 3), (argv, config, err.getvalue())
    assert "Traceback" not in err.getvalue()
