"""End-to-end CLI behavior: subcommands, exit codes, file formats,
determinism, and the checked-in OBJ golden."""
import json
import math
from pathlib import Path

import pytest

import oracles

from canal4.cli import main
from canal4.io import (CSV_HEADER, export_curvature_csv, export_obj, patch_from_json,
                       patch_to_json)
from canal4.canal import CanalConfig, GridSpec, RadiusProfile, Variant, sample_grid
from canal4.curvature import curvature_report
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


def test_build_rejects_impossible_families(tmp_path):
    out = str(tmp_path / "p.json")
    assert run(["build", "--example", "beta1", "--family", "j1,l0", "--out", out]) == 2
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
    assert patch.degenerate == {patch.flat_index(i, jj, 1) for i in range(3) for jj in range(3)}
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


def test_tabulated_radius_json_round_trip(spacelike_line):
    from canal4.analysis import solve_minimal_radius
    s0, s1 = spacelike_line.domain
    prof = solve_minimal_radius(1, 1.0, 1.0, (s0, s1), 1)
    cfg = CanalConfig(2, 1, prof)
    patch = sample_grid(spacelike_line, cfg, GridSpec((0.8, 1.6), (0.2, 0.9), (0.4,)))
    text = patch_to_json(patch)
    loaded = patch_from_json(text)
    for a, b in zip(loaded.points, patch.points):
        assert a.as_tuple() == b.as_tuple()
    assert patch_to_json(loaded) == text


def test_patch_json_rejects_unknown_radius_and_other_curve_modes(beta1):
    patch = sample_grid(beta1, CanalConfig(1, 1, RadiusProfile.from_expr("2*s")),
                        GridSpec((1.0,), (0.2,), (0.4,)))
    doc = json.loads(patch_to_json(patch))
    doc["config"]["radius"] = {"kind": "spline", "s": [0.0, 1.0], "r": [1.0, 2.0]}
    with pytest.raises(ValueError, match="unknown radius kind 'spline'"):
        patch_from_json(json.dumps(doc))
    doc = json.loads(patch_to_json(patch))
    doc["curve"]["mode"]["kind"] = "finite_difference"
    with pytest.raises(ValueError, match="not a canal-patch v1 document"):
        patch_from_json(json.dumps(doc))


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


@pytest.mark.parametrize("argv", [
    ["build", "--example", "beta1", "--family", "j1,l1", "--grid", "2x2x1", "--out"],
    ["export", "--example", "beta1", "--family", "j1,l1", "--grid", "2x2x1", "--obj"],
    ["export", "--example", "beta1", "--family", "j1,l1", "--grid", "2x2x1", "--csv"],
], ids=["out", "obj", "csv"])
def test_unwritable_output_path_exit_2(tmp_path, capsys, argv):
    _bad_config_exit(capsys, argv + [str(tmp_path / "no-such-dir" / "file")])


@pytest.mark.parametrize("flag, text, code", [
    ("--radius", "1e309*s", 2),          # literal overflows: syntax error
    ("--radius", "1e308*10*s", 3),       # product overflows: numeric breakdown
    ("--curve-x1", "1e309*s", 2),
], ids=["radius-literal", "radius-product", "curve-literal"])
def test_overflowing_expression_exit_code(tmp_path, capsys, flag, text, code):
    if flag == "--radius":
        argv = ["build", "--example", "beta1", "--radius", text]
    else:
        argv = ["build", "--curve-x1", text, "--curve-x2", "0", "--curve-x3", "0",
                "--curve-x4", "0", "--family", "j1,l1", "--radius", "2"]
    assert run(argv + ["--out", str(tmp_path / "x.json")]) == code
    assert "Traceback" not in capsys.readouterr().err


def test_curvature_on_short_s_range(tmp_path):
    """The numeric route's stencils reach 2e-3 past the ends of an s-range of
    span 1 (the overhang used to be 1e-3 of the span)."""
    out = tmp_path / "c.csv"
    assert run(["curvature", "--example", "beta1", "--range-s=1:2", "--range-w=-1:1",
                "--grid", "3x3x3", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 27
