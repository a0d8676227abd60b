"""The benchmark's own tests: every check accepts the program's correct
output and rejects a deliberately perturbed copy of it.

    python3 -m pytest bench/test_checks.py -q
"""
import copy
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import prepare  # noqa: E402
import run  # noqa: E402
from canal4 import canal  # noqa: E402
from canal4 import io as canal_io  # noqa: E402
from canal4.analysis import solve_minimal_radius  # noqa: E402
from workloads import run_cli  # noqa: E402

FAMILIES = inputs.families(7)


def family(name):
    return FAMILIES[name]


def patch_of(fam, values):
    ready = prepare.prepare(fam)
    return canal.sample_grid(ready.curve, ready.config, canal.GridSpec(*values))


def document(fam, values):
    patch = patch_of(fam, values)
    text = canal_io.patch_to_json(patch)
    return patch, text, json.loads(text)


J1_VALUES = ((0.6, 1.4), inputs.linspace(0.0, 2 * math.pi, 6, endpoint=False),
             inputs.linspace(-0.5 * math.pi, 0.5 * math.pi, 5))


@pytest.fixture(scope="module")
def example_doc():
    fam = family("beta1.j1l+1.2s")
    patch, text, doc = document(fam, J1_VALUES)
    return fam, patch, text, doc


def test_inputs_follow_the_seed():
    assert inputs.families(3) == inputs.families(3)
    assert inputs.families(3) != inputs.families(4)
    minimal = inputs.MINIMAL_FAMILY
    assert inputs.wide_grid(minimal, 3) == inputs.wide_grid(minimal, 4)
    assert inputs.obj_slice(minimal, 3) == inputs.obj_slice(minimal, 4)
    for workload in inputs.ROUNDS:
        assert len(inputs.round_families(workload, 3)) == len(inputs.round_families(workload, 4))


def test_patch_document_accepts_program_output(example_doc):
    fam, _, _, doc = example_doc
    assert checks.check_patch_document(fam, checks.Reference(fam), doc, *J1_VALUES) == []


def test_membership_and_explicit_surface_reject_a_moved_point(example_doc):
    fam, _, _, doc = example_doc
    bad = copy.deepcopy(doc)
    bad["points"][7][2] += 1e-6
    problems = checks.check_patch_document(fam, checks.Reference(fam), bad, *J1_VALUES)
    assert any("<P-b,P-b>" in p for p in problems)
    assert any("explicit surface" in p for p in problems)


def test_null_cone_membership():
    fam = family("gamma4.j4l0.null")
    values = ((0.5, 2.0), (-1.0, 0.0, 1.0), (-0.5, 0.5))
    _, _, doc = document(fam, values)
    ref = checks.Reference(fam)
    assert checks.check_patch_document(fam, ref, doc, *values) == []
    doc["points"][3][0] += 1e-6
    assert checks.check_patch_document(fam, ref, doc, *values)


def test_frames_and_degenerate_nodes_reject_perturbations(example_doc):
    fam, _, _, doc = example_doc
    ref = checks.Reference(fam)
    bad = copy.deepcopy(doc)
    bad["frames"][0]["vectors"][1][0] += 1e-6
    assert any("frame 0" in p for p in checks.check_patch_document(fam, ref, bad, *J1_VALUES))
    bad = copy.deepcopy(doc)
    bad["frames"][1]["eps"] = [1, -1, 1, 1]
    assert any("signs" in p for p in checks.check_patch_document(fam, ref, bad, *J1_VALUES))
    bad = copy.deepcopy(doc)
    assert bad["degenerate"]
    bad["degenerate"].pop()
    assert any("degenerate" in p for p in checks.check_patch_document(fam, ref, bad, *J1_VALUES))


def test_obj_counts_and_vertices(example_doc):
    fam, patch, _, doc = example_doc
    text = canal_io.export_obj(patch, drop=2, axis="t", index=1)
    assert checks.check_obj(fam, text, doc, 2, "t", 1) == []
    lines = text.splitlines()
    face = next(i for i, ln in enumerate(lines) if ln.startswith("f "))
    assert any("faces" in p for p in checks.check_obj(
        fam, "\n".join(lines[:face] + lines[face + 1:]) + "\n", doc, 2, "t", 1))
    moved = text.replace(lines[1], "v 1 2 3", 1)
    assert any("vertex" in p for p in checks.check_obj(fam, moved, doc, 2, "t", 1))


def test_reload_is_checked_bit_for_bit(example_doc):
    _, _, text, doc = example_doc
    back = canal_io.patch_from_json(text)
    assert checks.check_reload(doc, back) == []
    bad = copy.deepcopy(doc)
    bad["points"][0][0] = math.nextafter(bad["points"][0][0], math.inf)
    assert checks.check_reload(bad, back) == ["reloaded points are not bit-exact"]


def test_radius_round_trip():
    fam = family("gamma2.j2l+1.poly")
    ready = prepare.prepare(fam)
    radius = ready.config.radius
    back = canal_io._radius_from_payload(canal_io._radius_payload(radius))
    assert checks.check_radius_round_trip(fam, radius, back, (0.0, 1.0)) == []
    other = canal.RadiusProfile.from_expr(fam.radius.replace("s^2", "s^2 + 1e-9*s"))
    assert checks.check_radius_round_trip(fam, radius, other, (0.0, 1.0))


def test_minimal_round_trip_fault_is_detected_and_seed_free():
    fam = inputs.MINIMAL_FAMILY
    s_vals = inputs.wide_grid(fam, 1)[0]
    radius = prepare.radius_profile(fam)
    back = canal_io._radius_from_payload(canal_io._radius_payload(radius))
    problems = checks.check_radius_round_trip(fam, radius, back, s_vals)
    assert problems and all("after the JSON round trip" in p for p in problems)
    assert checks.check_radius_round_trip(fam, radius, radius, s_vals) == []


def test_rk4_minimal_profile_matches_the_solver():
    fam = inputs.MINIMAL_FAMILY
    ref = checks.Reference(fam)
    m = inputs.MINIMAL
    prof = solve_minimal_radius(m["eps1_lambda"], m["c1"], m["r0"], fam.domain, m["sign"])
    for s in (0.7, 1.5, 2.4):
        assert abs(ref.r(s) - prof(s)) < 1e-8


def test_curvature_csv_identities():
    fam = family("beta2.j3l+1.2s")
    values = inputs.oracle_grid_values(fam.curve, fam.j)
    text = canal_io.export_curvature_csv(patch_of(fam, values))
    ref = checks.Reference(fam)
    assert checks.check_curvature_csv(fam, ref, text, *values) == []
    lines = text.splitlines()
    row = lines[13].split(",")             # s = 1.625, r = 3.25

    def with_row(fields):
        return "\n".join(lines[:13] + [",".join(fields)] + lines[14:]) + "\n"

    for column, label in ((3, "K-H identity [cf]"), (8, "K-H identity [num]"),
                          (5, "mu1, mu2"), (7, "principal curvatures")):
        fields = list(row)
        fields[column] = repr(float(fields[column]) + 1e-2 * (1 + abs(float(fields[column]))))
        problems = checks.check_curvature_csv(fam, ref, with_row(fields), *values)
        assert any(label in p for p in problems), (label, problems)
    dropped = "\n".join(lines[:-1]) + "\n"
    assert any("rows" in p for p in checks.check_curvature_csv(fam, ref, dropped, *values))


def test_verify_verdicts_and_exit_codes():
    fam = family("gamma4.j4l-1.poly")
    names = inputs.tall_checks(fam)
    code, out, _ = run_cli(["verify", *inputs.family_args(fam), "--check=" + ",".join(names)])
    assert code == 1                       # k1 r' != 0: sw fails, st holds (j = 4)
    assert checks.check_verify_output(fam, names, code, out) == []
    flipped = out.replace("FAIL weingarten-sw", "PASS weingarten-sw")
    assert checks.check_verify_output(fam, names, code, flipped)
    assert checks.check_verify_output(fam, names, 0, out)
    tube = family("beta1.j1l+1.tube")
    code, out, _ = run_cli(["verify", *inputs.family_args(tube), "--check=" + ",".join(names)])
    assert code == 0 and checks.check_verify_output(tube, names, code, out) == []


def test_classify_verdicts():
    fam = family("spacelike_line.j2l-1.linear")
    ref = checks.Reference(fam)
    code, out, _ = run_cli(["classify", *inputs.family_args(fam)])
    assert out.startswith("flat: flat")
    assert checks.check_classify_output(fam, ref, code, out) == []
    assert checks.check_classify_output(fam, ref, code, out.replace("flat: flat", "flat: not-flat"))
    curved = family("timelike_line.j1l+1.poly")
    code, out, _ = run_cli(["classify", *inputs.family_args(curved)])
    assert checks.check_classify_output(curved, checks.Reference(curved), code, out) == []


def test_build_output_line():
    assert checks.check_build_output("wrote a.json: 2x3x1 grid, 0 degenerate nodes\n",
                                     "a.json", (2, 3, 1), 0) == []
    assert checks.check_build_output("wrote a.json: 2x3x1 grid, 1 degenerate nodes\n",
                                     "a.json", (2, 3, 1), 0)


def test_benchmark_json_names_the_metrics_run_prints():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(inputs.ROUNDS)
