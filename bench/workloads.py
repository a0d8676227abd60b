"""The three workloads: one operation per family, and its output checks.

Each operation calls the program through module attributes
(`canal.sample_grid`, `cli.main`, ...) so that the traced run's wrappers
see every call. `run()` is the timed part; `check()` runs outside the timed
windows and returns two lists of problems: `failed` (the operation did not
deliver: an exception, an error exit, a JSON round trip that loses
geometry) and `wrong` (it delivered an output the independent checks
reject).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import traceback

from canal4 import canal, cli
from canal4 import io as canal_io

import checks
import inputs
from prepare import Ready


def run_cli(argv):
    """canal4.cli.main in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def digest(*texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def _cli_failure(label, result):
    code, _, err = result
    if code in (0, 1):
        return []
    return [f"{label} exited {code}: {err.strip().splitlines()[-1] if err.strip() else ''}"]


class WideOp:
    """validate_config -> sample_grid -> patch_to_json -> patch_from_json ->
    export_obj on a grid with two s values and a 40 x 40 (t, w) lattice."""

    def __init__(self, ready: Ready, seed: int, workdir: str, index: int):
        self.ready = ready
        self.family = ready.family
        self.values = inputs.wide_grid(self.family, seed)
        self.grid = canal.GridSpec(*self.values)
        self.drop, self.axis, self.index = inputs.obj_slice(self.family, seed)

    def run(self):
        r = self.ready
        try:
            report = canal.validate_config(r.curve, r.config)
            patch = canal.sample_grid(r.curve, r.config, self.grid)
            text = canal_io.patch_to_json(patch)
            back = canal_io.patch_from_json(text)
            obj = canal_io.export_obj(back, self.drop, self.axis, self.index)
        except Exception:
            return traceback.format_exc()
        return report, patch, text, back, obj

    def check(self, out, ref):
        if isinstance(out, str):
            return [out.strip().splitlines()[-1]], [], None
        report, patch, text, back, obj = out
        doc = json.loads(text)
        failed = checks.check_reload(doc, back)
        failed += checks.check_radius_round_trip(self.family, patch.config.radius,
                                                 back.config.radius, self.values[0])
        wrong = [] if report.passed else [f"validate_config rejected: {report.reasons}"]
        wrong += checks.check_patch_document(self.family, ref, doc, *self.values)
        wrong += checks.check_obj(self.family, obj, doc, self.drop, self.axis, self.index)
        return failed, wrong, digest(text, obj)


class TallOp:
    """canal build (hundreds of s values, one or two (t, w) each), verify
    with the theorem checks on the closed-form route, classify."""

    def __init__(self, ready: Ready, seed: int, workdir: str, index: int):
        self.family = f = ready.family
        self.args = inputs.family_args(f)
        self.shape = inputs.tall_grid(index)
        self.path = os.path.join(workdir, f"tall-{index:02d}.json")
        self.checks = inputs.tall_checks(f)

    def run(self):
        build = run_cli(["build", *self.args, "--grid={}x{}x{}".format(*self.shape),
                         f"--out={self.path}"])
        verify = run_cli(["verify", *self.args, "--check=" + ",".join(self.checks),
                          "--route=cf"])
        classify = run_cli(["classify", *self.args]) if self.family.lam != 0 else None
        return build, verify, classify

    def expected_grid(self):
        f = self.family
        ns, nt, nw = self.shape
        s0, s1 = f.domain
        if f.j == 1:
            t_range, w_range, t_end = (0.0, 2 * math.pi), (-0.5 * math.pi, 0.5 * math.pi), False
        else:
            t_range, w_range, t_end = (-2.0, 2.0), (-2.0, 2.0), True
        s_vals = inputs.linspace(s0, s1, ns)
        t_vals = inputs.linspace(*t_range, nt, endpoint=t_end)
        if nw == 1:
            w_vals = (2.0,) if f.is_example else (0.5 * (w_range[0] + w_range[1]),)
        else:
            w_vals = inputs.linspace(*w_range, nw)
        return s_vals, t_vals, w_vals

    def check(self, out, ref):
        build, verify, classify = out
        failed = _cli_failure("build", build) + _cli_failure("verify", verify)
        if classify is not None:
            failed += _cli_failure("classify", classify)
        if failed:
            return failed, [], None
        wrong = [] if build[0] == 0 else [f"build exited {build[0]}"]
        with open(self.path, encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
        values = self.expected_grid()
        wrong += checks.check_patch_document(self.family, ref, doc, *values)
        wrong += checks.check_build_output(build[1], self.path, self.shape,
                                           len(doc.get("degenerate", ())))
        wrong += checks.check_verify_output(self.family, self.checks, verify[0], verify[1])
        if classify is not None:
            wrong += checks.check_classify_output(self.family, ref, classify[0], classify[1])
        return failed, wrong, digest(text, verify[1], classify[1] if classify else "")


class OracleOp:
    """canal curvature --out CSV (closed form next to finite differences) on a
    3 x 3 x 3 grid, then verify --check kh --route num. The supercritical
    family skips the verify: its verify grid has nodes near the degenerate
    locus w = 0, where the numeric K-H residual exceeds the tolerance on some
    seeds (see the FOUND line in CHANGES.md)."""

    def __init__(self, ready: Ready, seed: int, workdir: str, index: int):
        self.family = f = ready.family
        self.args = inputs.family_args(f)
        self.ranges = inputs.oracle_ranges(f)
        self.path = os.path.join(workdir, f"oracle-{index:02d}.csv")

    def run(self):
        curvature = run_cli(["curvature", *self.args, *self.ranges,
                             "--grid={}x{}x{}".format(*inputs.ORACLE_GRID), f"--out={self.path}"])
        verify = None
        if self.family.variant != "alt":
            verify = run_cli(["verify", *self.args, "--check=kh", "--route=num"])
        return curvature, verify

    def check(self, out, ref):
        curvature, verify = out
        failed = _cli_failure("curvature", curvature)
        if verify is not None:
            failed += _cli_failure("verify", verify)
        if failed:
            return failed, [], None
        wrong = [] if curvature[0] == 0 else [f"curvature exited {curvature[0]}"]
        with open(self.path, encoding="utf-8") as fh:
            text = fh.read()
        values = inputs.oracle_grid_values(self.family.curve, self.family.j, self.family.variant)
        wrong += checks.check_curvature_csv(self.family, ref, text, *values)
        if verify is not None:
            wrong += checks.check_verify_output(self.family, ["kh"], verify[0], verify[1],
                                                route="num")
        return failed, wrong, digest(text, verify[1] if verify else "")


OPS = {"wide": WideOp, "tall": TallOp, "oracle": OracleOp}
