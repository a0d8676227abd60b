"""Command line interface.

    canal example <beta1|beta2>
    canal build     ... --out patch.json
    canal curvature ... --out curv.csv
    canal verify    ... --check kh,weingarten-tw [--route cf|num|both]
    canal classify  ... --radius EXPR [--family jN,lM]
    canal export    ... --obj slice.obj [--csv curv.csv] [--slice-w V | --slice-t V]

Exit codes: 0 success / all checks passed, 1 verification failure,
2 invalid configuration or an unreadable/unwritable file, 3 numeric
breakdown or arrays too large for memory. Configuration may also come
from a flat key=value file (--config); command line flags override it.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import analysis, builtin, io as cio
from . import expr as ex
from .canal import (_FREE_SLOTS, CanalConfig, GridSpec, RadiusProfile, Variant,
                    resolve_variant, sample_grid, validate_config)
from .curve import CurveSpec
from .curvature import Route
from .errors import CanalError, ConfigError, NumericError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_NUMERIC = 3

_CHECK_NAMES = ("kh", "weingarten-st", "weingarten-sw", "weingarten-tw", "unit-speed", "sphere")


def _read_config_file(path, keys):
    """The key = value pairs of a config file; a key outside keys, the options
    of the command, is a ConfigError."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in keys:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _merged(args, file_values, key, default=None):
    """CLI flag wins over config file, which wins over the default."""
    cli = getattr(args, key, None)
    return cli if cli is not None else file_values.get(key, default)


def _parse_family(text):
    try:
        j_part, l_part = text.split(",")
        j = int(j_part.strip().lstrip("jJ"))
        lam = int(l_part.strip().lstrip("lL"))
    except (ValueError, AttributeError):
        raise ConfigError(f"bad family {text!r}; expected like 'j1,l1' or 'j3,l-1'")
    return j, lam


def _parse_grid(text):
    parts = text.lower().replace("×", "x").split("x")
    if len(parts) != 3:
        raise ConfigError(f"bad grid {text!r}; expected like '24x24x1'")
    try:
        ns, nt, nw = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"bad grid {text!r}; counts must be integers")
    if min(ns, nt, nw) < 1:
        raise ConfigError(f"grid counts must be >= 1, got {text!r}")
    return ns, nt, nw


def _parse_number(text, label):
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"bad {label} {text!r}; expected a number")
    if not math.isfinite(value):
        raise ConfigError(f"{label} must be finite, got {text!r}")
    return value


def _parse_range(text, label):
    a_part, sep, b_part = text.partition(":")
    if not sep:
        raise ConfigError(f"bad {label} {text!r}; expected like '0.25:3'")
    a, b = _parse_number(a_part, label), _parse_number(b_part, label)
    if not a < b:
        raise ConfigError(f"{label} must be increasing, got {text!r}")
    return a, b


class Job:
    """Resolved curve + canal configuration + grid for one command."""

    def __init__(self, args, file_values):
        get = lambda key, default=None: _merged(args, file_values, key, default)

        example = get("example")
        explicit = [get(f"curve_x{i}") for i in (1, 2, 3, 4)]
        has_explicit = any(c is not None for c in explicit)
        if example and has_explicit:
            raise ConfigError("give either --example or --curve-x1..x4, not both")
        if not example and not has_explicit:
            raise ConfigError("a curve is required (--example or --curve-x1..x4)")

        if example:
            self.curve_components = builtin.example_components(example)
            default_range_s, default_radius, default_family, default_slice_w = (
                builtin.EXAMPLE_DOMAIN, builtin.EXAMPLE_RADIUS,
                (builtin.EXAMPLE_FRAME_TYPE[example], 1), builtin.EXAMPLE_SLICE_W)
        else:
            if not all(explicit):
                raise ConfigError("all four of --curve-x1..x4 are required")
            self.curve_components = tuple(explicit)
            default_range_s, default_radius, default_family, default_slice_w = (
                (0.25, 3.0), None, None, None)

        range_s = get("range_s")
        self.s_range = _parse_range(range_s, "--range-s") if range_s else default_range_s
        self.curve = CurveSpec(self.curve_components, self.s_range)

        family = get("family")
        if family:
            self.j, self.lam = _parse_family(family)
        elif default_family:
            self.j, self.lam = default_family
        else:
            raise ConfigError("--family jN,lM is required for explicit curves")

        branch = get("branch", "+")
        if branch not in ("+", "-"):
            raise ConfigError(f"--branch must be '+' or '-', got {branch!r}")
        self.sigma = 1 if branch == "+" else -1

        radius_text = get("radius", default_radius)
        self.radius = None
        if self.lam != 0:
            if radius_text is None:
                raise ConfigError("--radius is required for lambda = +-1 families")
            try:
                self.radius = RadiusProfile.from_constant(float(radius_text))
            except ValueError:
                self.radius = RadiusProfile.from_expr(radius_text)

        a_free = None
        if self.lam == 0 and self.j in _FREE_SLOTS:     # CanalConfig rejects the other j
            slots = [f"a{i}" for i in _FREE_SLOTS[self.j]]
            texts = [get(k) for k in slots]
            if not all(texts):
                raise ConfigError(
                    f"lambda = 0 with j = {self.j} needs --{slots[0]} and --{slots[1]}")
            a_free = tuple(ex.parse(t, ("s", "t", "w")) for t in texts)

        variant_text = get("variant", "auto")
        variant = {"standard": Variant.STANDARD, "alt": Variant.ALT_SUPERCRITICAL}.get(variant_text)
        if self.lam == 0:
            variant = Variant.STANDARD
        elif variant_text == "auto":
            variant = resolve_variant(self.curve, self.j, self.lam, self.radius)
        elif variant is None:
            raise ConfigError(f"--variant must be auto|standard|alt, got {variant_text!r}")
        self.config = CanalConfig(self.j, self.lam, self.radius, self.sigma, variant, a_free)

        # grid
        grid_text = get("grid")
        self.counts = _parse_grid(grid_text) if grid_text else (12, 16, 1)
        default_t, default_w, self.t_endpoint = (
            ((0.0, 2.0 * math.pi), (-0.5 * math.pi, 0.5 * math.pi), False) if self.j == 1
            else ((-2.0, 2.0), (-2.0, 2.0), True))
        range_t = get("range_t")
        self.t_range = _parse_range(range_t, "--range-t") if range_t else default_t
        range_w = get("range_w")
        self.w_range = _parse_range(range_w, "--range-w") if range_w else default_w

        if default_slice_w is None:
            default_slice_w = 0.5 * (self.w_range[0] + self.w_range[1])
        self.slice_w = _parse_number(get("slice_w", default_slice_w), "--slice-w")
        slice_t = get("slice_t")
        self.slice_t = None if slice_t is None else _parse_number(slice_t, "--slice-t")
        drop = get("drop", "x1")
        if str(drop) not in ("x1", "x2", "x3", "x4"):
            raise ConfigError(f"--drop must be one of x1..x4, got {drop!r}")
        self.drop = int(str(drop)[1])

    def grid(self, axis=None) -> GridSpec:
        """The s, t and w values. axis "t" or "w" asks for a one-value slice at
        slice_t or slice_w (export); a grid with one w value is a w slice."""
        ns, nt, nw = self.counts
        t_values = GridSpec.linspace(self.t_range, nt, self.t_endpoint)
        w_values = GridSpec.linspace(self.w_range, nw if nw > 1 else 16)
        if axis == "t":
            t_values = (self.slice_t,)
        elif axis == "w" or nw == 1:
            w_values = (self.slice_w,)
        return GridSpec(GridSpec.linspace(self.s_range, ns), t_values, w_values)

    def validated_patch(self, grid=None):
        report = validate_config(self.curve, self.config)
        if not report.passed:
            raise ConfigError("inadmissible configuration: " + "; ".join(report.reasons))
        return sample_grid(self.curve, self.config, grid or self.grid())


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_example(args, file_values):
    name = args.name
    comps = builtin.example_components(name)
    lines = [
        f"# example = {name}",
        *(f"curve_x{i} = {c}" for i, c in enumerate(comps, 1)),
        f"range_s = {builtin.EXAMPLE_DOMAIN[0]}:{builtin.EXAMPLE_DOMAIN[1]}",
        f"radius = {builtin.EXAMPLE_RADIUS}",
        f"family = j{builtin.EXAMPLE_FRAME_TYPE[name]},l1",
        "branch = +",
        f"slice_w = {builtin.EXAMPLE_SLICE_W}",
    ]
    curve = CurveSpec(comps, builtin.EXAMPLE_DOMAIN)
    fr = curve.frenet(1.0)
    lines.append(f"# frame type j = {fr.frame_type}, curvatures k1 = {fr.k1:.12g}, "
                 f"k2 = {fr.k2:.12g}, k3 = {fr.k3:.12g}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_build(args, file_values):
    job = Job(args, file_values)
    patch = job.validated_patch()
    out = _merged(args, file_values, "out")
    if not out:
        raise ConfigError("--out PATH is required for build")
    _write(out, cio.patch_to_json(patch))
    ns, nt, nw = patch.shape
    print(f"wrote {out}: {ns}x{nt}x{nw} grid, {len(patch.degenerate)} degenerate nodes")
    return EXIT_OK


def cmd_curvature(args, file_values):
    job = Job(args, file_values)
    patch = job.validated_patch()
    out = _merged(args, file_values, "out")
    if not out:
        raise ConfigError("--out PATH is required for curvature")
    _write(out, cio.export_curvature_csv(patch))
    print(f"wrote {out}")
    return EXIT_OK


def _verify_grid(job: Job) -> GridSpec:
    """Small generic grid, inset from the s-domain for FD stencils and
    offset in t, w to avoid symmetry zeros and degenerate nodes."""
    s0, s1 = job.s_range
    inset = max(0.01, 4 * analysis.WEINGARTEN_FD_STEP)
    s_vals = GridSpec.linspace((s0 + inset, s1 - inset), 5)
    if job.j == 1:
        return GridSpec(s_vals, (0.35, 1.15, 2.05, 3.85, 5.35), (-1.05, -0.35, 0.45, 1.05))
    return GridSpec(s_vals, (-1.45, -0.65, 0.35, 0.85, 1.35), (-1.15, -0.45, 0.55, 1.25))


def cmd_verify(args, file_values):
    job = Job(args, file_values)
    checks_text = _merged(args, file_values, "check", "kh,weingarten-tw")
    checks = [c.strip() for c in checks_text.split(",") if c.strip()]
    for c in checks:
        if c not in _CHECK_NAMES:
            raise ConfigError(f"unknown check {c!r}; available: {', '.join(_CHECK_NAMES)}")
    route_text = _merged(args, file_values, "route", "cf")
    if route_text not in ("cf", "num", "both"):
        raise ConfigError(f"--route must be cf|num|both, got {route_text!r}")
    routes = {"cf": (Route.CLOSED_FORM,), "num": (Route.NUMERIC,),
              "both": (Route.CLOSED_FORM, Route.NUMERIC)}[route_text]

    patch = job.validated_patch(_verify_grid(job))
    reports = []
    for name in checks:
        if name == "kh":
            for route in routes:
                reports.append(analysis.check_kh_relation(patch, route))
        elif name.startswith("weingarten-"):
            reports.append(analysis.weingarten_check(patch, name.split("-", 1)[1]))
        elif name == "unit-speed":
            rep = job.curve.verify_unit_speed()
            reports.append(analysis.TheoremReport(
                "unit-speed", rep.max_deviation, rep.tolerance, rep.passed, rep.n_samples))
        elif name == "sphere":
            resid = patch.max_sphere_residual()
            r_max = max(patch.cache.rows(patch.grid.s_values)["r"].tolist()) if job.lam else 1.0
            tol = 1e-9 * (1.0 + r_max * r_max)
            reports.append(analysis.TheoremReport(
                "sphere-membership", resid, tol, resid <= tol, len(patch.coords)))

    all_passed = all(r.passed for r in reports)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.theorem}: max residual {r.max_residual:.6g} "
              f"(tolerance {r.tolerance:g}, {r.nodes_checked} nodes)")
    out = _merged(args, file_values, "out")
    if out:
        doc = [{"theorem": r.theorem, "max_residual": r.max_residual,
                "tolerance": r.tolerance, "passed": r.passed,
                "nodes_checked": r.nodes_checked} for r in reports]
        _write(out, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def cmd_classify(args, file_values):
    job = Job(args, file_values)
    if job.lam == 0:
        raise ConfigError("classification applies to the lambda = +-1 families")
    flat = analysis.classify_flat(job.curve, job.radius)
    print(f"flat: {flat.verdict} ({flat.reason})")
    minimal = analysis.classify_minimal(job.curve, job.radius, job.lam)
    print(f"minimal[lambda={job.lam:+d}]: {minimal.verdict} ({minimal.reason})")
    out = _merged(args, file_values, "out")
    if out:
        doc = {
            "flat": {"verdict": flat.verdict, "reason": flat.reason},
            "minimal": {"lambda": job.lam, "verdict": minimal.verdict,
                        "reason": minimal.reason},
        }
        _write(out, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def cmd_export(args, file_values):
    job = Job(args, file_values)
    obj_path = _merged(args, file_values, "obj")
    csv_path = _merged(args, file_values, "csv")
    if not obj_path and not csv_path:
        raise ConfigError("export needs --obj and/or --csv")
    axis = "w" if job.slice_t is None else "t"
    patch = job.validated_patch(job.grid(axis))
    if obj_path:
        _write(obj_path, cio.export_obj(patch, drop=job.drop, axis=axis, index=0))
        print(f"wrote {obj_path}")
    if csv_path:
        _write(csv_path, cio.export_curvature_csv(patch))
        print(f"wrote {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--config", help="flat key=value configuration file")
    p.add_argument("--example", help="builtin example curve (beta1|beta2)")
    for i in (1, 2, 3, 4):
        p.add_argument(f"--curve-x{i}", dest=f"curve_x{i}",
                       help=f"component x{i}(s) of an explicit curve")
    p.add_argument("--radius", help="radius r(s): expression or constant")
    p.add_argument("--family", help="family selector like j1,l1 (lambda in -1,0,1)")
    p.add_argument("--branch", choices=["+", "-"], help="offset branch sign (default +)")
    p.add_argument("--variant", help="auto|standard|alt (default auto)")
    p.add_argument("--grid", help="sample counts SxTxW, like 24x24x1")
    p.add_argument("--range-s", dest="range_s", help="s range a:b")
    p.add_argument("--range-t", dest="range_t", help="t range a:b")
    p.add_argument("--range-w", dest="range_w", help="w range a:b")
    p.add_argument("--slice-w", dest="slice_w", help="fixed w value for slices")
    p.add_argument("--slice-t", dest="slice_t", help="fixed t value for slices")
    p.add_argument("--drop", help="coordinate dropped in projections (x1..x4, default x1)")
    for k in ("a2", "a3", "a4"):
        p.add_argument(f"--{k}", help=f"free coefficient {k}(s,t,w) for lambda = 0")


@functools.cache
def build_parser():
    """The argument parser, built once: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="canal",
        description="Canal and tubular hypersurfaces in Lorentz-Minkowski 4-space")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example", help="print the configuration of a builtin example")
    p.add_argument("name", help="beta1 or beta2")

    for name, (_, help_text, flags) in _COMMANDS.items():
        if name != "example":
            p = sub.add_parser(name, help=help_text)
            _add_common(p)
            for flag, flag_help in flags.items():
                p.add_argument(flag, help=flag_help)
    return parser


# subcommand: (function, help, the flags it adds to the common ones)
_COMMANDS = {
    "example": (cmd_example, None, None),
    "build": (cmd_build, "sample a surface patch and write JSON",
              {"--out": "output patch JSON path"}),
    "curvature": (cmd_curvature, "write per-node curvature CSV", {"--out": "output CSV path"}),
    "verify": (cmd_verify, "run theorem checks; exit 0 iff all pass",
               {"--check": "comma list: " + ", ".join(_CHECK_NAMES),
                "--route": "cf|num|both (default cf)", "--out": "optional JSON report path"}),
    "classify": (cmd_classify, "flat / minimal classification",
                 {"--out": "optional JSON report path"}),
    "export": (cmd_export, "write OBJ slice and/or curvature CSV",
               {"--obj": "output OBJ path", "--csv": "output CSV path"}),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    file_values = {}
    config_path = getattr(args, "config", None)
    try:
        if config_path:
            file_values = _read_config_file(config_path, vars(args).keys() - {"command", "config"})
        return _COMMANDS[args.command][0](args, file_values)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except NumericError as exc:
        print(f"numeric breakdown: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CanalError, OSError) as exc:     # OSError: unreadable --config, unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except MemoryError as exc:      # numpy's names the array too large to hold (a huge --grid)
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
