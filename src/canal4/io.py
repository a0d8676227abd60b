"""Deterministic export: Wavefront OBJ slices, curvature CSV, patch JSON.

All formats are byte-stable across runs: fixed field ordering, no
timestamps, shortest-round-trip float serialization (JSON/CSV) and fixed
9-significant-digit formatting (OBJ).
"""
from __future__ import annotations

import json
import math

import numpy as np

from . import analysis, expr as ex
from .canal import (DEGENERATE_A_TOL, CanalConfig, GridSpec, RadiusProfile, SurfacePatch,
                    Variant, degenerate_nodes, frame_signs)
from .curve import CurveSpec
from .curvature import Route, curvatures
from .errors import CanalError, EmptySliceError, NumericError, unwrap

CSV_HEADER = "s,t,w,K_cf,H_cf,mu1,mu2,mu3,K_num,H_num"   # column contract v1

_DROP_TO_KEPT = {1: [1, 2, 3], 2: [0, 2, 3], 3: [0, 1, 3], 4: [0, 1, 2]}


def export_obj(patch: SurfacePatch, drop: int = 1, axis: str = "w",
               index: int = 0) -> str:
    """Project a fixed-w (or fixed-t) slice by dropping one coordinate.

    Vertices are written row-major over the remaining (s, col) grid; every
    quad is split into two triangles with consistent winding. Vertices of
    degenerate nodes are emitted but their faces are skipped.
    """
    if drop not in _DROP_TO_KEPT:
        raise ValueError(f"drop must be 1..4, got {drop!r}")
    if axis not in ("w", "t"):
        raise ValueError(f"slice axis must be 'w' or 't', got {axis!r}")
    ns, nt, nw = patch.shape
    along = 2 if axis == "w" else 1       # the sliced axis of the (s, t, w) lattice
    ncol = nt if axis == "w" else nw
    if ns < 1 or ncol < 1 or not 0 <= index < patch.shape[along]:
        raise EmptySliceError(f"no slice at {axis} index {index} in grid {patch.shape}")

    vertices = np.take(patch.coords.reshape(ns, nt, nw, 4), index, axis=along)
    flagged = np.isin(np.arange(ns * nt * nw), list(patch.degenerate)).reshape(ns, nt, nw)
    flagged = np.take(flagged, index, axis=along)
    lines = ["# canal hypersurface slice, projection drops x%d" % drop]
    lines += ["v %.9g %.9g %.9g" % tuple(v)
              for v in vertices[..., _DROP_TO_KEPT[drop]].reshape(-1, 3).tolist()]
    # faces of the quads (i, col) .. (i + 1, col + 1) with no degenerate corner
    skip = flagged[:-1, :-1] | flagged[:-1, 1:] | flagged[1:, 1:] | flagged[1:, :-1]
    for i, col in np.argwhere(~skip).tolist():
        v00, v01, v11, v10 = (i * ncol + col + 1, i * ncol + col + 2,
                              (i + 1) * ncol + col + 2, (i + 1) * ncol + col + 1)
        lines += [f"f {v00} {v01} {v11}", f"f {v00} {v11} {v10}"]
    return "\n".join(lines) + "\n"


def export_curvature_csv(patch: SurfacePatch) -> str:
    """Per-node curvature rows, closed form and numeric side by side, each
    from curvatures' block loop over the patch.

    Degenerate nodes and nodes where either route breaks down numerically
    are skipped, but if every node breaks down the first one's error is
    raised; any other error, the closed form's first, is raised.
    """
    keys = patch.node_keys()
    K, H, mu, cf_errors = curvatures(patch.config, patch.cache, Route.CLOSED_FORM, *keys)
    K_num, H_num, _, num_errors = curvatures(patch.config, patch.cache, Route.NUMERIC, *keys)
    rows = [CSV_HEADER]
    for (_, _, _, *node), cf_error, num_error, *values in zip(
            patch.nodes(), cf_errors, num_errors, K, H, *mu.T, K_num, H_num):
        error = cf_error or num_error
        if isinstance(error, NumericError):
            continue
        unwrap(error)
        rows.append(",".join(repr(float(v)) for v in (*node, *values)))
    if cf_errors and len(rows) == 1:
        unwrap(cf_errors[0] or num_errors[0])
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# patch JSON

# v1 documents carry the curve's derivative mode; symbolic is the only one
_CURVE_MODE = {"kind": "symbolic", "step": 1e-4}


# the radius kinds: the constructor that rebuilds a profile from its generator,
# the JSON names of the generator's arguments, and the one a failed build names;
# the solver is looked up when called, so a wrapper put on it later is seen
_RADIUS_KINDS = {
    "constant": (RadiusProfile.from_constant, ("value",), "value"),
    "expr": (RadiusProfile.from_expr, ("text",), "text"),
    "minimal": (lambda *args: analysis.solve_minimal_radius(*args),
                ("eps1_lambda", "c1", "r0", "s_range", "sign", "n_nodes"), "s_range"),
}
MAX_RADIUS_NODES = 65537


def _radius_payload(radius: RadiusProfile):
    """The radius's generator as a JSON object: its kind and its arguments."""
    if radius is None:
        return None
    kind, *args = radius.generator
    return {"kind": kind, **dict(zip(_RADIUS_KINDS[kind][1], args))}


def _get(doc, path: str, at: str = "", kind=object):
    """The value at a dotted path of nested dicts, such as "grid.s"; a missing
    key, or a value not of the kind, is a ValueError that names the path up to
    it (after the prefix at)."""
    keys = path.split(".")
    for i, key in enumerate(keys):
        if not isinstance(doc, dict) or key not in doc:
            raise ValueError(f"{at}{'.'.join(keys[:i + 1])}: missing")
        doc = doc[key]
    if not isinstance(doc, kind):
        raise ValueError(f"{at}{path}: expected a {kind.__name__}, got {type(doc).__name__}")
    return doc


def _numbers(value, n: int) -> bool:
    """Whether value is a list of n finite JSON numbers."""
    return (isinstance(value, list) and len(value) == n
            and all(type(x) in (int, float) and math.isfinite(x) for x in value))


def _strings(value, n: int) -> bool:
    """Whether value is a list of n strings."""
    return isinstance(value, list) and len(value) == n and all(type(x) is str for x in value)


def _require(ok: bool, field: str, expected: str):
    """A ValueError naming the field unless ok."""
    if not ok:
        raise ValueError(f"{field}: expected {expected}")


def _check_frame(fr, field: str, j: int) -> None:
    """Check a document's frames entry, whose timelike vector is F_j; the
    reader keeps none, as a patch takes its frames from the curve."""
    vectors, eps, k = (_get(fr, key, f"{field}.") for key in ("vectors", "eps", "k"))
    _require(isinstance(vectors, list) and len(vectors) == 4
             and all(_numbers(v, 4) for v in vectors), f"{field}.vectors",
             "4 vectors of 4 finite numbers")
    _require(_numbers(eps, 4) and all(type(e) is int for e in eps) and sorted(eps) == [-1, 1, 1, 1],
             f"{field}.eps", "4 signs +-1 with exactly one -1")
    _require(eps[j - 1] == -1, f"{field}.eps", f"the -1 at the frame type config.j = {j}")
    _require(_numbers(k, 3), f"{field}.k", "3 finite numbers")


def _built(field: str, build, *args):
    """build(*args); a CanalError or ValueError it raises (expression text that
    does not parse, an inadmissible family, a radius that does not solve) is a
    ValueError naming the field."""
    try:
        return build(*args)
    except (CanalError, ValueError) as exc:
        raise ValueError(f"{field}: expected an admissible value: {exc}") from exc


_SIGN = (lambda x: type(x) is int and x in (-1, 1), "the int -1 or 1")
# what each argument of a radius generator must be, as a JSON value
_RADIUS_FIELDS = {
    "value": (lambda x: _numbers([x], 1), "a finite number"),
    "text": (lambda x: type(x) is str, "a string"),
    "eps1_lambda": _SIGN,
    "c1": (lambda x: _numbers([x], 1) and x != 0, "a finite nonzero number"),
    "r0": (lambda x: _numbers([x], 1) and x > 0, "a finite positive number"),
    "s_range": (lambda x: _numbers(x, 2) and x[0] < x[1], "2 increasing finite numbers"),
    "sign": _SIGN,
    "n_nodes": (lambda x: type(x) is int and 2 <= x <= MAX_RADIUS_NODES,
                f"an int in [2, {MAX_RADIUS_NODES}]"),
}


def _radius_from_payload(payload):
    """The profile of a radius payload: its kind's constructor called again on
    the generator, so r, r' and r'' come back bit for bit."""
    if payload is None:
        return None
    kind = _get(payload, "kind", "config.radius.", str)
    if kind not in _RADIUS_KINDS:
        raise ValueError(f"config.radius.kind: unknown radius kind {kind!r} "
                         f"(expected one of {', '.join(_RADIUS_KINDS)})")
    build, names, blamed = _RADIUS_KINDS[kind]
    args = [_get(payload, name, "config.radius.") for name in names]
    for name, value in zip(names, args):
        _require(_RADIUS_FIELDS[name][0](value), f"config.radius.{name}", _RADIUS_FIELDS[name][1])
    return _built(f"config.radius.{blamed}", build, *args)


def patch_to_json(patch: SurfacePatch) -> str:
    """The canal-patch v1 document of the patch, its frames from the cache rows."""
    config = patch.config
    eps, rows = list(frame_signs(config.j)), patch.cache.rows(patch.grid.s_values)
    doc = {
        "format": "canal-patch",
        "version": 1,
        "curve": {
            "components": [str(c) for c in patch.curve.components],
            "domain": list(patch.curve.domain),
            "mode": _CURVE_MODE,
        },
        "config": {
            "j": config.j,
            "lambda": config.lam,
            "sigma": config.sigma,
            "variant": config.variant.value,
            "radius": _radius_payload(config.radius),
            "a_free": [str(a) for a in config.a_free] if config.a_free else None,
        },
        "grid": {
            "s": list(patch.grid.s_values),
            "t": list(patch.grid.t_values),
            "w": list(patch.grid.w_values),
        },
        "points": patch.coords.tolist(),
        "frames": [
            {"vectors": F, "eps": eps, "k": list(k)}
            for F, k in zip(rows["basis"][:, 1:].tolist(), rows[["k1", "k2", "k3"]].tolist())
        ],
        "degenerate": sorted(patch.degenerate),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def patch_from_json(text: str) -> SurfacePatch:
    """The patch of a canal-patch v1 document. A missing or malformed field is
    a ValueError that names it."""
    doc = json.loads(text)
    if (not isinstance(doc, dict) or doc.get("format") != "canal-patch"
            or doc.get("version") != 1 or _get(doc, "curve.mode.kind") != _CURVE_MODE["kind"]):
        raise ValueError("not a canal-patch v1 document")
    _require(type(doc["version"]) is int, "version", "the integer 1")
    components, domain = (_get(doc, f"curve.{key}", kind=list) for key in ("components", "domain"))
    _require(_strings(components, 4), "curve.components", "4 expression strings")
    _require(_numbers(domain, 2), "curve.domain", "2 finite numbers")
    _require(domain[0] < domain[1], "curve.domain", "an interval [smin, smax], smin < smax")
    curve = _built("curve.components", CurveSpec, components, domain)
    for key, values in (("j", (1, 2, 3, 4)), ("lambda", (-1, 0, 1)), ("sigma", (-1, 1))):
        value = _get(doc, f"config.{key}")
        _require(type(value) is int and value in values, f"config.{key}", f"an int in {values}")
    a_free = _get(doc, "config.a_free")
    _require(a_free is None or _strings(a_free, 2), "config.a_free", "null or 2 expression strings")
    _require((a_free is None) != (_get(doc, "config.lambda") == 0), "config.a_free",
             "2 expression strings for lambda = 0, null for lambda = +-1")
    variant = _get(doc, "config.variant")
    _require(variant in [v.value for v in Variant], "config.variant", "'standard' or 'alt'")
    config = _built("config", CanalConfig, _get(doc, "config.j"), _get(doc, "config.lambda"),
                    _radius_from_payload(_get(doc, "config.radius")),
                    _get(doc, "config.sigma"), Variant(variant),
                    a_free and tuple(_built("config.a_free", ex.parse, a, ("s", "t", "w"))
                                     for a in a_free))
    axes = [_get(doc, f"grid.{axis}", kind=list) for axis in "stw"]
    for axis, values in zip("stw", axes):
        _require(_numbers(values, len(values)), f"grid.{axis}", "finite numbers")
    grid = GridSpec(*map(tuple, axes))
    expected = _built("grid.w", degenerate_nodes, config, grid)
    ns, nt, nw = len(grid.s_values), len(grid.t_values), len(grid.w_values)
    n = ns * nt * nw
    points = _get(doc, "points")
    try:
        coords = np.array(points, dtype=float) if points != [] else np.empty((0, 4))
    except (TypeError, ValueError):
        coords = None
    _require(coords is not None and coords.shape == (n, 4) and np.isfinite(coords).all(),
             "points", f"{n} points of 4 finite numbers for the {ns}x{nt}x{nw} grid")
    frames = _get(doc, "frames", kind=list)
    _require(len(frames) == ns, "frames", f"{ns}, one per s value, got {len(frames)}")
    for i, fr in enumerate(frames):
        _check_frame(fr, f"frames[{i}]", config.j)
    degenerate = _get(doc, "degenerate", kind=list)
    _require(all(type(k) is int and 0 <= k < n for k in degenerate), "degenerate",
             f"flat node indices, ints in [0, {n})")
    _require(sorted(degenerate) == sorted(expected), "degenerate",
             f"the {len(expected)} nodes where |A| < {DEGENERATE_A_TOL:g}")
    return SurfacePatch(curve, config, grid, coords, expected)
