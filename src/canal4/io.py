"""Deterministic export: Wavefront OBJ slices, curvature CSV, patch JSON.

All formats are byte-stable across runs: fixed field ordering, no
timestamps, shortest-round-trip float serialization (JSON/CSV) and fixed
9-significant-digit formatting (OBJ).
"""
from __future__ import annotations

import json

import numpy as np

from . import expr as ex
from .canal import (CanalConfig, GridSpec, PointMapCache, RadiusProfile,
                    SurfacePatch, Variant)
from .curve import CurveSpec, FrenetFrame
from .curvature import Route, node_reports
from .errors import EmptySliceError, NumericError, unwrap
from .minkowski import Vec4

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
    """Per-node curvature rows, closed form and numeric side by side.

    Degenerate nodes and nodes where either route breaks down numerically
    are skipped.
    """
    rows = [CSV_HEADER]
    cache = PointMapCache(patch.curve, patch.config, zip(patch.grid.s_values, patch.frames))
    for s, t, w, (cf, num) in node_reports(patch, (Route.CLOSED_FORM, Route.NUMERIC), cache):
        try:
            cf, num = unwrap(cf), unwrap(num)
        except NumericError:
            continue
        rows.append(",".join(repr(float(v)) for v in
                    (s, t, w, cf.K, cf.H, cf.mu[0], cf.mu[1], cf.mu[2], num.K, num.H)))
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# patch JSON

# v1 documents carry the curve's derivative mode; symbolic is the only one
_CURVE_MODE = {"kind": "symbolic", "step": 1e-4}


def _radius_payload(radius: RadiusProfile):
    if radius is None:
        return None
    if radius.kind == "constant":
        return {"kind": "constant", "value": radius.constant}
    if radius.kind == "expr":
        return {"kind": "expr", "text": str(radius.expr)}
    s_nodes, r_nodes, rp_nodes = radius.table
    return {"kind": "table", "s": list(s_nodes), "r": list(r_nodes), "rp": list(rp_nodes)}


def _radius_from_payload(payload):
    if payload is None:
        return None
    kind = payload["kind"]
    if kind == "constant":
        return RadiusProfile.from_constant(payload["value"])
    if kind == "expr":
        return RadiusProfile.from_expr(payload["text"])
    if kind != "table":
        raise ValueError(f"unknown radius kind {kind!r}")
    from scipy.interpolate import CubicHermiteSpline
    spline = CubicHermiteSpline(payload["s"], payload["r"], payload["rp"])
    d2 = spline.derivative(2)
    return RadiusProfile("table", lambda s: float(spline(s)),
                         lambda s: float(spline.derivative()(s)),
                         lambda s: float(d2(s)),
                         table=(tuple(payload["s"]), tuple(payload["r"]),
                                tuple(payload["rp"])))


def patch_to_json(patch: SurfacePatch) -> str:
    config = patch.config
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
            {
                "vectors": [list(v.as_tuple()) for v in fr.vectors],
                "eps": list(fr.eps),
                "k": [fr.k1, fr.k2, fr.k3],
            }
            for fr in patch.frames
        ],
        "degenerate": sorted(patch.degenerate),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def patch_from_json(text: str) -> SurfacePatch:
    doc = json.loads(text)
    cdoc = doc.get("curve", {})
    if (doc.get("format") != "canal-patch" or doc.get("version") != 1
            or cdoc.get("mode", {}).get("kind") != _CURVE_MODE["kind"]):
        raise ValueError("not a canal-patch v1 document")
    curve = CurveSpec(tuple(cdoc["components"]), tuple(cdoc["domain"]))
    fdoc = doc["config"]
    a_free = None
    if fdoc.get("a_free"):
        a_free = tuple(ex.parse(a, ("s", "t", "w")) for a in fdoc["a_free"])
    config = CanalConfig(fdoc["j"], fdoc["lambda"], _radius_from_payload(fdoc["radius"]),
                         fdoc["sigma"], Variant(fdoc["variant"]), a_free)
    grid = GridSpec(tuple(doc["grid"]["s"]), tuple(doc["grid"]["t"]), tuple(doc["grid"]["w"]))
    ns, nt, nw = len(grid.s_values), len(grid.t_values), len(grid.w_values)
    n = ns * nt * nw
    points = doc["points"]
    try:
        coords = np.array(points, dtype=float) if points != [] else np.empty((0, 4))
    except (TypeError, ValueError):
        coords = None
    if coords is None or coords.shape != (n, 4) or not np.isfinite(coords).all():
        raise ValueError(f"points: expected {n} points of 4 finite numbers for the "
                         f"{ns}x{nt}x{nw} grid")
    if len(doc["frames"]) != ns:
        raise ValueError(f"frames: expected {ns}, one per s value, got {len(doc['frames'])}")
    frames = tuple(
        FrenetFrame(*(Vec4(*v) for v in fr["vectors"]), tuple(fr["eps"]), *fr["k"])
        for fr in doc["frames"]
    )
    degenerate = doc["degenerate"]
    if not all(type(k) is int and 0 <= k < n for k in degenerate):
        raise ValueError(f"degenerate: flat node indices must be ints in [0, {n})")
    return SurfacePatch(curve, config, grid, coords, frames, frozenset(degenerate))

