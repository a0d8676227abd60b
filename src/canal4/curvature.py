"""Fundamental forms, shape operator and curvatures of canal hypersurfaces.

Two independent routes, each a pass over any nodes given as keys and index
arrays (such as SurfacePatch.node_keys), elementwise in the order of the
scalar formulas: every node gets the bits and the error of its one-node call
(curvature_report, the one scalar entry point). Both read the per-s values
(frame, b, r, r', r'') from a PointMapCache, a patch's one cache.

* CLOSED_FORM evaluates exact expressions in (s, t, w, r, r', r'', k1, k2,
  k3). g comes from the frame components of the surface partials (the
  moving-frame relations make these finite formulas), h_col = -c/r * g_col
  with c = -eps3*eps4*lam^j except h11, which picks up the tangential term,
  and K, H and mu from the family formulas of gauss_mean_principal, one for
  both variants (the supercritical one negates r'^2 - lam*eps1 and r'').
* NUMERIC differentiates the point map with 5-point central stencils (step
  1e-4; 1e-3 for second partials), the 75-point stencils of a pass in one
  indexed_points call. The normal is the normalized triple cross product of
  the partials, oriented along the radial vector c(C - b) (the exact normal
  is (c/r)(C - b)); S = g^-1 h, K = det h / det g, 3H = tr S, mu = eig(S).

Both passes return ((g, h, S, N, K, H, mu), errors). curvatures, the one loop of
every patch-wide pass, runs them over node blocks of BLOCK_NODES[route]: 4096
closed-form nodes of ~1 KB or 48 numeric ones of ~12 KB, whatever the patch.

Conventions: K = det(S) and 3H = tr(S); the sign eps_N = <N,N> (= lam here)
is reported but not folded into K or H, matching the family formulas and
the K-H relation 3Hr - Kr^3 - 2 eps3 eps4 lam^j = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .canal import (_EVEN_ODD, CanalConfig, PointMapCache, PointMapRow, _math_table,
                    _pattern, degeneracy_factor, family_function, indexed_points, transverse,
                    DEGENERATE_A_TOL)
from .errors import (CanalError, ComplexEigenvaluesError, DegenerateNodeError, DomainError,
                     InadmissibleConfigError, RankDeficientError,
                     SingularMetricError, or_error, unwrap)
from .minkowski import inner, triple_cross

FD_STEP = 1e-4         # first partials
FD_STEP2 = 1e-3        # second partials: rounding noise scales as |C|/h^2
EIG_IMAG_REL_TOL = 1e-5
SINGULAR_REL_TOL = 1e-12
_FOCAL = "curvature denominator vanished (focal point)"


class Route(Enum):
    CLOSED_FORM = "closed-form"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class CurvatureReport:
    g: np.ndarray
    h: np.ndarray
    S: np.ndarray
    N: tuple[float, float, float, float]
    eps_N: int
    K: float
    H: float
    mu: tuple[float, float, float]
    f_j: float
    A: float
    route: Route


def _check_node(config: CanalConfig, w: float):
    """A at the node; raises for the null-cone families and degenerate nodes."""
    if config.lam == 0:
        raise InadmissibleConfigError(
            "curvature is not defined for the null-cone families (lambda = 0)")
    A = degeneracy_factor(config.j, config.variant, w)
    if abs(A) < DEGENERATE_A_TOL:
        raise DegenerateNodeError(f"|A| = {abs(A):.3g} < {DEGENERATE_A_TOL:g} at w={w!r}")
    return A


def _normal_sign(config: CanalConfig, eps) -> int:
    """c = -eps3*eps4*lam^j: the unit normal is N = (c/r)(C - b)."""
    return -eps[2] * eps[3] * config.lam ** config.j


def _checked_nodes(config: CanalConfig, s_keys, s_at, t_at, w_keys, w_at, row):
    """The index arrays as intp, {i: row(s_keys[i]) or its error} for the s keys
    of nodes that pass _check_node, and each node's first error (check, row)."""
    s_at, t_at, w_at = (np.asarray(x, dtype=np.intp) for x in (s_at, t_at, w_at))
    checked = {k: or_error(_check_node, config, w_keys[k]) for k in dict.fromkeys(w_at.tolist())}
    errors = [checked[k] if isinstance(checked[k], CanalError) else None for k in w_at.tolist()]
    rows = {i: or_error(row, s_keys[i])
            for i in dict.fromkeys(i for i, e in zip(s_at.tolist(), errors) if e is None)}
    return s_at, t_at, w_at, rows, [e or (rows[i] if isinstance(rows[i], CanalError) else None)
                                    for e, i in zip(errors, s_at.tolist())]


# ---------------------------------------------------------------------------
# closed-form route

def _closed_forms(config, cache, s_keys, s_at, t_keys, t_at, w_keys, w_at):
    """((g, h, S, N, K, H, mu = (mu1, mu2, mu3)), errors) at the nodes
    (s_keys[s_at], t_keys[t_at], w_keys[w_at]), (n, ...) arrays (None if no
    node gets as far as its row); a node's error is the first its one-node
    call raises: the node check, its row, transverse, det g ~ 0, the focal D.
    The per-s factors are floats once per s key, trig runs in math once per t
    and w key, the rest elementwise in the order of the scalar formulas, det
    and solve stacked: every node gets the bits of its one-node call."""
    s_at, t_at, w_at, rows, errors = _checked_nodes(config, s_keys, s_at, t_at, w_keys, w_at,
                                                    cache.row)
    good = [row for row in rows.values() if isinstance(row, PointMapRow)]
    if not good:
        return None, errors
    lam, v, sigma = config.lam, config.variant.sign, config.sigma
    e1, e2, e3, e4 = eps = good[0].frame.eps       # the rows' frame type fixes eps
    c = _normal_sign(config, eps)

    def per_s(row):         # r, r'', k1, Q, phi, dphi and the terms' per-s prefixes
        fr, rv, rp, rpp, phi, a1 = row.frame, row.r, row.rp, row.rpp, row.phi, row.axial
        q = rp * rp - lam * e1                      # v*q > 0 once the row is built
        # d/ds of sigma*r*sqrt(|q|); the r'' term flips sign with the variant
        dphi = sigma * rp * (abs(q) + v * rv * rpp) / math.sqrt(abs(q))
        return (rv, rpp, fr.k1, v * q, phi, dphi, 1.0 + -lam * e1 * (rp * rp + rv * rpp),
                a1 * fr.k1, e3 * e4 * fr.k1 * phi, e1 * e4 * fr.k2 * phi, fr.k2 * phi,
                e1 * e2 * fr.k3 * phi, fr.k3 * phi, c * a1 / rv, c * (phi / rv))
    # every node of a failed row has an error: the first good row stands in for it
    rows = [x if isinstance(x, PointMapRow) else good[0] for x in map(rows.get, range(len(s_keys)))]
    (rv, rpp, k1, Q, phi, dphi, one_da1, a1k1, p0, p1, p2, p3, p4, n0, cpsi) = np.array(
        [per_s(row) for row in rows])[s_at].T
    F = np.array([row.basis[1:] for row in rows])[s_at]
    (et, ot), (ew, ow) = ([_math_table(fn, keys)[at] for fn in _EVEN_ODD[config.j]]
                          for keys, at in ((t_keys, t_at), (w_keys, w_at)))
    overflow = np.isnan(et) | np.isnan(ot) | np.isnan(ew) | np.isnan(ow)
    for n in np.flatnonzero(overflow).tolist():
        errors[n] = errors[n] or or_error(transverse, config.j, config.variant,
                                          t_keys[t_at[n]], w_keys[w_at[n]])
    # nodes with an error may get nan: no result of theirs is read
    with np.errstate(all="ignore"):         # overflow gives inf or nan, as in floats
        a, dat, daw = _pattern(config.j, v, et, ot, ew, ow)
        P = np.zeros((len(errors), 3, 4))
        P[:, 0] = np.transpose((one_da1 + p0 * a[0], a1k1 + dphi * a[0] + p1 * a[1],
                                dphi * a[1] + p2 * a[0] + p3 * a[2], dphi * a[2] + p4 * a[1]))
        for k in range(3):
            P[:, 1, k + 1], P[:, 2, k + 1] = phi * dat[k], phi * daw[k]
        m = P[:, :, None] * P[:, None]      # e_i u_i v_i = e_i (u_i v_i): e_i = +-1
        g = e1 * m[..., 0] + e2 * m[..., 1] + e3 * m[..., 2] + e4 * m[..., 3]
        h = -c * g / rv[:, None, None]
        h[:, 0, 0] = -c * (g[:, 0, 0] - e1 * P[:, 0, 0]) / rv
        N = (F[:, 0] * n0[:, None] + F[:, 1] * (cpsi * a[0])[:, None]
             + F[:, 2] * (cpsi * a[1])[:, None] + F[:, 3] * (cpsi * a[2])[:, None])
        K, H, mu12, mu3, focal = _family_curvatures(config.j, lam, config.variant, eps, k1, rv,
                                                    Q, rpp, sigma * a[0])
    S, errors = _shape_operators(g, h, errors)
    errors = [e or (SingularMetricError(_FOCAL) if fo else None)
              for e, fo in zip(errors, focal.tolist())]
    return (g, h, S, N, K, H, np.transpose((mu12, mu12, mu3))), errors


def _admissible_q(lam, variant, eps1, rp):
    """Q = v(r'^2 - lam*eps1), v the variant's sign; raises unless Q > 0."""
    Q = variant.sign * (rp * rp - lam * eps1)
    if Q <= 0:
        raise InadmissibleConfigError(f"r'^2 - lam*eps1 = {variant.sign * Q:.3g} has the wrong "
                                      f"sign for the {variant.value} variant")
    return Q


def _family_curvatures(j, lam, variant, eps, k1, r, Q, rpp, f):
    """(K, H, mu1 = mu2, mu3, focal) of the formulas of gauss_mean_principal at
    Q > 0 and f = sigma*f_j, over floats or elementwise over arrays (the same
    bits as floats); focal is |D| < 1e-300, where the values are nan."""
    e1, e2, e3, e4 = eps
    v = variant.sign
    R = v * rpp
    root = np.sqrt(Q)                       # correctly rounded, as math.sqrt
    sgn = e3 * e4 * lam ** j
    with np.errstate(all="ignore"):         # overflow gives inf or nan, as in floats
        num = (r * k1 * k1 * f * f * Q + R * (Q + r * R)
               + v * e2 * lam * k1 * f * root * (Q + 2.0 * r * R))
        dfac = Q + v * e2 * lam * r * k1 * f * root + r * R
        focal = np.abs(dfac) < 1e-300
        dfac = np.where(focal, math.nan, dfac)
        # sgn = +-1: sgn num / D^2 = sgn (num / D^2) exactly
        mu3 = num / (dfac * dfac)
        return (sgn * num / (r * r * dfac * dfac), (sgn / 3.0) * (2.0 / r + mu3), sgn / r,
                sgn * mu3, focal)


def gauss_mean_principal(j, lam, variant, eps, k1, r, rp, rpp, t, w, sigma=1):
    """General family formulas for K, H and (mu1, mu2, mu3), both variants.

    With v the variant's sign, Q = v(r'^2 - lam*eps1) > 0, R = v r'' and
    f = sigma * f_j:
        num = r k1^2 f^2 Q + R (Q + r R) + v eps2 lam k1 f sqrt(Q) (Q + 2 r R)
        D = Q + v eps2 lam r k1 f sqrt(Q) + r R
    and mu1 = mu2 = sgn / r, mu3 = sgn num / D^2 with sgn = eps3 eps4 lam^j.
    v = -1 is v = +1 continued through w -> w + i pi/2, sigma -> -sigma and
    sqrt(q) -> i sqrt(Q), which maps the standard point map onto this one.
    The scalar case of _family_curvatures, which the patch loops run on arrays.
    """
    Q = _admissible_q(lam, variant, eps[0], rp)
    K, H, mu12, mu3, focal = _family_curvatures(j, lam, variant, eps, k1, r, Q, rpp,
                                                sigma * family_function(j, variant, t, w))
    if focal:
        raise SingularMetricError(_FOCAL)
    return float(K), float(H), (mu12, mu12, float(mu3))


# ---------------------------------------------------------------------------
# numeric route

# The 75 stencil nodes of a node: first partials (FD_STEP) per axis, the pure
# second partials (FD_STEP2) per axis, then the mixed ones (st, sw, tw) as a
# 4 x 4 outer x inner grid. Entries index the axis' _axis_values; 4 is the
# node's own value, so an unshifted coordinate stays exactly x.
_STENCIL = np.array(
    [[k if a == axis else 4 for a in range(3)] for axis in range(3) for k in (0, 1, 2, 3)]
    + [[k if a == axis else 4 for a in range(3)] for axis in range(3) for k in (5, 6, 4, 7, 8)]
    + [[ki if a == i else kj if a == jj else 4 for a in range(3)]
       for i, jj in ((0, 1), (0, 2), (1, 2)) for ki in (5, 6, 7, 8) for kj in (5, 6, 7, 8)])
_H_INDEX = [[0, 3, 4], [3, 1, 5], [4, 5, 2]]    # h from the partials ss, tt, ww, st, sw, tw


def _axis_values(x):
    """The nine values of a stencil axis, in the order a node first reads them."""
    return ([x + d for d in (-2 * FD_STEP, -FD_STEP, FD_STEP, 2 * FD_STEP)] + [x]
            + [x + d for d in (-2 * FD_STEP2, -FD_STEP2, FD_STEP2, 2 * FD_STEP2)])


def _fd1(P, h):
    """5-point first derivative over axis -2 (4 offsets) of a point array."""
    return ((P[..., 0, :] - 8.0 * P[..., 1, :] + 8.0 * P[..., 2, :] - P[..., 3, :])
            * (1.0 / (12 * h)))


def _fd2(P, h):
    """5-point second derivative over axis -2 (5 offsets, centre included)."""
    return (-1.0 * P[..., 0, :] + 16.0 * P[..., 1, :] - 30.0 * P[..., 2, :]
            + 16.0 * P[..., 3, :] - P[..., 4, :]) * (1.0 / (12 * h * h))


def _numeric_forms(config, cache, s_keys, s_at, t_keys, t_at, w_keys, w_at):
    """As _closed_forms, mu the eigenvalues of S: one indexed_points call
    evaluates every stencil; det, solve and eigvals are stacked (the same bits
    as one call per matrix). A stencil s row that fails gives its error, the
    first in _axis_values order, to the nodes of its own s key only."""
    def stencil_rows(x):
        for v in _axis_values(x):
            cache.row(v)
    s_at, t_at, w_at, failed, errors = _checked_nodes(config, s_keys, s_at, t_at, w_keys, w_at,
                                                      stencil_rows)
    good = [i for i, e in failed.items() if e is None]
    if not good:
        return None, errors

    def stencil(keys, at, used=None):
        """The stencil values of the keys used (by default those in at, found
        without np.unique's sort) and each node's index among them."""
        used = list(dict.fromkeys(at.tolist())) if used is None else used
        pos = np.zeros(len(keys), dtype=np.intp)
        pos[used] = range(len(used))
        return [v for i in used for v in _axis_values(keys[i])], pos[at]
    (s_values, s_in), (t_values, t_in), (w_values, w_in) = (
        stencil(s_keys, s_at, good), stencil(t_keys, t_at), stencil(w_keys, w_at))
    si, ti, wi = _STENCIL.T
    P = indexed_points(config, cache, s_values, 9 * s_in[:, None] + si, t_values,
                       9 * t_in[:, None] + ti, w_values, 9 * w_in[:, None] + wi)

    def flag(bad, error):
        for n in np.flatnonzero(bad).tolist():
            errors[n] = errors[n] or error(
                f"s={s_keys[s_at[n]]!r}, t={t_keys[t_at[n]]!r}, w={w_keys[w_at[n]]!r}")

    flag(~np.isfinite(P).all(axis=(1, 2)),
         lambda at: DomainError(f"non-finite surface point near {at}"))
    with np.errstate(all="ignore"):         # flagged nodes may overflow or divide by 0
        parts = _fd1(P[:, :12].reshape(-1, 3, 4, 4), FD_STEP)
        second = _fd2(P[:, 12:27].reshape(-1, 3, 5, 4), FD_STEP2)
        mixed = _fd1(_fd1(P[:, 27:].reshape(-1, 3, 4, 4, 4), FD_STEP2), FD_STEP2)
        g = inner(parts[:, :, None], parts[:, None])
        cross = triple_cross(parts[:, 0], parts[:, 1], parts[:, 2])
        qn = inner(cross, cross)
        # |<cross,cross>| = |det g|; compare against the metric diagonal so the
        # test is signature-aware (euclidean scales mislead on hyperbolic nodes)
        diag = np.abs(g[:, 0, 0] * g[:, 1, 1] * g[:, 2, 2])
        flag(np.abs(qn) <= 1e-12 * np.maximum(diag, 1e-300), lambda at: RankDeficientError(
            f"surface partials are (numerically) linearly dependent at {at}"))
        N = cross * (1.0 / np.sqrt(np.abs(qn)))[:, None]
        # the exact normal is (c/r)(C - b), so the numeric one is close to
        # +-that; P[:, 14] is the stencil centre, the node itself
        rows = [cache.row(s_keys[i]) for i in good]
        radial = _normal_sign(config, rows[0].frame.eps) * (
            P[:, 14] - np.array([row.basis[0] for row in rows])[s_in])
        N = np.where(((N * radial).sum(axis=1) < 0)[:, None], -N, N)
        h = inner(np.concatenate((second, mixed), axis=1)[:, _H_INDEX], N[:, None, None])
        flag(~(np.isfinite(g).all(axis=(1, 2)) & np.isfinite(h).all(axis=(1, 2))),
             lambda at: DomainError(f"non-finite partials near {at}"))
    S, errors = _shape_operators(g, h, errors)
    eig = np.linalg.eigvals(S)
    errors = [e or x for e, x in zip(errors, _complex_pairs(eig))]
    return (g, h, S, N, np.linalg.det(h) / np.linalg.det(g),
            np.trace(S, axis1=1, axis2=2) / 3.0, eig), errors


_PASSES = {Route.CLOSED_FORM: _closed_forms, Route.NUMERIC: _numeric_forms}
# Nodes per pass: the knees of the sweeps in CHANGES.md (fixed cost vs memory)
BLOCK_NODES = {Route.CLOSED_FORM: 4096, Route.NUMERIC: 48}


def node_blocks(route: Route, keys):
    """(slice, keys of its nodes) of each run of BLOCK_NODES[route] nodes of
    keys (s_keys, s_at, t_keys, t_at, w_keys, w_at), in node order."""
    for lo in range(0, len(keys[1]), BLOCK_NODES[route]):
        b = slice(lo, lo + BLOCK_NODES[route])
        yield b, tuple(x[b] if i % 2 else x for i, x in enumerate(keys))


def curvatures(config: CanalConfig, cache: PointMapCache, route: Route, *keys):
    """(K, H, mu, errors) of the route at the nodes of keys: the passes' arrays,
    nan where a node has an error, and each node's CanalError or None; the cache
    is filled once with the rows they read (numeric: every stencil s value)."""
    numeric = route is Route.NUMERIC
    cache.fill([v for s in keys[0] for v in (_axis_values(s) if numeric else (s,))])
    K, H = np.full((2, len(keys[1])), math.nan)
    mu = np.full((len(K), 3), math.nan, dtype=complex if numeric else float)
    errors = []
    for block, block_keys in node_blocks(route, keys):
        forms, block_errors = _PASSES[route](config, cache, *block_keys)
        if forms is not None:
            K[block], H[block], mu[block] = forms[4:]
        errors += block_errors
    return K, H, mu, errors


# ---------------------------------------------------------------------------
# shared pieces

def _shape_operators(g, h, errors):
    """S = g^-1 h of each node, det and solve stacked over the nodes (the same
    bits as one call per matrix), and the errors with each det g ~ 0 added."""
    with np.errstate(all="ignore"):         # a flagged node's g may be nan
        det_g = np.linalg.det(g)
        scales = np.abs(g).max(axis=(1, 2))
    errors = [e or or_error(_check_metric, sc, d)
              for e, sc, d in zip(errors, scales.tolist(), det_g.tolist())]
    bad = np.array([e is not None for e in errors])
    if bad.any():                           # keeps the stacked calls finite and solvable
        g[bad], h[bad] = np.eye(3), 0.0
    return np.linalg.solve(g, h), errors


def _cube(x: float, what: str, *args) -> float:
    """x ** 3 in floats; where it overflows, a DomainError naming what.format(*args)."""
    try:
        return x ** 3
    except OverflowError:
        raise DomainError(what.format(*args) + " overflows") from None


def _check_metric(scale: float, det_g: float):
    """Raise SingularMetricError when det g ~ 0 against g's scale max |g_ij|."""
    scale = scale or 1.0
    if abs(det_g) < SINGULAR_REL_TOL * _cube(scale, "scale^3 of det g (max |g_ij| = {:.3g})",
                                             scale):
        raise SingularMetricError(f"det g = {det_g:.3g} below {SINGULAR_REL_TOL:g}*scale^3")


def _complex_pairs(eig):
    """ComplexEigenvaluesError or None per row of S's (n, 3) eigenvalues: FD
    noise splits the structural double root into a conjugate pair, so the
    threshold on the imaginary parts is relative to the eigenvalues' size."""
    imag, real = np.abs(eig.imag).max(axis=1), np.abs(eig.real)
    top = real[:, 0]
    for k in (1, 2):                        # as max() of floats: a leading nan only stays
        top = np.where(real[:, k] > top, real[:, k], top)
    return [ComplexEigenvaluesError(f"complex principal curvatures (max imag {x:.3g})")
            if bad else None
            for bad, x in zip((imag > EIG_IMAG_REL_TOL * (1.0 + top)).tolist(), imag.tolist())]


def _principal(vals) -> tuple[float, float, float]:
    """Real parts of S's eigenvalues, the double root first; raises the
    ComplexEigenvaluesError of _complex_pairs."""
    unwrap(_complex_pairs(vals[None])[0])
    vals = tuple(vals.real.tolist())
    _, a, b = min((abs(vals[a] - vals[b]), a, b) for a, b in ((0, 1), (0, 2), (1, 2)))
    return (vals[a], vals[b], vals[({0, 1, 2} - {a, b}).pop()])


def curvature_report(curve, config, s, t, w,
                     route: Route = Route.CLOSED_FORM) -> CurvatureReport:
    """Full per-node report: g, h, S, N (a 4-tuple), eps_N, K, H, mu, f_j, A,
    the one-node case of the route's pass."""
    forms, (error,) = _PASSES[route](config, PointMapCache(curve, config),
                                     (s,), (0,), (t,), (0,), (w,), (0,))
    unwrap(error)
    g, h, S, N, K, H, mu = (x[0] for x in forms)
    mu, N = _principal(mu) if route is Route.NUMERIC else tuple(mu.tolist()), tuple(N.tolist())
    return CurvatureReport(g=g, h=h, S=S, N=N, eps_N=1 if inner(N, N) > 0 else -1, K=float(K),
                           H=float(H), mu=mu, f_j=family_function(config.j, config.variant, t, w),
                           A=degeneracy_factor(config.j, config.variant, w), route=route)
