"""Fundamental forms, shape operator and curvatures of canal hypersurfaces.

Two independent routes:

* CLOSED_FORM evaluates exact expressions in (s, t, w, r, r', r'', k1, k2,
  k3). The first fundamental form comes from the frame components of the
  surface partials (the moving-frame relations make these finite formulas);
  the second form follows from h_col = -c/r * g_col with c = -eps3*eps4*
  lam^j, except h11 which picks up the tangential term. K, H and the
  principal curvatures use the general family formulas of
  gauss_mean_principal, one for both variants: mu1 = mu2 = eps3*eps4*lam^j
  / r, and a rational expression for mu3 in which the supercritical variant
  negates r'^2 - lam*eps1 and r''. It takes one pass over any list of
  nodes, such as a whole patch: row values once per distinct s, trig once
  per distinct t and w, then g, h, N and the family formulas elementwise
  over the nodes and det g stacked, each node keeping the error of its
  one-node call.
* NUMERIC differentiates the point map with 5-point central stencils
  (step 1e-4; 1e-3 for second partials) in passes over the nodes of one s
  row (at most PASS_NODES of them): the 75-node stencils of a pass go
  through one indexed_points call, then the partials, g, N, h and the
  stacked det, solve and eigvals run as arrays, each node keeping its own
  errors. It takes the normal as the normalized triple cross product of
  the partials, oriented along the radial vector c(C - b) of its own
  stencil centre (the exact normal is (c/r)(C - b)), and computes g, h,
  S = g^-1 h, K = det h / det g, 3H = tr S, mu = eig(S).

Both routes read the per-s values (frame, b, r, r', r'') from the rows of a
PointMapCache; a patch's one cache evaluates them once per s value for all
its consumers. The patch loops take the closed form in one pass over the
patch (_closed_forms over SurfacePatch.node_keys) and the numeric route
pass by pass (node_reports; PASS_NODES bounds the numeric passes only);
curvature_report, the one scalar entry point, is a pass of one node.

Conventions: K = det(S) and 3H = tr(S); the sign eps_N = <N,N> (= lam here)
is reported but not folded into K or H, matching the family formulas and
the K-H relation 3Hr - Kr^3 - 2 eps3 eps4 lam^j = 0.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .canal import (_EVEN_ODD, CanalConfig, PointMapCache, PointMapRow, _distinct, _math_table,
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


# ---------------------------------------------------------------------------
# closed-form route

def _closed_forms(config, cache, s_keys, s_at, t_keys, t_at, w_keys, w_at):
    """((g, h, S, N, f_j, r, K, H, mu1 = mu2, mu3), errors) at the nodes
    (s_keys[s_at], t_keys[t_at], w_keys[w_at]), arrays over the nodes (None if
    no node gets as far as its row); a node's error is the first its one-node
    call raises: the node check, its row, transverse, det g ~ 0, the focal D.
    The per-s factors are floats once per s key, trig runs in math once per t
    and w key, the rest elementwise in the order of the scalar formulas, det
    and solve stacked: every node gets the bits of its one-node call."""
    s_at, t_at, w_at = (np.asarray(x, dtype=np.intp) for x in (s_at, t_at, w_at))
    checked = [or_error(_check_node, config, v) for v in w_keys]
    errors = [checked[k] if isinstance(checked[k], CanalError) else None for k in w_at.tolist()]
    wanted = {i for i, e in zip(s_at.tolist(), errors) if e is None}
    cache.fill(x for i, x in enumerate(s_keys) if i in wanted)
    rows = [or_error(cache.row, x) if i in wanted else None for i, x in enumerate(s_keys)]
    errors = [e or (rows[i] if isinstance(rows[i], CanalError) else None)
              for e, i in zip(errors, s_at.tolist())]
    good = [row for row in rows if isinstance(row, PointMapRow)]
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
    rows = [row if isinstance(row, PointMapRow) else good[0] for row in rows]
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
    return (g, h, S, N, a[0], rv, K, H, mu12, mu3), errors


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


def _numeric_forms(config, s, t, w, cache):
    """(g, h, N) of the nodes (s, t[n], w[n]) as (n, 3, 3), (n, 3, 3), (n, 4)
    arrays (None if no node gets that far), and each node's error or None.
    One indexed_points call evaluates the stencils of all nodes; the rest is
    elementwise in the order of the scalar formulas, so every node gets the
    bits of its one-node call."""
    errors = [or_error(_check_node, config, v) for v in w]
    errors = [e if isinstance(e, CanalError) else None for e in errors]
    if all(errors):
        return None, errors
    (t_keys, t_at), (w_keys, w_at) = _distinct(t), _distinct(w)
    si, ti, wi = _STENCIL.T
    try:
        P = indexed_points(config, cache, _axis_values(s), si,
                           [v for x in t_keys for v in _axis_values(x)],
                           9 * np.array(t_at)[:, None] + ti,
                           [v for x in w_keys for v in _axis_values(x)],
                           9 * np.array(w_at)[:, None] + wi)
    except CanalError as exc:               # a per-s row of the stencil
        return None, [e or exc for e in errors]

    def flag(bad, error):
        for n in np.flatnonzero(bad):
            errors[n] = errors[n] or error(f"s={s!r}, t={t[n]!r}, w={w[n]!r}")

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
        row = cache.row(s)
        radial = _normal_sign(config, row.frame.eps) * (P[:, 14] - row.basis[0])
        N = np.where(((N * radial).sum(axis=1) < 0)[:, None], -N, N)
        h = inner(np.concatenate((second, mixed), axis=1)[:, _H_INDEX], N[:, None, None])
        flag(~(np.isfinite(g).all(axis=(1, 2)) & np.isfinite(h).all(axis=(1, 2))),
             lambda at: DomainError(f"non-finite partials near {at}"))
        return (g, h, N), errors


def _numeric_reports(config, s, t, w, cache):
    """The numeric CurvatureReport, or the CanalError it raises, of each node
    (s, t[n], w[n]): _numeric_forms, then det, solve and eigvals stacked over
    the nodes (the same bits as one call per matrix)."""
    forms, errors = _numeric_forms(config, s, t, w, cache)
    if forms is None:
        return errors
    g, h, N = forms
    S, errors = _shape_operators(g, h, errors)
    K = np.linalg.det(h) / np.linalg.det(g)
    H = np.trace(S, axis1=1, axis2=2) / 3.0
    eig = np.linalg.eigvals(S)

    def report(n):
        Nn = tuple(N[n].tolist())
        return CurvatureReport(g=g[n], h=h[n], S=S[n], N=Nn, eps_N=1 if inner(Nn, Nn) > 0 else -1,
                               K=float(K[n]), H=float(H[n]), mu=_principal(eig[n]),
                               f_j=family_function(config.j, config.variant, t[n], w[n]),
                               A=degeneracy_factor(config.j, config.variant, w[n]),
                               route=Route.NUMERIC)
    return [e or or_error(report, n) for n, e in enumerate(errors)]


# Most nodes in one pass. A pass has a fixed cost (tens of numpy calls) and
# the numeric one holds the stencil arrays of all its nodes at once: rows
# split evenly into passes this small keep most of the speed of whole rows,
# with a peak memory that does not grow with the row.
PASS_NODES = 8


def node_reports(patch):
    """(s, t, w, report) per non-degenerate node of the patch, in node order:
    the node's numeric CurvatureReport or the CanalError it raises (see
    unwrap), each s row in passes of at most PASS_NODES nodes, reading the
    patch's cache."""
    patch.cache.fill(v for s in patch.grid.s_values for v in _axis_values(s))
    for _, row in itertools.groupby(patch.nodes(), key=lambda node: node[0]):
        row = [node[3:] for node in row]
        passes = -(-len(row) // PASS_NODES)
        for k in range(passes):
            s, t, w = zip(*row[k * len(row) // passes:(k + 1) * len(row) // passes])
            yield from zip(s, t, w, _numeric_reports(patch.config, s[0], t, w, patch.cache))


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


def _check_metric(scale: float, det_g: float):
    """Raise SingularMetricError when det g ~ 0 against g's scale max |g_ij|."""
    scale = scale or 1.0
    if abs(det_g) < SINGULAR_REL_TOL * scale ** 3:
        raise SingularMetricError(f"det g = {det_g:.3g} below {SINGULAR_REL_TOL:g}*scale^3")


def _principal(vals) -> tuple[float, float, float]:
    """Real parts of S's eigenvalues, the double root first.

    FD noise splits the structural double root into a conjugate pair whose
    imaginary part scales with the perturbation, so the truncation threshold
    is relative to the eigenvalue magnitude.
    """
    imag = float(np.abs(vals.imag).max())
    vals = tuple(vals.real.tolist())
    if imag > EIG_IMAG_REL_TOL * (1.0 + max(map(abs, vals))):
        raise ComplexEigenvaluesError(f"complex principal curvatures (max imag {imag:.3g})")
    _, a, b = min((abs(vals[a] - vals[b]), a, b) for a, b in ((0, 1), (0, 2), (1, 2)))
    return (vals[a], vals[b], vals[({0, 1, 2} - {a, b}).pop()])


def curvature_report(curve, config, s, t, w,
                     route: Route = Route.CLOSED_FORM) -> CurvatureReport:
    """Full per-node report: g, h, S, N (a 4-tuple), eps_N, K, H, mu, f_j, A,
    the one-node case of the route's pass."""
    cache = PointMapCache(curve, config)
    if route is Route.NUMERIC:
        return unwrap(_numeric_reports(config, s, (t,), (w,), cache)[0])
    forms, (error,) = _closed_forms(config, cache, (s,), (0,), (t,), (0,), (w,), (0,))
    unwrap(error)
    g, h, S, N, f, _, K, H, mu12, mu3 = (x[0] for x in forms)
    N = tuple(N.tolist())
    return CurvatureReport(g=g, h=h, S=S, N=N, eps_N=1 if inner(N, N) > 0 else -1, K=float(K),
                           H=float(H), mu=(float(mu12), float(mu12), float(mu3)), f_j=float(f),
                           A=degeneracy_factor(config.j, config.variant, w),
                           route=Route.CLOSED_FORM)
