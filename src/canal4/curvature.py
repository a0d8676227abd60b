"""Fundamental forms, shape operator and curvatures of canal hypersurfaces.

Two independent routes:

* CLOSED_FORM evaluates exact expressions in (s, t, w, r, r', r'', k1, k2,
  k3). The first fundamental form comes from the frame components of the
  surface partials (the moving-frame relations make these finite formulas);
  the second form follows from h_col = -c/r * g_col with c = -eps3*eps4*
  lam^j, except h11 which picks up the tangential term. K, H and the
  principal curvatures use the general family formulas (mu1 = mu2 =
  eps3*eps4*lam^j / r, and the rational expression for mu3).
* NUMERIC differentiates the point map with 5-point central stencils
  (step 1e-4; 1e-3 for second partials), all 75 stencil nodes of a node in
  one batched canal_points call. It takes the normal as the normalized
  triple cross product of the partials, oriented along the radial vector
  c(C - b) of its own stencil centre (the exact normal is (c/r)(C - b)),
  and computes g, h, S = g^-1 h, K = det h / det g, 3H = tr S, mu = eig(S).

Both routes read the per-s values (frame, b, r, r', r'') from the rows of a
PointMapCache; a cache shared over a patch evaluates them once per s value.

Conventions: K = det(S) and 3H = tr(S); the sign eps_N = <N,N> (= lam here)
is reported but not folded into K or H, matching the family formulas and
the K-H relation 3Hr - Kr^3 - 2 eps3 eps4 lam^j = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .canal import (CanalConfig, PointMapCache, Variant, canal_points,
                    degeneracy_factor, family_function, transverse_coefficients,
                    transverse_partials, DEGENERATE_A_TOL)
from .errors import (ComplexEigenvaluesError, DegenerateNodeError,
                     InadmissibleConfigError, PoleAtNodeError,
                     RankDeficientError, SingularMetricError)
from .minkowski import Vec4, inner, triple_cross

FD_STEP = 1e-4         # first partials
FD_STEP2 = 1e-3        # second partials: rounding noise scales as |C|/h^2
EIG_IMAG_REL_TOL = 1e-5
SINGULAR_REL_TOL = 1e-12


class Route(Enum):
    CLOSED_FORM = "closed-form"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class CurvatureReport:
    g: np.ndarray
    h: np.ndarray
    S: np.ndarray
    N: Vec4
    eps_N: int
    K: float
    H: float
    mu: tuple[float, float, float]
    f_j: float
    A: float
    route: Route


def _require_curvature_family(config: CanalConfig):
    if config.lam == 0:
        raise InadmissibleConfigError(
            "curvature is not defined for the null-cone families (lambda = 0)")


def _check_node(config: CanalConfig, w: float):
    A = degeneracy_factor(config.j, config.variant, w)
    if abs(A) < DEGENERATE_A_TOL:
        raise DegenerateNodeError(f"|A| = {abs(A):.3g} < {DEGENERATE_A_TOL:g} at w={w!r}")
    return A


def _normal_sign(config: CanalConfig, eps) -> int:
    """c = -eps3*eps4*lam^j: the unit normal is N = (c/r)(C - b)."""
    return -eps[2] * eps[3] * config.lam ** config.j


# ---------------------------------------------------------------------------
# closed-form route

def closed_fundamental_forms(curve, config, s, t, w, cache: PointMapCache | None = None):
    """Exact (g, h, N) from frame components of the surface partials."""
    _require_curvature_family(config)
    _check_node(config, w)
    if cache is None:
        cache = PointMapCache(curve, config)
    row = cache.row(s)
    fr = row.frame
    e1, e2, e3, e4 = fr.eps
    rv, rp, rpp, phi, a1 = row.r, row.rp, row.rpp, row.phi, row.axial
    q = rp * rp - config.lam * e1
    psi = phi / rv                                      # sigma * sqrt(|q|)
    # d/ds of sigma*r*sqrt(|q|); the r'' term flips sign with the variant
    vsign = 1.0 if config.variant is Variant.STANDARD else -1.0
    dphi = config.sigma * rp * (abs(q) + vsign * rv * rpp) / math.sqrt(abs(q))
    da1 = -config.lam * e1 * (rp * rp + rv * rpp)
    c = _normal_sign(config, fr.eps)
    k1, k2, k3 = fr.k1, fr.k2, fr.k3
    a = transverse_coefficients(config.j, config.variant, t, w)
    dat, daw = transverse_partials(config.j, config.variant, t, w)

    cs = (1.0 + da1 + e3 * e4 * k1 * phi * a[0],
          a1 * k1 + dphi * a[0] + e1 * e4 * k2 * phi * a[1],
          dphi * a[1] + k2 * phi * a[0] + e1 * e2 * k3 * phi * a[2],
          dphi * a[2] + k3 * phi * a[1])
    ct = (0.0, phi * dat[0], phi * dat[1], phi * dat[2])
    cw = (0.0, phi * daw[0], phi * daw[1], phi * daw[2])

    def mdot(u, v):
        return (e1 * u[0] * v[0] + e2 * u[1] * v[1]
                + e3 * u[2] * v[2] + e4 * u[3] * v[3])

    parts = (cs, ct, cw)
    g = np.array([[mdot(parts[i], parts[jj]) for jj in range(3)] for i in range(3)])

    h = np.empty((3, 3))
    h[0, 0] = -c * (g[0, 0] - e1 * cs[0]) / rv
    h[0, 1] = h[1, 0] = -c * g[0, 1] / rv
    h[0, 2] = h[2, 0] = -c * g[0, 2] / rv
    h[1, 1] = -c * g[1, 1] / rv
    h[1, 2] = h[2, 1] = -c * g[1, 2] / rv
    h[2, 2] = -c * g[2, 2] / rv

    n_coeff = (c * a1 / rv, c * psi * a[0], c * psi * a[1], c * psi * a[2])
    N = (n_coeff[0] * fr.f1 + n_coeff[1] * fr.f2
         + n_coeff[2] * fr.f3 + n_coeff[3] * fr.f4)
    return g, h, N


def gauss_mean_principal(j, lam, eps, k1, r, rp, rpp, t, w, sigma=1):
    """General family formulas for K, H and (mu1, mu2, mu3), standard variant.

    The branch sign enters as f -> sigma * f_j.
    """
    e1, e2, e3, e4 = eps
    q = rp * rp - lam * e1
    if q <= 0:
        raise InadmissibleConfigError(
            f"r'^2 - lam*eps1 = {q:.3g} <= 0: general curvature formulas need the standard variant")
    f = sigma * family_function(j, t, w)
    root = math.sqrt(q)
    num = (r * k1 * k1 * f * f * q + rpp * (q + r * rpp)
           + e2 * lam * k1 * f * root * (q + 2.0 * r * rpp))
    dfac = q + e2 * lam * r * k1 * f * root + r * rpp
    if abs(dfac) < 1e-300:
        raise SingularMetricError("curvature denominator vanished (focal point)")
    sgn = e3 * e4 * lam ** j
    mu12 = sgn / r
    mu3 = sgn * num / (dfac * dfac)
    K = sgn * num / (r * r * dfac * dfac)
    H = (sgn / 3.0) * (2.0 / r + num / (dfac * dfac))
    return K, H, (mu12, mu12, mu3)


# ---------------------------------------------------------------------------
# numeric route

def _stencil_nodes(x, h1, h2):
    """(s, t, w) columns of the 75 nodes the 5-point stencils read around x:
    first partials (step h1) per axis, then the pure second partials (step
    h2) per axis, then the mixed ones (st, sw, tw) as a 4 x 4 outer x inner
    grid. Only the shifted coordinates are offset."""
    first = (-2 * h1, -h1, h1, 2 * h1)
    second = (-2 * h2, -h2, h2, 2 * h2)
    nodes = []

    def shifted(pairs):
        b = list(x)
        for axis, d in pairs:
            b[axis] += d
        nodes.append(b)

    for axis in range(3):
        for d in first:
            shifted(((axis, d),))
    for axis in range(3):
        for d in (-2 * h2, -h2, 0.0, h2, 2 * h2):
            shifted(((axis, d),))
    for i, jj in ((0, 1), (0, 2), (1, 2)):
        for di in second:
            for dj in second:
                shifted(((i, di), (jj, dj)))
    return zip(*nodes)


def _fd1(P, h):
    """5-point first derivative over axis -2 (4 offsets) of a point array."""
    return ((P[..., 0, :] - 8.0 * P[..., 1, :] + 8.0 * P[..., 2, :] - P[..., 3, :])
            * (1.0 / (12 * h)))


def _fd2(P, h):
    """5-point second derivative over axis -2 (5 offsets, centre included)."""
    return (-1.0 * P[..., 0, :] + 16.0 * P[..., 1, :] - 30.0 * P[..., 2, :]
            + 16.0 * P[..., 3, :] - P[..., 4, :]) * (1.0 / (12 * h * h))


def numeric_fundamental_forms(curve, config, s, t, w, step=FD_STEP,
                              step2=FD_STEP2, cache: PointMapCache | None = None):
    """(g, h, N) from FD partials of the point map; N points along c(C - b).

    All 75 stencil nodes go through one canal_points call; pass a cache to
    share the per-s rows between nodes at the same s.
    """
    _require_curvature_family(config)
    _check_node(config, w)
    if cache is None:
        cache = PointMapCache(curve, config)
    P = canal_points(curve, config, *_stencil_nodes((s, t, w), step, step2), cache)
    parts = [Vec4(*v) for v in _fd1(P[:12].reshape(3, 4, 4), step).tolist()]
    second = _fd2(P[12:27].reshape(3, 5, 4), step2).tolist()
    mixed = _fd1(_fd1(P[27:].reshape(3, 4, 4, 4), step2), step2).tolist()
    g = np.array([[inner(parts[i], parts[jj]) for jj in range(3)] for i in range(3)])

    cross = triple_cross(parts[0], parts[1], parts[2])
    qn = inner(cross, cross)
    # |<cross,cross>| = |det g|; compare against the metric diagonal so the
    # test is signature-aware (euclidean scales mislead on hyperbolic nodes)
    diag = abs(g[0, 0] * g[1, 1] * g[2, 2])
    if abs(qn) <= 1e-12 * max(diag, 1e-300):
        raise RankDeficientError("surface partials are (numerically) linearly dependent")
    N = cross * (1.0 / math.sqrt(abs(qn)))
    # the exact normal is (c/r)(C - b), so the numeric one is close to +-that;
    # P[14] is the stencil centre (the 0.0 offset of the pure s stencil)
    row = cache.row(s)
    radial = _normal_sign(config, row.frame.eps) * (P[14] - row.basis[0])
    if float(np.dot(N.as_tuple(), radial)) < 0:
        N = -N

    h = np.empty((3, 3))
    for i, jj, vec in ((0, 0, second[0]), (0, 1, mixed[0]), (0, 2, mixed[1]),
                       (1, 1, second[1]), (1, 2, mixed[2]), (2, 2, second[2])):
        h[i, jj] = h[jj, i] = inner(Vec4(*vec), N)
    return g, h, N


# ---------------------------------------------------------------------------
# shared pieces

def shape_operator(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """S = g^-1 h; raises SingularMetricError when det g ~ 0."""
    det_g = float(np.linalg.det(g))
    scale = float(np.max(np.abs(g))) or 1.0
    if abs(det_g) < SINGULAR_REL_TOL * scale ** 3:
        raise SingularMetricError(f"det g = {det_g:.3g} below {SINGULAR_REL_TOL:g}*scale^3")
    return np.linalg.solve(g, h)


def _order_double_root_first(vals):
    """Sort three eigenvalues as (double root, double root, simple root)."""
    pairs = [(abs(vals[a] - vals[b]), a, b) for a, b in ((0, 1), (0, 2), (1, 2))]
    _, a, b = min(pairs)
    rest = ({0, 1, 2} - {a, b}).pop()
    return (vals[a], vals[b], vals[rest])


def principal_from_shape(S: np.ndarray) -> tuple[float, float, float]:
    """Real eigenvalues of the numeric shape operator, double root first.

    FD noise splits the structural double root into a conjugate pair whose
    imaginary part scales with the perturbation, so the truncation threshold
    is relative to the eigenvalue magnitude.
    """
    vals = np.linalg.eigvals(S)
    tol = EIG_IMAG_REL_TOL * (1.0 + float(np.max(np.abs(vals.real))))
    if np.max(np.abs(vals.imag)) > tol:
        raise ComplexEigenvaluesError(
            f"complex principal curvatures (max imag {np.max(np.abs(vals.imag)):.3g})")
    return _order_double_root_first(tuple(float(v) for v in vals.real))


def unit_normal(curve, config, s, t, w, route: Route = Route.CLOSED_FORM) -> Vec4:
    if route is Route.CLOSED_FORM:
        _, _, N = closed_fundamental_forms(curve, config, s, t, w)
        return N
    _, _, N = numeric_fundamental_forms(curve, config, s, t, w)
    return N


def fundamental_forms(curve, config, s, t, w, route: Route = Route.CLOSED_FORM):
    if route is Route.CLOSED_FORM:
        g, h, _ = closed_fundamental_forms(curve, config, s, t, w)
    else:
        g, h, _ = numeric_fundamental_forms(curve, config, s, t, w)
    return g, h


def curvature_report(curve, config, s, t, w, route: Route = Route.CLOSED_FORM,
                     cache: PointMapCache | None = None) -> CurvatureReport:
    """Full per-node report: g, h, S, N, eps_N, K, H, mu, f_j, A.

    A cache shared by the nodes of one patch evaluates the per-s rows (frame,
    b, r, r', r'') once for all of them.
    """
    _require_curvature_family(config)
    A = _check_node(config, w)
    if cache is None:
        cache = PointMapCache(curve, config)
    if route is Route.CLOSED_FORM:
        row = cache.row(s)
        fr = row.frame
        g, h, N = closed_fundamental_forms(curve, config, s, t, w, cache)
        S = shape_operator(g, h)
        if config.variant is Variant.STANDARD:
            K, H, mu = gauss_mean_principal(config.j, config.lam, fr.eps, fr.k1, row.r,
                                            row.rp, row.rpp, t, w, config.sigma)
        else:
            # supercritical variant: same shape-operator structure; take the
            # principal curvatures from the exact S
            sgn = fr.eps[2] * fr.eps[3] * config.lam ** config.j
            mu12 = sgn / row.r
            mu3 = float(np.trace(S)) - 2.0 * mu12
            mu = (mu12, mu12, mu3)
            K = mu12 * mu12 * mu3
            H = (2.0 * mu12 + mu3) / 3.0
    else:
        g, h, N = numeric_fundamental_forms(curve, config, s, t, w, cache=cache)
        S = shape_operator(g, h)
        K = float(np.linalg.det(h) / np.linalg.det(g))
        H = float(np.trace(S)) / 3.0
        mu = principal_from_shape(S)
    eps_n = 1 if inner(N, N) > 0 else -1
    return CurvatureReport(g=g, h=h, S=S, N=N, eps_N=eps_n, K=float(K), H=float(H),
                           mu=tuple(float(m) for m in mu),
                           f_j=family_function(config.j, t, w), A=A, route=route)


def curvatures(curve, config, s, t, w, route: Route = Route.CLOSED_FORM):
    """(K, H, mu1, mu2, mu3) at one node."""
    rep = curvature_report(curve, config, s, t, w, route)
    return (rep.K, rep.H) + rep.mu


# ---------------------------------------------------------------------------
# tubular closed forms

_TUBULAR_PATTERNS = {
    (1, 1): lambda t, w: math.cos(t) * math.cos(w),
    (2, 1): lambda t, w: math.cosh(t) * math.sinh(w),
    (2, -1): lambda t, w: math.cosh(t) * math.cosh(w),
    (3, 1): lambda t, w: math.sinh(t) * math.sinh(w),
    (3, -1): lambda t, w: math.sinh(t) * math.cosh(w),
    (4, 1): lambda t, w: math.cosh(w),
    (4, -1): lambda t, w: math.sinh(w),
}


def tubular_curvatures(j, lam, r_const, k1, t, w):
    """(K, H) of the constant-radius families; (1,-1) does not exist."""
    if (j, lam) == (1, -1):
        raise InadmissibleConfigError(
            "no tubular hypersurface exists for (j, lambda) = (1, -1)")
    try:
        u = k1 * _TUBULAR_PATTERNS[(j, lam)](t, w)
    except KeyError:
        raise InadmissibleConfigError(f"no tubular family (j={j}, lambda={lam})")
    r = r_const
    if (j, lam) in ((1, 1), (2, 1), (2, -1)):
        den = 1.0 + r * u
        if abs(den) < 1e-12:
            raise PoleAtNodeError(f"1 + r*k1*f = {den:.3g}: focal point")
        return u / (r * r * den), (2.0 + 3.0 * r * u) / (3.0 * r * den)
    if (j, lam) == (3, -1):
        den = -1.0 + r * u
        if abs(den) < 1e-12:
            raise PoleAtNodeError(f"-1 + r*k1*f = {den:.3g}: focal point")
        return u / (r * r * den), (2.0 - 3.0 * r * u) / (3.0 * r * (-den))
    # (3,1), (4,1), (4,-1)
    den = 1.0 - r * u
    if abs(den) < 1e-12:
        raise PoleAtNodeError(f"1 - r*k1*f = {den:.3g}: focal point")
    return u / (r * r * den), (2.0 - 3.0 * r * u) / (3.0 * r * (-den))
