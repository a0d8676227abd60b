"""Structural theorem checks and classification.

* K-H relation: 3 H r - K r^3 - 2 eps3 eps4 lam^j = 0 on every family.
* Flat iff k1 = 0 and r(s) = a s + b with a != -+1.
* Minimal iff k1 = 0 and -2 (r'^2 - eps1 lam) - 3 r r'' = 0, whose first
  integral is r' = +-sqrt(eps1 lam + (c1/r)^(4/3)).
* Weingarten pairs: the Jacobian H_u K_v - H_v K_u vanishes identically for
  (t,w); for (s,w) and (s,t) iff k1 r' = 0 (always for (s,t) when j = 4).

Weingarten residuals are normalized by the product of the gradient scales
max(|H_u|,|H_v|) * max(|K_u|,|K_v|) (floored at eta = 1e-12) so that fields
constant along one parameter (tubular sweeps) do not produce noise/noise
ratios.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .canal import (CanalConfig, PointMapCache, RadiusProfile, SurfacePatch, _even_odd_at,
                    _place, family_function, frame_signs)
from .curvature import (_FOCAL, _NULL_CONE, Route, _family_curvatures, _normal_sign, curvatures,
                        node_blocks)
from .curve import CurveSpec, TAU_K
from .errors import (DomainExitError, InadmissibleConfigError, SingularMetricError, _power,
                     unwrap)
from .minkowski import inner

KH_TOL_CLOSED = 1e-9
KH_TOL_NUMERIC = 1e-4
WEINGARTEN_TOL = 1e-8
WEINGARTEN_ETA = 1e-12
WEINGARTEN_FD_STEP = 1e-3
FLAT_K_TOL = 1e-9
MINIMAL_RESIDUAL_TOL = 1e-6
MINIMAL_H_TOL = 1e-5
LINEAR_SLOPE_BOUNDARY_TOL = 1e-9
CLASSIFY_SAMPLES = 200         # s values of the flat and minimal classification sweeps
RK4_SUBSTEPS = 8               # solve_minimal_radius: RK4 steps per table interval,
EXIT_SUBSTEPS = 512            # and in an interval where those steps leave its domain


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    max_residual: float
    tolerance: float
    passed: bool
    nodes_checked: int


def check_kh_relation(patch: SurfacePatch, route: Route = Route.CLOSED_FORM) -> TheoremReport:
    """max |3 H r - K r^3 - 2 eps3 eps4 lam^j| over non-degenerate nodes, with
    K and H from curvatures' block loop on the route; raises a DomainError
    where r^3 overflows on a row, else the first node's error in node order."""
    tol = KH_TOL_CLOSED if route is Route.CLOSED_FORM else KH_TOL_NUMERIC
    keys = patch.node_keys()
    if not len(keys[1]):
        return TheoremReport(f"kh-relation[{route.value}]", 0.0, tol, True, 0)
    sgn = -_normal_sign(patch.config)     # eps3 eps4 lam^j
    # r^3 of each row first (nan where the row fails): where it overflows, no residual exists
    r = patch.cache.take(keys[0])[0]["r"].tolist()
    r, r3 = np.array([(x, _power(x, 3, "r^3 at s={!r} (r = {:.6g})", s, x))
                      for s, x in zip(keys[0], r)])[keys[1]].T
    K, H, _, errors = curvatures(patch.config, patch.cache, route, *keys)
    unwrap(next(filter(None, errors), None))
    with np.errstate(all="ignore"):         # overflow gives inf or nan, as in floats
        worst = max([0.0, *np.abs(3.0 * H * r - K * r3 - 2.0 * sgn).tolist()])
    return TheoremReport(f"kh-relation[{route.value}]", worst, tol, worst <= tol, len(K))


# ---------------------------------------------------------------------------
# Weingarten

def _kh_points(config, cache, s_keys, s_at, t_keys, t_at, w_keys, w_at):
    """Closed-form (K, H) arrays at the points (s_keys[s_at], t_keys[t_at],
    w_keys[w_at]): row values once per s key, f_j's trig once per t and w key.
    Raises the first point's gauss_mean_principal error (row, f_j, D); a row
    holds Q > 0 (lam = +-1; weingarten_check rejects lam = 0)."""
    rows, row_errors = cache.take(s_keys)
    failed = np.array([e is not None for e in row_errors])
    r, k1, rpp, Q = (rows[x][s_at] for x in ("r", "k1", "rpp", "Q"))
    et, ot, ew, ow = _even_odd_at(config.j, t_keys, t_at, w_keys, w_at)
    with np.errstate(all="ignore"):         # overflow gives inf or nan, as in floats
        f = _place(config.j, et, ot, *(ew, ow)[::config.variant.sign])[0]
        K, H, _, _, focal = _family_curvatures(config.j, config.lam, config.variant,
                                               frame_signs(config.j), k1, r, Q, rpp,
                                               config.sigma * f)
    bad = failed[s_at] | np.isnan(f) | focal      # nan f: cosh or sinh overflowed
    if bad.any():
        p = int(np.argmax(bad))
        if not failed[s_at[p]] and np.isnan(f[p]):     # raises its DomainError
            family_function(config.j, config.variant, t_keys[t_at[p]], w_keys[w_at[p]])
        raise row_errors[s_at[p]] if failed[s_at[p]] else SingularMetricError(_FOCAL)
    return K, H


def weingarten_check(patch: SurfacePatch, pair: str) -> TheoremReport:
    """Normalized max of |H_u K_v - H_v K_u| over the patch nodes.

    Partials of the closed-form K and H fields by 5-point finite differences,
    from one _kh_points pass per closed-form node block over the 8 stencil
    points of its nodes, keyed by each grid value and its 4 offsets along the
    pair's axes. The stencil rows go into the patch's cache, which pairs share.
    """
    if pair not in ("st", "sw", "tw"):
        raise ValueError(f"pair must be 'st', 'sw' or 'tw', got {pair!r}")
    h = WEINGARTEN_FD_STEP
    keys = patch.node_keys()
    if patch.config.lam == 0 and len(keys[1]):      # as the K-H check's node check
        raise InadmissibleConfigError(_NULL_CONE)
    # node by node: 4 offsets along the pair's 1st axis, then its 2nd; none off the pair
    offsets = [(-2 * h, -h, h, 2 * h) if axis in pair else () for axis in "stw"]
    shifts = [[k if a == axis else 0 for a in pair for k in (1, 2, 3, 4)] for axis in "stw"]
    values = [[y for x in axis_keys for y in (x, *(x + d for d in axis_offsets))]
              for axis_keys, axis_offsets in zip(keys[::2], offsets)]
    patch.cache.fill(values[0])
    worst = 0.0
    for _, block in node_blocks(Route.CLOSED_FORM, keys):
        stencil = [x for v, o, shift, at in zip(values, offsets, shifts, block[1::2])
                   for x in (v, ((1 + len(o)) * at[:, None] + shift).ravel())]
        (k0, k1, k2, k3), (h0, h1, h2, h3) = (
            x.reshape(-1, 4).T
            for x in _kh_points(patch.config, patch.cache, *stencil))
        with np.errstate(all="ignore"):     # overflow gives inf or nan, as in floats
            Ku, Kv = ((k0 - 8.0 * k1 + 8.0 * k2 - k3) / (12.0 * h)).reshape(-1, 2).T
            Hu, Hv = ((h0 - 8.0 * h1 + 8.0 * h2 - h3) / (12.0 * h)).reshape(-1, 2).T
            num = np.abs(Hu * Kv - Hv * Ku)
            # np.maximum differs from max only on nan, where num is nan too
            scale = np.maximum(np.maximum(np.abs(Hu), np.abs(Hv))
                               * np.maximum(np.abs(Ku), np.abs(Kv)), WEINGARTEN_ETA)
            worst = max([worst, *(num / scale).tolist()])     # max skips nan
    return TheoremReport(f"weingarten-{pair}", worst, WEINGARTEN_TOL, worst <= WEINGARTEN_TOL,
                         len(keys[1]))


# ---------------------------------------------------------------------------
# flatness / minimality

@dataclass(frozen=True)
class FlatnessReport:
    verdict: str                  # "flat" | "not-flat" | "excluded"
    reason: str
    max_k1: float
    max_r_second: float
    sampled_max_K: float | None


def _max_k1(curve: CurveSpec) -> float:
    """max |b''| (k1 where the curve is unit speed) over the classification
    sweep, swept on first use and kept as curve.max_k1."""
    if curve.max_k1 is None:
        d2 = curve.swept(CLASSIFY_SAMPLES, 2)
        with np.errstate(all="ignore"):     # overflow gives inf or nan, as in floats
            curve.max_k1 = max([0.0, *np.sqrt(np.abs(inner(d2, d2))).tolist()])   # max skips nan
    return curve.max_k1


def _sample_K_H(curve, config):
    """max |K| and max |H| of the closed form at n = 20 sample nodes."""
    smin, smax = curve.domain
    n = 20
    nodes = [(smin + (smax - smin) * (i + 0.5) / n, 0.4 + 0.11 * (i % 5), 0.3 + 0.07 * (i % 7))
             for i in range(n)]
    K, H, _, errors = curvatures(config, PointMapCache(curve, config), Route.CLOSED_FORM,
                                 *(x for axis in zip(*nodes) for x in (axis, range(n))))
    unwrap(next(filter(None, errors), None))
    return tuple(max([0.0, *np.abs(x).tolist()]) for x in (K, H))


def classify_flat(curve: CurveSpec, radius: RadiusProfile) -> FlatnessReport:
    """Flat iff k1 = 0 and r'' = 0 with |r'| != 1; |r'| = 1 is EXCLUDED."""
    smin, smax = curve.domain
    max_k1 = _max_k1(curve)
    max_rpp = max(abs(rpp) for (rpp,) in radius.derived.values(curve.sweep(CLASSIFY_SAMPLES), 2))
    if max_k1 > TAU_K:
        return FlatnessReport("not-flat", f"k1 reaches {max_k1:.3g} > {TAU_K:g}",
                              max_k1, max_rpp, None)
    if max_rpp > TAU_K:
        return FlatnessReport("not-flat", f"r'' reaches {max_rpp:.3g} > {TAU_K:g}",
                              max_k1, max_rpp, None)
    slope = radius.r_prime(0.5 * (smin + smax))
    if abs(abs(slope) - 1.0) <= LINEAR_SLOPE_BOUNDARY_TOL:
        return FlatnessReport("excluded", "|r'| = 1 sits on the variant boundary",
                              max_k1, max_rpp, None)
    fr = curve.frame(0.5 * (smin + smax))      # lam = -eps1 keeps r'^2 - lam*eps1 > 0
    sampled_K, _ = _sample_K_H(curve, CanalConfig(fr.frame_type, -fr.eps[0], radius))
    verdict = "flat" if sampled_K <= FLAT_K_TOL else "not-flat"
    reason = (f"k1 = 0, r'' = 0, sampled |K| <= {sampled_K:.3g}" if verdict == "flat"
              else f"sampled |K| = {sampled_K:.3g} exceeds {FLAT_K_TOL:g}")
    return FlatnessReport(verdict, reason, max_k1, max_rpp, sampled_K)


@dataclass(frozen=True)
class MinimalityReport:
    verdict: str                  # "minimal" | "not-minimal"
    reason: str
    max_k1: float
    max_residual: float           # of -2(r'^2 - eps1*lam) - 3 r r''
    sampled_max_H: float | None


def minimal_radius_residual(radius: RadiusProfile, eps1_lambda: int, s: float) -> float:
    """-2 (r'^2 - eps1*lam) - 3 r r'' at s; zero along minimal profiles."""
    return _radius_residual(radius.r_prime(s), radius(s), radius.r_second(s), eps1_lambda)


def _radius_residual(rp, r, rpp, eps1_lambda):
    return -2.0 * (rp * rp - eps1_lambda) - 3.0 * r * rpp


def classify_minimal(curve: CurveSpec, radius: RadiusProfile, lam: int) -> MinimalityReport:
    """Minimal iff k1 = 0 and the radius equation residual vanishes."""
    if lam not in (-1, 1):
        raise InadmissibleConfigError("minimality classification needs lambda = +-1")
    smin, smax = curve.domain
    max_k1 = _max_k1(curve)
    if max_k1 > TAU_K:
        return MinimalityReport("not-minimal", f"k1 reaches {max_k1:.3g} > {TAU_K:g}",
                                max_k1, math.inf, None)
    fr = curve.frame(0.5 * (smin + smax))
    e1l = fr.eps[0] * lam
    worst = max(abs(_radius_residual(*x, e1l))
                for x in radius.derived.values(curve.sweep(CLASSIFY_SAMPLES), 1, 0, 2))
    if worst > MINIMAL_RESIDUAL_TOL:
        return MinimalityReport("not-minimal",
                                f"radius equation residual {worst:.3g} > {MINIMAL_RESIDUAL_TOL:g}",
                                max_k1, worst, None)
    config = CanalConfig(fr.frame_type, lam, radius)
    _, sampled_H = _sample_K_H(curve, config)
    verdict = "minimal" if sampled_H <= MINIMAL_H_TOL else "not-minimal"
    reason = (f"k1 = 0, residual {worst:.3g}, sampled |H| <= {sampled_H:.3g}"
              if verdict == "minimal"
              else f"sampled |H| = {sampled_H:.3g} exceeds {MINIMAL_H_TOL:g}")
    return MinimalityReport(verdict, reason, max_k1, worst, sampled_H)


def _hermite(s, r, rp):
    """The piecewise-cubic Hermite interpolant through the nodes (s, r) with
    slopes rp, as a function of s: exactly r at the nodes, with the end cubics
    continued past the table's ends."""
    s, r, rp = (tuple(map(float, v)) for v in (s, r, rp))

    def at(x):
        i = min(max(bisect.bisect_right(s, x) - 1, 0), len(s) - 2)
        h = s[i + 1] - s[i]
        u = (x - s[i]) / h
        v = 1.0 - u
        return (v * v * (1.0 + 2.0 * u) * r[i] + u * u * (3.0 - 2.0 * u) * r[i + 1]
                + h * u * v * (v * rp[i] - u * rp[i + 1]))
    return at


def solve_minimal_radius(eps1_lambda: int, c1: float, r0: float, s_range,
                         sign: int = 1, n_nodes: int = 257) -> RadiusProfile:
    """Integrate r' = sign*sqrt(eps1*lam + (c1/r)^(4/3)) from r(s0) = r0.

    Tabulated profile: classical RK4, RK4_SUBSTEPS steps per table interval,
    cubic Hermite between the nodes; r' and r'' are the closed forms of r, so
    the radius equation holds exactly along it. An interval whose steps leave
    the domain (r or the radicand <= 0) is integrated again more carefully:
    that reaches the next node or raises DomainExitError where one reaches 0.
    The profile's generator is these arguments, so the same call rebuilds it
    bit for bit.
    """
    c1, r0 = float(c1), float(r0)
    if not (c1 != 0 and math.isfinite(c1)):
        raise InadmissibleConfigError(f"c1 must be finite and nonzero, got {c1!r}")
    if not (r0 > 0 and math.isfinite(r0)):
        raise InadmissibleConfigError(f"r0 must be positive and finite, got {r0!r}")
    if eps1_lambda not in (-1, 1) or sign not in (-1, 1):
        raise InadmissibleConfigError(
            f"eps1_lambda and sign must be +-1, got {eps1_lambda!r} and {sign!r}")
    s0, s1 = float(s_range[0]), float(s_range[1])
    if not (s0 < s1 and n_nodes >= 2):
        raise InadmissibleConfigError(f"need s0 < s1, n_nodes >= 2: {s_range!r}, {n_nodes!r}")
    c43 = (c1 * c1) ** (2.0 / 3.0)          # |c1|^(4/3)

    def radicand(r):
        return eps1_lambda + c43 * r ** (-4.0 / 3.0)

    def slope(r):
        """sign*sqrt(radicand(r)); nan, which later stages keep, where r or it is <= 0."""
        try:
            q = radicand(r) if r > 0 else 0.0
        except OverflowError:               # 0 < r < ~1e-231
            q = 0.0
        return sign * math.sqrt(q) if q > 0 else math.nan

    def step(r, k1, h):
        k2 = slope(r + 0.5 * h * k1)
        k3 = slope(r + 0.5 * h * k2)
        k4 = slope(r + h * k3)
        r += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        return r, slope(r)

    def careful(s, b, r, k):
        """(r, k) at b from the node (s, r, k) in steps of (b - s)/EXIT_SUBSTEPS, each one
        that leaves the domain halved; DomainExitError where one short of b moves nothing."""
        h = (b - s) / EXIT_SUBSTEPS
        while s < b:
            h = min(h, b - s)
            r_next, k_next = step(r, k, h)
            last = h == b - s
            if math.isnan(k_next) and s + 0.5 * h != s:
                h *= 0.5
            elif math.isnan(k_next) or (r_next == r and not last):
                raise DomainExitError(
                    f"radius equation: r or its radicand reaches 0 at s = {s:.9g}", s)
            else:
                s, r, k = b if last else s + h, r_next, k_next
        return r, k

    s_nodes = np.linspace(s0, s1, n_nodes).tolist()
    nodes = [(r0, slope(r0))]
    for a, b in zip(s_nodes, s_nodes[1:]):
        r, k = nodes[-1]
        for _ in range(RK4_SUBSTEPS):       # nan, once reached, stays
            r, k = step(r, k, (b - a) / RK4_SUBSTEPS)
        nodes.append(careful(a, b, *nodes[-1]) if math.isnan(k) else (r, k))
    r_nodes, rp_nodes = zip(*nodes)
    r_of = _hermite(s_nodes, r_nodes, rp_nodes)

    def rp_of(s):
        return sign * math.sqrt(radicand(r_of(s)))

    def rpp_of(s):
        # d/ds sqrt(radicand(r)) = radicand'(r)/2; exactly the radius equation
        return -(2.0 / 3.0) * c43 * r_of(s) ** (-7.0 / 3.0)

    return RadiusProfile(r_of, rp_of, rpp_of,
                         ("minimal", int(eps1_lambda), c1, r0, (s0, s1), int(sign), n_nodes))
