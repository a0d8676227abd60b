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

import math
from dataclasses import dataclass

import numpy as np

from .canal import CanalConfig, PointMapCache, RadiusProfile, SurfacePatch
from .curvature import Route, curvature_report, gauss_mean_principal
from .curve import CurveSpec, TAU_K
from .errors import DomainExitError, InadmissibleConfigError
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


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    max_residual: float
    tolerance: float
    passed: bool
    nodes_checked: int


def _family_sign(patch: SurfacePatch) -> int:
    fr = patch.frames[0]
    return fr.eps[2] * fr.eps[3] * patch.config.lam ** patch.config.j


def check_kh_relation(patch: SurfacePatch, route: Route = Route.CLOSED_FORM,
                      tolerance: float | None = None) -> TheoremReport:
    """max |3 H r - K r^3 - 2 eps3 eps4 lam^j| over non-degenerate nodes."""
    tol = tolerance if tolerance is not None else (
        KH_TOL_CLOSED if route is Route.CLOSED_FORM else KH_TOL_NUMERIC)
    sgn = _family_sign(patch)
    cache = PointMapCache(patch.curve, patch.config, zip(patch.grid.s_values, patch.frames))
    worst = 0.0
    n = 0
    for i, jj, k, s, t, w, _ in patch.nodes():
        rep = curvature_report(patch.curve, patch.config, s, t, w, route, cache)
        r = cache.row(s).r
        worst = max(worst, abs(3.0 * rep.H * r - rep.K * r ** 3 - 2.0 * sgn))
        n += 1
    return TheoremReport(f"kh-relation[{route.value}]", worst, tol, worst <= tol, n)


# ---------------------------------------------------------------------------
# Weingarten

def _kh_at(config, cache, s, t, w):
    row = cache.row(s)
    K, H, _ = gauss_mean_principal(config.j, config.lam, row.frame.eps, row.frame.k1,
                                   row.r, row.rp, row.rpp, t, w, config.sigma)
    return K, H


def _fd_kh(kh_of, x, h):
    """5-point derivatives (K', H') from one (K, H) evaluation per offset."""
    (k0, h0), (k1, h1), (k2, h2), (k3, h3) = (kh_of(x - 2 * h), kh_of(x - h),
                                              kh_of(x + h), kh_of(x + 2 * h))
    return ((k0 - 8.0 * k1 + 8.0 * k2 - k3) / (12.0 * h),
            (h0 - 8.0 * h1 + 8.0 * h2 - h3) / (12.0 * h))


def weingarten_check(patch: SurfacePatch, pair: str,
                     tolerance: float = WEINGARTEN_TOL,
                     fd_step: float = WEINGARTEN_FD_STEP) -> TheoremReport:
    """Normalized max of |H_u K_v - H_v K_u| over the patch nodes.

    Partials of the closed-form K and H fields by 5-point finite differences.
    """
    if pair not in ("st", "sw", "tw"):
        raise ValueError(f"pair must be 'st', 'sw' or 'tw', got {pair!r}")
    cache = PointMapCache(patch.curve, patch.config, zip(patch.grid.s_values, patch.frames))
    config = patch.config
    worst = 0.0
    n = 0
    for i, jj, k, s, t, w, _ in patch.nodes():
        base = {"s": s, "t": t, "w": w}

        def kh_along(axis):
            def kh_of(u):
                args = dict(base)
                args[axis] = u
                return _kh_at(config, cache, args["s"], args["t"], args["w"])
            return _fd_kh(kh_of, base[axis], fd_step)

        Ku, Hu = kh_along(pair[0])
        Kv, Hv = kh_along(pair[1])
        num = abs(Hu * Kv - Hv * Ku)
        scale = max(max(abs(Hu), abs(Hv)) * max(abs(Ku), abs(Kv)), WEINGARTEN_ETA)
        worst = max(worst, num / scale)
        n += 1
    return TheoremReport(f"weingarten-{pair}", worst, tolerance, worst <= tolerance, n)


# ---------------------------------------------------------------------------
# flatness / minimality

@dataclass(frozen=True)
class FlatnessReport:
    verdict: str                  # "flat" | "not-flat" | "excluded"
    reason: str
    max_k1: float
    max_r_second: float
    sampled_max_K: float | None


def _max_k1(curve: CurveSpec, n_samples: int) -> float:
    smin, smax = curve.domain
    worst = 0.0
    for i in range(n_samples):
        s = smin + (smax - smin) * i / (n_samples - 1)
        d2 = curve.derivatives(s, 2)[1]
        worst = max(worst, math.sqrt(abs(inner(d2, d2))))
    return worst


def _cross_validation_config(curve: CurveSpec, radius: RadiusProfile) -> CanalConfig:
    """Admissible family over the curve: lam = -eps1 keeps r'^2 - lam*eps1 > 0."""
    fr = curve.frame(0.5 * (curve.domain[0] + curve.domain[1]))
    lam = -fr.eps[0]
    return CanalConfig(fr.frame_type, lam, radius)


def _sample_K_H(curve, config, n=20):
    smin, smax = curve.domain
    worst_K = worst_H = 0.0
    for i in range(n):
        s = smin + (smax - smin) * (i + 0.5) / n
        t = 0.4 + 0.11 * (i % 5)
        w = 0.3 + 0.07 * (i % 7)
        rep = curvature_report(curve, config, s, t, w, Route.CLOSED_FORM)
        worst_K = max(worst_K, abs(rep.K))
        worst_H = max(worst_H, abs(rep.H))
    return worst_K, worst_H


def classify_flat(curve: CurveSpec, radius: RadiusProfile,
                  n_samples: int = 200) -> FlatnessReport:
    """Flat iff k1 = 0 and r'' = 0 with |r'| != 1; |r'| = 1 is EXCLUDED."""
    smin, smax = curve.domain
    max_k1 = _max_k1(curve, n_samples)
    max_rpp = max(abs(radius.r_second(smin + (smax - smin) * i / (n_samples - 1)))
                  for i in range(n_samples))
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
    sampled_K, _ = _sample_K_H(curve, _cross_validation_config(curve, radius))
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
    rp = radius.r_prime(s)
    return -2.0 * (rp * rp - eps1_lambda) - 3.0 * radius(s) * radius.r_second(s)


def classify_minimal(curve: CurveSpec, radius: RadiusProfile, lam: int,
                     n_samples: int = 200) -> MinimalityReport:
    """Minimal iff k1 = 0 and the radius equation residual vanishes."""
    if lam not in (-1, 1):
        raise InadmissibleConfigError("minimality classification needs lambda = +-1")
    smin, smax = curve.domain
    max_k1 = _max_k1(curve, n_samples)
    if max_k1 > TAU_K:
        return MinimalityReport("not-minimal", f"k1 reaches {max_k1:.3g} > {TAU_K:g}",
                                max_k1, math.inf, None)
    eps1 = curve.frame(0.5 * (smin + smax)).eps[0]
    e1l = eps1 * lam
    worst = max(abs(minimal_radius_residual(radius, e1l, smin + (smax - smin) * i / (n_samples - 1)))
                for i in range(n_samples))
    if worst > MINIMAL_RESIDUAL_TOL:
        return MinimalityReport("not-minimal",
                                f"radius equation residual {worst:.3g} > {MINIMAL_RESIDUAL_TOL:g}",
                                max_k1, worst, None)
    fr = curve.frame(0.5 * (smin + smax))
    config = CanalConfig(fr.frame_type, lam, radius)
    _, sampled_H = _sample_K_H(curve, config)
    verdict = "minimal" if sampled_H <= MINIMAL_H_TOL else "not-minimal"
    reason = (f"k1 = 0, residual {worst:.3g}, sampled |H| <= {sampled_H:.3g}"
              if verdict == "minimal"
              else f"sampled |H| = {sampled_H:.3g} exceeds {MINIMAL_H_TOL:g}")
    return MinimalityReport(verdict, reason, max_k1, worst, sampled_H)


def solve_minimal_radius(eps1_lambda: int, c1: float, r0: float, s_range,
                         sign: int = 1, n_nodes: int = 257) -> RadiusProfile:
    """Integrate r' = sign*sqrt(eps1*lam + (c1/r)^(4/3)) from r(s0) = r0.

    Tabulated profile (cubic Hermite through RK45 output at rtol = atol =
    1e-10); r' and r'' are evaluated from the closed forms of r so the
    radius equation holds exactly along the profile. Raises DomainExitError
    with the turning s when the radicand reaches zero.
    """
    if c1 == 0:
        raise InadmissibleConfigError("c1 must be nonzero")
    if r0 <= 0:
        raise InadmissibleConfigError("r0 must be positive")
    if sign not in (-1, 1):
        raise InadmissibleConfigError("sign must be +-1")
    from scipy.integrate import solve_ivp
    c43 = (c1 * c1) ** (2.0 / 3.0)          # |c1|^(4/3)

    def radicand(r):
        return eps1_lambda + c43 * r ** (-4.0 / 3.0)

    if radicand(r0) <= 0:
        raise DomainExitError(f"radicand <= 0 already at r0 = {r0!r}", s_range[0])

    def rhs(s, y):
        return [sign * math.sqrt(max(radicand(y[0]), 0.0))]

    def turning(s, y):
        return radicand(y[0]) - 1e-14

    turning.terminal = True
    turning.direction = -1

    s0, s1 = float(s_range[0]), float(s_range[1])
    sol = solve_ivp(rhs, (s0, s1), [r0], method="RK45", rtol=1e-10, atol=1e-10,
                    dense_output=True, events=turning, max_step=(s1 - s0) / 16)
    if sol.t_events[0].size > 0:
        raise DomainExitError(
            f"radius equation radicand hit zero at s = {sol.t_events[0][0]:.9g}",
            float(sol.t_events[0][0]))
    if not sol.success:
        raise DomainExitError(f"integration failed: {sol.message}", s1)

    s_nodes = np.linspace(s0, s1, n_nodes)
    r_nodes = sol.sol(s_nodes)[0]
    rp_nodes = [sign * math.sqrt(radicand(r)) for r in r_nodes]
    from scipy.interpolate import CubicHermiteSpline
    spline = CubicHermiteSpline(s_nodes, r_nodes, rp_nodes)

    def r_of(s):
        return float(spline(s))

    def rp_of(s):
        return sign * math.sqrt(radicand(r_of(s)))

    def rpp_of(s):
        # d/ds sqrt(radicand(r)) = radicand'(r)/2; exactly the radius equation
        return -(2.0 / 3.0) * c43 * r_of(s) ** (-7.0 / 3.0)

    return RadiusProfile("table", r_of, rp_of, rpp_of,
                         table=(tuple(float(x) for x in s_nodes),
                                tuple(float(x) for x in r_nodes),
                                tuple(float(x) for x in rp_nodes)))
