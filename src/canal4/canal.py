"""Canal hypersurface construction.

A canal hypersurface over a unit-speed center curve b(s) with frame
(F1..F4), signs eps_i and radius r(s) is

    C(s,t,w) = b - lam*eps1*r*r' F1 + sigma * r * sqrt(|r'^2 - lam*eps1|)
               * (a2(t,w) F2 + a3(t,w) F3 + a4(t,w) F4)

for lam = +1 (pseudo hyperspheres) or lam = -1 (pseudo hyperbolic
hyperspheres); the transverse coefficient pattern (a2,a3,a4) depends on the
frame type j and on which sign r'^2 - lam*eps1 takes (STANDARD: > 0,
ALT_SUPERCRITICAL: < 0, possible only for j >= 2, lam = +1). Points satisfy
<C - b, C - b> = lam*r^2.

For lam = 0 the surface is an envelope of null cones: C = b + sum a_i F_i
with sum(eps_i a_i^2) = 0; two of the a_i are free functions of (s,t,w) and
the remaining one is determined (j = 1 admits no such surface).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import expr as ex
from .curve import CurveSpec, FrenetFrame
from .errors import (CanalError, DomainError, InadmissibleConfigError,
                     NullConditionViolatedError, VariantViolatedError)
from .minkowski import Vec4, inner

DEGENERATE_A_TOL = 1e-6     # |A| below this: shape operator undefined at node
VARIANT_BOUNDARY_TOL = 1e-12


class Variant(Enum):
    STANDARD = "standard"            # r'^2 - lam*eps1 > 0
    ALT_SUPERCRITICAL = "alt"        # r'^2 - lam*eps1 < 0 (j >= 2, lam = +1)


@dataclass(frozen=True)
class RadiusProfile:
    """Radius function with first and second derivatives.

    kind "expr": symbolic, derivatives exact. kind "constant": tubular.
    kind "table": numeric profile (cubic Hermite through solver output).
    """

    kind: str
    r: object          # callable s -> float
    r_prime: object
    r_second: object
    expr: ex.Expr | None = None
    constant: float | None = None
    table: tuple | None = None      # (s_nodes, r_nodes, rp_nodes) for JSON round trip

    @classmethod
    def from_expr(cls, source) -> "RadiusProfile":
        e = ex.parse(source) if isinstance(source, str) else source
        d1 = ex.differentiate(e)
        d2 = ex.differentiate(d1)
        return cls("expr", ex.compile_expr(e), ex.compile_expr(d1), ex.compile_expr(d2),
                   expr=e)

    @classmethod
    def from_constant(cls, c: float) -> "RadiusProfile":
        if not (c > 0 and math.isfinite(c)):
            raise InadmissibleConfigError(f"radius must be positive and finite, got {c!r}")
        c = float(c)
        return cls("constant", lambda s: c, lambda s: 0.0, lambda s: 0.0, constant=c)

    def __call__(self, s: float) -> float:
        return self.r(s)


@dataclass(frozen=True)
class CanalConfig:
    """Family selector: frame type j, sphere type lam, branch sign, variant."""

    j: int
    lam: int
    radius: RadiusProfile | None = None
    sigma: int = 1
    variant: Variant = Variant.STANDARD
    a_free: tuple[ex.Expr, ex.Expr] | None = None    # lam = 0 only

    def __post_init__(self):
        if self.j not in (1, 2, 3, 4):
            raise InadmissibleConfigError(f"frame type j must be 1..4, got {self.j!r}")
        if self.lam not in (-1, 0, 1):
            raise InadmissibleConfigError(f"lambda must be -1, 0 or +1, got {self.lam!r}")
        if self.sigma not in (-1, 1):
            raise InadmissibleConfigError(f"branch sign must be +-1, got {self.sigma!r}")
        if self.lam == 0:
            if self.j == 1:
                raise InadmissibleConfigError(
                    "a null-cone canal hypersurface with j = 1 cannot be defined")
            if self.a_free is None:
                raise InadmissibleConfigError("lambda = 0 requires the two free a-functions")
        elif self.radius is None:
            raise InadmissibleConfigError("lambda = +-1 requires a radius profile")
        if self.variant is Variant.ALT_SUPERCRITICAL and not (self.j >= 2 and self.lam == 1):
            raise InadmissibleConfigError(
                "the supercritical variant exists only for j in {2,3,4} with lambda = +1")


# transverse coefficient patterns (a2, a3, a4) per frame type
def _even_odd(j: int):
    """(cos, sin) for j = 1, (cosh, sinh) for j >= 2: the pattern's functions."""
    return (math.cos, math.sin) if j == 1 else (math.cosh, math.sinh)


def _coefficient_pattern(j: int, variant: Variant, ct, st, cw, sw):
    """(a2, a3, a4) from the even/odd functions of t and w (floats or arrays)."""
    if j == 1:
        return (ct * cw, st * cw, sw)
    if variant is Variant.STANDARD:
        if j == 2:
            return (ct * cw, sw, st * cw)
        if j == 3:
            return (st * cw, ct * cw, sw)
        return (sw, st * cw, ct * cw)
    if j == 2:
        return (ct * sw, cw, st * sw)
    if j == 3:
        return (st * sw, ct * sw, cw)
    return (cw, st * sw, ct * sw)


def transverse_coefficients(j: int, variant: Variant, t: float, w: float):
    even, odd = _even_odd(j)
    return _coefficient_pattern(j, variant, even(t), odd(t), even(w), odd(w))


def transverse_partials(j: int, variant: Variant, t: float, w: float):
    """((da2/dt, da3/dt, da4/dt), (da2/dw, da3/dw, da4/dw))."""
    if j == 1:
        ct, st, cw, sw = math.cos(t), math.sin(t), math.cos(w), math.sin(w)
        return ((-st * cw, ct * cw, 0.0), (-ct * sw, -st * sw, cw))
    cht, sht = math.cosh(t), math.sinh(t)
    chw, shw = math.cosh(w), math.sinh(w)
    if variant is Variant.STANDARD:
        if j == 2:
            return ((sht * chw, 0.0, cht * chw), (cht * shw, chw, sht * shw))
        if j == 3:
            return ((cht * chw, sht * chw, 0.0), (sht * shw, cht * shw, chw))
        return ((0.0, cht * chw, sht * chw), (chw, sht * shw, cht * shw))
    if j == 2:
        return ((sht * shw, 0.0, cht * shw), (cht * chw, shw, sht * chw))
    if j == 3:
        return ((cht * shw, sht * shw, 0.0), (sht * chw, cht * chw, shw))
    return ((0.0, cht * shw, sht * shw), (shw, sht * chw, cht * chw))


def family_function(j: int, t: float, w: float) -> float:
    """f_j, the transverse pattern coupled to k1 in the curvature formulas."""
    if j == 1:
        return math.cos(t) * math.cos(w)
    if j == 2:
        return math.cosh(t) * math.cosh(w)
    if j == 3:
        return math.sinh(t) * math.cosh(w)
    return math.sinh(w)


def degeneracy_factor(j: int, variant: Variant, w: float) -> float:
    """A = cos w (j=1), cosh w (j>=2) or sinh w (supercritical); det g carries A^2."""
    if j == 1:
        return math.cos(w)
    return math.cosh(w) if variant is Variant.STANDARD else math.sinh(w)


def _root_q(config: CanalConfig, s: float, eps1: int, rp: float) -> float:
    """sqrt(|q|) with q = r'^2 - lam*eps1; raises if q crosses the variant sign."""
    q = rp * rp - config.lam * eps1
    if config.variant is Variant.STANDARD:
        if q <= VARIANT_BOUNDARY_TOL:
            raise VariantViolatedError(
                f"r'^2 - lam*eps1 = {q:.3g} <= 0 at s={s!r} (standard variant needs > 0)")
        return math.sqrt(q)
    if q >= -VARIANT_BOUNDARY_TOL:
        raise VariantViolatedError(
            f"r'^2 - lam*eps1 = {q:.3g} >= 0 at s={s!r} (supercritical variant needs < 0)")
    return math.sqrt(-q)


def offset_scale(config: CanalConfig, s: float, eps1: int) -> float:
    """r * sqrt(|q|) with q = r'^2 - lam*eps1; raises if q crosses the variant sign."""
    return config.radius(s) * _root_q(config, s, eps1, config.radius.r_prime(s))


def resolve_variant(curve: CurveSpec, j: int, lam: int, radius: RadiusProfile,
                    n_samples: int = 33) -> Variant:
    """Pick the variant from the sign of r'^2 - lam*eps1 over the domain."""
    eps1 = -1 if j == 1 else 1
    smin, smax = curve.domain
    sign = None
    for i in range(n_samples):
        s = smin + (smax - smin) * i / (n_samples - 1)
        q = radius.r_prime(s) ** 2 - lam * eps1
        here = 1 if q > VARIANT_BOUNDARY_TOL else (-1 if q < -VARIANT_BOUNDARY_TOL else 0)
        if here == 0:
            raise InadmissibleConfigError(
                f"r'^2 - lam*eps1 = {q:.3g} at s={s:.6g}: on the variant boundary")
        if sign is None:
            sign = here
        elif sign != here:
            raise InadmissibleConfigError("r'^2 - lam*eps1 changes sign over the domain")
    if sign == 1:
        return Variant.STANDARD
    if not (j >= 2 and lam == 1):
        raise InadmissibleConfigError(
            f"r'^2 < lam*eps1 for family (j={j}, lambda={lam:+d}): no such hypersurface")
    return Variant.ALT_SUPERCRITICAL


@dataclass(frozen=True)
class PointMapRow:
    """Everything the point map and the curvature formulas need at one s.

    For lam = 0 only frame and basis are set; the radius fields are 0.0.
    """

    frame: FrenetFrame
    basis: np.ndarray       # (5, 4): b, F1, F2, F3, F4
    r: float
    rp: float
    rpp: float
    axial: float            # -lam*eps1*r*r'
    phi: float              # sigma*r*sqrt(|q|)


class PointMapCache:
    """Per-s rows of the point map, memoized by exact float value of s.

    Grid rows, finite-difference stencils and the curvature formulas revisit
    the same s values; one cache per patch-level loop evaluates and checks
    the frame, b(s), r, r' and r'' once for every node at that s. frames
    holds (s, frame) pairs already built, such as a patch's. For lam = 0 the
    cache also holds the two free a-functions, compiled once.
    """

    def __init__(self, curve: CurveSpec, config: CanalConfig, frames=None):
        self.curve = curve
        self.config = config
        self._frames: dict[float, FrenetFrame] = dict(frames or {})
        self._rows: dict[float, PointMapRow] = {}
        self.a_fns = (tuple(ex.compile_expr(a, ("s", "t", "w")) for a in config.a_free)
                      if config.lam == 0 else None)

    def row(self, s: float) -> PointMapRow:
        """The row at s, built and checked on first use."""
        hit = self._rows.get(s)
        if hit is not None:
            return hit
        config = self.config
        fr = self._frames.get(s) or self.curve.frame(s)
        if fr.frame_type != config.j:
            raise InadmissibleConfigError(
                f"curve has frame type {fr.frame_type}, config wants j = {config.j}")
        basis = np.array([v.as_tuple() for v in (self.curve.point(s),) + fr.vectors])
        if config.lam == 0:
            hit = self._rows[s] = PointMapRow(fr, basis, 0.0, 0.0, 0.0, 0.0, 0.0)
            return hit
        eps1 = fr.eps[0]
        rv = config.radius(s)
        if rv <= 0:
            raise InadmissibleConfigError(f"radius r({s!r}) = {rv:.6g} must be positive")
        rp = config.radius.r_prime(s)
        phi = config.sigma * (rv * _root_q(config, s, eps1, rp))
        hit = self._rows[s] = PointMapRow(fr, basis, rv, rp, config.radius.r_second(s),
                                          -config.lam * eps1 * rv * rp, phi)
        return hit


def _distinct(values):
    """(distinct values in first-seen order, each value's index among them)."""
    index: dict[float, int] = {}
    at = [index.setdefault(v, len(index)) for v in values]
    return list(index), at


def canal_points(curve: CurveSpec, config: CanalConfig, s, t, w,
                 cache: PointMapCache | None = None) -> np.ndarray:
    """Surface points at aligned sequences of s, t, w values: an (n, 4) array.

    Evaluates b + axial*F1 + (phi*a2)*F2 + (phi*a3)*F3 + (phi*a4)*F4 with
    per-s pieces from the cache, elementwise in that order (the same IEEE
    results as scalar arithmetic). The trig functions run in math once per
    distinct t and w: numpy's vectorized sin/cosh may differ from libm in the
    last ulp. lam = 0 evaluates b + a2*F2 + a3*F3 + a4*F4 with the null-cone
    coefficients of _nullcone_coefficients.
    """
    s, t, w = list(s), list(t), list(w)
    if not len(s) == len(t) == len(w):
        raise ValueError(f"s, t, w must align, got {len(s)}, {len(t)}, {len(w)} values")
    if cache is None:
        cache = PointMapCache(curve, config)
    if not s:
        return np.empty((0, 4))
    s_keys, at = _distinct(s)
    rows = [cache.row(v) for v in s_keys]
    basis = np.array([r.basis for r in rows])[at]
    if config.lam == 0:
        fa, fb = cache.a_fns
        coeff = np.array([_nullcone_coefficients(config.j, config.sigma, fa(*node), fb(*node))
                          for node in zip(s, t, w)])
        out = (basis[:, 0] + coeff[:, :1] * basis[:, 2] + coeff[:, 1:2] * basis[:, 3]
               + coeff[:, 2:] * basis[:, 4])
    else:
        axial = np.array([r.axial for r in rows])[at]
        phi = np.array([r.phi for r in rows])[at]
        even, odd = _even_odd(config.j)

        def trig(values):
            keys, where = _distinct(values)
            table = np.array([(even(v), odd(v)) for v in keys])[where]
            return table[:, 0], table[:, 1]

        a2, a3, a4 = _coefficient_pattern(config.j, config.variant, *trig(t), *trig(w))
        out = (basis[:, 0] + axial[:, None] * basis[:, 1] + (phi * a2)[:, None] * basis[:, 2]
               + (phi * a3)[:, None] * basis[:, 3] + (phi * a4)[:, None] * basis[:, 4])
    if not np.isfinite(out).all():
        raise DomainError("non-finite surface point")
    return out


def canal_point(curve: CurveSpec, config: CanalConfig, s: float, t: float,
                w: float) -> Vec4:
    """One surface point: canal_points on a single node, as a Vec4."""
    return Vec4(*canal_points(curve, config, (s,), (t,), (w,))[0].tolist())


_FREE_SLOTS = {2: (3, 4), 3: (2, 4), 4: (2, 3)}


def _nullcone_coefficients(j: int, sigma: int, first: float, second: float):
    """(a2, a3, a4): the free values in the slots of _FREE_SLOTS[j], and
    a_j = sigma * sqrt(first^2 + second^2), so that sum eps_i a_i^2 = 0."""
    coeff = {j: sigma * math.hypot(first, second)}
    coeff[_FREE_SLOTS[j][0]] = first
    coeff[_FREE_SLOTS[j][1]] = second
    residual = -coeff[j] ** 2 + sum(coeff[i] ** 2 for i in (2, 3, 4) if i != j)
    scale = 1.0 + sum(v * v for v in coeff.values())
    if abs(residual) > 1e-9 * scale:
        raise NullConditionViolatedError(
            f"sum eps_i a_i^2 = {residual:.3g} (tolerance {1e-9 * scale:.3g})")
    return coeff[2], coeff[3], coeff[4]


def nullcone_point(curve: CurveSpec, j: int, a_free, s: float, t: float, w: float,
                   sigma: int = 1) -> Vec4:
    """Envelope-of-null-cones point: b + sum a_i F_i with sum eps_i a_i^2 = 0.

    a_free holds the two free coefficient functions, Exprs in (s, t, w), in
    the index order of _FREE_SLOTS; the remaining coefficient is sigma *
    sqrt(sum of the free squares). canal_point of the lam = 0 family.
    """
    config = CanalConfig(j, 0, None, sigma, Variant.STANDARD, tuple(a_free))
    return canal_point(curve, config, s, t, w)


@dataclass(frozen=True)
class AdmissibilityReport:
    passed: bool
    reasons: tuple[str, ...]
    checks: tuple[str, ...]


def validate_config(curve: CurveSpec, config: CanalConfig,
                    n_samples: int = 33) -> AdmissibilityReport:
    """Report-valued admissibility sweep: frame type, radius, variant, lam rules."""
    reasons = []
    checks = []

    rep = curve.verify_unit_speed(n_samples)
    checks.append(f"unit speed: max deviation {rep.max_deviation:.3g}")
    if not rep.passed:
        reasons.append(f"curve is not unit speed (deviation {rep.max_deviation:.3g})")

    j_curve = None
    try:
        smin, smax = curve.domain
        j_curve = curve.frame(0.5 * (smin + smax)).frame_type
        checks.append(f"curve frame type: {j_curve}")
        if j_curve != config.j:
            reasons.append(f"frame type mismatch: curve has j = {j_curve}, config j = {config.j}")
    except CanalError as exc:  # degenerate frames reported, not raised
        reasons.append(f"frame construction failed: {exc}")

    if config.lam == 0:
        checks.append("lambda = 0: null condition enforced per point")
        return AdmissibilityReport(not reasons, tuple(reasons), tuple(checks))

    smin, smax = curve.domain
    r_min = min(config.radius(smin + (smax - smin) * i / (n_samples - 1))
                for i in range(n_samples))
    checks.append(f"radius minimum over domain: {r_min:.6g}")
    if r_min <= 0:
        reasons.append(f"radius must stay positive (min {r_min:.6g})")

    try:
        variant = resolve_variant(curve, config.j, config.lam, config.radius, n_samples)
        checks.append(f"variant condition sign: {variant.value}")
        if variant is not config.variant:
            reasons.append(
                f"declared variant {config.variant.value!r} but r'^2 - lam*eps1 "
                f"selects {variant.value!r}")
    except InadmissibleConfigError as exc:
        reasons.append(str(exc))

    return AdmissibilityReport(not reasons, tuple(reasons), tuple(checks))


@dataclass(frozen=True)
class GridSpec:
    """Explicit sample values along s, t, w."""

    s_values: tuple[float, ...]
    t_values: tuple[float, ...]
    w_values: tuple[float, ...]

    @staticmethod
    def linspace(rng, n, endpoint=True):
        a, b = float(rng[0]), float(rng[1])
        if n <= 0:
            return ()
        if n == 1:
            return (a,)
        step = (b - a) / (n - 1 if endpoint else n)
        return tuple(a + step * i for i in range(n))

    @classmethod
    def regular(cls, s_range, t_range, w_range, counts,
                t_endpoint=False) -> "GridSpec":
        ns, nt, nw = counts
        return cls(cls.linspace(s_range, ns), cls.linspace(t_range, nt, t_endpoint),
                   cls.linspace(w_range, nw))


class SurfacePatch:
    """Sampled (s,t,w) lattice of canal points with cached frames per s."""

    def __init__(self, curve, config, grid, points, frames, degenerate):
        self.curve = curve
        self.config = config
        self.grid = grid
        self.points = points            # flat tuple, row-major (s, t, w)
        self.frames = frames            # one FrenetFrame per s value
        self.degenerate = degenerate    # frozenset of flat indices

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.grid.s_values), len(self.grid.t_values), len(self.grid.w_values))

    def flat_index(self, i: int, jj: int, k: int) -> int:
        ns, nt, nw = self.shape
        return (i * nt + jj) * nw + k

    def point(self, i: int, jj: int, k: int) -> Vec4:
        return self.points[self.flat_index(i, jj, k)]

    def is_degenerate(self, i: int, jj: int, k: int) -> bool:
        return self.flat_index(i, jj, k) in self.degenerate

    def nodes(self, include_degenerate: bool = False):
        """Yield (i, j, k, s, t, w, point)."""
        for i, s in enumerate(self.grid.s_values):
            for jj, t in enumerate(self.grid.t_values):
                for k, w in enumerate(self.grid.w_values):
                    fi = self.flat_index(i, jj, k)
                    if not include_degenerate and fi in self.degenerate:
                        continue
                    yield (i, jj, k, s, t, w, self.points[fi])

    def max_sphere_residual(self) -> float:
        """max |<P-b, P-b> - lam*r^2| over all nodes (lam = 0: |<P-b, P-b>|)."""
        worst = 0.0
        for i, s in enumerate(self.grid.s_values):
            b = self.curve.point(s)
            target = 0.0 if self.config.lam == 0 else self.config.lam * self.config.radius(s) ** 2
            for jj in range(len(self.grid.t_values)):
                for k in range(len(self.grid.w_values)):
                    d = self.points[self.flat_index(i, jj, k)] - b
                    worst = max(worst, abs(inner(d, d) - target))
        return worst


def sample_grid(curve: CurveSpec, config: CanalConfig, grid: GridSpec) -> SurfacePatch:
    """Evaluate the full lattice, one canal_points call per s row.

    Nodes where the metric degeneracy factor |A| < 1e-6 are built but flagged
    (curvature evaluation skips them).
    """
    s_vals, t_vals, w_vals = grid.s_values, grid.t_values, grid.w_values
    t_col = [t for t in t_vals for _ in w_vals]
    w_col = list(w_vals) * len(t_vals)
    cache = PointMapCache(curve, config)
    frames, points = [], []
    for s in s_vals:
        frames.append(cache.row(s).frame)
        row = canal_points(curve, config, [s] * len(t_col), t_col, w_col, cache)
        points.extend(Vec4(*p) for p in row.tolist())
    degenerate = set()
    if config.lam != 0:
        nt, nw = len(t_vals), len(w_vals)
        for k, w in enumerate(w_vals):
            if abs(degeneracy_factor(config.j, config.variant, w)) < DEGENERATE_A_TOL:
                for i in range(len(s_vals)):
                    for jj in range(nt):
                        degenerate.add((i * nt + jj) * nw + k)
    return SurfacePatch(curve, config, grid, tuple(points), tuple(frames),
                        frozenset(degenerate))
