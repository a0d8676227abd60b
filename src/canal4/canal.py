"""Canal hypersurface construction.

A canal hypersurface over a unit-speed center curve b(s) with frame
(F1..F4), signs eps_i and radius r(s) is

    C(s,t,w) = b - lam*eps1*r*r' F1 + sigma * r * sqrt(|r'^2 - lam*eps1|)
               * (a2(t,w) F2 + a3(t,w) F3 + a4(t,w) F4)

for lam = +1 (pseudo hyperspheres) or lam = -1 (pseudo hyperbolic
hyperspheres). One table gives every family's transverse pattern:
(a2,a3,a4) = (even(t)*A, odd(t)*A, B) in the slot order _SLOTS[j], where
(even, odd) = (cos, sin) for j = 1, (cosh, sinh) for j >= 2, and (A, B) =
(even(w), odd(w)) when r'^2 - lam*eps1 > 0 (STANDARD), swapped when it is
< 0 (ALT_SUPERCRITICAL, only for j >= 2, lam = +1). A is the metric
degeneracy factor and f_j = a2. Points satisfy <C - b, C - b> = lam*r^2.

For lam = 0 the surface is an envelope of null cones: C = b + sum a_i F_i
with sum(eps_i a_i^2) = 0; two of the a_i are free functions of (s,t,w) and
the remaining one is determined (j = 1 admits no such surface).
"""
from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import expr as ex
from .curve import CurveSpec, FrenetFrame
from .errors import (CanalError, DomainError, FailedRows, InadmissibleConfigError,
                     NullConditionViolatedError, VariantViolatedError, _power, check, or_error,
                     unwrap)
from .minkowski import Vec4, inner

DEGENERATE_A_TOL = 1e-6     # |A| below this: shape operator undefined at node
VARIANT_BOUNDARY_TOL = 1e-12
# Fewest new s values PointMapCache.fill runs its array pass for: below, its
# fixed cost exceeds the scalar rows' (230-450 us against 20-40 us per row,
# measured on a 2-core VM with Python 3.11 and numpy 2.4)
BATCH_MIN_S = 16
ADMISSIBILITY_SAMPLES = 33  # s values of the validate_config and resolve_variant sweeps


@functools.cache
def frame_signs(j: int) -> tuple[int, int, int, int]:
    """(eps1, .., eps4) of a frame of type j: F_j is timelike, eps_j = -1, the rest +1."""
    return tuple(-1 if i == j else 1 for i in range(1, 5))


class Variant(Enum):
    STANDARD = "standard"            # r'^2 - lam*eps1 > 0
    ALT_SUPERCRITICAL = "alt"        # r'^2 - lam*eps1 < 0 (j >= 2, lam = +1)

    def __init__(self, value):
        self.sign = 1 if value == "standard" else -1    # v, the sign of r'^2 - lam*eps1


@dataclass(frozen=True)
class RadiusProfile:
    """A radius function r(s) with its first and second derivatives, and the
    generator that builds them: ("expr", text), derivatives exact;
    ("constant", value), a tube; or ("minimal", eps1_lambda, c1, r0, s_range,
    sign, n_nodes), the arguments of analysis.solve_minimal_radius. Profiles
    compare and hash by their generator. Every reader takes r, r', r'' as the
    orders of derived: an expression's, or the three callables given."""

    r: object = field(compare=False)          # callable s -> float
    r_prime: object = field(compare=False)
    r_second: object = field(compare=False)
    generator: tuple
    derived: ex.Derived = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.derived is None:
            given = (self.r, self.r_prime, self.r_second)
            object.__setattr__(self, "derived", ex.Derived(("r",), (), 2, given))

    @classmethod
    def from_expr(cls, source) -> "RadiusProfile":
        """The profile of an expression: text, parsed into the table that
        derives it, or a tree, folded there (a tree is folded, as parse folds
        text); raises differentiate's refusal of r' or r''."""
        derived = ex.Derived(("r",), (source,), 2)
        derived.derive(2)
        return cls(*map(derived.function, range(3)), ("expr", str(derived.exprs[0])), derived)

    @classmethod
    def from_constant(cls, c: float) -> "RadiusProfile":
        if not (c > 0 and math.isfinite(c)):
            raise InadmissibleConfigError(f"radius must be positive and finite, got {c!r}")
        return replace(cls.from_expr(ex.Const(float(c))), generator=("constant", float(c)))

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


# every family's transverse pattern: (a2, a3, a4) = (even(t)*A, odd(t)*A, B) in
# the slot order _SLOTS[j], with (A, B) = (even(w), odd(w))[::v] for the variant's
# sign v: the supercritical variant swaps A and B (and so their w-derivatives)
_SLOTS = {1: (0, 1, 2), 2: (0, 2, 1), 3: (1, 0, 2), 4: (2, 1, 0)}
_EVEN_ODD = {j: (math.cos, math.sin) if j == 1 else (math.cosh, math.sinh) for j in _SLOTS}


def _place(j: int, even_t, odd_t, A, B):
    """(a2, a3, a4): (even_t*A, odd_t*A, B) in the slot order _SLOTS[j]."""
    x = (even_t * A, odd_t * A, B)
    i2, i3, i4 = _SLOTS[j]
    return x[i2], x[i3], x[i4]


def _math_table(fn, values):
    """fn of each value in math (numpy's cosh may differ from libm in the last
    ulp) as an array, nan where fn overflows (nan raises no warning, inf may)."""
    def at(v):
        try:
            return fn(v)
        except OverflowError:
            return math.nan
    return np.array([at(v) for v in values], dtype=float)


def _stencil(keys, at, used=None, values=lambda x: (x,)):
    """The values of the keys used (by default those that the index array at
    reads, in key order) and each node's index among those keys."""
    if used is None:
        used = np.flatnonzero(np.bincount(np.ravel(at), minlength=len(keys))).tolist()
    pos = np.zeros(len(keys), dtype=np.intp)
    pos[used] = range(len(used))
    return [v for i in used for v in values(keys[i])], pos[at]


def _even_odd_at(j: int, t_keys, t_at, w_keys, w_at):
    """[even(t), odd(t), even(w), odd(w)] at the nodes (t_keys[t_at], w_keys[w_at]),
    arrays over the shape of the index arrays: _math_table once per key they read."""
    return [_math_table(fn, keys)[at] for keys, at in map(_stencil, (t_keys, w_keys), (t_at, w_at))
            for fn in _EVEN_ODD[j]]


def _pattern(j: int, v: int, et, ot, ew, ow):
    """(a, da/dt, da/dw), each an (a2, a3, a4) triple, from even and odd of t
    and w and the variant's sign v: floats or arrays alike."""
    det, dew = (-ot, -ow) if j == 1 else (ot, ow)      # even'(t), even'(w)
    (A, B), (dA, dB) = (ew, ow)[::v], (dew, ew)[::v]
    return (_place(j, et, ot, A, B), _place(j, det, et, A, 0.0), _place(j, et, ot, dA, dB))


def transverse(j: int, variant: Variant, t: float, w: float):
    """(a, da/dt, da/dw) at one node, each an (a2, a3, a4) tuple."""
    even, odd = _EVEN_ODD[j]
    try:
        et, ot, ew, ow = even(t), odd(t), even(w), odd(w)
    except OverflowError:
        raise DomainError(f"transverse{(j, variant.value, t, w)}: cosh or sinh overflows") from None
    return _pattern(j, variant.sign, et, ot, ew, ow)


def family_function(j: int, variant: Variant, t: float, w: float) -> float:
    """f_j = a2, the pattern's F2 coefficient, coupled to k1 in the curvatures;
    a2 of j = 4 is B, which reads no t."""
    even, odd = _EVEN_ODD[j]
    try:
        A, B = (even(w), odd(w))[::variant.sign]
        return _place(j, *((0.0, 0.0) if j == 4 else (even(t), odd(t))), A, B)[0]
    except OverflowError:
        raise DomainError(f"family_function{(j, variant.value, t, w)}: "
                          "cosh or sinh overflows") from None


def degeneracy_factor(j: int, variant: Variant, w: float) -> float:
    """A of the pattern: cos w (j=1), cosh w (j>=2) or sinh w (supercritical);
    det g carries A^2."""
    try:
        return _EVEN_ODD[j][::variant.sign][0](w)
    except OverflowError:
        raise DomainError(f"degeneracy_factor{(j, variant.value, w)}: "
                          "cosh or sinh overflows") from None


def _row_terms(config: CanalConfig, s, value, sqrt, check):
    """(r, r', r'', Q, axial, phi) at s (a float or column array), value(k) giving
    [r^(k)]; checks r > 0, then Q = v*(r'^2 - lam*eps1) > 0, each once it is known."""
    v, eps1 = config.variant.sign, frame_signs(config.j)[0]
    (r,) = value(0)
    check(r <= 0, InadmissibleConfigError, lambda: f"radius r({s!r}) = {r:.6g} must be positive")
    (rp,) = value(1)
    q = rp * rp - config.lam * eps1
    check(v * q <= VARIANT_BOUNDARY_TOL, VariantViolatedError,
          lambda: f"r'^2 - lam*eps1 = {q:.3g} at s={s!r} has the wrong sign "
                  f"for the {config.variant.value} variant")
    Q = v * q
    return r, rp, value(2)[0], Q, -config.lam * eps1 * r * rp, config.sigma * (r * sqrt(Q))


def resolve_variant(curve: CurveSpec, j: int, lam: int, radius: RadiusProfile) -> Variant:
    """Pick the variant from the sign of r'^2 - lam*eps1 over the domain."""
    eps1 = frame_signs(j)[0]
    sign = None
    sweep = curve.sweep(ADMISSIBILITY_SAMPLES)
    for s, (rp,) in zip(sweep, radius.derived.values(sweep, 1)):
        try:
            q = rp ** 2 - lam * eps1
        except OverflowError:
            raise DomainError(f"r'^2 - lam*eps1 overflows at s={s!r} (r' = {rp:.6g})") from None
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


# A PointMapCache row, all float64: what the point map and the curvature formulas
# need at one s. basis (b, F1..F4) and k1..k3 are frame(s)'s numbers (its signs
# are frame_signs(j)); Q = v*(r'^2 - lam*eps1) > 0, axial = -lam*eps1*r*r' and
# phi = sigma*r*sqrt(Q). For lam = 0 the radius fields are 0.0.
ROW = np.dtype([("basis", float, (5, 4))]
               + [(x, float) for x in ("k1", "k2", "k3", "r", "rp", "rpp", "Q", "axial", "phi")])


class PointMapCache:
    """Per-s rows (ROW) of the point map, memoized by exact float value of s.

    Grid rows, finite-difference stencils and the curvature formulas revisit
    the same s values; one cache per patch (SurfacePatch.cache, sample_grid's)
    evaluates and checks the frame, b(s), r, r' and r'' once for every node,
    grid row and check at that s. Making one costs next to nothing: the lam = 0
    free a-functions are compiled on first use.
    """

    def __init__(self, curve: CurveSpec, config: CanalConfig):
        self.curve = curve
        self.config = config
        self._table = np.full((1, ROW.itemsize // 8), math.nan)    # row 0: a key with no row
        self._at: dict[float, int] = {}             # s -> its row in _table

    @functools.cached_property
    def a_fns(self):
        """The two free a-functions of a lam = 0 config, compiled once."""
        return tuple(ex.compile_expr(a, ("s", "t", "w"), f"a{slot}")
                     for a, slot in zip(self.config.a_free, _FREE_SLOTS[self.config.j]))

    def _store(self, keys, columns) -> None:
        """Add the rows of an (n, 29) float array (basis, k1..k3, _row_terms') for
        n new keys; a full table grows to at least twice its rows."""
        start, end = len(self._at) + 1, len(self._at) + 1 + len(columns)
        if end > len(self._table):
            self._table = np.concatenate((self._table[:start], np.empty((end, ROW.itemsize // 8))))
        self._table[start:end] = columns
        self._at.update(zip(keys, range(start, end)))

    def fill(self, keys) -> None:
        """Build the rows of the keys with no row yet in one array pass, if
        there are at least BATCH_MIN_S of them. It raises nothing: a row that
        fails a check of row's, or all if the pass cannot vouch for them, is
        left to row(s), whose scalar path raises its error."""
        todo = [s for s in dict.fromkeys(keys) if s not in self._at]
        if len(todo) < BATCH_MIN_S:
            return
        config, failed = self.config, FailedRows(len(todo))
        terms = np.zeros((6, len(todo)))
        if config.lam != 0:
            table = config.radius.derived.array(np.array(todo), 0, 1, 2)   # None for a minimal one
            if table is None:
                return
            with np.errstate(all="ignore"):         # overflow gives inf or nan, as in floats
                terms = _row_terms(config, todo, table.__getitem__, np.sqrt, failed)
        frames = self.curve.frames(todo)
        if frames is None:
            return
        basis, ks, eps, ok = frames
        keep = ~failed.masks()[0] & ok & (eps[:, config.j - 1] == -1)      # frame type j
        self._store([s for s, k in zip(todo, keep.tolist()) if k], np.concatenate(
            (basis.reshape(-1, 20), ks, np.transpose(terms)), axis=1)[keep])

    def row(self, s: float):
        """A copy of the ROW record at s, built and checked on first use."""
        if s not in self._at:
            config = self.config
            fr = self.curve.frame(s)
            if fr.frame_type != config.j:
                raise InadmissibleConfigError(
                    f"curve has frame type {fr.frame_type}, config wants j = {config.j}")
            b = self.curve.derivative(s, 0)
            terms = (0.0,) * 6
            if config.lam != 0:
                terms = _row_terms(config, s, config.radius.derived.at(s), math.sqrt, check)
            self._store((s,), [[*b, *(x for F in fr.tetrad for x in F), fr.k1, fr.k2, fr.k3, *terms]])
        return self._table[self._at[s]].copy().view(ROW)[0]

    def take(self, keys):
        """(rows, errors) in key order: the rows of the keys as one ROW array,
        nan in every field of a key whose row(s) raises, and each key's
        CanalError or None. Every key is built before any error is raised."""
        built = {s: or_error(self.row, s) for s in dict.fromkeys(keys) if s not in self._at}
        return (self._table[[self._at.get(s, 0) for s in keys]].view(ROW)[:, 0],
                [None if s in self._at else built[s] for s in keys])

    def rows(self, keys) -> np.ndarray:
        """take(keys)'s rows; raises the first key's error in key order."""
        rows, errors = self.take(keys)
        return unwrap(next(filter(None, errors), rows))


def _distinct(values):
    """(distinct values in first-seen order, each value's index among them)."""
    index: dict[float, int] = {}
    at = [index.setdefault(v, len(index)) for v in values]
    return list(index), at


def indexed_points(config: CanalConfig, cache: PointMapCache, s_keys, s_at, t_keys, t_at,
                   w_keys, w_at, rows=None) -> np.ndarray:
    """Surface points at (s_keys[s_at], t_keys[t_at], w_keys[w_at]), an (..., 4)
    array over the broadcast shape of the index arrays, for every family.

    Evaluates b + axial*F1 + (phi*a2)*F2 + (phi*a3)*F3 + (phi*a4)*F4 (lam = +-1,
    trig in math once per key) or b + a2*F2 + a3*F3 + a4*F4 (lam = 0, a from
    _null_pattern) with the cache rows at s_keys, elementwise in that order (the
    same IEEE results as scalar arithmetic), gathering one basis vector at a time.
    rows: the cache rows at s_keys, if the caller has gathered them already.
    """
    rows = cache.rows(s_keys) if rows is None else rows
    s_at, t_at, w_at = np.broadcast_arrays(s_at, t_at, w_at)
    basis = rows["basis"].transpose(1, 0, 2)        # (5, len(s_keys), 4)
    with np.errstate(all="ignore"):     # overflow gives inf or nan, which callers check for
        if config.lam == 0:
            terms = _null_pattern(config, cache.a_fns, s_keys, s_at, t_keys, t_at, w_keys, w_at)
        else:
            axial, phi = rows["axial"][s_at], rows["phi"][s_at]
            et, ot, ew, ow = _even_odd_at(config.j, t_keys, t_at, w_keys, w_at)
            a = _place(config.j, et, ot, *(ew, ow)[::config.variant.sign])
            terms = (axial, phi * a[0], phi * a[1], phi * a[2])
        out, term = basis[0][s_at], np.empty(s_at.shape + (4,))
        for vector, coeff in zip(basis[5 - len(terms):], terms):      # lam = 0: no F1 term
            np.take(vector, s_at, axis=0, out=term)
            term *= coeff[..., None]
            out += term
        return out


def canal_points(curve: CurveSpec, config: CanalConfig, s, t, w,
                 cache: PointMapCache | None = None) -> np.ndarray:
    """Surface points at aligned sequences of s, t, w values: an (n, 4) array,
    _points_at over the distinct values of each sequence."""
    s, t, w = list(s), list(t), list(w)
    if not len(s) == len(t) == len(w):
        raise ValueError(f"s, t, w must align, got {len(s)}, {len(t)}, {len(w)} values")
    return _points_at(config, cache or PointMapCache(curve, config),
                      *_distinct(s), *_distinct(t), *_distinct(w))


def _points_at(config: CanalConfig, cache: PointMapCache, s_keys, s_at, t_keys, t_at,
               w_keys, w_at) -> np.ndarray:
    """indexed_points for 1-D index sequences, an (n, 4) array checked finite."""
    if not len(s_at):
        return np.empty((0, 4))
    out = indexed_points(config, cache, s_keys, s_at, t_keys, t_at, w_keys, w_at)
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        s, t, w = s_keys[s_at[k]], t_keys[t_at[k]], w_keys[w_at[k]]
        raise DomainError(f"non-finite surface point at s={s!r}, t={t!r}, w={w!r}")
    return out


def canal_point(curve: CurveSpec, config: CanalConfig, s: float, t: float,
                w: float) -> Vec4:
    """One surface point: canal_points on a single node, as a Vec4."""
    return Vec4(*canal_points(curve, config, (s,), (t,), (w,))[0].tolist())


_FREE_SLOTS = {2: (3, 4), 3: (2, 4), 4: (2, 3)}


def _null_pattern(config: CanalConfig, fns, s_keys, s_at, t_keys, t_at, w_keys, w_at):
    """(a2, a3, a4) at the nodes, arrays over the index shape: the free
    a-functions fns in the slots of _FREE_SLOTS[j] and a_j = sigma * hypot of
    them. fns run in one ex.over pass, else in scalar calls node by node, so
    the first failing node raises its error; so does the first whose sum
    eps_i a_i^2 exceeds 1e-9 of its scale (NullConditionViolatedError). Runs
    under indexed_points' errstate: an inf square makes no error."""
    at = [np.ravel(x) for x in (s_at, t_at, w_at)]
    table = ex.over(fns, *(np.asarray(keys, dtype=float)[i]
                           for keys, i in zip((s_keys, t_keys, w_keys), at)))
    if table is None:
        table = np.array([[fn(s_keys[i], t_keys[k], w_keys[m]) for fn in fns]
                          for i, k, m in zip(*(x.tolist() for x in at))]).reshape(-1, len(fns)).T
    first, second = table
    aj = config.sigma * np.array(list(map(math.hypot, first.tolist(), second.tolist())))
    sq = [x * x for x in (aj, first, second)]
    residual, tol = -sq[0] + (sq[1] + sq[2]), 1e-9 * (1.0 + (sq[0] + sq[1] + sq[2]))
    bad = np.abs(residual) > tol
    if bad.any():
        k = int(np.argmax(bad))
        raise NullConditionViolatedError(
            f"sum eps_i a_i^2 = {residual[k]:.3g} (tolerance {tol[k]:.3g})")
    coeff = {config.j: aj, **dict(zip(_FREE_SLOTS[config.j], (first, second)))}
    return tuple(coeff[i].reshape(np.shape(s_at)) for i in (2, 3, 4))


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


def validate_config(curve: CurveSpec, config: CanalConfig) -> AdmissibilityReport:
    """Report-valued admissibility sweep: frame type, radius, variant, lam rules."""
    reasons = []

    rep = curve.verify_unit_speed(ADMISSIBILITY_SAMPLES)
    if not rep.passed:
        reasons.append(f"curve is not unit speed (deviation {rep.max_deviation:.3g})")

    try:
        j_curve = curve.frame(0.5 * (curve.domain[0] + curve.domain[1])).frame_type
        if j_curve != config.j:
            reasons.append(f"frame type mismatch: curve has j = {j_curve}, config j = {config.j}")
    except CanalError as exc:  # degenerate frames reported, not raised
        reasons.append(f"frame construction failed: {exc}")

    if config.lam == 0:
        return AdmissibilityReport(not reasons, tuple(reasons))

    r_min = min(r for (r,) in config.radius.derived.values(curve.sweep(ADMISSIBILITY_SAMPLES), 0))
    if r_min <= 0:
        reasons.append(f"radius must stay positive (min {r_min:.6g})")

    try:
        variant = resolve_variant(curve, config.j, config.lam, config.radius)
        if variant is not config.variant:
            reasons.append(
                f"declared variant {config.variant.value!r} but r'^2 - lam*eps1 "
                f"selects {variant.value!r}")
    except InadmissibleConfigError as exc:
        reasons.append(str(exc))

    return AdmissibilityReport(not reasons, tuple(reasons))


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


class _Vec4View(Sequence):
    """Read-only Vec4 items of an (n, 4) array, built on access; len() builds none."""

    def __init__(self, coords: np.ndarray):
        self._coords = coords

    def __len__(self) -> int:
        return len(self._coords)

    def __getitem__(self, k: int) -> Vec4:
        return Vec4(*self._coords[k].tolist())


class SurfacePatch:
    """Sampled (s,t,w) lattice of canal points; the per-s rows are its cache's."""

    def __init__(self, curve, config, grid, coords, degenerate, cache=None):
        self.curve = curve
        self.config = config
        self.grid = grid
        self.coords = coords            # (n, 4) float64, flat row-major (s, t, w)
        self.coords.flags.writeable = False
        self.degenerate = degenerate    # frozenset of flat indices
        self.cache = cache or PointMapCache(curve, config)   # sample_grid's, or a new one

    @property
    def frames(self) -> tuple[FrenetFrame, ...]:
        """frame(s) at each s value, built from the cache rows on access."""
        eps, rows = frame_signs(self.config.j), self.cache.rows(self.grid.s_values)
        return tuple(FrenetFrame(tuple(map(tuple, F)), eps, *k) for F, k in
                     zip(rows["basis"][:, 1:].tolist(), rows[["k1", "k2", "k3"]].tolist()))

    @property
    def points(self) -> Sequence[Vec4]:
        """The points as Vec4s, in the order of coords."""
        return _Vec4View(self.coords)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.grid.s_values), len(self.grid.t_values), len(self.grid.w_values))

    def nodes(self):
        """Yield (i, j, k, s, t, w) of the non-degenerate nodes."""
        s_keys, i, t_keys, j, w_keys, k = self.node_keys()
        for a, b, c in zip(i.tolist(), j.tolist(), k.tolist()):
            yield a, b, c, s_keys[a], t_keys[b], w_keys[c]

    def node_keys(self):
        """(s_keys, s_at, t_keys, t_at, w_keys, w_at): the grid axes and each
        non-degenerate node's index on them (int arrays), in node order."""
        ns, nt, nw = self.shape
        keep = np.ones(ns * nt * nw, dtype=bool)
        keep[list(self.degenerate)] = False
        flat = np.flatnonzero(keep)
        return (self.grid.s_values, flat // (nt * nw), self.grid.t_values, flat // nw % nt,
                self.grid.w_values, flat % nw)

    def max_sphere_residual(self) -> float:
        """max |<P-b, P-b> - lam*r^2| over all nodes (lam = 0: |<P-b, P-b>|),
        with b and r from the cache rows."""
        ns, nt, nw = self.shape
        rows = self.cache.rows(self.grid.s_values)
        target = [self.config.lam * _power(r, 2, "r^2 at s={!r} (r = {:.6g})", s, r)
                  for s, r in zip(self.grid.s_values, rows["r"].tolist())]
        with np.errstate(all="ignore"):     # overflow gives inf or nan, which no tolerance passes
            d = self.coords.reshape(ns, nt * nw, 4) - rows["basis"][:, None, 0]
            return float(np.abs(inner(d, d) - np.reshape(target, (ns, 1))).max(initial=0.0))


def degenerate_nodes(config: CanalConfig, grid: GridSpec) -> frozenset[int]:
    """Flat indices of the grid nodes where the metric degeneracy factor
    |A| < DEGENERATE_A_TOL (none for lam = 0): the nodes sample_grid flags and
    the patch reader expects a document to list."""
    nw = len(grid.w_values)
    n = len(grid.s_values) * len(grid.t_values) * nw
    flagged = [k for k, w in enumerate(grid.w_values) if config.lam != 0
               and abs(degeneracy_factor(config.j, config.variant, w)) < DEGENERATE_A_TOL]
    return frozenset(i for k in flagged for i in range(k, n, nw))


def sample_grid(curve: CurveSpec, config: CanalConfig, grid: GridSpec) -> SurfacePatch:
    """Evaluate the full lattice: the PointMapCache rows in s order, then one
    point-map call over all nodes. A row that fails (frame, radius, variant)
    raises only after the points of the earlier rows are checked finite.

    Nodes where the metric degeneracy factor |A| < 1e-6 are built but flagged
    (curvature evaluation skips them).
    """
    s_vals, t_vals, w_vals = grid.s_values, grid.t_values, grid.w_values
    nt, nw = len(t_vals), len(w_vals)
    cache = PointMapCache(curve, config)

    def lattice(ns):
        """The points of the first ns s rows."""
        return _points_at(config, cache, s_vals[:ns], np.repeat(np.arange(ns), nt * nw),
                          t_vals, np.tile(np.repeat(np.arange(nt), nw), ns),
                          w_vals, np.tile(np.arange(nw), ns * nt))

    cache.fill(s_vals)
    for ns, error in enumerate(cache.take(s_vals)[1]):
        if error:
            lattice(ns)
            raise error
    return SurfacePatch(curve, config, grid, lattice(len(s_vals)), degenerate_nodes(config, grid),
                        cache)
