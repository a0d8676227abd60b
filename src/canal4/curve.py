"""Unit-speed non-null curves in E_1^4 and their moving frames.

The frame (F1, F2, F3, F4) is built by Minkowski Gram-Schmidt on the first
three derivatives; F4 completes the tetrad with det(F1,F2,F3,F4) = +1, which
fixes the sign of k3. Curvatures: k1 = eps2<F1',F2> > 0, k2 = eps3<F2',F3> > 0
by construction, k3 = eps4<F3',F4> signed. The frame vectors satisfy

    F1' = k1 F2
    F2' = eps3 eps4 k1 F1 + k2 F3
    F3' = eps1 eps4 k2 F2 + k3 F4
    F4' = eps1 eps2 k3 F3
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import expr as ex
from .errors import (CanalError, DomainError, FailedRows, FrameDegenerateError, NonUnitSpeedError,
                     NullResidualError, OutOfDomainError, check)
from .minkowski import TAU_NULL, Vec4, inner, triple_cross

TAU_K = 1e-8            # curvature degeneracy threshold
TOL_UNIT = 1e-10        # unit speed: max | |<b',b'>| - 1 |
MAX_DERIVATIVE_ORDER = 4
# the canonical basis e1..e4, which completes the frame of a straight line
_AXES = tuple(tuple(float(i == k) for i in range(4)) for k in range(4))
# How far finite-difference stencils centered on a domain end reach past it:
# 2 * curvature.FD_STEP2 and 2 * analysis.WEINGARTEN_FD_STEP.
STENCIL_REACH = 2e-3


@dataclass(frozen=True)
class FrenetFrame:
    """Orthonormal tetrad with signs and curvatures at one parameter value.
    tetrad holds F1..F4, each a 4-tuple of floats."""

    tetrad: tuple[tuple[float, float, float, float], ...]
    eps: tuple[int, int, int, int]
    k1: float
    k2: float
    k3: float

    @property
    def frame_type(self) -> int:
        """Index j of the unique timelike frame vector (eps_j = -1)."""
        return self.eps.index(-1) + 1

    @property
    def vectors(self) -> tuple[Vec4, Vec4, Vec4, Vec4]:
        """F1..F4 as Vec4s, built on access."""
        return tuple(Vec4(*f) for f in self.tetrad)


@dataclass(frozen=True)
class UnitSpeedReport:
    max_deviation: float
    tolerance: float
    passed: bool
    n_samples: int


# Frames are built on 4-tuples of floats or of column arrays (a row per s) by the
# same code, with these operations (numpy's sqrt and fmax round as math's do).
_FLOATS = SimpleNamespace(sqrt=math.sqrt, fmax=max, not_=lambda x: not x,
                          sign=lambda q: 1 if q > 0 else -1,
                          finite=lambda xs: all(map(math.isfinite, xs)))
_ARRAYS = SimpleNamespace(sqrt=np.sqrt, fmax=np.fmax, not_=np.logical_not,   # fmax(1, nan) = 1
                          sign=lambda q: np.where(q > 0, 1, -1),
                          finite=lambda xs: np.isfinite(xs).all(axis=0))


def _euclid_sq(v) -> float:
    return v[0] * v[0] + v[1] * v[1] + v[2] * v[2] + v[3] * v[3]


def _square(v, ops):
    """(<v,v>, sqrt |<v,v>|, whether v counts as null: |<v,v>| <= TAU_NULL * max(1, |v|^2))."""
    q = inner(v, v)
    return q, ops.sqrt(abs(q)), abs(q) <= TAU_NULL * ops.fmax(1.0, _euclid_sq(v))


def _scaled(v, a):      # v * a
    return (v[0] * a, v[1] * a, v[2] * a, v[3] * a)


def _minus(u, a, v):    # u - a * v
    return (u[0] - v[0] * a, u[1] - v[1] * a, u[2] - v[2] * a, u[3] - v[3] * a)


def _tangent_sign(f1, at, ops, check):
    """eps1 = sign <F1,F1>, once |<b',b'>| = 1 (a nan fails) and F1 = b' is not null."""
    q, _, null = _square(f1, ops)
    check(ops.not_(abs(abs(q) - 1.0) <= 10 * TOL_UNIT), NonUnitSpeedError,
          lambda: f"<b',b'> = {q:.6g}{at}; curve is not unit speed")
    check(null, NullResidualError, lambda: f"tangent is null{at}")
    return ops.sign(q)


def _fourth(f1, f2, f3, ops):
    """(F4, eps4): the unit triple cross product of F1, F2, F3, signed so
    that det(F1, F2, F3, F4) = +1, and its sign."""
    cross = triple_cross(f1, f2, f3)
    q = inner(cross, cross)
    e4 = ops.sign(q)
    return _scaled(cross, -e4 / ops.sqrt(abs(q))), e4


def _checked(vectors, eps, ks, at, ops, check):
    """(vectors, eps, *ks), all finite (else a DomainError), eps with one -1."""
    check(ops.not_(ops.finite((*sum(vectors, ()), *ks))), DomainError,
          lambda: f"non-finite frame component or curvature{at}")
    check(eps[0] + eps[1] + eps[2] + eps[3] != 2, NullResidualError,
          lambda: f"frame signs {eps}{at}: not a Lorentz tetrad")
    return (vectors, eps, *ks)


def _gram_schmidt(f1, d2, d3, d4, at, ops, check):
    """(F1..F4, eps, k1, k2, k3) of Gram-Schmidt on F1 = b', b'' .. b^(4). A k1 <=
    TAU_K has |<rho2,rho2>| <= 1e-16, a null residual, so it fails as "k1 vanishes"."""
    e1 = _tangent_sign(f1, at, ops, check)

    rho2 = _minus(d2, e1 * inner(d2, f1), f1)
    _, k1, null = _square(rho2, ops)
    check(null & (k1 <= TAU_K), FrameDegenerateError, lambda: f"k1 vanishes{at}")
    check(null, NullResidualError, lambda: f"principal normal direction is null{at}")
    f2 = _scaled(rho2, 1.0 / k1)
    e2 = ops.sign(inner(f2, f2))

    rho3 = _minus(_minus(d3, e1 * inner(d3, f1), f1), e2 * inner(d3, f2), f2)
    _, n3, null = _square(rho3, ops)
    k2 = n3 / k1
    check(null & (k2 <= TAU_K), FrameDegenerateError, lambda: f"k2 vanishes{at}")
    check(null, NullResidualError, lambda: f"binormal direction is null{at}")
    check(k2 <= TAU_K, FrameDegenerateError, lambda: f"k2 = {k2:.3g} <= {TAU_K:g}{at}")
    f3 = _scaled(rho3, 1.0 / n3)
    e3 = ops.sign(inner(f3, f3))

    f4, e4 = _fourth(f1, f2, f3, ops)
    k3 = e4 * inner(d4, f4) / (k1 * k2)
    return _checked((f1, f2, f3, f4), (e1, e2, e3, e4), (k1, k2, k3), at, ops, check)


class CurveSpec:
    """An analytic curve s -> (x1(s), x2(s), x3(s), x4(s)) on a closed interval.

    The curve is expected to be unit speed (|<b',b'>| = 1); this is validated
    where it matters (frenet, verify_unit_speed), never silently fixed by
    reparametrization. The components are the folded expressions of derived:
    text is parsed into the table that derives it, and a tree is folded, as
    parse folds text; b .. b'''' are derived and compiled together, once.
    """

    def __init__(self, components, domain):
        self.derived = ex.Derived(("x1", "x2", "x3", "x4"), components, MAX_DERIVATIVE_ORDER)
        self.components = self.derived.exprs
        if len(self.components) != 4:
            raise ValueError("a curve needs exactly 4 components")
        smin, smax = float(domain[0]), float(domain[1])
        if not smin < smax:
            raise ValueError(f"empty domain [{smin}, {smax}]")
        self.domain = (smin, smax)
        # constant frame of a straight curve, set by the first k1 = 0 frame
        self._line_frame: FrenetFrame | None = None
        self.max_k1: float | None = None        # analysis._max_k1's sweep, once swept

    # -- evaluation ---------------------------------------------------------

    def _check_domain(self, s):
        # analytic components extend smoothly; allow an overhang so FD
        # stencils centered on the domain boundary stay evaluable
        smin, smax = self.domain
        overhang = max(1e-3 * (smax - smin), STENCIL_REACH) + 1e-12
        if not smin - overhang <= s <= smax + overhang:
            raise OutOfDomainError(f"s={s!r} outside domain [{smin}, {smax}]")

    def sweep(self, n: int) -> list[float]:
        """n evenly spaced s values from smin to smax, both ends included."""
        smin, smax = self.domain
        return [smin + (smax - smin) * i / (n - 1) for i in range(n)]

    def derivative(self, s: float, order: int) -> tuple[float, float, float, float]:
        """b^(order)(s), order 0 (the point b(s)) to 4, as 4 floats from the
        compiled symbolic derivatives; s must lie in the domain."""
        if not 0 <= order <= MAX_DERIVATIVE_ORDER:
            raise ValueError(f"order must be 0..{MAX_DERIVATIVE_ORDER}")
        self._check_domain(s)
        return self.derived.at(s)(order)

    def derivatives(self, s_values, *orders: int):
        """b^(order) of the orders at each s in one array pass, an (orders, n,
        4) array with the bits of derivative(s, order); None where the pass
        cannot vouch for every s (see expr.over), and derivative decides."""
        s = np.array(s_values, dtype=float)
        try:
            for x in (s.min(), s.max()):        # a nan is both
                self._check_domain(x)
        except OutOfDomainError:
            return None
        out = self.derived.array(s, *orders)
        return None if out is None else out.transpose(0, 2, 1)

    def swept(self, n: int, order: int) -> np.ndarray:
        """b^(order) at sweep(n), (n, 4): derivatives' array pass, else derivative's calls."""
        sweep = self.sweep(n)
        d = self.derivatives(sweep, order)
        return d[0] if d is not None else np.array([self.derivative(s, order) for s in sweep])

    # -- frames -------------------------------------------------------------

    def frenet(self, s: float) -> FrenetFrame:
        """Moving frame at s; requires k1, k2 > TAU_K and non-null residuals."""
        self._check_domain(s)
        return FrenetFrame(*_gram_schmidt(*map(self.derived.at(s), (1, 2, 3, 4)), f" at s={s!r}",
                                          _FLOATS, check))

    def frames(self, s_values):
        """(basis, k, eps, ok): b and F1..F4, k1..k3 and eps1..eps4 of frame(s) at
        each s as (n, 5, 4), (n, 3) and (n, 4) arrays, from frenet's Gram-Schmidt
        on 4-tuples of column arrays; ok marks the rows they hold: none where a
        check of frenet's fails (frame(s) raises), the line frame's where
        frame(s) falls back to it. None where the derivatives have no array pass."""
        d = self.derivatives(s_values, 0, 1, 2, 3, 4)
        if d is None:
            return None
        failed = FailedRows(len(s_values))
        with np.errstate(all="ignore"):     # a row that overflows fails a check
            tetrad, eps, *ks = _gram_schmidt(*[tuple(x.T) for x in d[1:]], "", _ARRAYS, failed)
        basis = np.array([*d[0].T, *sum(tetrad, ())]).T.reshape(-1, 5, 4)
        ks, eps = np.array(ks).T, np.array(eps).T
        bad, flat = failed.masks()          # flat: where frame(s) tries the line frame
        if flat.any() and self._line_frame is None:
            try:
                self.frame(s_values[int(flat.argmax())])    # sets it on a straight curve
            except CanalError:                  # frame(s) raises it
                pass
        line = self._line_frame
        if line is not None:
            basis[flat, 1:], ks[flat], eps[flat] = line.tetrad, (line.k1, line.k2, line.k3), line.eps
        return basis, ks, eps, ~bad | (flat & (line is not None))

    def is_straight(self) -> bool:
        """True when b'' vanishes across the domain (within TAU_K) at 16 s values."""
        return not any(math.sqrt(_euclid_sq(d)) > TAU_K
                       for d in self.derived.values(self.sweep(16), 2))

    def frame_for_line(self) -> FrenetFrame:
        """Constant frame for a straight (k1 = 0) non-null curve, with the
        tangent at the middle of the domain.

        F2..F4 are completed from the canonical basis by Gram-Schmidt in the
        order e1, e2, e3, e4, skipping near-parallel and null residuals.
        """
        s0 = 0.5 * (self.domain[0] + self.domain[1])
        at = f" at s={s0!r}"
        frame = [self.derivative(s0, 1)]
        eps = [_tangent_sign(frame[0], at, _FLOATS, check)]
        for rho in _AXES:
            if len(frame) == 3:
                break
            for f, e in zip(frame, eps):
                rho = _minus(rho, e * inner(rho, f), f)
            _, size, null = _square(rho, _FLOATS)
            if _euclid_sq(rho) < 1e-12 or null:
                continue
            frame.append(_scaled(rho, 1.0 / size))
            eps.append(_FLOATS.sign(inner(frame[-1], frame[-1])))
        if len(frame) != 3:
            raise NullResidualError("could not complete a non-null frame for the line")
        f4, e4 = _fourth(*frame, _FLOATS)
        return FrenetFrame(*_checked((*frame, f4), (*eps, e4), (0.0, 0.0, 0.0), at, _FLOATS,
                                     check))

    def frame(self, s: float) -> FrenetFrame:
        """frenet(s), falling back to the constant line frame when k1 = 0."""
        try:
            return self.frenet(s)
        except FrameDegenerateError:
            if self._line_frame is None:
                if not self.is_straight():
                    raise
                self._line_frame = self.frame_for_line()
            return self._line_frame

    def verify_unit_speed(self, n_samples: int = 100) -> UnitSpeedReport:
        """Report max | |<b',b'>| - 1 | over an even sample of the domain."""
        if n_samples < 2:
            raise ValueError("n_samples must be >= 2")
        d1 = self.swept(n_samples, 1)
        with np.errstate(all="ignore"):
            gap = abs(abs(inner(d1, d1)) - 1.0)
        # nan: the speed overflows
        worst = max([0.0, *np.where(np.isnan(gap), math.inf, gap).tolist()])
        return UnitSpeedReport(worst, TOL_UNIT, worst <= TOL_UNIT, n_samples)
