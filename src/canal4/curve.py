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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import (CanalError, DomainError, FrameDegenerateError, NonUnitSpeedError,
                     NullResidualError, OutOfDomainError)
from .minkowski import TAU_NULL, Vec4, inner, norm, triple_cross

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


# Frames are built and kept on 4-tuples of floats.

def _euclid_sq(v) -> float:
    return v[0] * v[0] + v[1] * v[1] + v[2] * v[2] + v[3] * v[3]


def _is_null_residual(v) -> bool:
    return abs(inner(v, v)) <= TAU_NULL * max(1.0, _euclid_sq(v))


def _null_rows(v, q):
    """_is_null_residual of 4-tuples of column arrays, with q = inner(v, v);
    fmax, as max(1.0, x), keeps 1.0 against a nan."""
    return abs(q) <= TAU_NULL * np.fmax(1.0, _euclid_sq(v))


def _scaled(v, a):      # v * a
    return (v[0] * a, v[1] * a, v[2] * a, v[3] * a)


def _minus(u, a, v):    # u - a * v
    return (u[0] - v[0] * a, u[1] - v[1] * a, u[2] - v[2] * a, u[3] - v[3] * a)


def _fourth(f1, f2, f3):
    """(F4, eps4): the unit triple cross product of F1, F2, F3, signed so
    that det(F1, F2, F3, F4) = +1, and its sign."""
    cross = triple_cross(f1, f2, f3)
    e4 = 1 if inner(cross, cross) > 0 else -1
    return _scaled(cross, -e4 / norm(cross)), e4


def _tangent_sign(f1, at: str) -> int:
    """eps1 = sign <F1,F1> of the tangent F1 = b'; raises unless |<b',b'>| = 1
    (a nan fails too) and F1 is not null."""
    q1 = inner(f1, f1)
    if not abs(abs(q1) - 1.0) <= 10 * TOL_UNIT:
        raise NonUnitSpeedError(f"<b',b'> = {q1:.6g}{at}; curve is not unit speed")
    if _is_null_residual(f1):
        raise NullResidualError(f"tangent is null{at}")
    return 1 if q1 > 0 else -1


def _checked_frame(tetrad, eps, ks, at: str) -> FrenetFrame:
    """The FrenetFrame once every component and curvature is finite (else a
    DomainError) and eps has exactly one -1 (else a NullResidualError)."""
    if not all(map(math.isfinite, itertools.chain(*tetrad, ks))):
        raise DomainError(f"non-finite frame component or curvature{at}")
    if eps.count(-1) != 1:
        raise NullResidualError(f"frame signs {eps}{at}: not a Lorentz tetrad")
    return FrenetFrame(tetrad, eps, *ks)


class CurveSpec:
    """An analytic curve s -> (x1(s), x2(s), x3(s), x4(s)) on a closed interval.

    The curve is expected to be unit speed (|<b',b'>| = 1); this is validated
    where it matters (frenet, verify_unit_speed), never silently fixed by
    reparametrization.
    """

    def __init__(self, components, domain):
        comps = tuple(ex.parse(c) if isinstance(c, str) else c for c in components)
        if len(comps) != 4:
            raise ValueError("a curve needs exactly 4 components")
        smin, smax = float(domain[0]), float(domain[1])
        if not smin < smax:
            raise ValueError(f"empty domain [{smin}, {smax}]")
        self.components = comps
        self.domain = (smin, smax)
        # compiled component derivatives, order 0..4, built lazily per order
        self._compiled: dict[int, tuple] = {}
        self._exprs: dict[int, tuple] = {0: comps}
        # constant frame of a straight curve, set by the first k1 = 0 frame
        self._line_frame: FrenetFrame | None = None

    # -- evaluation ---------------------------------------------------------

    def _fns(self, order):
        """The compiled components of b^(order); each order is compiled once."""
        if order not in self._compiled:
            if order not in self._exprs:
                self._fns(order - 1)
                self._exprs[order] = tuple(ex.differentiate(c) for c in self._exprs[order - 1])
            self._compiled[order] = tuple(ex.compile_expr(c, name=f"x{i}" + "'" * order)
                                          for i, c in enumerate(self._exprs[order], 1))
        return self._compiled[order]

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
        x1, x2, x3, x4 = self._fns(order)
        return (x1(s), x2(s), x3(s), x4(s))

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
        out = ex.over([f for k in orders for f in self._fns(k)], s)
        return None if out is None else out.reshape(len(orders), 4, -1).transpose(0, 2, 1)

    # -- frames -------------------------------------------------------------

    def frenet(self, s: float) -> FrenetFrame:
        """Moving frame at s; requires k1, k2 > TAU_K and non-null residuals."""
        f1, d2, d3, d4 = (self.derivative(s, k) for k in range(1, 5))
        e1 = _tangent_sign(f1, f" at s={s!r}")

        rho2 = _minus(d2, e1 * inner(d2, f1), f1)
        if _is_null_residual(rho2):
            if norm(rho2) <= TAU_K:
                raise FrameDegenerateError(f"k1 vanishes at s={s!r}")
            raise NullResidualError(f"principal normal direction is null at s={s!r}")
        k1 = norm(rho2)
        if k1 <= TAU_K:
            raise FrameDegenerateError(f"k1 = {k1:.3g} <= {TAU_K:g} at s={s!r}")
        f2 = _scaled(rho2, 1.0 / k1)
        e2 = 1 if inner(f2, f2) > 0 else -1

        rho3 = _minus(_minus(d3, e1 * inner(d3, f1), f1), e2 * inner(d3, f2), f2)
        if _is_null_residual(rho3):
            if norm(rho3) / k1 <= TAU_K:
                raise FrameDegenerateError(f"k2 vanishes at s={s!r}")
            raise NullResidualError(f"binormal direction is null at s={s!r}")
        k2 = norm(rho3) / k1
        if k2 <= TAU_K:
            raise FrameDegenerateError(f"k2 = {k2:.3g} <= {TAU_K:g} at s={s!r}")
        f3 = _scaled(rho3, 1.0 / norm(rho3))
        e3 = 1 if inner(f3, f3) > 0 else -1

        f4, e4 = _fourth(f1, f2, f3)
        k3 = e4 * inner(d4, f4) / (k1 * k2)
        return _checked_frame((f1, f2, f3, f4), (e1, e2, e3, e4), (k1, k2, k3), f" at s={s!r}")

    def frames(self, s_values):
        """(frames, tetrads): frame(s) at each s, and F1..F4 as an (n, 4, 4)
        array, from frenet's operations in its order on 4-tuples of column
        arrays. A row that fails a check of frenet's gets None (frame(s) then
        raises its error), or the line frame at k1 = 0 on a line."""
        d = self.derivatives(s_values, 1, 2, 3, 4)
        if d is None:
            return [None] * len(s_values), None
        f1, d2, d3, d4 = (tuple(x.T) for x in d)
        with np.errstate(all="ignore"):     # a row that overflows fails a check
            q = inner(f1, f1)
            ok = (abs(abs(q) - 1.0) <= 10 * TOL_UNIT) & ~_null_rows(f1, q)
            e1 = np.where(q > 0, 1, -1)
            rho2 = _minus(d2, e1 * inner(d2, f1), f1)
            q = inner(rho2, rho2)
            k1 = np.sqrt(abs(q))
            flat = ok & (k1 <= TAU_K)       # frenet's FrameDegenerateError at k1
            ok &= ~_null_rows(rho2, q) & (k1 > TAU_K)
            f2 = _scaled(rho2, 1.0 / k1)
            e2 = np.where(inner(f2, f2) > 0, 1, -1)
            rho3 = _minus(_minus(d3, e1 * inner(d3, f1), f1), e2 * inner(d3, f2), f2)
            q = inner(rho3, rho3)
            k2 = np.sqrt(abs(q)) / k1
            ok &= ~_null_rows(rho3, q) & (k2 > TAU_K)
            f3 = _scaled(rho3, 1.0 / np.sqrt(abs(q)))
            e3 = np.where(inner(f3, f3) > 0, 1, -1)
            cross = triple_cross(f1, f2, f3)
            q = inner(cross, cross)
            e4 = np.where(q > 0, 1, -1)
            f4 = _scaled(cross, -e4 / np.sqrt(abs(q)))
            k3 = e4 * inner(d4, f4) / (k1 * k2)
        table = np.array((*f1, *f2, *f3, *f4, k1, k2, k3)).T
        ok &= np.isfinite(table).all(axis=1) & (e1 + e2 + e3 + e4 == 2)    # one eps = -1
        if flat.any() and self._line_frame is None:
            try:
                if self.is_straight():
                    self._line_frame = self.frame_for_line()
            except CanalError:              # frame(s) raises it
                pass
        out = [self._line_frame if f else None for f in flat.tolist()]
        if self._line_frame is not None:
            table[flat, :16] = sum(self._line_frame.tetrad, ())
        eps = np.array((e1, e2, e3, e4)).T[ok].tolist()
        for i, x, e in zip(np.flatnonzero(ok).tolist(), table[ok].tolist(), eps):
            out[i] = FrenetFrame((tuple(x[:4]), tuple(x[4:8]), tuple(x[8:12]), tuple(x[12:16])),
                                 tuple(e), *x[16:])
        return out, table[:, :16].reshape(-1, 4, 4)

    def is_straight(self) -> bool:
        """True when b'' vanishes across the domain (within TAU_K) at 16 s values."""
        sweep = self.sweep(16)
        d2 = self.derivatives(sweep, 2)
        rows = d2[0].tolist() if d2 is not None else (self.derivative(s, 2) for s in sweep)
        return not any(math.sqrt(_euclid_sq(d)) > TAU_K for d in rows)

    def frame_for_line(self) -> FrenetFrame:
        """Constant frame for a straight (k1 = 0) non-null curve, with the
        tangent at the middle of the domain.

        F2..F4 are completed from the canonical basis by Gram-Schmidt in the
        order e1, e2, e3, e4, skipping near-parallel and null residuals.
        """
        s0 = 0.5 * (self.domain[0] + self.domain[1])
        frame = [self.derivative(s0, 1)]
        eps = [_tangent_sign(frame[0], f" at s={s0!r}")]
        for rho in _AXES:
            if len(frame) == 3:
                break
            for f, e in zip(frame, eps):
                rho = _minus(rho, e * inner(rho, f), f)
            if _euclid_sq(rho) < 1e-12 or _is_null_residual(rho):
                continue
            rho = _scaled(rho, 1.0 / norm(rho))
            frame.append(rho)
            eps.append(1 if inner(rho, rho) > 0 else -1)
        if len(frame) != 3:
            raise NullResidualError("could not complete a non-null frame for the line")
        f4, e4 = _fourth(*frame)
        return _checked_frame((*frame, f4), (*eps, e4), (0.0, 0.0, 0.0), f" at s={s0!r}")

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
        sweep = self.sweep(n_samples)
        d1 = self.derivatives(sweep, 1)     # or the scalar calls, which raise the first error
        d1 = d1[0] if d1 is not None else np.array([self.derivative(s, 1) for s in sweep])
        with np.errstate(all="ignore"):
            gap = abs(abs(inner(d1, d1)) - 1.0)
        # nan: the speed overflows
        worst = max([0.0, *np.where(np.isnan(gap), math.inf, gap).tolist()])
        return UnitSpeedReport(worst, TOL_UNIT, worst <= TOL_UNIT, n_samples)
