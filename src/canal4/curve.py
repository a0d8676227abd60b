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

from . import expr as ex
from .errors import (FrameDegenerateError, NonUnitSpeedError, NullResidualError,
                     OutOfDomainError)
from .minkowski import (E1, E2, E3, E4, TAU_NULL, Vec4, inner, norm,
                        triple_cross)

TAU_K = 1e-8            # curvature degeneracy threshold
TOL_UNIT = 1e-10        # unit speed: max | |<b',b'>| - 1 |
MAX_DERIVATIVE_ORDER = 4
# How far finite-difference stencils centered on a domain end reach past it:
# 2 * curvature.FD_STEP2 and 2 * analysis.WEINGARTEN_FD_STEP.
STENCIL_REACH = 2e-3


@dataclass(frozen=True)
class FrenetFrame:
    """Orthonormal tetrad with signs and curvatures at one parameter value."""

    f1: Vec4
    f2: Vec4
    f3: Vec4
    f4: Vec4
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
        return (self.f1, self.f2, self.f3, self.f4)


@dataclass(frozen=True)
class UnitSpeedReport:
    max_deviation: float
    tolerance: float
    passed: bool
    n_samples: int


# Frames are built on 4-tuples of floats; only the finished vectors become Vec4s.

def _euclid_sq(v) -> float:
    return v[0] * v[0] + v[1] * v[1] + v[2] * v[2] + v[3] * v[3]


def _is_null_residual(v) -> bool:
    return abs(inner(v, v)) <= TAU_NULL * max(1.0, _euclid_sq(v))


def _scaled(v, a):      # v * a
    return (v[0] * a, v[1] * a, v[2] * a, v[3] * a)


def _minus(u, a, v):    # u - a * v, as Vec4 arithmetic rounds it
    return (u[0] - v[0] * a, u[1] - v[1] * a, u[2] - v[2] * a, u[3] - v[3] * a)


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
        if order not in self._compiled:
            if order not in self._exprs:
                prev = self._exprs[order - 1] if order - 1 in self._exprs else None
                if prev is None:
                    self._fns(order - 1)
                    prev = self._exprs[order - 1]
                self._exprs[order] = tuple(ex.differentiate(c) for c in prev)
            self._compiled[order] = tuple(ex.compile_expr(c, name=f"x{i}" + "'" * order)
                                          for i, c in enumerate(self._exprs[order], 1))
        return self._compiled[order]

    def _eval_order(self, s, order):
        """b^(order)(s) as 4 floats, straight from the compiled components."""
        x1, x2, x3, x4 = self._fns(order)
        return (x1(s), x2(s), x3(s), x4(s))

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

    def point(self, s: float) -> Vec4:
        self._check_domain(s)
        return Vec4(*self._eval_order(s, 0))

    def derivative(self, s: float, order: int) -> tuple[float, float, float, float]:
        """b^(order)(s) alone, as 4 floats, from the symbolic derivatives."""
        return self._orders(s, order, (order,))[0]

    def derivatives(self, s: float, order: int) -> list[Vec4]:
        """[b'(s), ..., b^(order)(s)] from the symbolic derivatives."""
        return [Vec4(*d) for d in self._orders(s, order, range(1, order + 1))]

    def _orders(self, s, order, orders):
        """b^(k)(s) for k in orders as 4-tuples, order being the highest k."""
        if not 1 <= order <= MAX_DERIVATIVE_ORDER:
            raise ValueError(f"order must be 1..{MAX_DERIVATIVE_ORDER}")
        self._check_domain(s)
        return [self._eval_order(s, k) for k in orders]

    # -- frames -------------------------------------------------------------

    def frenet(self, s: float) -> FrenetFrame:
        """Moving frame at s; requires k1, k2 > TAU_K and non-null residuals."""
        f1, d2, d3, d4 = self._orders(s, 4, (1, 2, 3, 4))
        q1 = inner(f1, f1)
        if not abs(abs(q1) - 1.0) <= 10 * TOL_UNIT:     # a nan <b',b'> fails too
            raise NonUnitSpeedError(f"<b',b'> = {q1:.6g} at s={s!r}; curve is not unit speed")
        if _is_null_residual(f1):
            raise NullResidualError(f"tangent is null at s={s!r}")
        e1 = 1 if q1 > 0 else -1

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

        cross = triple_cross(f1, f2, f3)
        e4 = 1 if inner(cross, cross) > 0 else -1
        f4 = _scaled(cross, -e4 / norm(cross))       # det(F1,F2,F3,F4) = +1
        k3 = e4 * inner(d4, f4) / (k1 * k2)

        vectors = [Vec4(*f) for f in (f1, f2, f3, f4)]
        eps = (e1, e2, e3, e4)
        if eps.count(-1) != 1:
            raise NullResidualError(f"frame signs {eps} at s={s!r}: not a Lorentz tetrad")
        return FrenetFrame(*vectors, eps, k1, k2, k3)

    def is_straight(self, n_samples: int = 16) -> bool:
        """True when b'' vanishes across the domain (within TAU_K)."""
        for s in self.sweep(n_samples):
            if math.sqrt(_euclid_sq(self.derivative(s, 2))) > TAU_K:
                return False
        return True

    def frame_for_line(self, s: float | None = None) -> FrenetFrame:
        """Constant frame for a straight (k1 = 0) non-null curve.

        F2..F4 are completed from the canonical basis by Gram-Schmidt in the
        order e1, e2, e3, e4, skipping near-parallel and null residuals.
        """
        smin, smax = self.domain
        s0 = 0.5 * (smin + smax) if s is None else s
        f1 = self.derivative(s0, 1)
        q1 = inner(f1, f1)
        if not abs(abs(q1) - 1.0) <= 10 * TOL_UNIT:     # a nan <b',b'> fails too
            raise NonUnitSpeedError(f"<b',b'> = {q1:.6g}; line is not unit speed")
        if _is_null_residual(f1):
            raise NullResidualError("line direction is null")
        frame = [f1]
        eps = [1 if q1 > 0 else -1]
        for cand in (E1, E2, E3, E4):
            if len(frame) == 3:
                break
            rho = cand.as_tuple()
            for f, e in zip(frame, eps):
                rho = _minus(rho, e * inner(rho, f), f)
            if _euclid_sq(rho) < 1e-12 or _is_null_residual(rho):
                continue
            rho = _scaled(rho, 1.0 / norm(rho))
            frame.append(rho)
            eps.append(1 if inner(rho, rho) > 0 else -1)
        if len(frame) != 3:
            raise NullResidualError("could not complete a non-null frame for the line")
        cross = triple_cross(frame[0], frame[1], frame[2])
        e4 = 1 if inner(cross, cross) > 0 else -1
        vectors = [Vec4(*f) for f in (*frame, _scaled(cross, -e4 / norm(cross)))]
        eps.append(e4)
        if tuple(eps).count(-1) != 1:
            raise NullResidualError(f"frame signs {tuple(eps)}: not a Lorentz tetrad")
        return FrenetFrame(*vectors, tuple(eps), 0.0, 0.0, 0.0)

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
        worst = 0.0
        for s in self.sweep(n_samples):
            d1 = self.derivative(s, 1)
            gap = abs(abs(inner(d1, d1)) - 1.0)
            worst = max(worst, math.inf if math.isnan(gap) else gap)    # nan: the speed overflows
        return UnitSpeedReport(worst, TOL_UNIT, worst <= TOL_UNIT, n_samples)
