"""Seeded benchmark inputs: curve families, radii, grids and CLI arguments.

Everything here is plain data (expression text, numbers, argument lists);
nothing imports canal4. The same seed always gives the same inputs. The
seed draws radius coefficients, branch signs, null-cone coefficients and
grid placements; the family list, grid sizes and round length do not
depend on it, so every seed does the same amount of work per round.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

# curve components, parameter domain and frame type j (the index of the
# timelike frame vector); k1 is zero exactly on the two straight lines
CURVES = {
    "beta1": (("2*sinh(s)", "2*cosh(s)", "sqrt(3)*cos(s)", "sqrt(3)*sin(s)"), (0.25, 3.0), 1),
    "gamma2": (("0.4*cosh(2*s)", "0.4*sinh(2*s)", "0.6*sin(s)", "-0.6*cos(s)"), (-0.5, 1.6), 2),
    "beta2": (("sqrt(3)*sinh(s)", "sqrt(3)*cosh(s)", "2*cos(s)", "2*sin(s)"), (0.25, 3.0), 3),
    "gamma4": (("0.6*cosh(s)", "0.6*sinh(s)", "0.4*sin(2*s)", "-0.4*cos(2*s)"), (0.25, 3.0), 4),
    "varying": (("sinh(s)", "(cosh(s)*cos(s) + sinh(s)*sin(s))/2",
                 "(cosh(s)*sin(s) - sinh(s)*cos(s))/2", "0"), (0.3, 2.3), 1),
    "spacelike_line": (("0", "s", "0", "0"), (0.5, 2.5), 2),
    "timelike_line": (("s", "0", "0", "0"), (0.5, 2.5), 1),
}
LINES = ("spacelike_line", "timelike_line")
EXAMPLES = ("beta1", "beta2")    # builtin examples of the CLI (--example)

# frame signs (eps1..eps4) of a tetrad whose timelike vector is F_j
EPS = {1: (-1, 1, 1, 1), 2: (1, -1, 1, 1), 3: (1, 1, -1, 1), 4: (1, 1, 1, -1)}

# the minimal-radius profile: r' = sqrt(eps1*lam + (c1/r)^(4/3)), r(s0) = r0;
# fixed on purpose (see MINIMAL_FAMILY below)
MINIMAL = {"eps1_lambda": 1, "c1": 1.0, "r0": 1.0, "sign": 1}

# Curve domains span at least 2: the numeric curvature route steps 2e-3
# past the ends of the s-range, and the curve accepts an overhang of only
# 1e-3 of its span (see the FOUND line on OutOfDomainError in CHANGES.md).

# The (t, w) values of the grid `canal verify` checks (cli._verify_grid) and
# the oracle workload's curvature grid; seeded radii are drawn so that the
# curvature denominator stays away from zero at every node of both.
VERIFY_TW = {1: ((0.35, 1.15, 2.05, 3.85, 5.35), (-1.05, -0.35, 0.45, 1.05)),
             0: ((-1.45, -0.65, 0.35, 0.85, 1.35), (-1.15, -0.45, 0.55, 1.25))}
VERIFY_S_INSET = 0.01
ORACLE_TW_J234 = (-1.2, 1.2)
# the supercritical metric degenerates at w = 0, which the program does not
# flag (see the FOUND line in CHANGES.md); its oracle grid keeps w > 0
ORACLE_W_LO_ALT = 0.3
D_FLOOR = 0.05

WIDE_NS, WIDE_NT, WIDE_NW = 2, 40, 40
TALL_NS = 180
ORACLE_GRID = (3, 3, 3)


@dataclass(frozen=True)
class Family:
    """One canal family over one curve, with everything needed to build it."""

    name: str
    curve: str
    j: int
    lam: int
    radius_kind: str            # "expr" | "constant" | "minimal" | "none"
    radius: str | None          # expression text (constant: its decimal text)
    sigma: int = 1
    variant: str = "standard"   # "standard" | "alt"
    a_free: tuple[str, str] | None = None

    @property
    def components(self):
        return CURVES[self.curve][0]

    @property
    def domain(self):
        return CURVES[self.curve][1]

    @property
    def k1_zero(self) -> bool:
        return self.curve in LINES

    @property
    def is_example(self) -> bool:
        return self.curve in EXAMPLES and self.radius == "2*s"

    @property
    def r_prime_zero(self) -> bool:
        return self.radius_kind == "constant"


def _fmt(x: float) -> str:
    return repr(round(x, 4))


def _poly_text(a: float, b: float, c: float | None) -> str:
    """'a + b*s + c*s^2' with signs folded into the operators."""
    text = _fmt(a)
    for coeff, power in ((b, "*s"), (c, "*s^2")):
        if coeff is not None:
            text += f" {'-' if coeff < 0 else '+'} {_fmt(abs(coeff))}{power}"
    return text


def _numeric_k1(curve: str, s: float) -> float:
    """|b''(s)| in the Minkowski norm, by central differences (draws only)."""
    if curve in LINES:
        return 0.0
    comps = CURVES[curve][0]
    ns = {name: getattr(math, name) for name in
          ("sin", "cos", "sinh", "cosh", "tan", "tanh", "exp", "log", "sqrt")}
    h = 1e-4
    d2 = []
    for text in comps:
        code = compile(text.replace("^", "**"), "<curve>", "eval")
        f = lambda x: eval(code, ns, {"s": x})
        d2.append((f(s + h) - 2.0 * f(s) + f(s - h)) / (h * h))
    q = -d2[0] ** 2 + d2[1] ** 2 + d2[2] ** 2 + d2[3] ** 2
    return math.sqrt(abs(q))


def family_function(j: int, t: float, w: float) -> float:
    if j == 1:
        return math.cos(t) * math.cos(w)
    if j == 2:
        return math.cosh(t) * math.cosh(w)
    if j == 3:
        return math.sinh(t) * math.cosh(w)
    return math.sinh(w)


def checked_nodes(curve: str, j: int):
    """(s, f_j) at every node of the verify grid and the oracle grid."""
    s0, s1 = CURVES[curve][1]
    ts, ws = VERIFY_TW[1 if j == 1 else 0]
    nodes = [(s, t, w) for s in linspace(s0 + VERIFY_S_INSET, s1 - VERIFY_S_INSET, 5)
             for t in ts for w in ws]
    _, ot, ow = oracle_grid_values(curve, j)
    nodes += [(s, t, w) for s in linspace(s0, s1, ORACLE_GRID[0]) for t in ot for w in ow
              if abs(math.cos(w) if j == 1 else 1.0) > 1e-6]
    return [(s, family_function(j, t, w)) for s, t, w in nodes]


def _admissible(curve, j, lam, sigma, coeffs, standard, r_prime_floor, r_prime_cap=None):
    """r > 0.1 and |r'| within bounds on the domain, r'^2 - lam*eps1 of the
    variant's sign, and (standard variant) the curvature denominator
    D = q + eps2*lam*r*k1*sigma*f*sqrt(q) + r*r'' bounded away from zero at
    every checked node."""
    a, b, c = coeffs
    s0, s1 = CURVES[curve][1]
    eps1, eps2 = EPS[j][0], EPS[j][1]
    for i in range(25):
        s = s0 + (s1 - s0) * i / 24
        r, rp = a + b * s + c * s * s, b + 2 * c * s
        q = rp * rp - lam * eps1
        if r < 0.1 or abs(rp) < r_prime_floor:
            return False
        if r_prime_cap is not None and abs(rp) > r_prime_cap:
            return False
        if (standard and q < 0.2) or (not standard and q > -0.2):
            return False
    if not standard:
        return True
    k1_at = {}
    for s, f in checked_nodes(curve, j):
        if s not in k1_at:
            k1_at[s] = _numeric_k1(curve, s)
        r, rp, rpp = a + b * s + c * s * s, b + 2 * c * s, 2 * c
        q = rp * rp - lam * eps1
        d = q + eps2 * lam * r * k1_at[s] * sigma * f * math.sqrt(q) + r * rpp
        if abs(d) < D_FLOOR * max(1.0, q):
            return False
    return True


def _draw_poly(rng, curve, j, lam, sigma, variant="standard", linear=False):
    eps1 = EPS[j][0]
    for _ in range(2000):
        if variant == "alt":
            b, c, a = rng.uniform(-0.5, 0.5), rng.uniform(-0.04, 0.04), rng.uniform(0.8, 1.6)
        elif lam * eps1 == 1:
            b, c, a = rng.uniform(1.25, 2.2), rng.uniform(-0.05, 0.05), rng.uniform(0.2, 0.8)
        else:
            b, c, a = rng.uniform(0.25, 0.8), rng.uniform(-0.05, 0.05), rng.uniform(0.4, 1.2)
            if rng.random() < 0.5:
                b, a = -b, a + 2.2 * b     # decreasing radius, still positive
        if linear:
            c = 0.0
        coeffs = tuple(round(x, 4) for x in (a, b, c))
        if variant == "alt":
            ok = _admissible(curve, j, lam, sigma, coeffs, False, 0.0, 0.8)
        else:
            ok = _admissible(curve, j, lam, sigma, coeffs, True, 0.25)
        if ok:
            a, b, c = coeffs
            return _poly_text(a, b, None if linear else c)
    raise RuntimeError(f"no admissible radius drawn for {curve} j={j} lam={lam}")


def _draw_constant(rng, curve, j, lam):
    for _ in range(2000):
        r = round(rng.uniform(0.15, 0.6), 4)
        if _admissible(curve, j, lam, 1, (r, 0.0, 0.0), True, 0.0):
            return _fmt(r)
    raise RuntimeError(f"no admissible constant radius for {curve}")


def families(seed: int) -> dict[str, Family]:
    """Every family the workloads draw from, keyed by name."""
    rng = random.Random(seed)
    sign = lambda: 1 if rng.random() < 0.5 else -1
    out = []
    # the paper's explicit examples, r = 2s (inputs fixed by the paper)
    for curve, j in (("beta1", 1), ("beta2", 3)):
        for lam in (1, -1):
            out.append(Family(f"{curve}.j{j}l{lam:+d}.2s", curve, j, lam, "expr", "2*s"))
    # the other two frame types, seeded polynomial radii and branch signs
    for curve, j in (("gamma2", 2), ("gamma4", 4)):
        for lam in (1, -1):
            sigma = sign()
            out.append(Family(f"{curve}.j{j}l{lam:+d}.poly", curve, j, lam, "expr",
                              _draw_poly(rng, curve, j, lam, sigma), sigma))
    out.append(Family("beta1.j1l+1.tube", "beta1", 1, 1, "constant",
                      _draw_constant(rng, "beta1", 1, 1)))
    out.append(Family("beta2.j3l+1.alt", "beta2", 3, 1, "expr",
                      _draw_poly(rng, "beta2", 3, 1, 1, variant="alt"), 1, "alt"))
    c = [_fmt(rng.uniform(0.3, 1.2)) for _ in range(4)]
    out.append(Family("gamma4.j4l0.null", "gamma4", 4, 0, "none", None, sign(),
                      a_free=(f"{c[0]}*cosh(t)*cos(w) + {c[1]}*s",
                              f"{c[2]}*sinh(w) + {c[3]}*t")))
    out.append(Family("varying.j1l+1.poly", "varying", 1, 1, "expr",
                      _draw_poly(rng, "varying", 1, 1, 1)))
    out.append(Family("spacelike_line.j2l-1.linear", "spacelike_line", 2, -1, "expr",
                      _draw_poly(rng, "spacelike_line", 2, -1, 1, linear=True)))
    out.append(Family("timelike_line.j1l+1.poly", "timelike_line", 1, 1, "expr",
                      _draw_poly(rng, "timelike_line", 1, 1, 1)))
    out.append(MINIMAL_FAMILY)
    return {f.name: f for f in out}


# The minimal-radius patch over the spacelike line. Its inputs do not depend
# on the seed: its JSON round trip loses the minimal property on every run
# (the reload rebuilds r' and r'' from spline derivatives), so the one
# failing operation of the wide workload fails in every round of every run.
MINIMAL_FAMILY = Family("spacelike_line.j2l+1.minimal", "spacelike_line", 2, 1,
                        "minimal", None)

_CORE = ["beta1.j1l+1.2s", "beta1.j1l-1.2s", "beta2.j3l+1.2s", "beta2.j3l-1.2s",
         "gamma2.j2l+1.poly", "gamma2.j2l-1.poly", "gamma4.j4l+1.poly",
         "gamma4.j4l-1.poly", "beta1.j1l+1.tube", "beta2.j3l+1.alt"]

ROUNDS = {
    "wide": _CORE + ["gamma4.j4l0.null", MINIMAL_FAMILY.name],
    "tall": _CORE + ["gamma4.j4l0.null", "varying.j1l+1.poly",
                     "spacelike_line.j2l-1.linear", "timelike_line.j1l+1.poly"],
    "oracle": _CORE + ["varying.j1l+1.poly"],
}


def round_families(workload: str, seed: int) -> list[Family]:
    """The families of one round of a workload, in execution order."""
    table = families(seed)
    return [table[name] for name in ROUNDS[workload]]


# ---------------------------------------------------------------------------
# grids

def linspace(a, b, n, endpoint=True):
    if n == 1:
        return (float(a),)
    step = (b - a) / (n - 1 if endpoint else n)
    return tuple(a + step * i for i in range(n))


def _rng(family: Family, seed: int, tag: str) -> random.Random:
    """Per-family draws; the minimal-radius family ignores the seed."""
    if family is MINIMAL_FAMILY:
        return random.Random(f"{family.name}:{tag}")
    return random.Random(f"{seed}:{family.name}:{tag}")


def wide_grid(family: Family, seed: int):
    """(s, t, w) values: two s values, a dense (t, w) lattice."""
    rng = _rng(family, seed, "grid")
    s0, s1 = family.domain
    span = s1 - s0
    lo = s0 + span * rng.uniform(0.05, 0.45)
    hi = s0 + span * rng.uniform(0.55, 0.95)
    s_vals = linspace(lo, hi, WIDE_NS)
    if family.j == 1 and family.lam != 0:
        # w spans [-pi/2, pi/2]: both end columns are degenerate (cos w = 0)
        return (s_vals, linspace(0.0, 2 * math.pi, WIDE_NT, endpoint=False),
                linspace(-0.5 * math.pi, 0.5 * math.pi, WIDE_NW))
    return (s_vals, linspace(-2.0, 2.0, WIDE_NT), linspace(-2.0, 2.0, WIDE_NW))


def obj_slice(family: Family, seed: int):
    """(drop, axis, index) of the OBJ slice a wide operation exports."""
    rng = _rng(family, seed, "obj")
    return rng.randint(1, 4), "t", rng.randrange(WIDE_NT)


# ---------------------------------------------------------------------------
# CLI argument lists (tall and oracle)

def curve_args(family: Family) -> list[str]:
    """Curve flags; '--flag=value' keeps values such as '-0.6*cos(s)' whole."""
    if family.is_example:
        return [f"--example={family.curve}"]
    c = family.components
    s0, s1 = family.domain
    return [f"--curve-x1={c[0]}", f"--curve-x2={c[1]}", f"--curve-x3={c[2]}",
            f"--curve-x4={c[3]}", f"--range-s={s0!r}:{s1!r}"]


def family_args(family: Family) -> list[str]:
    args = curve_args(family) + [f"--family=j{family.j},l{family.lam}",
                                 f"--branch={'+' if family.sigma == 1 else '-'}"]
    if family.radius is not None:
        args.append(f"--radius={family.radius}")
    if family.variant == "alt":
        args.append("--variant=alt")
    if family.a_free is not None:
        slots = {2: ("a3", "a4"), 3: ("a2", "a4"), 4: ("a2", "a3")}[family.j]
        args += [f"--{slots[0]}={family.a_free[0]}", f"--{slots[1]}={family.a_free[1]}"]
    return args


def tall_grid(index: int) -> tuple[int, int, int]:
    """Hundreds of s values, one or two (t, w) pairs each."""
    return (TALL_NS, 2, 1) if index % 2 == 0 else (TALL_NS, 1, 2)


def tall_checks(family: Family) -> list[str]:
    """verify checks that apply to the family (see README: supercritical and
    null-cone families have no closed-form K, H fields to differentiate)."""
    if family.lam == 0:
        return ["unit-speed", "sphere"]
    if family.variant == "alt":
        return ["kh", "unit-speed", "sphere"]
    return ["kh", "weingarten-st", "weingarten-sw", "weingarten-tw", "unit-speed", "sphere"]


def oracle_grid_values(curve: str, j: int, variant: str = "standard"):
    """(s, t, w) values of the oracle curvature grid over the whole domain."""
    s0, s1 = CURVES[curve][1]
    ns, nt, nw = ORACLE_GRID
    if j == 1:      # the CLI's j = 1 ranges: t in [0, 2 pi), w in [-pi/2, pi/2]
        return (linspace(s0, s1, ns), linspace(0.0, 2 * math.pi, nt, endpoint=False),
                linspace(-0.5 * math.pi, 0.5 * math.pi, nw))
    lo, hi = ORACLE_TW_J234
    w_lo = ORACLE_W_LO_ALT if variant == "alt" else lo
    return linspace(s0, s1, ns), linspace(lo, hi, nt), linspace(w_lo, hi, nw)


def oracle_ranges(family: Family) -> list[str]:
    if family.j == 1:
        return []
    lo, hi = ORACLE_TW_J234
    w_lo = ORACLE_W_LO_ALT if family.variant == "alt" else lo
    return [f"--range-t={lo!r}:{hi!r}", f"--range-w={w_lo!r}:{hi!r}"]
