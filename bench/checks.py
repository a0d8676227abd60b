"""Output checks that do not use the program's own code.

Curve and radius text is evaluated with Python's math module, the Minkowski
inner product (-,+,+,+) is written out here, the minimal-radius profile is
integrated here with RK4, and the paper's explicit example surfaces and
curvatures are transcribed here. Every check returns a list of problems;
an empty list means the output passed.
"""
from __future__ import annotations

import math

from inputs import EPS, Family, MINIMAL

MATH = {name: getattr(math, name) for name in
        ("sin", "cos", "sinh", "cosh", "tan", "tanh", "exp", "log", "sqrt")}

DEGENERATE_A_TOL = 1e-6
MEMBERSHIP_TOL = 1e-9
EXPLICIT_POINT_TOL = 1e-11
EXPLICIT_CURVATURE_TOL = 1e-9
KH_TOL_CF = 1e-9
KH_TOL_NUM = 1e-4
FRAME_TOL = 1e-9
MINIMAL_H_TOL = 1e-5
RADIUS_ROUND_TRIP_TOL = 1e-12
MAX_REPORTED = 3


def py_function(text: str, variables=("s",)):
    """Compile canal expression text ('^' for powers) to a Python callable."""
    return eval(f"lambda {', '.join(variables)}: {text.replace('^', '**')}", dict(MATH))


def mdot(u, v) -> float:
    return -u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3]


def family_sign(j: int, lam: int) -> int:
    """eps3 * eps4 * lam^j."""
    return EPS[j][2] * EPS[j][3] * lam ** j


def degenerate(j: int, lam: int, w: float) -> bool:
    """The induced metric degenerates where |cos w| (j = 1) is below 1e-6."""
    if lam == 0:
        return False
    a = math.cos(w) if j == 1 else math.cosh(w)
    return abs(a) < DEGENERATE_A_TOL


def _limit(problems):
    if len(problems) > MAX_REPORTED:
        return problems[:MAX_REPORTED] + [f"... and {len(problems) - MAX_REPORTED} more"]
    return problems


class Reference:
    """The family's curve b(s) and radius r(s), evaluated with Python math."""

    def __init__(self, family: Family):
        self.family = family
        self._b = [py_function(c) for c in family.components]
        if family.radius_kind in ("expr", "constant"):
            self._r = py_function(family.radius)
        elif family.radius_kind == "minimal":
            self._minimal = MinimalProfile(family.domain[0], **MINIMAL)
            self._r = self._minimal.r
        else:
            self._r = None

    def b(self, s):
        return tuple(f(s) for f in self._b)

    def r(self, s):
        return float(self._r(s))

    def is_linear_radius(self) -> bool:
        s0, s1 = self.family.domain
        h = 1e-2
        for i in range(5):
            s = s0 + 0.1 + (s1 - s0 - 0.2) * i / 4
            if abs(self._r(s + h) - 2 * self._r(s) + self._r(s - h)) / (h * h) > 1e-6:
                return False
        return True

    def slope(self, s):
        h = 1e-5
        return (self._r(s + h) - self._r(s - h)) / (2 * h)


class MinimalProfile:
    """r' = sign*sqrt(eps1*lam + (c1/r)^(4/3)), r(s0) = r0, by RK4 (step 1e-3)."""

    STEP = 1e-3

    def __init__(self, s0, eps1_lambda, c1, r0, sign):
        self.s0, self.r0, self.sign = s0, r0, sign
        self.e1l, self.c43 = eps1_lambda, (c1 * c1) ** (2.0 / 3.0)
        self._cache = {}

    def _rhs(self, r):
        return self.sign * math.sqrt(self.e1l + self.c43 * r ** (-4.0 / 3.0))

    def r(self, s):
        if s not in self._cache:
            n = max(1, math.ceil((s - self.s0) / self.STEP))
            h = (s - self.s0) / n
            r = self.r0
            for _ in range(n):
                k1 = self._rhs(r)
                k2 = self._rhs(r + 0.5 * h * k1)
                k3 = self._rhs(r + 0.5 * h * k2)
                k4 = self._rhs(r + h * k3)
                r += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
            self._cache[s] = r
        return self._cache[s]


def mean_curvature_k1_zero(j, lam, r, rp, rpp):
    """H of a canal hypersurface over a straight line (k1 = 0), standard variant."""
    q = rp * rp - lam * EPS[j][0]
    return family_sign(j, lam) / 3.0 * (2.0 / r + rpp / (q + r * rpp))


# ---------------------------------------------------------------------------
# the paper's explicit examples over beta1 (j = 1) and beta2 (j = 3), r = 2s

sqrt, sin, cos, sinh, cosh = math.sqrt, math.sin, math.cos, math.sinh, math.cosh


def example_surface(j, lam, s, t, w):
    if (j, lam) == (1, 1):
        u = 7 + sqrt(35) * s * (2 * cos(t) * cos(w) + sqrt(3) * sin(w))
        v = sqrt(3) - 2 * sqrt(5 / 7) * s * (sqrt(3) * cos(t) * cos(w) - 2 * sin(w))
        m = -4 + sqrt(15) * cos(w) * sin(t)
        return (-2 * s * cosh(s) * m + (2 / 7) * sinh(s) * u,
                -2 * s * sinh(s) * m + (2 / 7) * cosh(s) * u,
                -4 * s * sin(s) * (sqrt(3) - sqrt(5) * cos(w) * sin(t)) + cos(s) * v,
                sin(s) * v + 4 * s * cos(s) * (sqrt(3) - sqrt(5) * cos(w) * sin(t)))
    if (j, lam) == (1, -1):
        m = 4 + 3 * cos(w) * sin(t)
        v = sqrt(3) - (2 / sqrt(7)) * s * (3 * cos(t) * cos(w) - 2 * sqrt(3) * sin(w))
        return (-2 * s * m * cosh(s)
                + (2 / 7) * (7 + 2 * sqrt(21) * s * cos(t) * cos(w) + 3 * sqrt(7) * s * sin(w)) * sinh(s),
                -2 * s * m * sinh(s)
                + (2 / 7) * (7 + sqrt(21) * s * (2 * cos(t) * cos(w) + sqrt(3) * sin(w))) * cosh(s),
                4 * sqrt(3) * s * (1 + cos(w) * sin(t)) * sin(s) + v * cos(s),
                sin(s) * v - 4 * sqrt(3) * s * (1 + cos(w) * sin(t)) * cos(s))
    a, b = cosh(t) * cosh(w), cosh(w) * sinh(t)
    if (j, lam) == (3, 1):
        u = 7 + 2 * sqrt(21) * s * b + 4 * sqrt(7) * s * sinh(w)
        return ((sqrt(3) / 7) * (28 * s * (-1 + a) * cosh(s) + u * sinh(s)),
                (sqrt(3) / 7) * (28 * s * (-1 + a) * sinh(s) + u * cosh(s)),
                -6 * s * sin(s) * a + 2 * (cos(s) + 4 * s * sin(s))
                + (2 * s / sqrt(7)) * (-2 * sqrt(3) * b + 3 * sinh(w)) * cos(s),
                2 * s * (-4 + 3 * a) * cos(s)
                + (2 / 7) * (7 - 2 * sqrt(21) * s * b + 3 * sqrt(7) * s * sinh(w)) * sin(s))
    if (j, lam) == (3, -1):
        u = sqrt(3) + 2 * sqrt(5 / 7) * s * (sqrt(3) * b + 2 * sinh(w))
        v = (2 / 7) * (7 + sqrt(35) * s * (-2 * b + sqrt(3) * sinh(w)))
        m = 4 * s * (sqrt(3) + sqrt(5) * a)
        n = 2 * s * (4 + sqrt(15) * a)
        return (m * cosh(s) + u * sinh(s), m * sinh(s) + u * cosh(s),
                -n * sin(s) + v * cos(s), n * cos(s) + v * sin(s))
    raise ValueError(f"no explicit example for j={j}, lambda={lam}")


def example_curvatures(j, lam, s, t, w):
    """(K, H, (mu1, mu2, mu3)) of the explicit examples."""
    if j == 1:
        c = cos(t) * cos(w)
        if lam == 1:
            den = (5 + 2 * sqrt(35) * s * c) ** 2
            mu3 = 5 * (sqrt(35) + 14 * s * c) * c / den
            return mu3 / (4 * s * s), (1 / 3) * (1 / s + mu3), (1 / (2 * s), 1 / (2 * s), mu3)
        den = (3 - 2 * sqrt(21) * s * c) ** 2
        mu3 = 3 * (sqrt(21) - 14 * s * c) * c / den
        H = (-3 + 5 * sqrt(21) * s * c - 42 * s * s * c * c) / (s * den)
        return mu3 / (4 * s * s), H, (-1 / (2 * s), -1 / (2 * s), mu3)
    u = cosh(w) * sinh(t)
    if lam == 1:
        K = -(sqrt(21) + 14 * s * u) * u / (4 * s * s * (sqrt(3) + 2 * sqrt(7) * s * u) ** 2)
        den = (3 + 2 * sqrt(21) * s * u) ** 2
        H = -(3 + 5 * sqrt(21) * s * u + 42 * s * s * u * u) / (s * den)
        mu3 = -3 * (sqrt(21) + 14 * s * u) * u / den
        return K, H, (-1 / (2 * s), -1 / (2 * s), mu3)
    den = (5 - 2 * sqrt(35) * s * u) ** 2
    mu3 = 5 * (-sqrt(35) + 14 * s * u) * u / den
    return mu3 / (4 * s * s), (1 / 3) * (1 / s + mu3), (1 / (2 * s), 1 / (2 * s), mu3)


# ---------------------------------------------------------------------------
# surface points

def check_membership(ref: Reference, nodes, points):
    """<P - b, P - b> = lam r^2 (lam = 0: the point lies on the null cone)."""
    lam = ref.family.lam
    problems = []
    b_at = {}
    for (s, t, w), p in zip(nodes, points):
        if s not in b_at:
            b_at[s] = (ref.b(s), 0.0 if lam == 0 else ref.r(s))
        b, r = b_at[s]
        d = (p[0] - b[0], p[1] - b[1], p[2] - b[2], p[3] - b[3])
        target = lam * r * r
        scale = 1.0 + d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + d[3] * d[3] + r * r
        resid = abs(mdot(d, d) - target)
        if resid > MEMBERSHIP_TOL * scale:
            problems.append(f"<P-b,P-b> - lam r^2 = {resid:.3g} at {(s, t, w)}")
    return _limit(problems)


def check_explicit_surface(family: Family, nodes, points):
    """Points of the r = 2s examples equal the paper's explicit surfaces."""
    problems = []
    for (s, t, w), p in zip(nodes, points):
        x = example_surface(family.j, family.lam, s, t, w)
        scale = 1.0 + max(abs(c) for c in p)
        delta = max(abs(a - b) for a, b in zip(p, x))
        if delta > EXPLICIT_POINT_TOL * scale:
            problems.append(f"point differs from the explicit surface by {delta:.3g} at {(s, t, w)}")
    return _limit(problems)


def grid_nodes(s_vals, t_vals, w_vals):
    return [(s, t, w) for s in s_vals for t in t_vals for w in w_vals]


def expected_degenerate(family: Family, s_vals, t_vals, w_vals):
    nt, nw = len(t_vals), len(w_vals)
    return sorted((i * nt + jj) * nw + k for i in range(len(s_vals)) for jj in range(nt)
                  for k, w in enumerate(w_vals) if degenerate(family.j, family.lam, w))


def check_frames(family: Family, frames):
    """Each frame is a Lorentz tetrad of the family's type, det = +1."""
    problems = []
    for n, fr in enumerate(frames):
        vecs, eps = fr["vectors"], tuple(fr["eps"])
        if eps != EPS[family.j]:
            problems.append(f"frame {n}: signs {eps}, expected {EPS[family.j]}")
            continue
        for a in range(4):
            for b in range(a, 4):
                want = eps[a] if a == b else 0.0
                if abs(mdot(vecs[a], vecs[b]) - want) > FRAME_TOL:
                    problems.append(f"frame {n}: <F{a + 1},F{b + 1}> = {mdot(vecs[a], vecs[b]):.3g}")
        if abs(_det4(vecs) - 1.0) > FRAME_TOL:
            problems.append(f"frame {n}: det(F1..F4) = {_det4(vecs):.6g}")
        if family.k1_zero and fr["k"][0] != 0.0:
            problems.append(f"frame {n}: k1 = {fr['k'][0]!r} on a straight line")
    return _limit(problems)


def _det4(m):
    def det3(a):
        return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
    total = 0.0
    for col in range(4):
        minor = [[m[row][c] for c in range(4) if c != col] for row in range(1, 4)]
        total += (-1) ** col * m[0][col] * det3(minor)
    return total


def check_patch_document(family: Family, ref: Reference, doc, s_vals, t_vals, w_vals):
    """A canal-patch JSON document: shape, grid, degenerate nodes, frames and
    the membership of every point."""
    problems = []
    if doc.get("format") != "canal-patch" or doc.get("version") != 1:
        return ["not a canal-patch v1 document"]
    grid = doc["grid"]
    for axis, want in (("s", s_vals), ("t", t_vals), ("w", w_vals)):
        got = grid[axis]
        if len(got) != len(want) or any(abs(a - b) > 1e-12 * (1 + abs(b)) for a, b in zip(got, want)):
            problems.append(f"grid {axis} values {got[:3]}... differ from {list(want)[:3]}...")
    if problems:
        return problems
    nodes = grid_nodes(grid["s"], grid["t"], grid["w"])
    points = doc["points"]
    if len(points) != len(nodes):
        return [f"{len(points)} points for {len(nodes)} grid nodes"]
    if doc["degenerate"] != expected_degenerate(family, s_vals, t_vals, w_vals):
        problems.append(f"degenerate nodes {doc['degenerate'][:4]}... differ from the grid's")
    if len(doc["frames"]) != len(s_vals):
        problems.append(f"{len(doc['frames'])} frames for {len(s_vals)} s values")
    problems += check_frames(family, doc["frames"])
    problems += check_membership(ref, nodes, points)
    if family.is_example:
        problems += check_explicit_surface(family, nodes, points)
    return problems


def check_reload(doc, patch):
    """A reloaded patch holds exactly the document's floats."""
    problems = []
    if [list(p.as_tuple()) for p in patch.points] != doc["points"]:
        problems.append("reloaded points are not bit-exact")
    frames = [{"vectors": [list(v.as_tuple()) for v in fr.vectors], "eps": list(fr.eps),
               "k": [fr.k1, fr.k2, fr.k3]} for fr in patch.frames]
    if frames != doc["frames"]:
        problems.append("reloaded frames are not bit-exact")
    if sorted(patch.degenerate) != doc["degenerate"]:
        problems.append("reloaded degenerate set differs")
    return problems


def check_radius_round_trip(family: Family, before, after, s_vals):
    """The reloaded radius keeps the geometry: r, r', r'' agree, and a
    minimal profile stays minimal (|H| <= 1e-5 over the straight line)."""
    if family.lam == 0:
        return []
    problems = []
    for s in s_vals:
        one = (before(s), before.r_prime(s), before.r_second(s))
        two = (after(s), after.r_prime(s), after.r_second(s))
        if family.radius_kind == "minimal":
            for label, (r, rp, rpp) in (("before", one), ("after", two)):
                H = mean_curvature_k1_zero(family.j, family.lam, r, rp, rpp)
                if abs(H) > MINIMAL_H_TOL:
                    problems.append(f"minimal profile {label} the JSON round trip: "
                                    f"|H| = {abs(H):.3g} at s = {s:.6g}")
        elif any(abs(a - b) > RADIUS_ROUND_TRIP_TOL * (1 + abs(a)) for a, b in zip(one, two)):
            problems.append(f"(r, r', r'') {one} became {two} at s = {s:.6g}")
    return _limit(problems)


# ---------------------------------------------------------------------------
# OBJ slices

def check_obj(family: Family, text, doc, drop, axis, index):
    """Vertex and face counts follow from the grid and its degenerate nodes,
    and each vertex is the projection of its grid point."""
    problems = []
    s_vals, t_vals, w_vals = doc["grid"]["s"], doc["grid"]["t"], doc["grid"]["w"]
    ns, nt, nw = len(s_vals), len(t_vals), len(w_vals)
    ncol = nt if axis == "w" else nw

    def flat(i, col):
        return (i * nt + col) * nw + index if axis == "w" else (i * nt + index) * nw + col

    def is_degenerate(i, col):
        w = w_vals[index] if axis == "w" else w_vals[col]
        return degenerate(family.j, family.lam, w)

    lines = text.splitlines()
    vertices = [ln for ln in lines if ln.startswith("v ")]
    faces = [ln for ln in lines if ln.startswith("f ")]
    quads = sum(1 for i in range(ns - 1) for col in range(ncol - 1)
                if not any(is_degenerate(a, b) for a, b in
                           ((i, col), (i, col + 1), (i + 1, col + 1), (i + 1, col))))
    if len(vertices) != ns * ncol:
        problems.append(f"{len(vertices)} OBJ vertices, expected {ns * ncol}")
    if len(faces) != 2 * quads:
        problems.append(f"{len(faces)} OBJ faces, expected {2 * quads}")
    kept = [c for c in range(4) if c != drop - 1]
    for n, ln in enumerate(vertices[:ns * ncol]):
        i, col = divmod(n, ncol)
        p = doc["points"][flat(i, col)]
        got = [float(x) for x in ln.split()[1:]]
        if any(abs(g - p[c]) > 1e-8 * (1 + abs(p[c])) for g, c in zip(got, kept)):
            problems.append(f"OBJ vertex {n + 1} {got} is not point {flat(i, col)} without x{drop}")
    return _limit(problems)


# ---------------------------------------------------------------------------
# curvature CSV

CSV_HEADER = "s,t,w,K_cf,H_cf,mu1,mu2,mu3,K_num,H_num"


def check_curvature_csv(family: Family, ref: Reference, text, s_vals, t_vals, w_vals):
    """One row per non-degenerate node; the K-H identity on both routes;
    mu1 = mu2 = eps3 eps4 lam^j / r, K = mu1 mu2 mu3, 3H = sum mu; the r = 2s
    examples match the paper's explicit curvatures."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"CSV header {lines[:1]!r}"]
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    nodes = [n for n in grid_nodes(s_vals, t_vals, w_vals)
             if not degenerate(family.j, family.lam, n[2])]
    if len(rows) != len(nodes):
        return [f"{len(rows)} CSV rows for {len(nodes)} non-degenerate nodes"]
    sgn = family_sign(family.j, family.lam)
    problems = []
    for row, node in zip(rows, nodes):
        s, t, w, K, H, m1, m2, m3, Kn, Hn = row
        if any(abs(a - b) > 1e-12 * (1 + abs(b)) for a, b in zip((s, t, w), node)):
            problems.append(f"row node {(s, t, w)} is not grid node {node}")
            continue
        r = ref.r(s)
        for label, k, h, tol in (("cf", K, H, KH_TOL_CF), ("num", Kn, Hn, KH_TOL_NUM)):
            resid = 3 * h * r - k * r ** 3 - 2 * sgn
            if abs(resid) > tol * (1 + abs(3 * h * r) + abs(k * r ** 3)):
                problems.append(f"K-H identity [{label}] residual {resid:.3g} at {node}")
        mu12 = sgn / r
        if abs(m1 - mu12) > 1e-9 * abs(mu12) or abs(m2 - mu12) > 1e-9 * abs(mu12):
            problems.append(f"mu1, mu2 = {m1!r}, {m2!r}, expected {mu12!r} at {node}")
        if abs(K - m1 * m2 * m3) > 1e-9 * (1 + abs(K)) or abs(3 * H - (m1 + m2 + m3)) > 1e-9 * (1 + abs(H)):
            problems.append(f"K, H disagree with the principal curvatures at {node}")
        if family.is_example:
            Ke, He, mue = example_curvatures(family.j, family.lam, s, t, w)
            got, want = (K, H, m1, m2, m3), (Ke, He) + mue
            if any(abs(a - b) > EXPLICIT_CURVATURE_TOL * abs(b) + 1e-12 for a, b in zip(got, want)):
                problems.append(f"curvatures {got} differ from the explicit {want} at {node}")
    return _limit(problems)


# ---------------------------------------------------------------------------
# CLI verdicts

VERIFY_NAMES = {"kh": "kh-relation[closed-form]", "kh-num": "kh-relation[numeric]",
                "weingarten-st": "weingarten-st", "weingarten-sw": "weingarten-sw",
                "weingarten-tw": "weingarten-tw", "unit-speed": "unit-speed",
                "sphere": "sphere-membership"}


def expected_verdict(family: Family, check: str) -> bool:
    """The theorems' prediction. (H,K)_tw always holds; st and sw hold iff
    k1 r' = 0, except that st holds for j = 4, where K and H do not depend
    on t (f_4 = sinh w); everything else holds on admissible families."""
    if check == "weingarten-sw" or (check == "weingarten-st" and family.j != 4):
        return family.k1_zero or family.r_prime_zero
    return True


def check_verify_output(family: Family, checks, code, stdout, route="cf"):
    problems = []
    lines = [ln for ln in stdout.splitlines() if ln.startswith(("PASS ", "FAIL "))]
    names = [VERIFY_NAMES["kh-num" if (c == "kh" and route == "num") else c] for c in checks]
    if len(lines) != len(names):
        return [f"verify printed {len(lines)} verdicts for {len(names)} checks: {stdout!r}"]
    want_all = True
    for ln, name, check in zip(lines, names, checks):
        status, rest = ln.split(" ", 1)
        if not rest.startswith(name + ":"):
            problems.append(f"verdict line {ln!r} is not for {name}")
            continue
        want = expected_verdict(family, check)
        want_all = want_all and want
        if (status == "PASS") != want:
            problems.append(f"{name}: {status}, the theorem predicts {'PASS' if want else 'FAIL'}")
    if code != (0 if want_all else 1):
        problems.append(f"verify exit code {code}, predicted {0 if want_all else 1}")
    return problems


def check_classify_output(family: Family, ref: Reference, code, stdout):
    """Flat iff k1 = 0 and r is linear with |r'| != 1; none of the
    benchmark's radii solves the minimal-radius equation."""
    if code != 0:
        return [f"classify exit code {code}"]
    lines = stdout.splitlines()
    if len(lines) != 2 or not lines[0].startswith("flat: ") or not lines[1].startswith("minimal["):
        return [f"classify output {stdout!r}"]
    mid = 0.5 * sum(family.domain)
    flat = (family.k1_zero and ref.is_linear_radius()
            and abs(abs(ref.slope(mid)) - 1.0) > 1e-6)
    problems = []
    verdict = lines[0].split()[1]
    if verdict != ("flat" if flat else "not-flat"):
        problems.append(f"flat verdict {verdict!r}, predicted {'flat' if flat else 'not-flat'}")
    if lines[1].split()[1] != "not-minimal":
        problems.append(f"minimal verdict {lines[1]!r}, predicted not-minimal")
    return problems


def check_build_output(stdout, path, shape, n_degenerate):
    want = f"wrote {path}: {shape[0]}x{shape[1]}x{shape[2]} grid, {n_degenerate} degenerate nodes"
    return [] if stdout.strip() == want else [f"build printed {stdout!r}, expected {want!r}"]
