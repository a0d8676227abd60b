"""Independent closed-form oracles, transcribed per family: fundamental-form
coefficients, their determinants, the unit normals, the explicit example
surfaces and their curvatures, and the tubular K/H rows.

Entries marked CORRECTED carry a verified sign/factor fix; each fix is forced
by the internal consistency h = -c g / r and by an independent
finite-difference oracle. The two g11 entries without a trustworthy
transcription (j = 1 and j = 3) are left NaN and covered by the FD oracle.
"""
import math

import numpy as np

sqrt, sin, cos, sinh, cosh = math.sqrt, math.sin, math.cos, math.sinh, math.cosh


def table_g_h(j, lam, ks, r, rp, rpp, t, w):
    """(g, h) for the standard variant, '+' branch; unverifiable g11 -> NaN."""
    k1, k2, k3 = ks
    ct, st, cw, sw = cos(t), sin(t), cos(w), sin(w)
    cht, sht, chw, shw = cosh(t), sinh(t), cosh(w), sinh(w)
    c2t, c2w, s2w = cos(2 * t), cos(2 * w), sin(2 * w)
    ch2t, ch2w = cosh(2 * t), cosh(2 * w)
    sh2t, sh2w = sinh(2 * t), sinh(2 * w)
    g = np.full((3, 3), math.nan)
    h = np.full((3, 3), math.nan)
    if j == 1:
        q = rp * rp + lam
        g[0, 0] = math.nan  # no trustworthy transcription; FD oracle covers it
        g12 = r * r * (k2 * q * cw - lam * k1 * rp * sqrt(q) * st - k3 * q * ct * sw) * cw
        g13 = r * r * (k3 * q * st - lam * k1 * rp * sqrt(q) * ct * sw)
        g22 = q * r * r * cw * cw
        g33 = q * r * r
        h[0, 0] = (lam * r * q / 4) * (4 * k2 * k2 * cw * cw
                                       - (c2t + 2 * ct * ct * c2w - 3) * k3 * k3
                                       - 4 * k2 * k3 * ct * s2w) \
            - lam * k1 * k1 * r * (lam * ct * ct * cw * cw + (ct * ct * cw * cw - 1) * rp * rp) \
            - rpp - r * rpp * rpp / q \
            - (lam * k1 * cw / sqrt(q)) * ((ct + 2 * lam * k2 * r * rp * st) * q + 2 * r * rpp * ct)
        h12 = lam * r * (cw * k2 * q - lam * k1 * st * rp * sqrt(q) - ct * k3 * sw * q) * cw
        h13 = lam * r * (k3 * q * st - lam * k1 * rp * sqrt(q) * ct * sw)
        h22 = lam * r * q * cw * cw
        h33 = lam * r * q
    elif j == 2:
        q = rp * rp - lam
        g[0, 0] = 0.25 * (4 - 4 * lam * rp * rp + r * r * q * (
            (ch2t + 2 * cht * cht * ch2w - 3) * k3 * k3
            + (ch2t + 2 * ch2w * sht * sht + 3) * k2 * k2
            - 4 * k2 * k3 * chw * chw * sh2t)) \
            + r * r * k1 * k1 * ((cht * cht * chw * chw - 1) * rp * rp - lam * cht * cht * chw * chw) \
            - 2 * lam * r * rpp - lam * r * r * rpp * rpp / q \
            + (2 * k1 * r / sqrt(q)) * ((cht * chw + lam * k2 * r * rp * shw) * q + r * rpp * cht * chw)
        g12 = r * r * (lam * (k1 * rp * sqrt(q) - k2 * lam * q * shw) * sht
                       + k3 * q * cht * shw) * chw
        # CORRECTED: k3 term sign (forced by h13 = g13 / r)
        g13 = r * r * (lam * k1 * rp * sqrt(q) * cht * shw + q * (k2 * cht - k3 * sht))
        g22 = q * r * r * chw * chw
        g33 = r * r * q
        h[0, 0] = 0.25 * (r * q * ((ch2t + 2 * cht * cht * ch2w - 3) * k3 * k3
                                   - 4 * k2 * k3 * chw * chw * sh2t
                                   + k2 * k2 * (3 + ch2t + 2 * sht * sht * ch2w))
                          - 4 * lam * rpp
                          + k1 * k1 * r * (rp * rp * (ch2t + 2 * cht * cht * ch2w - 3)
                                           - 4 * lam * cht * cht * chw * chw)
                          + (4 * k1 / sqrt(q)) * ((cht * chw + 2 * lam * k2 * r * rp * shw) * q
                                                  + 2 * r * rpp * cht * chw)
                          - 4 * lam * r * rpp * rpp / q)
        h12 = r * (lam * k1 * rp * sqrt(q) * sht + q * (k3 * cht - k2 * sht) * shw) * chw
        h13 = r * (lam * k1 * rp * sqrt(q) * cht * shw + q * (k2 * cht - k3 * sht))
        h22 = r * q * chw * chw
        h33 = r * q
    elif j == 3:
        q = rp * rp - lam
        g[0, 0] = math.nan  # no trustworthy transcription; FD oracle covers it
        # CORRECTED: single cosh w factor (forced by h12 = -lam g12 / r)
        g12 = r * r * (k2 * q * chw - lam * k1 * rp * sqrt(q) * cht
                       - k3 * q * sht * shw) * chw
        g13 = r * r * (k3 * q * cht - lam * k1 * rp * sqrt(q) * sht * shw)
        g22 = q * r * r * chw * chw
        g33 = q * r * r
        h[0, 0] = 2 * k1 * k2 * r * rp * sqrt(q) * cht * chw \
            - lam * k2 * k2 * r * q * chw * chw \
            - (lam * k3 * k3 * r * q / 4) * (3 + ch2t + 2 * sht * sht * ch2w) \
            + lam * k2 * k3 * r * q * sht * sh2w \
            + (k1 * k1 * r / 4) * (4 * chw * chw * sht * sht
                                   - lam * rp * rp * (3 + ch2t + 2 * sht * sht * ch2w)) \
            + rpp + r * rpp * rpp / q \
            + (lam / sqrt(q)) * (k1 * (q + 2 * r * rpp) * chw * sht)
        # CORRECTED: bracket reads (k2 cosh w - k3 sinh t sinh w)
        h12 = r * (k1 * rp * sqrt(q) * cht - lam * q * (k2 * chw - k3 * sht * shw)) * chw
        h13 = r * (k1 * rp * sqrt(q) * sht * shw - lam * k3 * q * cht)
        h22 = -lam * r * q * chw * chw
        h33 = -lam * r * q
    else:
        q = rp * rp - lam
        g[0, 0] = (q / 4) * (r * r * (k2 * k2 * (2 * ch2t * chw * chw + ch2w - 3)
                                      + 4 * k3 * k3 * chw * chw
                                      + 4 * k2 * k3 * cht * sh2w) - 4 * lam) \
            + r * r * k1 * k1 * (rp * rp * chw * chw - lam * shw * shw) \
            - 2 * lam * r * rpp - lam * r * r * rpp * rpp / q \
            + (2 * lam * k1 * r / sqrt(q)) * (k2 * r * rp * q * chw * sht
                                              - lam * (q + r * rpp) * shw)
        g12 = r * r * q * (k2 * cht * shw + k3 * chw) * chw
        g13 = -r * r * (lam * k1 * rp * sqrt(q) * chw + k2 * q * sht)
        g22 = r * r * q * chw * chw
        g33 = r * r * q
        h[0, 0] = (-r * q / 4) * (k2 * k2 * (ch2t + 2 * cht * cht * ch2w - 3)
                                  + 4 * k3 * (k3 * chw * chw + k2 * cht * sh2w)) \
            + lam * k1 * k1 * r * (shw * shw - lam * rp * rp * chw * chw) \
            + lam * rpp + lam * r * rpp * rpp / q \
            + (k1 / sqrt(q)) * ((shw - 2 * lam * k2 * r * rp * sht * chw) * q
                                + 2 * r * rpp * shw)
        h12 = -r * (k3 * chw + k2 * cht * shw) * q * chw
        h13 = r * (lam * k1 * rp * sqrt(q) * chw + k2 * q * sht)
        h22 = -r * q * chw * chw
        h33 = -r * q
    g[0, 1] = g[1, 0] = g12
    g[0, 2] = g[2, 0] = g13
    g[1, 1] = g22
    g[1, 2] = g[2, 1] = 0.0
    g[2, 2] = g33
    h[0, 1] = h[1, 0] = h12
    h[0, 2] = h[2, 0] = h13
    h[1, 1] = h22
    h[1, 2] = h[2, 1] = 0.0
    h[2, 2] = h33
    return g, h


def table_dets(j, lam, eps, k1, r, rp, rpp, t, w, A, f):
    """(det g, det h) from the compact family formulas."""
    e1, e2, e3, e4 = eps
    q = rp * rp - lam * e1
    D = q + e2 * lam * k1 * f * r * sqrt(q) + r * rpp
    det_g = -lam * A * A * r ** 4 * q * D * D
    M = (e3 * e4 * lam ** j * (f * f * k1 * k1 * r * q + rpp * (q + r * rpp))
         + e2 * e3 * e4 * lam ** (j + 1) * f * k1 * sqrt(q) * (q + 2 * r * rpp))
    det_h = -lam * A * A * r * r * q * M
    return det_g, det_h


def table_shape_diag(j, lam, r):
    """S22 = S33 from the per-family shape-operator tables."""
    return {1: lam, 2: 1.0, 3: -lam, 4: -1.0}[j] / r


def normal_table(j, lam, frame, rp, t, w):
    """Per-family unit normal lines, a (4,) array; the (2,-1) second-term sign
    is CORRECTED (forced by the general closed form and the FD normal)."""
    F1, F2, F3, F4 = map(np.array, frame.tetrad)
    ct, st, cw, sw = cos(t), sin(t), cos(w), sin(w)
    cht, sht, chw, shw = cosh(t), sinh(t), cosh(w), sinh(w)
    if j == 1:
        S = (ct * cw) * F2 + (st * cw) * F3 + sw * F4
        return -rp * F1 - sqrt(rp * rp + 1) * S if lam == 1 \
            else -rp * F1 + sqrt(rp * rp - 1) * S
    if j == 2:
        S = (cht * chw) * F2 + shw * F3 + (sht * chw) * F4
        return rp * F1 - sqrt(rp * rp - 1) * S if lam == 1 \
            else -rp * F1 - sqrt(rp * rp + 1) * S
    if j == 3:
        S = (sht * chw) * F2 + (cht * chw) * F3 + shw * F4
        return -rp * F1 + sqrt(rp * rp - 1) * S if lam == 1 \
            else -rp * F1 - sqrt(rp * rp + 1) * S
    S = shw * F2 + (sht * chw) * F3 + (cht * chw) * F4
    return -rp * F1 + sqrt(rp * rp - 1) * S if lam == 1 \
        else rp * F1 + sqrt(rp * rp + 1) * S


# ---------------------------------------------------------------------------
# explicit example surfaces over the two builtin curves, radius 2s

def example_surface_11(s, t, w):
    """Sphere-family canal over the timelike example curve."""
    return (
        -2 * s * cosh(s) * (-4 + sqrt(15) * cos(w) * sin(t))
        + (2 / 7) * sinh(s) * (7 + sqrt(35) * s * (2 * cos(t) * cos(w) + sqrt(3) * sin(w))),
        -2 * s * sinh(s) * (-4 + sqrt(15) * cos(w) * sin(t))
        + (2 / 7) * cosh(s) * (7 + sqrt(35) * s * (2 * cos(t) * cos(w) + sqrt(3) * sin(w))),
        -4 * s * sin(s) * (sqrt(3) - sqrt(5) * cos(w) * sin(t))
        + cos(s) * (sqrt(3) - 2 * sqrt(5 / 7) * s * (sqrt(3) * cos(t) * cos(w) - 2 * sin(w))),
        sin(s) * (sqrt(3) - 2 * sqrt(5 / 7) * s * (sqrt(3) * cos(t) * cos(w) - 2 * sin(w)))
        + 4 * s * cos(s) * (sqrt(3) - sqrt(5) * cos(w) * sin(t)),
    )


def example_surface_1m1(s, t, w):
    """Hyperbolic-family canal over the timelike example curve."""
    return (
        -2 * s * (4 + 3 * cos(w) * sin(t)) * cosh(s)
        + (2 / 7) * (7 + 2 * sqrt(21) * s * cos(t) * cos(w) + 3 * sqrt(7) * s * sin(w)) * sinh(s),
        -2 * s * (4 + 3 * cos(w) * sin(t)) * sinh(s)
        + (2 / 7) * (7 + sqrt(21) * s * (2 * cos(t) * cos(w) + sqrt(3) * sin(w))) * cosh(s),
        4 * sqrt(3) * s * (1 + cos(w) * sin(t)) * sin(s)
        + (sqrt(3) - (2 / sqrt(7)) * s * (3 * cos(t) * cos(w) - 2 * sqrt(3) * sin(w))) * cos(s),
        sin(s) * (sqrt(3) - (2 / sqrt(7)) * s * (3 * cos(t) * cos(w) - 2 * sqrt(3) * sin(w)))
        - 4 * sqrt(3) * s * (1 + cos(w) * sin(t)) * cos(s),
    )


def example_surface_31(s, t, w):
    """Sphere-family canal over the spacelike example curve.

    CORRECTED transcription: the trailing sinh s / cosh s of the first two
    components multiplies only the second bracket, and the x4 sinh w term
    carries a factor s.
    """
    A = cosh(t) * cosh(w)
    B = cosh(w) * sinh(t)
    return (
        (sqrt(3) / 7) * (28 * s * (-1 + A) * cosh(s)
                         + (7 + 2 * sqrt(21) * s * B + 4 * sqrt(7) * s * sinh(w)) * sinh(s)),
        (sqrt(3) / 7) * (28 * s * (-1 + A) * sinh(s)
                         + (7 + 2 * sqrt(21) * s * B + 4 * sqrt(7) * s * sinh(w)) * cosh(s)),
        -6 * s * sin(s) * A + 2 * (cos(s) + 4 * s * sin(s))
        + (2 * s / sqrt(7)) * (-2 * sqrt(3) * B + 3 * sinh(w)) * cos(s),
        2 * s * (-4 + 3 * A) * cos(s)
        + (2 / 7) * (7 - 2 * sqrt(21) * s * B + 3 * sqrt(7) * s * sinh(w)) * sin(s),
    )


def example_surface_3m1(s, t, w):
    """Hyperbolic-family canal over the spacelike example curve.

    CORRECTED transcription: the first two components carry sinh t cosh w
    (a cosh t cosh w variant fails the sphere condition).
    """
    A = cosh(t) * cosh(w)
    B = cosh(w) * sinh(t)
    return (
        4 * s * (sqrt(3) + sqrt(5) * A) * cosh(s)
        + (sqrt(3) + 2 * sqrt(5 / 7) * s * (sqrt(3) * B + 2 * sinh(w))) * sinh(s),
        4 * s * (sqrt(3) + sqrt(5) * A) * sinh(s)
        + (sqrt(3) + 2 * sqrt(5 / 7) * s * (sqrt(3) * B + 2 * sinh(w))) * cosh(s),
        -2 * s * (4 + sqrt(15) * A) * sin(s)
        + (2 / 7) * (7 + sqrt(35) * s * (-2 * B + sqrt(3) * sinh(w))) * cos(s),
        2 * s * (4 + sqrt(15) * A) * cos(s)
        + (2 / 7) * (7 + sqrt(35) * s * (-2 * B + sqrt(3) * sinh(w))) * sin(s),
    )


def example_curvatures_11(s, t, w):
    """(K, H, mu) of the sphere-family canal over the timelike curve."""
    C = cos(t) * cos(w)
    den = (5 + 2 * sqrt(35) * s * C) ** 2
    K = 5 * (sqrt(35) + 14 * s * C) * C / (4 * s * s * den)
    H = (1 / 3) * (1 / s + 5 * (sqrt(35) + 14 * s * C) * C / den)
    mu3 = 5 * (sqrt(35) + 14 * s * C) * C / den
    return K, H, (1 / (2 * s), 1 / (2 * s), mu3)


def example_curvatures_1m1(s, t, w):
    C = cos(t) * cos(w)
    den = (3 - 2 * sqrt(21) * s * C) ** 2
    K = 3 * (sqrt(21) - 14 * s * C) * C / (4 * s * s * den)
    H = (-3 + 5 * sqrt(21) * s * C - 42 * s * s * C * C) / (s * den)
    mu3 = 3 * (sqrt(21) - 14 * s * C) * C / den
    return K, H, (-1 / (2 * s), -1 / (2 * s), mu3)


def example_curvatures_31(s, t, w):
    U = cosh(w) * sinh(t)
    K = -(sqrt(21) + 14 * s * U) * U / (4 * s * s * (sqrt(3) + 2 * sqrt(7) * s * U) ** 2)
    H = -(3 + 5 * sqrt(21) * s * U + 42 * s * s * U * U) / (s * (3 + 2 * sqrt(21) * s * U) ** 2)
    mu3 = -3 * (sqrt(21) + 14 * s * U) * U / (3 + 2 * sqrt(21) * s * U) ** 2
    return K, H, (-1 / (2 * s), -1 / (2 * s), mu3)


def example_curvatures_3m1(s, t, w):
    U = cosh(w) * sinh(t)
    den = (5 - 2 * sqrt(35) * s * U) ** 2
    K = 5 * (-sqrt(35) + 14 * s * U) * U / (4 * s * s * den)
    H = (1 / 3) * (1 / s + 5 * (-sqrt(35) + 14 * s * U) * U / den)
    mu3 = 5 * (-sqrt(35) + 14 * s * U) * U / den
    return K, H, (1 / (2 * s), 1 / (2 * s), mu3)


def tubular_table(j, lam, r, k1, t, w):
    """Reference (K, H) rows for constant radius."""
    if (j, lam) == (1, 1):
        u = k1 * cos(t) * cos(w)
        return u / (r * r * (1 + r * u)), (2 + 3 * r * u) / (3 * r * (1 + r * u))
    if (j, lam) == (2, 1):
        u = k1 * cosh(t) * sinh(w)
        return u / (r * r * (1 + r * u)), (2 + 3 * r * u) / (3 * r * (1 + r * u))
    if (j, lam) == (2, -1):
        u = k1 * cosh(t) * cosh(w)
        return u / (r * r * (1 + r * u)), (2 + 3 * r * u) / (3 * r * (1 + r * u))
    if (j, lam) == (3, 1):
        u = k1 * sinh(t) * sinh(w)
        return u / (r * r * (1 - r * u)), (2 - 3 * r * u) / (3 * r * (-1 + r * u))
    if (j, lam) == (3, -1):
        u = k1 * sinh(t) * cosh(w)
        return u / (r * r * (-1 + r * u)), (2 - 3 * r * u) / (3 * r * (1 - r * u))
    if (j, lam) == (4, 1):
        u = k1 * cosh(w)
        return u / (r * r * (1 - r * u)), (2 - 3 * r * u) / (3 * r * (-1 + r * u))
    if (j, lam) == (4, -1):
        u = k1 * sinh(w)
        return u / (r * r * (1 - r * u)), (2 - 3 * r * u) / (3 * r * (-1 + r * u))
    raise ValueError(f"no tubular family (j={j}, lambda={lam})")


# ---------------------------------------------------------------------------
# scalar reference for the batched point map and the numeric route: one (4,)
# array point per call, 5-point stencils as nested calls (the original
# per-node implementation, kept here so the batched code is held to exact
# equality)

def reference_point(curve, config, s, t, w, frame=None):
    """b + axial F1 + (phi a2) F2 + (phi a3) F3 + (phi a4) F4 in (4,) array
    arithmetic, left to right."""
    from canal4.canal import _root_q, transverse
    fr = frame if frame is not None else curve.frame(s)
    eps1 = fr.eps[0]
    rv = config.radius(s)
    rp = config.radius.r_prime(s)
    phi = config.sigma * (rv * _root_q(config, s, eps1, rp))
    (a2, a3, a4), _, _ = transverse(config.j, config.variant, t, w)
    axial = -config.lam * eps1 * rv * rp
    F1, F2, F3, F4 = map(np.array, fr.tetrad)
    return (np.array(curve.derivative(s, 0)) + axial * F1 + (phi * a2) * F2
            + (phi * a3) * F3 + (phi * a4) * F4)


def reference_grid_coords(curve, config, grid):
    """sample_grid's points built one s row at a time: one canal_points call
    per row, stacked into the (n, 4) array in row-major (s, t, w) order."""
    from canal4.canal import PointMapCache, canal_points
    t_col = [t for t in grid.t_values for _ in grid.w_values]
    w_col = list(grid.w_values) * len(grid.t_values)
    cache = PointMapCache(curve, config)
    rows = [canal_points(curve, config, [s] * len(t_col), t_col, w_col, cache)
            for s in grid.s_values]
    return np.concatenate(rows) if rows else np.empty((0, 4))


def reference_fd1(f, args, axis, h):
    a = list(args)

    def at(d):
        b = list(a)
        b[axis] += d
        return f(*b)

    return (at(-2 * h) - 8.0 * at(-h) + 8.0 * at(h) - at(2 * h)) * (1.0 / (12 * h))


def reference_fd2(f, args, i, jj, h):
    if i == jj:
        a = list(args)

        def at(d):
            b = list(a)
            b[i] += d
            return f(*b)

        return (-1.0 * at(-2 * h) + 16.0 * at(-h) - 30.0 * at(0.0)
                + 16.0 * at(h) - at(2 * h)) * (1.0 / (12 * h * h))

    def g_(*b):
        return reference_fd1(f, b, jj, h)

    return reference_fd1(g_, args, i, h)


def reference_numeric_forms(curve, config, s, t, w, step=1e-4, step2=1e-3):
    """(g, h, N) of the numeric route, one reference_point per stencil node."""
    from canal4.curvature import curvature_report
    from canal4.minkowski import inner, triple_cross

    def f(a, b, c):
        return reference_point(curve, config, a, b, c)

    args = (s, t, w)
    parts = [reference_fd1(f, args, i, step) for i in range(3)]
    g = np.array([[inner(parts[i], parts[jj]) for jj in range(3)] for i in range(3)])
    cross = triple_cross(*parts)
    N = cross * (1.0 / sqrt(abs(inner(cross, cross))))
    N_cf = curvature_report(curve, config, s, t, w).N
    if sum(x * y for x, y in zip(N.tolist(), N_cf)) < 0:
        N = -N
    h = np.empty((3, 3))
    for i in range(3):
        for jj in range(i, 3):
            h[i, jj] = h[jj, i] = inner(reference_fd2(f, args, i, jj, step2), N)
    return g, h, N


# ---------------------------------------------------------------------------
# per-node reference for the numeric patch loops: the scalar forms above, one
# shape operator, det and eigvals call per node, one node after the other

def reference_shape_operator(g, h):
    """S = g^-1 h of one node; raises SingularMetricError when det g ~ 0."""
    from canal4.curvature import _check_metric
    _check_metric(float(np.abs(g).max()), float(np.linalg.det(g)))
    return np.linalg.solve(g, h)


def reference_numeric_report(curve, config, s, t, w):
    """(K, H, mu) of the numeric route at one node."""
    from canal4.curvature import _principal
    g, h, _ = reference_numeric_forms(curve, config, s, t, w)
    S = reference_shape_operator(g, h)
    return (float(np.linalg.det(h) / np.linalg.det(g)), float(np.trace(S)) / 3.0,
            _principal(np.linalg.eigvals(S)))


def reference_kh_report(patch, route=None):
    """check_kh_relation(patch, route), node by node; the numeric route by
    default."""
    from canal4.analysis import KH_TOL_CLOSED, KH_TOL_NUMERIC, TheoremReport
    from canal4.curvature import Route
    route = route or Route.NUMERIC
    tol = KH_TOL_NUMERIC if route is Route.NUMERIC else KH_TOL_CLOSED
    fr = patch.frames[0]
    sgn = fr.eps[2] * fr.eps[3] * patch.config.lam ** patch.config.j
    worst, n = 0.0, 0
    for i, jj, k, s, t, w in patch.nodes():
        if route is Route.NUMERIC:
            K, H, _ = reference_numeric_report(patch.curve, patch.config, s, t, w)
        else:
            rep = reference_closed_report(patch.curve, patch.config, s, t, w)
            K, H = rep.K, rep.H
        r = patch.config.radius(s)
        worst = max(worst, abs(3.0 * H * r - K * r ** 3 - 2.0 * sgn))
        n += 1
    return TheoremReport(f"kh-relation[{route.value}]", worst, tol, worst <= tol, n)


def reference_curvature_csv(patch):
    """export_curvature_csv(patch), node by node."""
    from canal4.curvature import Route, curvature_report
    from canal4.errors import NumericError
    from canal4.io import CSV_HEADER
    rows = [CSV_HEADER]
    for i, jj, k, s, t, w in patch.nodes():
        try:
            cf = curvature_report(patch.curve, patch.config, s, t, w, Route.CLOSED_FORM)
            K, H, _ = reference_numeric_report(patch.curve, patch.config, s, t, w)
        except NumericError:
            continue
        rows.append(",".join(repr(float(v)) for v in (s, t, w, cf.K, cf.H, *cf.mu, K, H)))
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# array reference for the frames: Gram-Schmidt in (4,) array arithmetic on
# the derivatives of orders 1..4, the original implementation of
# CurveSpec.frenet, kept here so that the float-tuple frames are held to exact
# equality

def _reference_null_residual(v):
    from canal4.minkowski import TAU_NULL, inner
    return abs(inner(v, v)) <= TAU_NULL * max(
        1.0, v[0] * v[0] + v[1] * v[1] + v[2] * v[2] + v[3] * v[3])


def _reference_frame(vectors, eps, ks):
    """The FrenetFrame of (4,) array vectors and float curvatures."""
    from canal4.curve import FrenetFrame
    return FrenetFrame(tuple(tuple(v.tolist()) for v in vectors), eps, *map(float, ks))


def reference_frenet(curve, s):
    """CurveSpec.frenet(s) in array arithmetic: the same frame, or the same error."""
    from canal4.curve import TAU_K, TOL_UNIT
    from canal4.errors import FrameDegenerateError, NonUnitSpeedError, NullResidualError
    from canal4.minkowski import inner, norm, triple_cross
    d = [np.array(curve.derivative(s, k)) for k in (1, 2, 3, 4)]
    f1 = d[0]
    q1 = inner(f1, f1)
    if abs(abs(q1) - 1.0) > 10 * TOL_UNIT:
        raise NonUnitSpeedError(f"<b',b'> = {q1:.6g} at s={s!r}; curve is not unit speed")
    if _reference_null_residual(f1):
        raise NullResidualError(f"tangent is null at s={s!r}")
    e1 = 1 if q1 > 0 else -1

    rho2 = d[1] - (e1 * inner(d[1], f1)) * f1
    if _reference_null_residual(rho2):
        if norm(rho2) <= TAU_K:
            raise FrameDegenerateError(f"k1 vanishes at s={s!r}")
        raise NullResidualError(f"principal normal direction is null at s={s!r}")
    k1 = norm(rho2)
    if k1 <= TAU_K:
        raise FrameDegenerateError(f"k1 = {k1:.3g} <= {TAU_K:g} at s={s!r}")
    f2 = rho2 * (1.0 / k1)
    e2 = 1 if inner(f2, f2) > 0 else -1

    rho3 = d[2] - (e1 * inner(d[2], f1)) * f1 - (e2 * inner(d[2], f2)) * f2
    if _reference_null_residual(rho3):
        if norm(rho3) / k1 <= TAU_K:
            raise FrameDegenerateError(f"k2 vanishes at s={s!r}")
        raise NullResidualError(f"binormal direction is null at s={s!r}")
    k2 = norm(rho3) / k1
    if k2 <= TAU_K:
        raise FrameDegenerateError(f"k2 = {k2:.3g} <= {TAU_K:g} at s={s!r}")
    f3 = rho3 * (1.0 / norm(rho3))
    e3 = 1 if inner(f3, f3) > 0 else -1

    cross = triple_cross(f1, f2, f3)
    e4 = 1 if inner(cross, cross) > 0 else -1
    f4 = cross * (-e4 / norm(cross))       # det(F1,F2,F3,F4) = +1
    k3 = e4 * inner(d[3], f4) / (k1 * k2)

    eps = (e1, e2, e3, e4)
    if eps.count(-1) != 1:
        raise NullResidualError(f"frame signs {eps} at s={s!r}: not a Lorentz tetrad")
    return _reference_frame((f1, f2, f3, f4), eps, (k1, k2, k3))


# ---------------------------------------------------------------------------
# per-node references for the closed-form row passes: the original scalar
# closed form, one node (and one (K, H) stencil point) per call

def reference_gauss_mean_principal(j, lam, variant, eps, k1, r, rp, rpp, t, w, sigma=1):
    """K, H, (mu1, mu2, mu3) of the family formulas in float arithmetic."""
    from canal4.canal import family_function
    from canal4.errors import InadmissibleConfigError, SingularMetricError
    e1, e2, e3, e4 = eps
    v = variant.sign
    Q = v * (rp * rp - lam * e1)
    if Q <= 0:
        raise InadmissibleConfigError(f"r'^2 - lam*eps1 = {v * Q:.3g} has the wrong sign "
                                      f"for the {variant.value} variant")
    f = sigma * family_function(j, variant, t, w)
    R = v * rpp
    root = sqrt(Q)
    num = (r * k1 * k1 * f * f * Q + R * (Q + r * R)
           + v * e2 * lam * k1 * f * root * (Q + 2.0 * r * R))
    dfac = Q + v * e2 * lam * r * k1 * f * root + r * R
    if abs(dfac) < 1e-300:
        raise SingularMetricError("curvature denominator vanished (focal point)")
    sgn = e3 * e4 * lam ** j
    mu12 = sgn / r
    mu3 = sgn * num / (dfac * dfac)
    K = sgn * num / (r * r * dfac * dfac)
    H = (sgn / 3.0) * (2.0 / r + num / (dfac * dfac))
    return K, H, (mu12, mu12, mu3)


def reference_closed_forms(curve, config, s, t, w):
    """Exact (g, h, N) of one node: frame components of the partials in floats,
    N in (4,) array arithmetic."""
    from canal4.canal import PointMapCache, transverse
    from canal4.curvature import _check_node, _normal_sign
    _check_node(config, w)
    row = PointMapCache(curve, config).row(s)
    fr = row.frame
    e1, e2, e3, e4 = fr.eps
    rv, rp, rpp, phi, a1 = row.r, row.rp, row.rpp, row.phi, row.axial
    q = rp * rp - config.lam * e1
    psi = phi / rv
    dphi = config.sigma * rp * (abs(q) + config.variant.sign * rv * rpp) / sqrt(abs(q))
    da1 = -config.lam * e1 * (rp * rp + rv * rpp)
    c = _normal_sign(config, fr.eps)
    k1, k2, k3 = fr.k1, fr.k2, fr.k3
    a, dat, daw = transverse(config.j, config.variant, t, w)
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
    h = -c * g / rv
    h[0, 0] = -c * (g[0, 0] - e1 * cs[0]) / rv
    n_coeff = (c * a1 / rv, c * psi * a[0], c * psi * a[1], c * psi * a[2])
    F1, F2, F3, F4 = map(np.array, fr.tetrad)
    N = n_coeff[0] * F1 + n_coeff[1] * F2 + n_coeff[2] * F3 + n_coeff[3] * F4
    return g, h, N


def reference_closed_report(curve, config, s, t, w):
    """The closed-form CurvatureReport of one node, or the error it raises."""
    from canal4.canal import PointMapCache, family_function
    from canal4.curvature import CurvatureReport, Route, _check_node
    from canal4.minkowski import inner
    A = _check_node(config, w)
    row = PointMapCache(curve, config).row(s)
    g, h, N = reference_closed_forms(curve, config, s, t, w)
    S = reference_shape_operator(g, h)
    K, H, mu = reference_gauss_mean_principal(
        config.j, config.lam, config.variant, row.frame.eps, row.frame.k1, row.r, row.rp,
        row.rpp, t, w, config.sigma)
    return CurvatureReport(g=g, h=h, S=S, N=tuple(N.tolist()), eps_N=1 if inner(N, N) > 0 else -1,
                           K=float(K), H=float(H), mu=tuple(float(m) for m in mu),
                           f_j=family_function(config.j, config.variant, t, w),
                           A=A,
                           route=Route.CLOSED_FORM)


def reference_weingarten(patch, pair):
    """weingarten_check(patch, pair) node by node: 5-point stencils of
    reference_gauss_mean_principal, 8 calls per node."""
    from canal4.analysis import WEINGARTEN_ETA, WEINGARTEN_FD_STEP, WEINGARTEN_TOL, TheoremReport
    from canal4.canal import PointMapCache
    cfg = patch.config
    cache = PointMapCache(patch.curve, cfg, zip(patch.grid.s_values, patch.frames))

    def kh(s, t, w):
        row = cache.row(s)
        return reference_gauss_mean_principal(cfg.j, cfg.lam, cfg.variant, row.frame.eps,
                                              row.frame.k1, row.r, row.rp, row.rpp, t, w,
                                              cfg.sigma)[:2]

    def fd(node, i):
        h = WEINGARTEN_FD_STEP
        (k0, h0), (k1, h1), (k2, h2), (k3, h3) = [
            kh(*node[:i], node[i] + d, *node[i + 1:]) for d in (-2 * h, -h, h, 2 * h)]
        return ((k0 - 8.0 * k1 + 8.0 * k2 - k3) / (12.0 * h),
                (h0 - 8.0 * h1 + 8.0 * h2 - h3) / (12.0 * h))

    worst, n = 0.0, 0
    for node in patch.nodes():
        (Ku, Hu), (Kv, Hv) = [fd(node[3:], "stw".index(a)) for a in pair]
        num = abs(Hu * Kv - Hv * Ku)
        scale = max(max(abs(Hu), abs(Hv)) * max(abs(Ku), abs(Kv)), WEINGARTEN_ETA)
        worst = max(worst, num / scale)
        n += 1
    return TheoremReport(f"weingarten-{pair}", worst, WEINGARTEN_TOL, worst <= WEINGARTEN_TOL, n)


def reference_frame_for_line(curve):
    """CurveSpec.frame_for_line() in array arithmetic."""
    from canal4.curve import TOL_UNIT
    from canal4.errors import NonUnitSpeedError, NullResidualError
    from canal4.minkowski import inner, norm, triple_cross
    s0 = 0.5 * (curve.domain[0] + curve.domain[1])
    f1 = np.array(curve.derivative(s0, 1))
    q1 = inner(f1, f1)
    if abs(abs(q1) - 1.0) > 10 * TOL_UNIT:
        raise NonUnitSpeedError(f"<b',b'> = {q1:.6g} at s={s0!r}; curve is not unit speed")
    if _reference_null_residual(f1):
        raise NullResidualError(f"tangent is null at s={s0!r}")
    frame, eps = [f1], [1 if q1 > 0 else -1]
    for cand in np.eye(4):
        if len(frame) == 3:
            break
        rho = cand
        for f, e in zip(frame, eps):
            rho = rho - (e * inner(rho, f)) * f
        if (rho[0] * rho[0] + rho[1] * rho[1] + rho[2] * rho[2] + rho[3] * rho[3] < 1e-12
                or _reference_null_residual(rho)):
            continue
        rho = rho * (1.0 / norm(rho))
        frame.append(rho)
        eps.append(1 if inner(rho, rho) > 0 else -1)
    if len(frame) != 3:
        raise NullResidualError("could not complete a non-null frame for the line")
    cross = triple_cross(frame[0], frame[1], frame[2])
    e4 = 1 if inner(cross, cross) > 0 else -1
    eps.append(e4)
    return _reference_frame((*frame, cross * (-e4 / norm(cross))), tuple(eps), (0.0, 0.0, 0.0))
