"""The phase field's written-out DOP853 step, `_phase_step`: `dop853._run`
imports it for a run of `model.phase_rhs`'s field off the invariant diagonal."""

from __future__ import annotations

import math

from .dop853 import (A1_0, A2_0, A2_1, A3_0, A3_2, A4_0, A4_2, A4_3, A5_0, A5_3, A5_4, A6_0, A6_3,
                     A6_4, A6_5, A7_0, A7_3, A7_4, A7_5, A7_6, A8_0, A8_3, A8_4, A8_5, A8_6, A8_7,
                     A9_0, A9_3, A9_4, A9_5, A9_6, A9_7, A9_8, A10_0, A10_3, A10_4, A10_5, A10_6,
                     A10_7, A10_8, A10_9, A11_0, A11_3, A11_4, A11_5, A11_6, A11_7, A11_8, A11_9,
                     A11_10, B0, B5, B6, B7, B8, B9, B10, B11, E5_0, E5_5, E5_6, E5_7, E5_8, E5_9,
                     E5_10, E5_11, E3_0, E3_8, E3_11)
from .numerics import ODE_ATOL, ODE_RTOL


def _phase_step(fold, t, y, k0, h):
    """`_step` on the field of `model.phase_rhs`, from the constants `fold`
    that the field carries: each stage derivative is the field's four
    expressions, written out on the stage state (X, Y, Z, W) with the field's
    grouping, which keeps the exchange-symmetric diagonal bitwise invariant.
    The stages, y_new and the error estimate are `_step`'s, bit for bit, and
    the field is never called; the field ignores t, and so does this step."""
    bx, by, p1, q1, ca, cb, s, m, delta, mu = fold
    ya, yb, yc, yd = y
    k0a, k0b, k0c, k0d = k0
    X = ya + (0.0 + A1_0 * k0a) * h
    Y = yb + (0.0 + A1_0 * k0b) * h
    Z = yc + (0.0 + A1_0 * k0c) * h
    W = yd + (0.0 + A1_0 * k0d) * h
    k1a = X * (X - bx + Z / p1)
    k1b = Y * (Y - by + W / q1)
    k1c = Z * (ca - (s * X + delta * Y) - Z)
    k1d = W * (cb - (mu * X + m * Y) - W)
    X = ya + (0.0 + A2_0 * k0a + A2_1 * k1a) * h
    Y = yb + (0.0 + A2_0 * k0b + A2_1 * k1b) * h
    Z = yc + (0.0 + A2_0 * k0c + A2_1 * k1c) * h
    W = yd + (0.0 + A2_0 * k0d + A2_1 * k1d) * h
    k2a = X * (X - bx + Z / p1)
    k2b = Y * (Y - by + W / q1)
    k2c = Z * (ca - (s * X + delta * Y) - Z)
    k2d = W * (cb - (mu * X + m * Y) - W)
    X = ya + (0.0 + A3_0 * k0a + A3_2 * k2a) * h
    Y = yb + (0.0 + A3_0 * k0b + A3_2 * k2b) * h
    Z = yc + (0.0 + A3_0 * k0c + A3_2 * k2c) * h
    W = yd + (0.0 + A3_0 * k0d + A3_2 * k2d) * h
    k3a = X * (X - bx + Z / p1)
    k3b = Y * (Y - by + W / q1)
    k3c = Z * (ca - (s * X + delta * Y) - Z)
    k3d = W * (cb - (mu * X + m * Y) - W)
    X = ya + (0.0 + A4_0 * k0a + A4_2 * k2a + A4_3 * k3a) * h
    Y = yb + (0.0 + A4_0 * k0b + A4_2 * k2b + A4_3 * k3b) * h
    Z = yc + (0.0 + A4_0 * k0c + A4_2 * k2c + A4_3 * k3c) * h
    W = yd + (0.0 + A4_0 * k0d + A4_2 * k2d + A4_3 * k3d) * h
    k4a = X * (X - bx + Z / p1)
    k4b = Y * (Y - by + W / q1)
    k4c = Z * (ca - (s * X + delta * Y) - Z)
    k4d = W * (cb - (mu * X + m * Y) - W)
    X = ya + (0.0 + A5_0 * k0a + A5_3 * k3a + A5_4 * k4a) * h
    Y = yb + (0.0 + A5_0 * k0b + A5_3 * k3b + A5_4 * k4b) * h
    Z = yc + (0.0 + A5_0 * k0c + A5_3 * k3c + A5_4 * k4c) * h
    W = yd + (0.0 + A5_0 * k0d + A5_3 * k3d + A5_4 * k4d) * h
    k5a = X * (X - bx + Z / p1)
    k5b = Y * (Y - by + W / q1)
    k5c = Z * (ca - (s * X + delta * Y) - Z)
    k5d = W * (cb - (mu * X + m * Y) - W)
    X = ya + (0.0 + A6_0 * k0a + A6_3 * k3a + A6_4 * k4a + A6_5 * k5a) * h
    Y = yb + (0.0 + A6_0 * k0b + A6_3 * k3b + A6_4 * k4b + A6_5 * k5b) * h
    Z = yc + (0.0 + A6_0 * k0c + A6_3 * k3c + A6_4 * k4c + A6_5 * k5c) * h
    W = yd + (0.0 + A6_0 * k0d + A6_3 * k3d + A6_4 * k4d + A6_5 * k5d) * h
    k6a = X * (X - bx + Z / p1)
    k6b = Y * (Y - by + W / q1)
    k6c = Z * (ca - (s * X + delta * Y) - Z)
    k6d = W * (cb - (mu * X + m * Y) - W)
    X = ya + (0.0 + A7_0 * k0a + A7_3 * k3a + A7_4 * k4a + A7_5 * k5a
              + A7_6 * k6a) * h
    Y = yb + (0.0 + A7_0 * k0b + A7_3 * k3b + A7_4 * k4b + A7_5 * k5b
              + A7_6 * k6b) * h
    Z = yc + (0.0 + A7_0 * k0c + A7_3 * k3c + A7_4 * k4c + A7_5 * k5c
              + A7_6 * k6c) * h
    W = yd + (0.0 + A7_0 * k0d + A7_3 * k3d + A7_4 * k4d + A7_5 * k5d
              + A7_6 * k6d) * h
    k7a = X * (X - bx + Z / p1)
    k7b = Y * (Y - by + W / q1)
    k7c = Z * (ca - (s * X + delta * Y) - Z)
    k7d = W * (cb - (mu * X + m * Y) - W)
    X = ya + (0.0 + A8_0 * k0a + A8_3 * k3a + A8_4 * k4a + A8_5 * k5a + A8_6 * k6a
              + A8_7 * k7a) * h
    Y = yb + (0.0 + A8_0 * k0b + A8_3 * k3b + A8_4 * k4b + A8_5 * k5b + A8_6 * k6b
              + A8_7 * k7b) * h
    Z = yc + (0.0 + A8_0 * k0c + A8_3 * k3c + A8_4 * k4c + A8_5 * k5c + A8_6 * k6c
              + A8_7 * k7c) * h
    W = yd + (0.0 + A8_0 * k0d + A8_3 * k3d + A8_4 * k4d + A8_5 * k5d + A8_6 * k6d
              + A8_7 * k7d) * h
    k8a = X * (X - bx + Z / p1)
    k8b = Y * (Y - by + W / q1)
    k8c = Z * (ca - (s * X + delta * Y) - Z)
    k8d = W * (cb - (mu * X + m * Y) - W)
    X = ya + (0.0 + A9_0 * k0a + A9_3 * k3a + A9_4 * k4a + A9_5 * k5a + A9_6 * k6a
              + A9_7 * k7a + A9_8 * k8a) * h
    Y = yb + (0.0 + A9_0 * k0b + A9_3 * k3b + A9_4 * k4b + A9_5 * k5b + A9_6 * k6b
              + A9_7 * k7b + A9_8 * k8b) * h
    Z = yc + (0.0 + A9_0 * k0c + A9_3 * k3c + A9_4 * k4c + A9_5 * k5c + A9_6 * k6c
              + A9_7 * k7c + A9_8 * k8c) * h
    W = yd + (0.0 + A9_0 * k0d + A9_3 * k3d + A9_4 * k4d + A9_5 * k5d + A9_6 * k6d
              + A9_7 * k7d + A9_8 * k8d) * h
    k9a = X * (X - bx + Z / p1)
    k9b = Y * (Y - by + W / q1)
    k9c = Z * (ca - (s * X + delta * Y) - Z)
    k9d = W * (cb - (mu * X + m * Y) - W)
    X = ya + (0.0 + A10_0 * k0a + A10_3 * k3a + A10_4 * k4a + A10_5 * k5a
              + A10_6 * k6a + A10_7 * k7a + A10_8 * k8a + A10_9 * k9a) * h
    Y = yb + (0.0 + A10_0 * k0b + A10_3 * k3b + A10_4 * k4b + A10_5 * k5b
              + A10_6 * k6b + A10_7 * k7b + A10_8 * k8b + A10_9 * k9b) * h
    Z = yc + (0.0 + A10_0 * k0c + A10_3 * k3c + A10_4 * k4c + A10_5 * k5c
              + A10_6 * k6c + A10_7 * k7c + A10_8 * k8c + A10_9 * k9c) * h
    W = yd + (0.0 + A10_0 * k0d + A10_3 * k3d + A10_4 * k4d + A10_5 * k5d
              + A10_6 * k6d + A10_7 * k7d + A10_8 * k8d + A10_9 * k9d) * h
    k10a = X * (X - bx + Z / p1)
    k10b = Y * (Y - by + W / q1)
    k10c = Z * (ca - (s * X + delta * Y) - Z)
    k10d = W * (cb - (mu * X + m * Y) - W)
    X = ya + (0.0 + A11_0 * k0a + A11_3 * k3a + A11_4 * k4a + A11_5 * k5a
              + A11_6 * k6a + A11_7 * k7a + A11_8 * k8a + A11_9 * k9a + A11_10 * k10a) * h
    Y = yb + (0.0 + A11_0 * k0b + A11_3 * k3b + A11_4 * k4b + A11_5 * k5b
              + A11_6 * k6b + A11_7 * k7b + A11_8 * k8b + A11_9 * k9b + A11_10 * k10b) * h
    Z = yc + (0.0 + A11_0 * k0c + A11_3 * k3c + A11_4 * k4c + A11_5 * k5c
              + A11_6 * k6c + A11_7 * k7c + A11_8 * k8c + A11_9 * k9c + A11_10 * k10c) * h
    W = yd + (0.0 + A11_0 * k0d + A11_3 * k3d + A11_4 * k4d + A11_5 * k5d
              + A11_6 * k6d + A11_7 * k7d + A11_8 * k8d + A11_9 * k9d + A11_10 * k10d) * h
    k11a = X * (X - bx + Z / p1)
    k11b = Y * (Y - by + W / q1)
    k11c = Z * (ca - (s * X + delta * Y) - Z)
    k11d = W * (cb - (mu * X + m * Y) - W)
    na = ya + h * (B0 * k0a + B5 * k5a + B6 * k6a + B7 * k7a + B8 * k8a + B9 * k9a
                   + B10 * k10a + B11 * k11a)
    nb = yb + h * (B0 * k0b + B5 * k5b + B6 * k6b + B7 * k7b + B8 * k8b + B9 * k9b
                   + B10 * k10b + B11 * k11b)
    nc = yc + h * (B0 * k0c + B5 * k5c + B6 * k6c + B7 * k7c + B8 * k8c + B9 * k9c
                   + B10 * k10c + B11 * k11c)
    nd = yd + h * (B0 * k0d + B5 * k5d + B6 * k6d + B7 * k7d + B8 * k8d + B9 * k9d
                   + B10 * k10d + B11 * k11d)
    # the error estimate; each scale takes max(abs(y), abs(y_new)) by max()'s comparison
    sa, ma = abs(ya), abs(na)
    sa = ODE_ATOL + (ma if ma > sa else sa) * ODE_RTOL
    r5a = (E5_0 * k0a + E5_5 * k5a + E5_6 * k6a + E5_7 * k7a + E5_8 * k8a + E5_9 * k9a
           + E5_10 * k10a + E5_11 * k11a) / sa
    r3a = (E3_0 * k0a + B5 * k5a + B6 * k6a + B7 * k7a + E3_8 * k8a + B9 * k9a + B10 * k10a
           + E3_11 * k11a) / sa
    sb, mb = abs(yb), abs(nb)
    sb = ODE_ATOL + (mb if mb > sb else sb) * ODE_RTOL
    r5b = (E5_0 * k0b + E5_5 * k5b + E5_6 * k6b + E5_7 * k7b + E5_8 * k8b + E5_9 * k9b
           + E5_10 * k10b + E5_11 * k11b) / sb
    r3b = (E3_0 * k0b + B5 * k5b + B6 * k6b + B7 * k7b + E3_8 * k8b + B9 * k9b + B10 * k10b
           + E3_11 * k11b) / sb
    sc, mc = abs(yc), abs(nc)
    sc = ODE_ATOL + (mc if mc > sc else sc) * ODE_RTOL
    r5c = (E5_0 * k0c + E5_5 * k5c + E5_6 * k6c + E5_7 * k7c + E5_8 * k8c + E5_9 * k9c
           + E5_10 * k10c + E5_11 * k11c) / sc
    r3c = (E3_0 * k0c + B5 * k5c + B6 * k6c + B7 * k7c + E3_8 * k8c + B9 * k9c + B10 * k10c
           + E3_11 * k11c) / sc
    sd, md = abs(yd), abs(nd)
    sd = ODE_ATOL + (md if md > sd else sd) * ODE_RTOL
    r5d = (E5_0 * k0d + E5_5 * k5d + E5_6 * k6d + E5_7 * k7d + E5_8 * k8d + E5_9 * k9d
           + E5_10 * k10d + E5_11 * k11d) / sd
    r3d = (E3_0 * k0d + B5 * k5d + B6 * k6d + B7 * k7d + E3_8 * k8d + B9 * k9d + B10 * k10d
           + E3_11 * k11d) / sd
    e5 = r5a * r5a + r5b * r5b + r5c * r5c + r5d * r5d
    e3 = r3a * r3a + r3b * r3b + r3c * r3c + r3d * r3d
    # with e5 = 0 the denominator may underflow to 0 as well
    err = abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * 4) if e5 else 0.0
    return (na, nb, nc, nd), (k0, (k5a, k5b, k5c, k5d), (k6a, k6b, k6c, k6d),
                              (k7a, k7b, k7c, k7d), (k8a, k8b, k8c, k8d),
                              (k9a, k9b, k9c, k9d), (k10a, k10b, k10c, k10d),
                              (k11a, k11b, k11c, k11d)), err
