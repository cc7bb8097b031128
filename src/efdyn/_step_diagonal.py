"""The phase field's DOP853 step on the invariant diagonal, `_diagonal_step`:
`dop853._run` imports it for a run of `model.phase_rhs`'s field with
exchange-symmetric constants that starts on the diagonal (X, X, Z, Z)."""

from __future__ import annotations

import math

from .dop853 import (A1_0, A2_0, A2_1, A3_0, A3_2, A4_0, A4_2, A4_3, A5_0, A5_3, A5_4, A6_0, A6_3,
                     A6_4, A6_5, A7_0, A7_3, A7_4, A7_5, A7_6, A8_0, A8_3, A8_4, A8_5, A8_6, A8_7,
                     A9_0, A9_3, A9_4, A9_5, A9_6, A9_7, A9_8, A10_0, A10_3, A10_4, A10_5, A10_6,
                     A10_7, A10_8, A10_9, A11_0, A11_3, A11_4, A11_5, A11_6, A11_7, A11_8, A11_9,
                     A11_10, B0, B5, B6, B7, B8, B9, B10, B11, E5_0, E5_5, E5_6, E5_7, E5_8, E5_9,
                     E5_10, E5_11, E3_0, E3_8, E3_11)
from .numerics import ODE_ATOL, ODE_RTOL


def _diagonal_step(fold, t, y, k0, h):
    """`_phase_step` on a state of the diagonal, y[1] = y[0] and y[3] = y[2],
    for exchange-symmetric constants `fold` (`dop853._on_diagonal(fold)`):
    the stage sums, the phase field's components X_t and Z_t, y_new and the
    error terms of components a and c only, returning (a, a, c, c). There the
    field's Y_t and W_t are X_t and Z_t, bit for bit (s X + delta Y and
    mu X + m Y add the same two products), so the stages, y_new and the
    estimate are `_step`'s. The error sums keep `_step`'s four terms."""
    bx, _, p1, _, ca, _, s, _, delta, _ = fold
    ya, _, yc, _ = y
    k0a, _, k0c, _ = k0
    X = ya + (0.0 + A1_0 * k0a) * h
    Z = yc + (0.0 + A1_0 * k0c) * h
    k1a = X * (X - bx + Z / p1)
    k1c = Z * (ca - (s * X + delta * X) - Z)
    X = ya + (0.0 + A2_0 * k0a + A2_1 * k1a) * h
    Z = yc + (0.0 + A2_0 * k0c + A2_1 * k1c) * h
    k2a = X * (X - bx + Z / p1)
    k2c = Z * (ca - (s * X + delta * X) - Z)
    X = ya + (0.0 + A3_0 * k0a + A3_2 * k2a) * h
    Z = yc + (0.0 + A3_0 * k0c + A3_2 * k2c) * h
    k3a = X * (X - bx + Z / p1)
    k3c = Z * (ca - (s * X + delta * X) - Z)
    X = ya + (0.0 + A4_0 * k0a + A4_2 * k2a + A4_3 * k3a) * h
    Z = yc + (0.0 + A4_0 * k0c + A4_2 * k2c + A4_3 * k3c) * h
    k4a = X * (X - bx + Z / p1)
    k4c = Z * (ca - (s * X + delta * X) - Z)
    X = ya + (0.0 + A5_0 * k0a + A5_3 * k3a + A5_4 * k4a) * h
    Z = yc + (0.0 + A5_0 * k0c + A5_3 * k3c + A5_4 * k4c) * h
    k5a = X * (X - bx + Z / p1)
    k5c = Z * (ca - (s * X + delta * X) - Z)
    X = ya + (0.0 + A6_0 * k0a + A6_3 * k3a + A6_4 * k4a + A6_5 * k5a) * h
    Z = yc + (0.0 + A6_0 * k0c + A6_3 * k3c + A6_4 * k4c + A6_5 * k5c) * h
    k6a = X * (X - bx + Z / p1)
    k6c = Z * (ca - (s * X + delta * X) - Z)
    X = ya + (0.0 + A7_0 * k0a + A7_3 * k3a + A7_4 * k4a + A7_5 * k5a
              + A7_6 * k6a) * h
    Z = yc + (0.0 + A7_0 * k0c + A7_3 * k3c + A7_4 * k4c + A7_5 * k5c
              + A7_6 * k6c) * h
    k7a = X * (X - bx + Z / p1)
    k7c = Z * (ca - (s * X + delta * X) - Z)
    X = ya + (0.0 + A8_0 * k0a + A8_3 * k3a + A8_4 * k4a + A8_5 * k5a + A8_6 * k6a
              + A8_7 * k7a) * h
    Z = yc + (0.0 + A8_0 * k0c + A8_3 * k3c + A8_4 * k4c + A8_5 * k5c + A8_6 * k6c
              + A8_7 * k7c) * h
    k8a = X * (X - bx + Z / p1)
    k8c = Z * (ca - (s * X + delta * X) - Z)
    X = ya + (0.0 + A9_0 * k0a + A9_3 * k3a + A9_4 * k4a + A9_5 * k5a + A9_6 * k6a
              + A9_7 * k7a + A9_8 * k8a) * h
    Z = yc + (0.0 + A9_0 * k0c + A9_3 * k3c + A9_4 * k4c + A9_5 * k5c + A9_6 * k6c
              + A9_7 * k7c + A9_8 * k8c) * h
    k9a = X * (X - bx + Z / p1)
    k9c = Z * (ca - (s * X + delta * X) - Z)
    X = ya + (0.0 + A10_0 * k0a + A10_3 * k3a + A10_4 * k4a + A10_5 * k5a
              + A10_6 * k6a + A10_7 * k7a + A10_8 * k8a + A10_9 * k9a) * h
    Z = yc + (0.0 + A10_0 * k0c + A10_3 * k3c + A10_4 * k4c + A10_5 * k5c
              + A10_6 * k6c + A10_7 * k7c + A10_8 * k8c + A10_9 * k9c) * h
    k10a = X * (X - bx + Z / p1)
    k10c = Z * (ca - (s * X + delta * X) - Z)
    X = ya + (0.0 + A11_0 * k0a + A11_3 * k3a + A11_4 * k4a + A11_5 * k5a
              + A11_6 * k6a + A11_7 * k7a + A11_8 * k8a + A11_9 * k9a + A11_10 * k10a) * h
    Z = yc + (0.0 + A11_0 * k0c + A11_3 * k3c + A11_4 * k4c + A11_5 * k5c
              + A11_6 * k6c + A11_7 * k7c + A11_8 * k8c + A11_9 * k9c + A11_10 * k10c) * h
    k11a = X * (X - bx + Z / p1)
    k11c = Z * (ca - (s * X + delta * X) - Z)
    na = ya + h * (B0 * k0a + B5 * k5a + B6 * k6a + B7 * k7a + B8 * k8a + B9 * k9a
                   + B10 * k10a + B11 * k11a)
    nc = yc + h * (B0 * k0c + B5 * k5c + B6 * k6c + B7 * k7c + B8 * k8c + B9 * k9c
                   + B10 * k10c + B11 * k11c)
    # the error estimate; each scale takes max(abs(y), abs(y_new)) by max()'s comparison
    sa, ma = abs(ya), abs(na)
    sa = ODE_ATOL + (ma if ma > sa else sa) * ODE_RTOL
    r5a = (E5_0 * k0a + E5_5 * k5a + E5_6 * k6a + E5_7 * k7a + E5_8 * k8a + E5_9 * k9a
           + E5_10 * k10a + E5_11 * k11a) / sa
    r3a = (E3_0 * k0a + B5 * k5a + B6 * k6a + B7 * k7a + E3_8 * k8a + B9 * k9a + B10 * k10a
           + E3_11 * k11a) / sa
    sc, mc = abs(yc), abs(nc)
    sc = ODE_ATOL + (mc if mc > sc else sc) * ODE_RTOL
    r5c = (E5_0 * k0c + E5_5 * k5c + E5_6 * k6c + E5_7 * k7c + E5_8 * k8c + E5_9 * k9c
           + E5_10 * k10c + E5_11 * k11c) / sc
    r3c = (E3_0 * k0c + B5 * k5c + B6 * k6c + B7 * k7c + E3_8 * k8c + B9 * k9c + B10 * k10c
           + E3_11 * k11c) / sc
    e5 = r5a * r5a + r5a * r5a + r5c * r5c + r5c * r5c
    e3 = r3a * r3a + r3a * r3a + r3c * r3c + r3c * r3c
    # with e5 = 0 the denominator may underflow to 0 as well
    err = abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * 4) if e5 else 0.0
    return (na, na, nc, nc), (k0, (k5a, k5a, k5c, k5c), (k6a, k6a, k6c, k6c),
                              (k7a, k7a, k7c, k7c), (k8a, k8a, k8c, k8c),
                              (k9a, k9a, k9c, k9c), (k10a, k10a, k10c, k10c),
                              (k11a, k11a, k11c, k11c)), err
