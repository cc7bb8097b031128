"""The generic DOP853 step, `_step`: it calls the field once per stage, whatever
the field, and loops over the tableau. `dop853._run` imports it for a run of a
field that carries no constants (see the `dop853` module docstring); no
shipped command takes it. The written-out steps give its bits."""

from __future__ import annotations

import math

from .dop853 import (C1, C2, C3, C4, C5, C6, C7, C8, C9, C10, C11, A1_0, A2_0, A2_1, A3_0, A3_2,
                     A4_0, A4_2, A4_3, A5_0, A5_3, A5_4, A6_0, A6_3, A6_4, A6_5, A7_0, A7_3, A7_4,
                     A7_5, A7_6, A8_0, A8_3, A8_4, A8_5, A8_6, A8_7, A9_0, A9_3, A9_4, A9_5, A9_6,
                     A9_7, A9_8, A10_0, A10_3, A10_4, A10_5, A10_6, A10_7, A10_8, A10_9, A11_0,
                     A11_3, A11_4, A11_5, A11_6, A11_7, A11_8, A11_9, A11_10, B0, B5, B6, B7, B8,
                     B9, B10, B11, E5_0, E5_5, E5_6, E5_7, E5_8, E5_9, E5_10, E5_11, E3_0, E3_8,
                     E3_11, Rhs)
from .numerics import ODE_ATOL, ODE_RTOL

# stages 1..11: the node Ci and the nonzero (j, Ai_j) of row i, ascending in j
_STAGES = (
    (C1, ((0, A1_0),)),
    (C2, ((0, A2_0), (1, A2_1))),
    (C3, ((0, A3_0), (2, A3_2))),
    (C4, ((0, A4_0), (2, A4_2), (3, A4_3))),
    (C5, ((0, A5_0), (3, A5_3), (4, A5_4))),
    (C6, ((0, A6_0), (3, A6_3), (4, A6_4), (5, A6_5))),
    (C7, ((0, A7_0), (3, A7_3), (4, A7_4), (5, A7_5), (6, A7_6))),
    (C8, ((0, A8_0), (3, A8_3), (4, A8_4), (5, A8_5), (6, A8_6), (7, A8_7))),
    (C9, ((0, A9_0), (3, A9_3), (4, A9_4), (5, A9_5), (6, A9_6), (7, A9_7), (8, A9_8))),
    (C10, ((0, A10_0), (3, A10_3), (4, A10_4), (5, A10_5), (6, A10_6), (7, A10_7),
           (8, A10_8), (9, A10_9))),
    (C11, ((0, A11_0), (3, A11_3), (4, A11_4), (5, A11_5), (6, A11_6), (7, A11_7),
           (8, A11_8), (9, A11_9), (10, A11_10))),
)
# the stages that y_new and the error estimate read: (j, Bj, E5_j, E3_j), where
# E3_j = Bj but at j = 0, 8 and 11
_WEIGHTS = ((0, B0, E5_0, E3_0), (5, B5, E5_5, B5), (6, B6, E5_6, B6), (7, B7, E5_7, B7),
            (8, B8, E5_8, E3_8), (9, B9, E5_9, B9), (10, B10, E5_10, B10),
            (11, B11, E5_11, E3_11))


def _step(fun: Rhs, t, y, k0, h):
    """Stages 1..11 of a step of size h from (t, y), where k0 = fun(t, y), the
    new state and, in the same pass, the E5/E3 error estimate (Hairer's) in
    the weighted RMS norm: returns y_new, the stage derivatives (k0, k5, ...,
    k11) that the interpolant reads, and the estimate. Every sum adds left to
    right: a stage sum from +0.0, those of y_new and of the estimate from
    -0.0, which leaves their first term as it is (-0.0 + x is x, bit for
    bit)."""
    ks = [k0]
    for c, row in _STAGES:
        stage = []
        for n, yn in enumerate(y):
            acc = 0.0
            for j, a in row:
                acc = acc + a * ks[j][n]
            stage.append(yn + acc * h)
        ks.append(fun(t + c * h, tuple(stage)))
    y_new, e5, e3 = [], -0.0, -0.0
    for n, yn in enumerate(y):
        acc = r5 = r3 = -0.0
        for j, b, w5, w3 in _WEIGHTS:
            kj = ks[j][n]
            acc, r5, r3 = acc + b * kj, r5 + w5 * kj, r3 + w3 * kj
        new = yn + h * acc
        y_new.append(new)
        # the scale takes max(abs(y), abs(y_new)) by max()'s comparison
        scale, m = abs(yn), abs(new)
        scale = ODE_ATOL + (m if m > scale else scale) * ODE_RTOL
        r5, r3 = r5 / scale, r3 / scale
        e5, e3 = e5 + r5 * r5, e3 + r3 * r3
    # with e5 = 0 the denominator may underflow to 0 as well
    err = abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * 4) if e5 else 0.0
    return tuple(y_new), (k0, *ks[5:]), err
