"""The package's ODE integrator: DOP853 on Python floats.

The explicit Runge-Kutta pair of order 8(5, 3) by Dormand and Prince with its
7th-order dense output (Hairer, Norsett and Wanner, *Solving Ordinary
Differential Equations I*, sec. II.5-6), for the 4-component states that the
package integrates: the phase state (X, Y, Z, W), the radial state (u, v, U, V)
and the scalar runs on the diagonal (X, X, Z, Z). A state is a tuple of four
floats, not a numpy array. As in Hairer's `dop853.f`, the written-out steps and
the interpolant write every stage out term by term over the nonzero
coefficients of its tableau row, and once per component; the generic step
loops over a table of the same coefficients. The error estimate is part of the
step, formed from its stage derivatives in the same pass. `steps` rejects a
state of any other length with ValueError.

Four steps compute the same stages, and `_run` alone picks the step of a run,
once per run, from the constants that the field carries. Each step is a module
of its own, next to this one, which `_run` imports for the run that takes it: a
process compiles only the steps that its runs take.

- A field with `phase_constants`, that of `model.phase_rhs`, which every shot,
  phase run and scalar run integrates, runs `_phase_step` (`efdyn._step_phase`),
  the field's four expressions written out in each stage with the field's
  grouping. It runs `_diagonal_step` (`efdyn._step_diagonal`) instead when
  `_on_diagonal` holds for both the constants, (xb, yb, p1, q1, na, nb, s, m,
  delta, mu), and the start state: each pair of entries is equal to the bit
  (zeros of one sign, no NaN). The constants are then exchange-symmetric and
  the run starts on the invariant diagonal (X, X, Z, Z), where the field's b
  and d are its a and c, bit for bit: that step forms components a and c only
  and returns (a, a, c, c). Every scalar phase run and the pi/4 shot of a
  symmetric system take it.
- A field with `radial_constants`, that of `dynamics._radial_rhs`, runs
  `_radial_step` (`efdyn._step_radial`), its four expressions written out in
  the same way; that step skips only the powers that IEEE arithmetic and
  CPython make exact: |U|^ep at ep = 1 (the derivative copysign(|U|, U), 0 at
  U = 0, is U + 0.0), r^ka at ka = 1, the factors u^s at s = 0 and v^m at m = 0
  (1.0, whose product is exact), and r^kb at ka = kb (r^ka).
- Any other field, a test field or a closure, runs `_step`
  (`efdyn._step_generic`), which calls the field once per stage; no shipped
  command takes it. A wrapper made with functools.wraps copies the wrapped
  field's constants and is integrated from them: it is called only where
  `_run` calls the field, twice at the start, once per accepted step and 3
  times per interpolant.

The step modules read the tableau below from this module. The written-out
steps never call the field. All four give the same bits, the same errors and
the same counts. Every run keeps its dense output, read through `Solution.at`:
it keeps each accepted step's data, and the step's interpolant is built to
locate an event in the step or on its first read. A step underflow raises
`errors.StepSizeUnderflow` with the failed run, which answers `at` too.

The step sequence is scipy's: the step-size controller, the initial step, the
error estimate, the dense output and the event location follow
`scipy.integrate.solve_ivp(method="DOP853")`. Each tableau sum adds its nonzero
terms in ascending stage order, as the sum over the full row did from +0.0. A
skipped term is a signed zero, which leaves a sum unchanged unless the sum is -0.0: the
stage sums start at +0.0, so that a zero component with -0.0 derivatives keeps
the sign of its zero. The other sums start at their first term; they would
round differently only if every term were -0.0, and the error sums are squared.
The tests hold the kernel against scipy and against the full-row sums, which
it matches bit for bit while the stage derivatives are finite (a full row
meets 0 * inf = nan in the terms that the kernel skips).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from collections.abc import Callable, Iterator, Sequence
from operator import neg

from .errors import StepSizeUnderflow
from .numerics import ODE_ATOL, ODE_RTOL

# -- tableau ---------------------------------------------------------------
# Coefficients as in scipy/integrate/_ivp/dop853_coefficients.py (SciPy,
# BSD-3-Clause; Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy
# Developers), which takes them from Hairer's DOP853 Fortran code. Only the
# nonzero ones are named, with scipy's 0-based indices: Ci is the node of stage
# i, Ai_j the weight of stage j in stage i (Hairer's a21 is A1_0), Bj the weight
# in the solution (row 12 of A), E5_j and E3_j those of the two error estimates,
# and Dr_j those of row r of the interpolant's coefficients of powers 3..6.

C1, C2 = 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01
C3, C4 = 0.118350341907227396726757197510, 0.281649658092772603273242802490
C5, C6 = 0.333333333333333333333333333333, 0.25
C7, C8 = 0.307692307692307692307692307692, 0.651282051282051282051282051282
C9, C10 = 0.6, 0.857142857142857142857142857142
C11, C13 = 1.0, 0.1
C14, C15 = 0.2, 0.777777777777777777777777777778

A1_0 = 5.26001519587677318785587544488e-2
A2_0, A2_1 = 1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2
A3_0, A3_2 = 2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2
A4_0, A4_2 = 2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1
A4_3 = 9.24834003261792003115737966543e-1
A5_0, A5_3 = 3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1
A5_4 = 1.25467687566822425016691814123e-1
A6_0, A6_3 = 3.7109375e-2, 1.70252211019544039314978060272e-1
A6_4, A6_5 = 6.02165389804559606850219397283e-2, -1.7578125e-2
A7_0, A7_3 = 3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1
A7_4, A7_5 = 1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2
A7_6 = 8.27378916381402288758473766002e-3
A8_0, A8_3 = 6.24110958716075717114429577812e-1, -3.36089262944694129406857109825
A8_4, A8_5 = -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1
A8_6, A8_7 = 2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1
A9_0, A9_3 = 4.77662536438264365890433908527e-1, -2.48811461997166764192642586468
A9_4, A9_5 = -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1
A9_6, A9_7 = 1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1
A9_8 = -2.03312017085086261358222928593e-2
A10_0, A10_3 = -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209
A10_4, A10_5 = 1.09143734899672957818500254654, -8.14978701074692612513997267357
A10_6, A10_7 = -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1
A10_8, A10_9 = 2.49360555267965238987089396762, -3.0467644718982195003823669022
A11_0, A11_3 = 2.27331014751653820792359768449, -1.05344954667372501984066689879e1
A11_4, A11_5 = -2.00087205822486249909675718444, -1.79589318631187989172765950534e1
A11_6, A11_7 = 2.79488845294199600508499808837e1, -2.85899827713502369474065508674
A11_8, A11_9 = -8.87285693353062954433549289258, 1.23605671757943030647266201528e1
A11_10 = 6.43392746015763530355970484046e-1
B0, B5 = 5.42937341165687622380535766363e-2, 4.45031289275240888144113950566
B6, B7 = 1.89151789931450038304281599044, -5.8012039600105847814672114227
B8, B9 = 3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1
B10, B11 = 2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2

# the three extra stages of the dense output
A13_0, A13_6 = 5.61675022830479523392909219681e-2, 2.53500210216624811088794765333e-1
A13_7, A13_8 = -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1
A13_9, A13_10 = 1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3
A13_11, A13_12 = 7.56789766054569976138603589584e-3, -8.298e-3
A14_0, A14_5 = 3.18346481635021405060768473261e-2, 2.83009096723667755288322961402e-2
A14_6, A14_7 = 5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2
A14_10, A14_11 = -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4
A14_12, A14_13 = -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1
A15_0, A15_5 = -4.28896301583791923408573538692e-1, -4.69762141536116384314449447206
A15_6, A15_7 = 7.68342119606259904184240953878, 4.06898981839711007970213554331
A15_8, A15_12 = 3.56727187455281109270669543021e-1, -1.39902416515901462129418009734e-3
A15_13, A15_14 = 2.9475147891527723389556272149, -9.15095847217987001081870187138

E5_0, E5_5 = 0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1
E5_6, E5_7 = -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1
E5_8, E5_9 = -0.3503288487499736816886487290, 0.3341791187130174790297318841
E5_10, E5_11 = 0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1
# E3 = B - bhh, where Hairer's bhh is nonzero in stages 0, 8 and 11 only
E3_0 = B0 - 0.244094488188976377952755905512
E3_8 = B8 - 0.733846688281611857341361741547
E3_11 = B11 - 0.220588235294117647058823529412e-1

D0_0, D0_5 = -0.84289382761090128651353491142e+1, 0.56671495351937776962531783590
D0_6, D0_7 = -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1
D0_8, D0_9 = 0.21170345824450282767155149946e+1, -0.87139158377797299206789907490
D0_10, D0_11 = 0.22404374302607882758541771650e+1, 0.63157877876946881815570249290
D0_12, D0_13 = -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2
D0_14, D0_15 = -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1
D1_0, D1_5 = 0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3
D1_6, D1_7 = 0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3
D1_8, D1_9 = -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1
D1_10, D1_11 = -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1
D1_12, D1_13 = 0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2
D1_14, D1_15 = -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2
D2_0, D2_5 = 0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3
D2_6, D2_7 = -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3
D2_8, D2_9 = -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1
D2_10, D2_11 = -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740
D2_12, D2_13 = -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2
D2_14, D2_15 = 0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2
D3_0, D3_5 = -0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3
D3_6, D3_7 = -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3
D3_8, D3_9 = 0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2
D3_10, D3_11 = 0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2
D3_12, D3_13 = -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2
D3_14, D3_15 = -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3

# -- step-size control -------------------------------------------------------

SAFETY = 0.9
MIN_FACTOR = 0.2                 # largest decrease of the step size at once
MAX_FACTOR = 10.0                # largest increase
ERROR_EXPONENT = -1 / 8          # -1/(error estimator order + 1)
EPS = sys.float_info.epsilon

Rhs = Callable[[float, Sequence[float]], Sequence[float]]


def _rms(xs) -> float:
    """The root mean square of four floats, squares added left to right:
    `sum()` compensates from Python 3.12 on, which moves the initial step."""
    a, b, c, d = xs
    return math.sqrt(a * a + b * b + c * c + d * d) / 2.0


def _initial_step(fun: Rhs, t0, y0, f0, t_bound, direction) -> float:
    interval = abs(t_bound - t0)
    scale = [ODE_ATOL + abs(v) * ODE_RTOL for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    hd = h0 * direction
    f1 = fun(t0 + hd, [v + hd * fv for v, fv in zip(y0, f0)])
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-ERROR_EXPONENT)
    return min(100 * h0, h1, interval)


def _dense_row(h, dy, c0, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14, c15):
    """One component's coefficients of the powers 6..0 in the interpolant's
    Horner scheme, from its increment dy over the step and its stage
    derivatives."""
    return (
        h * (D3_0 * c0 + D3_5 * c5 + D3_6 * c6 + D3_7 * c7 + D3_8 * c8 + D3_9 * c9
             + D3_10 * c10 + D3_11 * c11 + D3_12 * c12 + D3_13 * c13 + D3_14 * c14
             + D3_15 * c15),
        h * (D2_0 * c0 + D2_5 * c5 + D2_6 * c6 + D2_7 * c7 + D2_8 * c8 + D2_9 * c9
             + D2_10 * c10 + D2_11 * c11 + D2_12 * c12 + D2_13 * c13 + D2_14 * c14
             + D2_15 * c15),
        h * (D1_0 * c0 + D1_5 * c5 + D1_6 * c6 + D1_7 * c7 + D1_8 * c8 + D1_9 * c9
             + D1_10 * c10 + D1_11 * c11 + D1_12 * c12 + D1_13 * c13 + D1_14 * c14
             + D1_15 * c15),
        h * (D0_0 * c0 + D0_5 * c5 + D0_6 * c6 + D0_7 * c7 + D0_8 * c8 + D0_9 * c9
             + D0_10 * c10 + D0_11 * c11 + D0_12 * c12 + D0_13 * c13 + D0_14 * c14
             + D0_15 * c15),
        2 * dy - h * (c12 + c0), h * c0 - dy, dy)


class StepInterpolant:
    """The 7-term DOP853 interpolant over one accepted step, from the step's
    stage derivatives ks = (k0, k5, ..., k11) and k12 = fun(t_old + h, y).
    The constructor computes the three extra stages, with 3 calls of `fun`,
    and `coeffs`: per component, the coefficients of the powers 6..0 of the
    Horner scheme."""

    __slots__ = ("t_old", "h", "y_old", "coeffs")

    def __init__(self, fun: Rhs, t_old, h, y_old, y, ks, k12):
        self.t_old, self.h, self.y_old = t_old, h, y_old
        ya, yb, yc, yd = y_old
        ((k0a, k0b, k0c, k0d), (k5a, k5b, k5c, k5d), (k6a, k6b, k6c, k6d),
         (k7a, k7b, k7c, k7d), (k8a, k8b, k8c, k8d), (k9a, k9b, k9c, k9d),
         (k10a, k10b, k10c, k10d), (k11a, k11b, k11c, k11d)) = ks
        k12a, k12b, k12c, k12d = k12
        k13a, k13b, k13c, k13d = fun(t_old + C13 * h, (
            ya + (A13_0 * k0a + A13_6 * k6a + A13_7 * k7a + A13_8 * k8a + A13_9 * k9a
                  + A13_10 * k10a + A13_11 * k11a + A13_12 * k12a) * h,
            yb + (A13_0 * k0b + A13_6 * k6b + A13_7 * k7b + A13_8 * k8b + A13_9 * k9b
                  + A13_10 * k10b + A13_11 * k11b + A13_12 * k12b) * h,
            yc + (A13_0 * k0c + A13_6 * k6c + A13_7 * k7c + A13_8 * k8c + A13_9 * k9c
                  + A13_10 * k10c + A13_11 * k11c + A13_12 * k12c) * h,
            yd + (A13_0 * k0d + A13_6 * k6d + A13_7 * k7d + A13_8 * k8d + A13_9 * k9d
                  + A13_10 * k10d + A13_11 * k11d + A13_12 * k12d) * h))
        k14a, k14b, k14c, k14d = fun(t_old + C14 * h, (
            ya + (A14_0 * k0a + A14_5 * k5a + A14_6 * k6a + A14_7 * k7a
                  + A14_10 * k10a + A14_11 * k11a + A14_12 * k12a + A14_13 * k13a) * h,
            yb + (A14_0 * k0b + A14_5 * k5b + A14_6 * k6b + A14_7 * k7b
                  + A14_10 * k10b + A14_11 * k11b + A14_12 * k12b + A14_13 * k13b) * h,
            yc + (A14_0 * k0c + A14_5 * k5c + A14_6 * k6c + A14_7 * k7c
                  + A14_10 * k10c + A14_11 * k11c + A14_12 * k12c + A14_13 * k13c) * h,
            yd + (A14_0 * k0d + A14_5 * k5d + A14_6 * k6d + A14_7 * k7d
                  + A14_10 * k10d + A14_11 * k11d + A14_12 * k12d + A14_13 * k13d) * h))
        k15a, k15b, k15c, k15d = fun(t_old + C15 * h, (
            ya + (A15_0 * k0a + A15_5 * k5a + A15_6 * k6a + A15_7 * k7a + A15_8 * k8a
                  + A15_12 * k12a + A15_13 * k13a + A15_14 * k14a) * h,
            yb + (A15_0 * k0b + A15_5 * k5b + A15_6 * k6b + A15_7 * k7b + A15_8 * k8b
                  + A15_12 * k12b + A15_13 * k13b + A15_14 * k14b) * h,
            yc + (A15_0 * k0c + A15_5 * k5c + A15_6 * k6c + A15_7 * k7c + A15_8 * k8c
                  + A15_12 * k12c + A15_13 * k13c + A15_14 * k14c) * h,
            yd + (A15_0 * k0d + A15_5 * k5d + A15_6 * k6d + A15_7 * k7d + A15_8 * k8d
                  + A15_12 * k12d + A15_13 * k13d + A15_14 * k14d) * h))
        na, nb, nc, nd = y
        self.coeffs = (
            _dense_row(h, na - ya, k0a, k5a, k6a, k7a, k8a, k9a, k10a, k11a, k12a, k13a,
                       k14a, k15a),
            _dense_row(h, nb - yb, k0b, k5b, k6b, k7b, k8b, k9b, k10b, k11b, k12b, k13b,
                       k14b, k15b),
            _dense_row(h, nc - yc, k0c, k5c, k6c, k7c, k8c, k9c, k10c, k11c, k12c, k13c,
                       k14c, k15c),
            _dense_row(h, nd - yd, k0d, k5d, k6d, k7d, k8d, k9d, k10d, k11d, k12d, k13d,
                       k14d, k15d))

    def __call__(self, t) -> tuple[float, float, float, float]:
        x = (t - self.t_old) / self.h
        x1 = 1 - x
        ya, yb, yc, yd = self.y_old
        ((a0, a1, a2, a3, a4, a5, a6), (b0, b1, b2, b3, b4, b5, b6),
         (c0, c1, c2, c3, c4, c5, c6), (d0, d1, d2, d3, d4, d5, d6)) = self.coeffs
        return (
            (((((((0.0 + a0) * x + a1) * x1 + a2) * x + a3) * x1 + a4) * x + a5) * x1
             + a6) * x + ya,
            (((((((0.0 + b0) * x + b1) * x1 + b2) * x + b3) * x1 + b4) * x + b5) * x1
             + b6) * x + yb,
            (((((((0.0 + c0) * x + c1) * x1 + c2) * x + c3) * x1 + c4) * x + c5) * x1
             + c6) * x + yc,
            (((((((0.0 + d0) * x + d1) * x1 + d2) * x + d3) * x1 + d4) * x + d5) * x1
             + d6) * x + yd)


class Solution:
    """A kernel run: its accepted points and states, its status, the events it
    located, its dense output (`at`) and its counts. A run answers `at` over
    the steps it has taken, whether it ran to its end, was stopped early or
    failed."""

    __slots__ = ("t", "y", "status", "events", "pieces", "nfev", "n_accepted", "n_rejected")

    def __init__(self, t: list[float], y: list[tuple[float, ...]], pieces: list):
        self.t = t                   # accepted step points, the last one possibly an event
        self.y = y
        self.status = None           # 0: reached t_bound; 1: terminal event; -1: step underflow;
                                     # None: the run goes on (`steps`)
        self.events = []             # (t, name) per located root, in the order found:
                                     # step by step, a terminal one last
        self.pieces = pieces         # per accepted step, its StepInterpolant's arguments
                                     # or, once built, the interpolant (an empty span:
                                     # the constant of its point)
        self.nfev = 0                # the run's right-hand side evaluations: 11 per attempted
                                     # step, 1 more per accepted one, 3 per interpolant built
                                     # to locate an event, 2 to start
        self.n_accepted = 0          # accepted steps
        self.n_rejected = 0          # rejected step attempts

    def at(self, t) -> tuple[float, ...]:
        """The state at t, from the interpolant of the step that holds t; at a
        step boundary, the earlier step's. A step's interpolant is built on
        its first read, with 3 evaluations of the field that `nfev` does not
        count, and kept. A run with no step holds its initial point only."""
        ts, pieces = self.t, self.pieces
        n = len(pieces)
        if not n:
            if t == ts[0]:
                return self.y[0]
            raise ValueError(f"a run with no accepted step holds only t = {ts[0]}, not {t}")
        if ts[-1] >= ts[0]:
            seg = min(max(bisect_left(ts, t) - 1, 0), n - 1)
        else:
            # the number of points at or below t, counted on the descending list
            below = len(ts) - bisect_left(ts, -t, key=neg)
            seg = n - 1 - min(max(below - 1, 0), n - 1)
        piece = pieces[seg]
        if type(piece) is tuple:
            piece = pieces[seg] = StepInterpolant(*piece)
        return piece(t)


def find_root(f: Callable[[float], float], a: float, b: float,
              xtol: float = 4 * EPS) -> float:
    """A zero of f in the bracket [a, b] by Brent's method (the iteration of
    scipy.optimize.brentq), to within xtol + 4 eps |x|.

    Of the final bracket, the end on b's side of the zero is returned: f has
    the sign of f(b) there, or is 0. A located event has thus happened at the
    returned time, however steep g is.
    """
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre != fpre or fcur != fcur:
        raise ValueError("the function value is NaN")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    b_negative = fcur < 0.0
    if (fpre < 0.0) == b_negative:
        raise ValueError("f(a) and f(b) must have different signs")
    rtol = 4 * EPS
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur if fcur == 0.0 or (fcur < 0.0) == b_negative else xblk
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:            # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                       # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if fcur != fcur:
            raise ValueError("the function value is NaN")
    raise RuntimeError("root finding did not converge in 100 iterations")


def steps(fun: Rhs, t0: float, y0: Sequence[float], t_bound: float,
          events: Sequence = ()) -> Iterator[Solution]:
    """Integrate y' = fun(t, y) from (t0, y0) toward t_bound, one accepted step
    at a time, to the tolerances ODE_RTOL and ODE_ATOL of `efdyn.numerics`.

    Yields one `Solution` after each accepted step, the same object each time,
    grown in place: the points, events, step data and counts so far, with
    `status` None while the run goes on. The last yield carries the final
    status. A consumer may stop after any yield: the steps taken so far do
    not depend on it, and `Solution.at` answers over them. Only
    `dynamics.classify_shot` stops a run early, at its S-decision; every
    other run calls `solve`.

    Each event has `name`, `fn(t, y)`, `terminal` and `direction` (> 0: upward
    zero crossings only, < 0: downward only, 0: both). Its zeros are located on
    the step interpolant to 4 eps, and `Solution.events` records each as a
    (t, name) pair, in the order found; the state at a root is
    `Solution.at(root)`. A terminal event ends the run at its zero, on the
    step's interpolant there, which becomes the last point and the last
    pair: the step's zeros past the earliest terminal one are dropped. A
    step's interpolant is built to locate an event in it or on its first
    read by `at`; `Solution.nfev` counts those built during the run, 3
    evaluations each.

    A step size that collapses below 10 ulp of t (a NaN step too) raises
    `errors.StepSizeUnderflow`, whose `run` is the failed run, status -1.

    The run's step is picked from the constants that the field carries (see
    the module docstring); every step gives the same bits and the same counts.

    The state has four components; a state of another length raises
    ValueError at the call.
    """
    y = tuple(float(v) for v in y0)
    if len(y) != 4:
        raise ValueError(f"the kernel integrates states of length 4, not {len(y)}")
    return _run(fun, float(t0), y, float(t_bound), tuple(events))


def _on_diagonal(values) -> bool:
    """Whether values[1] = values[0], values[3] = values[2], ... to the bit:
    zeros of one sign, and no NaN."""
    copysign = math.copysign
    return all(a == b and copysign(1.0, a) == copysign(1.0, b)
               for a, b in zip(values[::2], values[1::2]))


def _run(fun: Rhs, t, y, t_bound, events) -> Iterator[Solution]:
    """The stepping loop of `steps`, on a checked 4-component state: the run
    keeps every step's interpolant, or the data that builds it, in its
    `pieces`."""
    ts, ys, pieces = [t], [y], []
    out = Solution(ts, ys, pieces)
    if t == t_bound:
        ts.append(t)
        ys.append(y)
        pieces.append(lambda s: y)
        out.status = 0
        yield out
        return

    # the one place that picks a run's step (see the module docstring)
    if hasattr(fun, "phase_constants"):
        arg = fun.phase_constants
        if _on_diagonal(arg) and _on_diagonal(y):
            from ._step_diagonal import _diagonal_step as step
        else:
            from ._step_phase import _phase_step as step
    elif hasattr(fun, "radial_constants"):
        from ._step_radial import _radial_step as step
        arg = fun.radial_constants
    else:
        from ._step_generic import _step as step
        arg = fun
    direction = 1.0 if t_bound > t else -1.0
    nextafter, toward = math.nextafter, direction * math.inf
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, direction)
    nfev, n_accepted, n_rejected = 2, 0, 0
    # event i counts upward zeros unless its direction is < 0, downward unless > 0
    fns = [ev.fn for ev in events]
    ups = [not ev.direction < 0 for ev in events]
    downs = [not ev.direction > 0 for ev in events]
    g = [fn(t, y) for fn in fns]
    indices = range(len(events))
    status = None
    while status is None:
        min_step = 10 * abs(nextafter(t, toward) - t)
        if min_step > h_abs:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:       # a NaN step (non-finite y0 or f) too
                out.status, out.nfev, out.n_accepted, out.n_rejected = \
                    -1, nfev, n_accepted, n_rejected
                raise StepSizeUnderflow(
                    "Required step size is less than spacing between numbers.", run=out)
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, ks, err = step(arg, t, y, f, h)
            nfev += 11
            # scipy's min()/max() of the factors, as comparisons: NaN gives MIN_FACTOR
            if err < 1:
                factor = SAFETY * err ** ERROR_EXPONENT if err else MAX_FACTOR
                bound = 1.0 if rejected else MAX_FACTOR
                h_abs *= factor if factor < bound else bound
                break
            factor = SAFETY * err ** ERROR_EXPONENT
            h_abs *= factor if factor > MIN_FACTOR else MIN_FACTOR
            rejected = True
            n_rejected += 1
        n_accepted += 1
        # the error estimate does not read f at t_new: a rejected attempt skips it
        f_new = fun(t_new, y_new)
        nfev += 1

        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if direction * (t - t_bound) >= 0:
            status = 0
        piece = (fun, t_old, h, y_old, y, ks, f)

        if events:
            active = []
            for i in indices:
                a, b = g[i], fns[i](t, y)
                g[i] = b
                if ups[i] and a <= 0.0 <= b or downs[i] and a >= 0.0 >= b:
                    active.append(i)
            if active:
                # locating a zero evaluates the piece: it is built here
                piece = StepInterpolant(*piece)
                nfev += 3
                found = [(find_root(lambda s, fn=fns[i]: fn(s, piece(s)), t_old, t), i)
                         for i in active]
                if any(events[i].terminal for i in active):
                    found.sort(key=lambda ri: ri[0] * direction)
                    cut = next(k for k, (_, i) in enumerate(found) if events[i].terminal)
                    found = found[:cut + 1]
                    status = 1
                out.events.extend((root, events[i].name) for root, i in found)
                if status == 1:     # the run ends at its terminal zero
                    t = found[-1][0]
                    y = piece(t)

        # a terminal zero at the step's start adds no point
        if ts[-1] != t or len(ts) == 1:
            ts.append(t)
            ys.append(y)
            pieces.append(piece)
        out.status, out.nfev, out.n_accepted, out.n_rejected = \
            status, nfev, n_accepted, n_rejected
        yield out


def solve(fun: Rhs, t0: float, y0: Sequence[float], t_bound: float,
          events: Sequence = ()) -> Solution:
    """`steps` run to its end: the final `Solution`, whose `at` evaluates the
    solution over the whole run. A step underflow raises
    `errors.StepSizeUnderflow` with the failed run."""
    for sol in steps(fun, t0, y0, t_bound, events):
        pass
    return sol
