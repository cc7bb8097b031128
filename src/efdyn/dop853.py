"""The package's ODE integrator: DOP853 on Python floats.

The explicit Runge-Kutta pair of order 8(5, 3) by Dormand and Prince with its
7th-order dense output (Hairer, Norsett and Wanner, *Solving Ordinary
Differential Equations I*, sec. II.5-6). The step-size controller, the initial
step, the error norm, the dense output and the event location follow
`scipy.integrate.solve_ivp(method="DOP853")`; the states are short lists of
floats instead of numpy arrays, which removes most of the per-step cost on the
4-component systems integrated here. The tests hold it against scipy.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import mul
from typing import Callable, Sequence

__all__ = ["Solution", "DenseSolution", "solve", "find_root"]

# -- tableau ---------------------------------------------------------------
# Coefficients as in scipy/integrate/_ivp/dop853_coefficients.py (SciPy,
# BSD-3-Clause; Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy
# Developers), which takes them from Hairer's DOP853 Fortran code. Rows of A
# are lower-triangular, given by their nonzero entries.

N_STAGES = 12
N_STAGES_EXTENDED = 16

C = (0.0,
     0.526001519587677318785587544488e-01,
     0.789002279381515978178381316732e-01,
     0.118350341907227396726757197510,
     0.281649658092772603273242802490,
     0.333333333333333333333333333333,
     0.25,
     0.307692307692307692307692307692,
     0.651282051282051282051282051282,
     0.6,
     0.857142857142857142857142857142,
     1.0,
     1.0,
     0.1,
     0.2,
     0.777777777777777777777777777778)

_A_NONZERO = (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
)


def _dense_row(nonzero: dict, length: int) -> tuple[float, ...]:
    return tuple(nonzero.get(j, 0.0) for j in range(length))


# A[i] holds the coefficients of stages 0..i-1 that build stage i
A = tuple(_dense_row(row, i) for i, row in enumerate(_A_NONZERO))
B = A[N_STAGES]

E3 = tuple(b - c for b, c in zip(B, _dense_row({0: 0.244094488188976377952755905512,
                                                8: 0.733846688281611857341361741547,
                                                11: 0.220588235294117647058823529412e-1},
                                               N_STAGES))) + (0.0,)
E5 = _dense_row({0: 0.1312004499419488073250102996e-1,
                 5: -0.1225156446376204440720569753e+1,
                 6: -0.4957589496572501915214079952,
                 7: 0.1664377182454986536961530415e+1,
                 8: -0.3503288487499736816886487290,
                 9: 0.3341791187130174790297318841,
                 10: 0.8192320648511571246570742613e-1,
                 11: -0.2235530786388629525884427845e-1}, N_STAGES + 1)

# the interpolant's coefficients of powers 3..6, over all 16 stages
D = tuple(_dense_row(row, N_STAGES_EXTENDED) for row in (
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
))

# -- step-size control -------------------------------------------------------

SAFETY = 0.9
MIN_FACTOR = 0.2                 # largest decrease of the step size at once
MAX_FACTOR = 10.0                # largest increase
ERROR_EXPONENT = -1 / 8          # -1/(error estimator order + 1)
EPS = sys.float_info.epsilon

_STAGES = tuple(zip(A[1:N_STAGES], C[1:N_STAGES]))
_EXTRA_STAGES = tuple(zip(A[N_STAGES + 1:], C[N_STAGES + 1:]))

Rhs = Callable[[float, list], Sequence[float]]


def _rms(xs) -> float:
    return math.sqrt(sum(x * x for x in xs)) / len(xs) ** 0.5


def _initial_step(fun: Rhs, t0, y0, f0, t_bound, direction, rtol, atol) -> float:
    interval = abs(t_bound - t0)
    scale = [atol + abs(v) * rtol for v in y0]
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


def _stages(fun: Rhs, t, y, h, K, stages) -> None:
    """Append the stages `stages` to K, where K[i] lists the stage derivatives
    of component i so far."""
    for a, c in stages:
        ys = [yi + sum(map(mul, ki, a)) * h for yi, ki in zip(y, K)]
        for ki, fi in zip(K, fun(t + c * h, ys)):
            ki.append(fi)


def _error_norm(K, h, y, y_new, rtol, atol) -> float:
    """The E5/E3 error estimate (Hairer's DOP853) in the weighted RMS norm."""
    e5 = e3 = 0.0
    for ki, a, b in zip(K, y, y_new):
        scale = atol + max(abs(a), abs(b)) * rtol
        r5 = sum(map(mul, ki, E5)) / scale
        r3 = sum(map(mul, ki, E3)) / scale
        e5 += r5 * r5
        e3 += r3 * r3
    if e5 == 0.0 and e3 == 0.0:
        return 0.0
    return abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * len(y))


class StepInterpolant:
    """The 7-term DOP853 interpolant over one accepted step."""

    __slots__ = ("t_old", "h", "y_old", "coeffs")

    def __init__(self, fun: Rhs, t_old, h, y_old, y, f_old, f, K):
        _stages(fun, t_old, y_old, h, K, _EXTRA_STAGES)
        self.t_old, self.h, self.y_old = t_old, h, y_old
        coeffs = []
        for yo, yn, fo, fn, ki in zip(y_old, y, f_old, f, K):
            dy = yn - yo
            F = [dy, h * fo - dy, 2 * dy - h * (fn + fo)]
            F += [h * sum(map(mul, row, ki)) for row in D]
            coeffs.append(F[::-1])
        self.coeffs = coeffs

    def __call__(self, t) -> list[float]:
        x = (t - self.t_old) / self.h
        x1 = 1 - x
        weights = (x, x1, x, x1, x, x1, x)
        out = []
        for yo, cs in zip(self.y_old, self.coeffs):
            acc = 0.0
            for c, w in zip(cs, weights):
                acc = (acc + c) * w
            out.append(acc + yo)
        return out


class DenseSolution:
    """Piecewise interpolant over the accepted steps. At a step boundary the
    earlier step's piece is used."""

    def __init__(self, ts: list[float], pieces: list):
        self.ascending = ts[-1] >= ts[0]
        self.ts_sorted = ts if self.ascending else ts[::-1]
        self.pieces = pieces

    def __call__(self, t) -> list[float]:
        n = len(self.pieces)
        if self.ascending:
            seg = min(max(bisect_left(self.ts_sorted, t) - 1, 0), n - 1)
        else:
            seg = n - 1 - min(max(bisect_right(self.ts_sorted, t) - 1, 0), n - 1)
        return self.pieces[seg](t)


@dataclass
class Solution:
    t: list[float]                   # accepted step points, the last one possibly an event
    y: list[list[float]]
    status: int                      # 0: reached t_bound; 1: terminal event; -1: step underflow
    t_events: list[list[float]]      # per event, in integration order
    sol: DenseSolution | None = None


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


def _crossed(g_old, g_new, direction) -> bool:
    if direction > 0:
        return g_old <= 0.0 <= g_new
    if direction < 0:
        return g_old >= 0.0 >= g_new
    return g_old <= 0.0 <= g_new or g_old >= 0.0 >= g_new


def solve(fun: Rhs, t0: float, y0: Sequence[float], t_bound: float,
          rtol: float, atol: float, events: Sequence = (),
          dense: bool = False) -> Solution:
    """Integrate y' = fun(t, y) from (t0, y0) toward t_bound.

    Each event has `fn(t, y)`, `terminal` and `direction` (> 0: upward zero
    crossings only, < 0: downward only, 0: both). Its zeros are located on the
    step interpolant to 4 eps; a terminal event ends the run at its zero, which
    becomes the last point. With `dense`, `Solution.sol` evaluates the solution
    anywhere on the integrated span; otherwise interpolants are built only for
    steps with an event.
    """
    t, t_bound = float(t0), float(t_bound)
    y = [float(v) for v in y0]
    events = tuple(events)
    ts, ys = [t], [y]
    pieces: list | None = [] if dense else None
    t_events: list[list[float]] = [[] for _ in events]
    if t == t_bound:
        ts.append(t)
        ys.append(y)
        sol = DenseSolution(ts, [lambda s: list(y)]) if dense else None
        return Solution(ts, ys, 0, t_events, sol)

    direction = 1.0 if t_bound > t else -1.0
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, direction, rtol, atol)
    g = [ev.fn(t, y) for ev in events]
    status = None
    while status is None:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return Solution(ts, ys, -1, t_events)
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            K = [[fi] for fi in f]
            _stages(fun, t, y, h, K, _STAGES)
            y_new = [yi + h * sum(map(mul, ki, B)) for yi, ki in zip(y, K)]
            f_new = fun(t_new, y_new)
            for ki, fi in zip(K, f_new):
                ki.append(fi)
            err = _error_norm(K, h, y, y_new, rtol, atol)
            if err < 1:
                factor = MAX_FACTOR if err == 0 else min(MAX_FACTOR,
                                                         SAFETY * err ** ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err ** ERROR_EXPONENT)
            rejected = True

        t_old, y_old, f_old = t, y, f
        t, y, f = t_new, y_new, f_new
        if direction * (t - t_bound) >= 0:
            status = 0
        piece = StepInterpolant(fun, t_old, h, y_old, y, f_old, f, K) if dense else None

        if events:
            g_new = [ev.fn(t, y) for ev in events]
            active = [i for i, ev in enumerate(events)
                      if _crossed(g[i], g_new[i], ev.direction)]
            if active:
                if piece is None:
                    piece = StepInterpolant(fun, t_old, h, y_old, y, f_old, f, K)
                found = [(find_root(lambda s, fn=events[i].fn: fn(s, piece(s)), t_old, t), i)
                         for i in active]
                if any(events[i].terminal for i in active):
                    found.sort(key=lambda ri: ri[0] * direction)
                    cut = next(k for k, (_, i) in enumerate(found) if events[i].terminal)
                    found = found[:cut + 1]
                    status = 1
                    t = found[-1][0]
                    y = piece(t)
                for root, i in found:
                    t_events[i].append(root)
            g = g_new

        if dense and len(ts) > 1 and ts[-1] == t:
            continue        # a terminal zero at the step's start adds no point
        ts.append(t)
        ys.append(y)
        if dense:
            pieces.append(piece)

    return Solution(ts, ys, status, t_events, DenseSolution(ts, pieces) if dense else None)
