"""Workload generators, operations and output checks.

Each workload turns the benchmark seed into inputs (CLI configs or parameter
records) and runs them in a closed loop with one client: the next operation
starts only when the previous one has finished. efdyn receives only the
generated inputs. A pass is one run of every operation of the workload; the
benchmark repeats passes, and an operation whose output digest differs between
passes counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import select
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import merge

HERE = Path(__file__).resolve().parent

ORACLE_RHO = 1e-6
N_ORACLE = 20              # configurations per pass, half Hamiltonian, half potential
SCALAR_SETS = 1            # (N, p, a) draws, each run through all six behaviour bands
CHILD_TIMEOUT_S = 120.0
REFERENCE_SAMPLE_S = 0.016   # speed_sample() at the speed end-to-end times are reported at


@dataclass
class OpResult:
    key: str
    latency: float
    error: str | None = None          # the op failed: exception, exit code or output check
    mismatch: bool | None = None      # verdict disagrees with prediction/evidence; None: no verdict
    digest: str | None = None         # output digest compared across passes
    ref: float | None = None          # latency at the reference speed (untraced passes)


@dataclass
class PassResult:
    wall: float                       # the pass's work: its ops back to back
    ops: list[OpResult]
    ref_wall: float | None = None     # wall at the reference speed (untraced passes)
    peak_rss_kb: int = 0              # CLI workloads: largest child of the pass
    spans: list = field(default_factory=list)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _stratified(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """k draws, uniform on [lo, hi] each, one per stratum, in random order.

    Stratifying keeps the cost of a pass close across seeds while every
    single draw keeps the distribution it is specified with."""
    vals = [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]
    rng.shuffle(vals)
    return vals


# -- child processes -------------------------------------------------------------

@dataclass
class ChildRun:
    code: int
    wall: float
    maxrss_kb: int
    stderr: str


def run_child(argv: list[str], env: dict, cwd: str, timeout: float = CHILD_TIMEOUT_S) -> ChildRun:
    """Run one process to completion; wall time, exit code and its own peak RSS."""
    with tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            try:
                fd = os.pidfd_open(proc.pid)
            except (AttributeError, OSError):
                fd = None
            if fd is not None:
                try:
                    ready, _, _ = select.select([fd], [], [], timeout)
                finally:
                    os.close(fd)
                if not ready:
                    proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode(errors="replace")
    return ChildRun(proc.returncode, wall, usage.ru_maxrss, text[-2000:])


# -- machine speed ------------------------------------------------------------------

def _reference_rhs(t, y):
    a, b, c, d = y
    return np.array([a * (1 - a - 0.5 * b), b * (0.8 - b - 0.3 * c),
                     c * (0.6 - c + 0.2 * a), d * (0.5 - d + 0.1 * b)])


def speed_sample() -> float:
    """Seconds for one fixed DOP853 solve of a small quadratic system: the
    scipy and numpy code paths of efdyn's shots, on no efdyn code.

    The reference machine changes speed by up to 1.9x for tens of seconds at a
    time; the ratio of an op's time to the samples around it stays within a
    few per cent (see README)."""
    from scipy.integrate import solve_ivp
    t0 = time.perf_counter()
    solve_ivp(_reference_rhs, (0.0, 800.0), [0.1, 0.2, 0.3, 0.4], method="DOP853",
              rtol=1e-10, atol=1e-12)
    return time.perf_counter() - t0


def at_reference(seconds: float, before: float, after: float) -> float:
    """A time measured between two speed samples, at the reference speed."""
    return seconds * REFERENCE_SAMPLE_S / (0.5 * (before + after))


class Context:
    """What every workload needs from the run: paths, child environment,
    tracer, and the speed sample taken after the last timed op."""

    def __init__(self, root: Path, work: Path, env: dict):
        self.root = root
        self.work = work
        self.env = env
        self.recorder = None          # spans.Recorder while a traced pass runs
        self.last_speed: float | None = None
        self._n = 0

    def speed_before(self) -> float:
        if self.last_speed is None:
            self.last_speed = speed_sample()
        return self.last_speed

    def speed_after(self) -> float:
        self.last_speed = speed_sample()
        return self.last_speed

    def timed_child(self, argv: list[str]) -> tuple[ChildRun, float]:
        """A child process between two speed samples: (run, wall at the reference speed)."""
        before = self.speed_before()
        run = run_child(argv, self.env, str(self.root))
        return run, at_reference(run.wall, before, self.speed_after())

    def fresh_dir(self) -> str:
        self._n += 1
        return tempfile.mkdtemp(prefix=f"op{self._n}-", dir=self.work)

    def write_config(self, cfg: dict) -> str:
        d = self.fresh_dir()
        path = os.path.join(d, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=2, sort_keys=True)
        return path


def _cli(ctx: Context, command: str, cfg_path: str, out_dir: str, op_id: str,
         mode: str | None) -> tuple[ChildRun, float | None, dict | None]:
    """One fresh CLI process: (run, wall at the reference speed, hooks).
    Untraced CLI ops run ``python -m efdyn.cli`` between two speed samples;
    ``mode`` selects the launcher that installs hooks first (``clock`` or
    ``trace``) and returns what it recorded."""
    args = [command, "--config", cfg_path, "--out", out_dir]
    if mode is None:
        return *ctx.timed_child([sys.executable, "-m", "efdyn.cli"] + args), None
    record = out_dir + ".hooks.json"
    argv = [sys.executable, str(HERE / "launch.py"), mode, op_id, record, "--"] + args
    run = run_child(argv, ctx.env, str(ctx.root))
    try:
        with open(record) as fh:
            return run, None, json.load(fh)
    except (OSError, ValueError):
        return run, None, None


def _pass(ops: list[OpResult], peak_rss_kb: int = 0, spans=None) -> PassResult:
    """A pass whose ops ran back to back."""
    refs = [op.ref for op in ops]
    return PassResult(sum(op.latency for op in ops), ops,
                      None if None in refs else sum(refs), peak_rss_kb, spans or [])


def _read_report(out_dir: str) -> tuple[bytes | None, dict | None, str | None]:
    try:
        with open(os.path.join(out_dir, "report.json"), "rb") as fh:
            raw = fh.read()
        return raw, json.loads(raw), None
    except OSError as exc:
        return None, None, f"missing report.json: {exc}"
    except ValueError as exc:
        return None, None, f"unparseable report.json: {exc}"


def _verdict_mismatch(predicted: str, found_gs: bool) -> bool | None:
    """Search verdict against the predictor; unknown predictions are excluded."""
    if predicted in ("GS-exists", "all-regular-are-GS"):
        return not found_gs
    if predicted == "no-GS(Dirichlet-exists)":
        return found_gs
    return None


# -- family-sweep ------------------------------------------------------------------

def family_grid(start: float, stop: float, step: float) -> list[float]:
    """The value grid exactly as the CLI's family sweep builds it."""
    values, v = [], start
    while v <= stop + 1e-12:
        values.append(round(v, 12))
        v += step
    return values


def family_sweep_inputs(seed: int) -> dict:
    """Hamiltonian diagonal delta = mu, p = q = 2, 19 values at step 0.1, with
    the critical value (N+2)/(N-2) in the middle of the grid."""
    rng = random.Random(f"family-sweep:{seed}")
    N = round(rng.uniform(5.0, 7.0), 4)
    crit = (N + 2) / (N - 2)
    start = crit - 0.9
    stop = start + 1.85            # half a step past the 19th value
    return {
        "command": "sweep",
        "params": {"N": N, "p": 2.0, "q": 2.0, "a": 0.0, "b": 0.0, "s": 0.0, "m": 0.0,
                   "delta": crit, "mu": crit, "eps1": 1, "eps2": 1},
        "sweep": {"kind": "family", "parameter": "delta=mu", "start": start,
                  "stop": stop, "step": 0.1, "n_angles": 9},
    }


class FamilySweep:
    name = "family-sweep"
    pass_s = 7.0

    def __init__(self, seed: int):
        self.config = family_sweep_inputs(seed)

    def run_pass(self, ctx: Context, traced: bool, pass_no: int) -> PassResult:
        from efdyn import hamiltonian_params, predict_existence
        cfg_path = ctx.write_config(self.config)
        out_dir = ctx.fresh_dir()
        op_id = f"{self.name}/{pass_no}"
        run, _, hooks = _cli(ctx, "sweep", cfg_path, out_dir, op_id,
                             "trace" if traced else "clock")
        sw = self.config["sweep"]
        values = family_grid(sw["start"], sw["stop"], sw["step"])
        keys = [f"value[{i}]" for i in range(len(values))]
        raw, report, error = _read_report(out_dir)
        if run.code != 0:
            error = f"exit code {run.code}: {run.stderr.strip()[-300:]}"
        rows = []
        if error is None:
            try:
                with open(os.path.join(out_dir, "sweep.csv")) as fh:
                    rows = [line.rstrip("\n").split(",") for line in fh][1:]
            except OSError as exc:
                error = f"missing sweep.csv: {exc}"
        if error is None and len(rows) != len(values):
            error = f"{len(rows)} rows for {len(values)} values"
        found = [r[5] == "1" for r in rows]
        if error is None and True in found and not all(found[found.index(True):]):
            error = "found_gs is not a monotone tail"

        # per-value latency and the speed samples around it come from the
        # clock launcher; traced passes report layers, not latencies
        stamps = (hooks or {}).get("values") or []
        lat = [run.wall / len(values)] * len(values)
        ref = [None] * len(values)
        ctx.last_speed = None
        if not traced and error is None:
            if len(stamps) == len(values):
                lat = [t for t, _, _ in stamps]
                ref = [at_reference(*st) for st in stamps]
            else:
                error = f"{len(stamps)} clock stamps for {len(values)} values"
        digest = hashlib.sha256(raw).hexdigest() if raw is not None else None
        ops = []
        N = self.config["params"]["N"]
        for i, key in enumerate(keys):
            mismatch = None
            if error is None:
                v = values[i]
                pred = predict_existence(hamiltonian_params(N, v, v)).verdict.value
                mismatch = _verdict_mismatch(pred, found[i])
            ops.append(OpResult(key, lat[i], error, mismatch, digest, ref[i]))
        spans = (hooks or {}).get("spans", []) if traced else []
        # the process's wall time without the clock's own speed samples
        wall = run.wall - (hooks or {}).get("sampling_s", 0.0)
        ref_wall = wall * sum(ref) / sum(lat) if None not in ref else None
        return PassResult(wall, ops, ref_wall, run.maxrss_kb, spans)


# -- cli-single --------------------------------------------------------------------

# The five shipped single-command configs (configs/*.json), without their "out".
SINGLE_CONFIGS = {
    "analyze": {
        "command": "analyze",
        "params": {"N": 6.0, "p": 2.0, "q": 2.0, "a": 0.0, "b": 0.0,
                   "s": 0.0, "m": 0.0, "delta": 2.0, "mu": 2.0, "eps1": 1, "eps2": 1}},
    "integrate": {
        "command": "integrate",
        "params": {"N": 6.0, "p": 2.0, "q": 2.0, "a": 0.0, "b": 0.0,
                   "s": 0.0, "m": 0.0, "delta": 2.0, "mu": 2.0, "eps1": 1, "eps2": 1},
        "integrate": {"mode": "radial", "u0": 1.0, "v0": 1.0, "r_max": 1e4}},
    "shoot": {
        "command": "shoot",
        "params": {"N": 6.0, "p": 2.0, "q": 2.0, "a": 0.0, "b": 0.0,
                   "s": 0.0, "m": 0.0, "delta": 1.5, "mu": 1.5, "eps1": 1, "eps2": 1},
        "shoot": {"theta": 0.7853981633974483, "rho": 1e-4}},
    "scalar": {
        "command": "scalar",
        "scalar": {"N": 3.0, "p": 2.0, "a": 0.0, "Q": 5.0, "eps": 1}},
    "portrait": {
        "command": "portrait",
        "scalar": {"N": 3.0, "p": 2.0, "a": 0.0, "Q": 5.0, "eps": 1},
        "portrait": {"ranges": [[0.0, 1.5], [0.0, 4.0]], "grid": [31, 41]}},
}


def cli_single_inputs(seed: int) -> list[str]:
    """The seed fixes the order in which the five commands run in every pass."""
    order = sorted(SINGLE_CONFIGS)
    random.Random(f"cli-single:{seed}").shuffle(order)
    return order


def _single_check(command: str, report: dict) -> tuple[str | None, bool | None]:
    """Output check and verdict mismatch of one single-command report."""
    from efdyn import Verdict, predict_existence, SystemParams
    if command == "analyze":
        return (None if report.get("existence", {}).get("verdict") else "no existence verdict"), None
    if command == "shoot":
        P = SystemParams.from_dict(report["params"])
        pred = predict_existence(P).verdict
        stays = report["outcome"]["sClass"] == "S"
        return None, (stays if pred is Verdict.NO_GS_DIRICHLET else None)
    if command == "integrate":
        # the symmetric critical system: u0 = v0 lies on the ground state's ray
        P = SystemParams.from_dict(report["params"])
        if predict_existence(P).verdict is not Verdict.GS_EXISTS:
            return None, None
        return None, report["termination"]["kind"] != "max-time"
    if command == "scalar":
        rep = report["report"]
        err, bad = _scalar_evidence(rep["behavior"], rep["evidence"], rep["params"],
                                    rep["gamma"])
        return err, bad
    return None, None


class CliSingle:
    name = "cli-single"
    pass_s = 5.0

    def __init__(self, seed: int):
        self.order = cli_single_inputs(seed)

    def run_pass(self, ctx: Context, traced: bool, pass_no: int) -> PassResult:
        ops, spans, peak = [], [], 0
        for command in self.order:
            cfg_path = ctx.write_config(SINGLE_CONFIGS[command])
            out_dir = ctx.fresh_dir()
            op_id = f"{self.name}/{pass_no}/{command}"
            run, ref, hooks = _cli(ctx, command, cfg_path, out_dir, op_id,
                                   "trace" if traced else None)
            peak = max(peak, run.maxrss_kb)
            raw, report, error = _read_report(out_dir)
            if run.code != 0:
                error = f"exit code {run.code}: {run.stderr.strip()[-300:]}"
            mismatch = None
            if error is None:
                error, mismatch = _single_check(command, report)
            digest = hashlib.sha256(raw).hexdigest() if raw is not None else None
            ops.append(OpResult(command, run.wall, error, mismatch, digest, ref))
            if traced and hooks:
                merge(spans, hooks.get("spans", []))
        return _pass(ops, peak, spans)


# -- in-process workloads -------------------------------------------------------------

def _in_process(ctx: Context, op_id: str, fn):
    """Run one in-process op: (latency, latency at the reference speed,
    result, error). Untraced, the op runs between two speed samples; traced,
    its spans carry op_id."""
    rec = ctx.recorder
    if rec is None:
        before = ctx.speed_before()
        t0 = time.perf_counter()
        try:
            out, err = fn(), None
        except Exception as exc:          # an op's failure is a result, not a crash
            out, err = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        return latency, at_reference(latency, before, ctx.speed_after()), out, err
    rec.op = op_id
    root = rec.open("bench.op")
    try:
        out, err = fn(), None
    except Exception as exc:
        out, err = None, f"{type(exc).__name__}: {exc}"
    finally:
        rec.close(root)
        rec.op = None
    ctx.last_speed = None
    return root[5] - root[4], None, out, err


def _hamiltonian_side(N: float, delta: float, mu: float) -> float:
    """N/(delta+1) + N/(mu+1) - (N-2): positive below the critical hyperbola."""
    return N / (delta + 1) + N / (mu + 1) - (N - 2)


def _potential_line_m(N: float, p: float, q: float, s: float) -> float:
    """m on the critical line (s+1)(N-p)/p + (m+1)(N-q)/q = N (a = b = 0)."""
    return (N - (s + 1) * (N - p) / p) * q / (N - q) - 1


def bisect_dirichlet_inputs(seed: int) -> list[dict]:
    """Off-diagonal points on both sides of the critical set: the Hamiltonian
    family with delta != mu and the potential family with p != q. The first
    point is also run at u0 = 0.5, 2 and 4, to check the radius scaling law;
    these four same-cost ops are more than half of a pass, so the median op
    is one of them on every seed. The ranges are narrow so that the cost of
    a point changes little from seed to seed."""
    rng = random.Random(f"bisect-dirichlet:{seed}")

    def hamiltonian(below: bool) -> dict:
        while True:
            N = rng.uniform(5.8, 6.2)
            crit = (N + 2) / (N - 2)
            delta = crit + (-1 if below else 1) * rng.uniform(0.35, 0.5)
            mu = delta + rng.choice((-1, 1)) * rng.uniform(0.35, 0.45)
            side = _hamiltonian_side(N, delta, mu)
            if side > 0.15 if below else side < -0.15:
                return {"family": "hamiltonian", "N": N, "delta": delta, "mu": mu,
                        "side": "below" if below else "above"}

    def potential(below: bool) -> dict:
        while True:
            N = rng.uniform(5.8, 6.2)
            p = rng.uniform(1.95, 2.05)
            q = p + rng.uniform(0.25, 0.3)
            s = rng.uniform(0.4, 0.6)
            m = _potential_line_m(N, p, q, s) + (-1 if below else 1) * rng.uniform(0.25, 0.3)
            D = (m + 1) * (s + 1) - (p - 1 - s) * (q - 1 - m)
            if m >= 0.0 and D >= 0.5:
                return {"family": "potential", "N": N, "p": p, "q": q, "s": s, "m": m,
                        "side": "below" if below else "above"}

    first = hamiltonian(True)
    return [dict(first, u0=1.0)] + [dict(first, u0=u0, rerun_of=0) for u0 in (0.5, 2.0, 4.0)] + [
        dict(hamiltonian(False), u0=1.0), dict(potential(True), u0=1.0),
        dict(potential(False), u0=1.0)]


def point_params(pt: dict):
    from efdyn import hamiltonian_params, potential_params
    if pt["family"] == "hamiltonian":
        return hamiltonian_params(pt["N"], pt["delta"], pt["mu"])
    return potential_params(pt["N"], pt["p"], pt["q"], pt["s"], pt["m"])


class BisectDirichlet:
    name = "bisect-dirichlet"
    pass_s = 7.5

    def __init__(self, seed: int):
        self.points = bisect_dirichlet_inputs(seed)

    def run_pass(self, ctx: Context, traced: bool, pass_no: int) -> PassResult:
        import efdyn.dynamics as dyn
        from efdyn import derive_exponents, predict_existence
        ops, results = [], []
        for i, pt in enumerate(self.points):
            P = point_params(pt)
            lat, ref, res, error = _in_process(
                ctx, f"{self.name}/{pass_no}/{i}",
                lambda: dyn.search_dirichlet(P, u0=pt["u0"], n_angles=9))
            results.append(res)
            mismatch, digest = None, None
            if error is None:
                digest = _digest(res.to_dict())
                mismatch = _verdict_mismatch(predict_existence(P).verdict.value, not res.found)
                if "rerun_of" in pt:
                    base = results[pt["rerun_of"]]
                    law = (1.0 / pt["u0"]) ** (1.0 / derive_exponents(P).gamma)
                    if base is None or not (base.found and res.found):
                        error = "radius scaling law: no Dirichlet radius to compare"
                    elif abs(res.radius / base.radius - law) / law >= 0.01:
                        error = f"radius ratio {res.radius / base.radius} against (1/u0)^(1/gamma) = {law}"
            ops.append(OpResult(f"point[{i}]", lat, error, mismatch, digest, ref))
        return _pass(ops)


def _scalar_evidence(behavior: str, ev: dict, sp: dict, gamma: float) -> tuple[str | None, bool | None]:
    """Output check (the acceptance bounds) and evidence contradiction of one
    scalar classification. THRESHOLD_Q1 carries no evidence and is excluded."""
    from efdyn import ScalarBehavior as B
    b = B(behavior)
    if b is B.SIGN_CHANGING:
        bad = ev.get("zero_radius") is None
        return ("sign-changing without zero_radius" if bad else None), bad
    if b is B.GROUND_STATE_ON_LINE:
        bad = not ev["line_drift"] < 1e-8
        return (f"line_drift {ev['line_drift']} >= 1e-8" if bad else None), bad
    if b is B.ALL_REGULAR_ARE_GS:
        bad = ev["termination"] != "max-time"
        return (f"all-GS termination {ev['termination']}" if bad else None), bad
    if b is B.ABSORPTION_ALL_REGULAR:
        return None, ev["termination"] != "blow-up"
    if b is B.ABSORPTION_CONNECTION:
        origin = (sp["N"] - sp["p"]) / (sp["p"] - 1)
        e0 = abs(ev["slope_origin"] + origin) / origin
        ei = abs(ev["slope_infinity"] + gamma) / gamma
        bad = not (e0 < 0.02 and ei < 0.02)
        return (f"absorption slopes off by {e0:.3g}, {ei:.3g}" if bad else None), bad
    return None, None


def oracle_scalar_inputs(seed: int) -> dict:
    """Oracle configurations drawn from the ranges of acceptance criterion 5,
    and scalar cases covering every ScalarBehavior band.

    Potential draws are redrawn unless D = delta mu - (p-1-s)(q-1-m) >= 0.5
    and both box sides (N-p)/(p-1), (N-q)/(q-1) are at least 1. At D <= 0 the
    parameters are invalid; near D = 0 the oracle's normalised initial data
    under- or overflows a float (ValueError/OverflowError); with a box side
    below 1 the two routes disagree by up to 1e-3 (N=4.563, p=2.787, q=1.634,
    s=0.48, m=0.98, a=0.487). perfbench/README.md lists these defects.
    """
    rng = random.Random(f"oracle-scalar:{seed}")
    k = N_ORACLE // 2
    ham = zip(*(_stratified(rng, k, lo, hi) for lo, hi in
                ((4.5, 6.5), (1.3, 3.2), (1.3, 3.2), (-0.3, 0.8), (-0.3, 0.8))))
    oracle = [{"family": "hamiltonian", "N": N, "delta": d, "mu": m, "a": a, "b": b}
              for N, d, m, a, b in ham]
    pot = zip(*(_stratified(rng, k, lo, hi) for lo, hi in
                ((4.5, 6.5), (1.6, 2.8), (1.6, 2.8), (0.0, 1.2), (0.0, 1.2), (-0.2, 0.5))))
    for N, p, q, s, m, a in pot:
        while ((m + 1) * (s + 1) - (p - 1 - s) * (q - 1 - m) < 0.5
               or min((N - p) / (p - 1), (N - q) / (q - 1)) < 1.0):
            p, q = rng.uniform(1.6, 2.8), rng.uniform(1.6, 2.8)
            s, m = rng.uniform(0.0, 1.2), rng.uniform(0.0, 1.2)
        oracle.append({"family": "potential", "N": N, "p": p, "q": q, "s": s, "m": m, "a": a})
    for cfg, frac in zip(oracle, _stratified(rng, len(oracle), 0.25, 0.75)):
        cfg["frac"] = frac

    scalar = []
    for _ in range(SCALAR_SETS):
        N, p, a = rng.uniform(3.0, 4.0), rng.uniform(1.9, 2.1), rng.uniform(-0.1, 0.1)
        q1 = (N + a) * (p - 1) / (N - p)
        q2 = (N * (p - 1) + p + p * a) / (N - p)
        # the absorption connection is drawn where the end-slope fits of
        # scalar_classify hold their 2% bound (60-66% of the way from p-1 to Q1)
        for Q, eps in ((q1 + rng.uniform(0.3, 0.7) * (q2 - q1), 1), (q2, 1),
                       (q2 + rng.uniform(0.5, 1.5), 1), (q1, 1),
                       (q1 + rng.uniform(0.3, 1.0), -1),
                       ((p - 1) + rng.uniform(0.6, 0.66) * (q1 - (p - 1)), -1)):
            scalar.append({"N": N, "p": p, "a": a, "Q": Q, "eps": eps})
    return {"oracle": oracle, "scalar": scalar}


class OracleScalar:
    name = "oracle-scalar"
    pass_s = 2.7

    def __init__(self, seed: int):
        self.inputs = oracle_scalar_inputs(seed)

    def run_pass(self, ctx: Context, traced: bool, pass_no: int) -> PassResult:
        import efdyn.dynamics as dyn
        import efdyn.scalar as sc
        from efdyn import hamiltonian_params, potential_params
        ops = []
        for i, c in enumerate(self.inputs["oracle"]):
            if c["family"] == "hamiltonian":
                P = hamiltonian_params(c["N"], c["delta"], c["mu"], a=c["a"], b=c["b"])
            else:
                P = potential_params(c["N"], c["p"], c["q"], c["s"], c["m"], a=c["a"])
            x, y = c["frac"] * ORACLE_RHO, (1 - c["frac"]) * ORACLE_RHO
            lat, ref, err_val, error = _in_process(
                ctx, f"{self.name}/{pass_no}/oracle{i}",
                lambda: dyn.oracle_compare(P, x, y, ORACLE_RHO))
            if error is None and not err_val < 1e-5:
                error = f"oracle disagreement {err_val} >= 1e-5"
            ops.append(OpResult(f"oracle[{i}]", lat, error, None,
                                None if err_val is None else repr(err_val), ref))
        for i, c in enumerate(self.inputs["scalar"]):
            lat, ref, rep, error = _in_process(
                ctx, f"{self.name}/{pass_no}/scalar{i}",
                lambda: sc.scalar_classify(c["N"], c["p"], c["a"], c["Q"], c["eps"]))
            mismatch, digest = None, None
            if error is None:
                d = rep.to_dict()
                error, mismatch = _scalar_evidence(d["behavior"], d["evidence"], d["params"],
                                                   d["gamma"])
                digest = _digest(d)
            ops.append(OpResult(f"scalar[{i}]", lat, error, mismatch, digest, ref))
        return _pass(ops)


WORKLOADS = {w.name: w for w in (FamilySweep, BisectDirichlet, CliSingle, OracleScalar)}
