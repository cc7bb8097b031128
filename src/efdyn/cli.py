"""Command-line front end.

One JSON config file per run (reproducibility: configs are committable);
flags only override the output directory and a few numeric knobs. Commands:

    efdyn analyze|integrate|shoot|sweep|scalar|portrait --config cfg.json [--out DIR]

Exit codes: 0 success, 2 config error, 3 internal numeric failure. Recoverable
numeric conditions (e.g. a power solution that does not exist) are recorded in
the report, not fatal. Reruns with identical configs produce byte-identical
outputs: floats are printed at 17 significant digits and all orderings are fixed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import energies, equilibria, spectra
from .dynamics import (EventSpec, classify_shot, integrate_m, integrate_radial,
                       search_ground_state, sweep_angles)
from .errors import ConfigError, EfdynError
from .model import (PARAM_KEYS, PhaseState, SystemParams, derive_exponents,
                    validate_params)
from .numerics import DEFAULT_NUMERICS, NumericsConfig
from .scalar import (ScalarParams, diagonal_trajectory, regular_seed, scalar_classify,
                     scalar_fixed_points, scalar_vector_field)

COMMANDS = ("analyze", "integrate", "shoot", "sweep", "scalar", "portrait")

_TOP_KEYS = {"command", "params", "scalar", "numerics", "out",
             "integrate", "shoot", "sweep", "portrait"}
_BLOCK_KEYS = {
    "integrate": {"mode", "initial", "t_span", "u0", "v0", "r_max"},
    "shoot": {"x", "y", "theta", "rho"},
    "sweep": {"kind", "n", "rho", "parameter", "start", "stop", "step", "n_angles"},
    "portrait": {"plane", "ranges", "grid", "fixed", "trajectories", "t_span"},
}
_SCALAR_KEYS = {"N", "p", "a", "Q", "eps"}
_NUMERICS_KEYS = set(NumericsConfig.__dataclass_fields__)


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


@dataclass
class RunConfig:
    command: str
    params: SystemParams | None
    scalar: ScalarParams | None
    numerics: NumericsConfig
    out: str
    block: dict = field(default_factory=dict)


def parse_config(raw: dict, command: str, out_override: str | None = None) -> RunConfig:
    """Validate the raw dict strictly: unknown keys are rejected with their path."""
    if not isinstance(raw, dict):
        raise ConfigError("$", "config must be a JSON object")
    for key in raw:
        if key not in _TOP_KEYS:
            raise ConfigError(key, "unknown key")
    if "command" in raw and raw["command"] != command:
        raise ConfigError("command", f"config says {raw['command']!r}, invoked {command!r}")

    params = None
    if "params" in raw:
        pd = raw["params"]
        if not isinstance(pd, dict):
            raise ConfigError("params", "must be an object")
        for key in pd:
            if key not in PARAM_KEYS:
                raise ConfigError(f"params.{key}", "unknown key")
        for key in ("N", "p", "q"):
            if key not in pd:
                raise ConfigError(f"params.{key}", "required")
        try:
            params = SystemParams.from_dict(pd)
        except EfdynError as exc:
            raise ConfigError("params", str(exc))

    scalar = None
    if "scalar" in raw:
        sd = raw["scalar"]
        for key in sd:
            if key not in _SCALAR_KEYS:
                raise ConfigError(f"scalar.{key}", "unknown key")
        for key in ("N", "p", "a", "Q"):
            if key not in sd:
                raise ConfigError(f"scalar.{key}", "required")
        try:
            scalar = ScalarParams(N=sd["N"], p=sd["p"], a=sd["a"], Q=sd["Q"],
                                  eps=int(sd.get("eps", 1)))
        except EfdynError as exc:
            raise ConfigError("scalar", str(exc))

    cfg = DEFAULT_NUMERICS
    if "numerics" in raw:
        nd = raw["numerics"]
        for key in nd:
            if key not in _NUMERICS_KEYS:
                raise ConfigError(f"numerics.{key}", "unknown key")
        cfg = cfg.with_(**nd)

    block = {}
    if command in _BLOCK_KEYS and command in raw:
        block = raw[command]
        for key in block:
            if key not in _BLOCK_KEYS[command]:
                raise ConfigError(f"{command}.{key}", "unknown key")

    out = out_override or raw.get("out") or "efdyn-out"
    return RunConfig(command=command, params=params, scalar=scalar,
                     numerics=cfg, out=out, block=block)


@dataclass
class ReportBundle:
    report: dict
    csv_files: dict       # name -> list of rows (each row a list of strings)
    summary: list

    def write(self, out_dir: str) -> list[str]:
        os.makedirs(out_dir, exist_ok=True)
        written = []
        for name in sorted(self.csv_files):
            path = os.path.join(out_dir, name)
            with open(path, "w") as fh:
                for row in self.csv_files[name]:
                    fh.write(",".join(row) + "\n")
            written.append(name)
        self.report["manifest"] = {"files": written + ["report.json", "summary.txt"]}
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            json.dump(_jsonable(self.report), fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
            fh.write("\n".join(self.summary) + "\n")
        return written + ["report.json", "summary.txt"]


def _need_params(rc: RunConfig) -> SystemParams:
    if rc.params is None:
        raise ConfigError("params", "required for this command")
    return rc.params


# -- command implementations ----------------------------------------------------

def _run_analyze(rc: RunConfig) -> ReportBundle:
    P = _need_params(rc)
    cfg = rc.numerics
    report: dict = {"command": "analyze", "params": P.to_dict(), "errors": []}
    report["validation"] = validate_params(P).to_dict()
    try:
        ex = derive_exponents(P)
        report["exponents"] = {"D": ex.D, "gamma": ex.gamma, "xi": ex.xi}
    except EfdynError as exc:
        report["errors"].append(str(exc))
        ex = None

    catalog = equilibria.fixed_point_catalog(P, cfg)
    cat_entries = []
    for fp in catalog:
        entry = fp.to_dict()
        if fp.defined:
            try:
                sp = spectra.spectrum_at(P, fp, cfg)
                entry["spectrum"] = sp.to_dict()
                entry["verdicts"] = [v.to_dict() for v in spectra.local_verdicts(P, fp, cfg)]
            except EfdynError as exc:
                report["errors"].append(f"{fp.label.value}: {exc}")
        cat_entries.append(entry)
    report["fixed_points"] = cat_entries

    try:
        qc = spectra.m0_characteristic(P)
        report["m0_quartic"] = {"E": qc.E, "F": qc.F, "G": qc.G, "H": qc.H}
        report["oscillation"] = spectra.oscillation_condition(P, cfg).to_dict()
    except EfdynError as exc:
        report["errors"].append(str(exc))
    try:
        ps = equilibria.particular_solution(P, cfg)
        report["power_solution"] = {"A": ps.A, "B": ps.B,
                                    "gamma": ps.gamma, "xi": ps.xi}
    except EfdynError as exc:
        report["power_solution"] = None
        report["errors"].append(f"power solution: {exc}")

    region = energies.classify_region(P, cfg)
    report["region"] = {k.value: v.value for k, v in region.items()}
    verdict = energies.predict_existence(P, cfg)
    report["existence"] = verdict.to_dict()
    try:
        report["critical_asymptotics"] = energies.predict_asymptotics(P, cfg).to_dict()
    except EfdynError:
        report["critical_asymptotics"] = None

    summary = [f"analyze: N={_fmt(P.N)} p={_fmt(P.p)} q={_fmt(P.q)} "
               f"delta={_fmt(P.delta)} mu={_fmt(P.mu)} s={_fmt(P.s)} m={_fmt(P.m)}",
               f"validation: {'pass' if report['validation']['ok'] else 'fail'}"]
    if ex is not None:
        summary.append(f"exponents: D={_fmt(ex.D)} gamma={_fmt(ex.gamma)} xi={_fmt(ex.xi)}")
    summary.append("region: " + " ".join(f"{k.value}={v.value}" for k, v in region.items()
                                         if v is not energies.Position.NOT_APPLICABLE))
    summary.append(f"existence: {verdict.verdict.value} [{verdict.source}]")
    return ReportBundle(report=report, csv_files={}, summary=summary)


def _run_integrate(rc: RunConfig) -> ReportBundle:
    P = _need_params(rc)
    cfg = rc.numerics
    block = rc.block
    mode = block.get("mode", "phase")
    report = {"command": "integrate", "params": P.to_dict(), "mode": mode}
    csvs = {}
    if mode == "phase":
        init = block.get("initial")
        if not init or len(init) != 4:
            raise ConfigError("integrate.initial", "need [X, Y, Z, W]")
        t_span = block.get("t_span", [0.0, cfg.t_end])
        traj = integrate_m(P, PhaseState.from_coords(t_span[0], init),
                           horizon=tuple(t_span), cfg=cfg)
        rows = [["t", "X", "Y", "Z", "W"]]
        for t, st in zip(traj.t, traj.states):
            rows.append([_fmt(t)] + [_fmt(c) for c in st])
        csvs["trajectory.csv"] = rows
        report["termination"] = traj.termination.to_dict()
        report["samples"] = len(traj.t)
        summary = [f"integrate phase: {len(traj.t)} samples, "
                   f"termination {traj.termination.kind}"]
    elif mode == "radial":
        u0 = float(block.get("u0", 1.0))
        v0 = float(block.get("v0", 1.0))
        r_max = float(block.get("r_max", 1e4))
        rad = integrate_radial(P, u0, v0, r_max, cfg)
        rows = [["r", "u", "v", "du", "dv"]]
        for i in range(len(rad.r)):
            rows.append([_fmt(rad.r[i]), _fmt(rad.u[i]), _fmt(rad.v[i]),
                         _fmt(rad.du[i]), _fmt(rad.dv[i])])
        csvs["trajectory.csv"] = rows
        report["termination"] = rad.termination.to_dict()
        report["events"] = [[t, name] for t, name in rad.events]
        summary = [f"integrate radial: {len(rad.r)} samples, "
                   f"termination {rad.termination.kind}"]
    else:
        raise ConfigError("integrate.mode", f"unknown mode {mode!r}")
    return ReportBundle(report=report, csv_files=csvs, summary=summary)


def _run_shoot(rc: RunConfig) -> ReportBundle:
    P = _need_params(rc)
    cfg = rc.numerics
    block = rc.block
    rho = float(block.get("rho", cfg.manifold_rho))
    if "theta" in block:
        th = float(block["theta"])
        x, y = rho * math.cos(th), rho * math.sin(th)
    else:
        if "x" not in block or "y" not in block:
            raise ConfigError("shoot", "need x and y (or theta)")
        x, y = float(block["x"]), float(block["y"])
    out = classify_shot(P, x, y, rho, cfg)
    report = {"command": "shoot", "params": P.to_dict(), "outcome": out.to_dict()}
    summary = [f"shoot ({_fmt(x)}, {_fmt(y)}): {out.s_class.value}/{out.m_class.value}"]
    return ReportBundle(report=report, csv_files={}, summary=summary)


def _family_params(P: SystemParams, parameter: str, v: float) -> SystemParams:
    if parameter == "delta=mu":
        return P.replace(delta=v, mu=v)
    if parameter == "s=m":
        return P.replace(s=v, m=v)
    if parameter == "s=m-potential":
        return P.replace(s=v, m=v, delta=v + 1.0, mu=v + 1.0)
    raise ConfigError("sweep.parameter", f"unknown family parameter {parameter!r}")


def _run_sweep(rc: RunConfig) -> ReportBundle:
    P = _need_params(rc)
    cfg = rc.numerics
    block = rc.block
    kind = block.get("kind", "angle")
    csvs = {}
    if kind == "angle":
        n = int(block.get("n", 33))
        rho = float(block.get("rho", cfg.manifold_rho))
        thetas, outcomes = sweep_angles(P, n, rho, cfg)
        rows = [["theta", "sClass", "mClass", "hitTime"]]
        for th, o in zip(thetas, outcomes):
            first = min(o.hit_times.values()) if o.hit_times else math.nan
            rows.append([_fmt(th), o.s_class.value, o.m_class.value, _fmt(first)])
        csvs["sweep.csv"] = rows
        report = {"command": "sweep", "kind": "angle", "params": P.to_dict(),
                  "n": n, "rho": rho}
        summary = [f"angle sweep: {n} seeds",
                   "classes: " + " ".join(o.s_class.value for o in outcomes)]
    elif kind == "family":
        parameter = block.get("parameter", "delta=mu")
        start, stop = float(block["start"]), float(block["stop"])
        step = float(block.get("step", 0.1))
        n_angles = int(block.get("n_angles", 17))
        values = []
        v = start
        while v <= stop + 1e-12:
            values.append(round(v, 12))
            v += step
        rows = [["value", "delta", "mu", "s", "m", "found_gs", "predicted"]]
        flips = []
        prev = None
        for v in values:
            Pv = _family_params(P, parameter, v)
            res = search_ground_state(Pv, n_angles=n_angles, cfg=cfg)
            pred = energies.predict_existence(Pv, cfg).verdict.value
            rows.append([_fmt(v), _fmt(Pv.delta), _fmt(Pv.mu), _fmt(Pv.s), _fmt(Pv.m),
                         "1" if res.found else "0", pred])
            if prev is not None and prev != res.found:
                flips.append(v)
            prev = res.found
        csvs["sweep.csv"] = rows
        report = {"command": "sweep", "kind": "family", "params": P.to_dict(),
                  "parameter": parameter, "values": values, "flips": flips}
        summary = [f"family sweep {parameter}: {len(values)} values, "
                   f"found-GS flips at {flips}"]
    else:
        raise ConfigError("sweep.kind", f"unknown kind {kind!r}")
    return ReportBundle(report=report, csv_files=csvs, summary=summary)


def _run_scalar(rc: RunConfig) -> ReportBundle:
    if rc.scalar is None:
        raise ConfigError("scalar", "required for this command")
    sp = rc.scalar
    rep = scalar_classify(sp.N, sp.p, sp.a, sp.Q, sp.eps, cfg=rc.numerics)
    report = {"command": "scalar", "report": rep.to_dict()}
    summary = [f"scalar N={_fmt(sp.N)} p={_fmt(sp.p)} a={_fmt(sp.a)} Q={_fmt(sp.Q)} "
               f"eps={sp.eps}",
               f"Q1={_fmt(rep.Q1)} Q2={_fmt(rep.Q2)} gamma={_fmt(rep.gamma)}",
               f"behavior: {rep.behavior.value}"]
    return ReportBundle(report=report, csv_files={}, summary=summary)


def _run_portrait(rc: RunConfig) -> ReportBundle:
    cfg = rc.numerics
    block = rc.block
    grid = block.get("grid", [21, 21])
    csvs = {}
    if rc.scalar is not None:
        sp = rc.scalar
        fps = scalar_fixed_points(sp)
        ranges = block.get("ranges",
                           [[0.0, 1.5 * sp.x_bound], [0.0, 1.5 * (sp.N + sp.a)]])
        xs = np.linspace(ranges[0][0], ranges[0][1], int(grid[0]))
        zs = np.linspace(ranges[1][0], ranges[1][1], int(grid[1]))
        rows = [["X", "Z", "dX", "dZ"]]
        for xv in xs:
            for zv in zs:
                d = scalar_vector_field(sp, (xv, zv))
                rows.append([_fmt(xv), _fmt(zv), _fmt(d[0]), _fmt(d[1])])
        csvs["portrait.csv"] = rows
        starts = block.get("trajectories")
        if starts is None:
            starts = [list(regular_seed(sp, cfg.manifold_rho))]
        t_span = block.get("t_span", [0.0, cfg.t_end])
        # an orbit ends once it comes within capture_dist of a fixed point:
        # past a saddle such as A0, which way it leaves is decided by roundoff
        capture = [EventSpec(f"capture:{name}",
                             lambda t, y, pt=pt: max(abs(y[0] - pt[0]), abs(y[2] - pt[1]))
                             - cfg.capture_dist, terminal=True, direction=-1.0)
                   for name, pt in fps.items()]
        trows = [["trajectory", "t", "X", "Z"]]
        for i, st in enumerate(starts):
            traj = diagonal_trajectory(sp, st, t_span, cfg, events=capture)
            for t, row in zip(traj.t, traj.states):
                trows.append([str(i), _fmt(t), _fmt(row[0]), _fmt(row[2])])
        csvs["trajectories.csv"] = trows
        report = {"command": "portrait", "scalar": sp.to_dict(),
                  "fixed_points": {k: list(v) for k, v in fps.items()}}
        summary = ["scalar portrait: fixed points " +
                   " ".join(f"{k}=({_fmt(v[0])},{_fmt(v[1])})" for k, v in fps.items())]
        return ReportBundle(report=report, csv_files=csvs, summary=summary)

    P = _need_params(rc)
    plane = block.get("plane", ["X", "Y"])
    names = ["X", "Y", "Z", "W"]
    for c in plane:
        if c not in names:
            raise ConfigError("portrait.plane", f"unknown coordinate {c!r}")
    i1, i2 = names.index(plane[0]), names.index(plane[1])
    fixed = block.get("fixed", {})
    base = np.zeros(4)
    for k, v in fixed.items():
        if k not in names:
            raise ConfigError(f"portrait.fixed.{k}", "unknown coordinate")
        base[names.index(k)] = float(v)
    ranges = block.get("ranges", [[0.0, 1.5 * P.x_bound], [0.0, 1.5 * P.y_bound]])
    xs = np.linspace(ranges[0][0], ranges[0][1], int(grid[0]))
    ys = np.linspace(ranges[1][0], ranges[1][1], int(grid[1]))
    from .model import vector_field_arr
    rows = [[plane[0], plane[1], "d" + plane[0], "d" + plane[1]]]
    for xv in xs:
        for yv in ys:
            pt = base.copy()
            pt[i1], pt[i2] = xv, yv
            d = vector_field_arr(P, pt)
            rows.append([_fmt(xv), _fmt(yv), _fmt(d[i1]), _fmt(d[i2])])
    csvs["portrait.csv"] = rows
    starts = block.get("trajectories", [])
    if starts:
        t_span = block.get("t_span", [0.0, cfg.t_end])
        trows = [["trajectory", "t", plane[0], plane[1]]]
        for i, st in enumerate(starts):
            if len(st) != 4:
                raise ConfigError("portrait.trajectories", "each start needs [X, Y, Z, W]")
            traj = integrate_m(P, PhaseState.from_coords(t_span[0], st),
                               horizon=tuple(t_span), cfg=cfg)
            for t, row in zip(traj.t, traj.states):
                trows.append([str(i), _fmt(t), _fmt(row[i1]), _fmt(row[i2])])
        csvs["trajectories.csv"] = trows
    report = {"command": "portrait", "params": P.to_dict(), "plane": plane,
              "fixed": {k: float(v) for k, v in fixed.items()}}
    summary = [f"portrait: plane ({plane[0]}, {plane[1]}), grid {grid[0]}x{grid[1]}"]
    return ReportBundle(report=report, csv_files=csvs, summary=summary)


_RUNNERS = {"analyze": _run_analyze, "integrate": _run_integrate, "shoot": _run_shoot,
            "sweep": _run_sweep, "scalar": _run_scalar, "portrait": _run_portrait}


def run(rc: RunConfig) -> ReportBundle:
    return _RUNNERS[rc.command](rc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="efdyn",
                                     description="Radial Emden-Fowler dynamics toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        sp = sub.add_parser(cmd)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
        sp.add_argument("--tol", type=float, default=None,
                        help="override ODE relative tolerance")
        sp.add_argument("--horizon", type=float, default=None,
                        help="override forward integration horizon")
    args = parser.parse_args(argv)
    try:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError("config", str(exc))
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}")
        rc = parse_config(raw, args.command, args.out)
        if args.tol is not None:
            rc.numerics = rc.numerics.with_(ode_rtol=args.tol)
        if args.horizon is not None:
            rc.numerics = rc.numerics.with_(t_end=args.horizon)
        bundle = run(rc)
        files = bundle.write(rc.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for line in bundle.summary:
        print(line)
    print(f"wrote {', '.join(files)} to {rc.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
