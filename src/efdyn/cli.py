"""Command-line front end.

One JSON config file per run (reproducibility: configs are committable);
the only flag besides --config is --out, which overrides the output
directory. Tolerances are the constants of `efdyn.numerics`. Commands:

    efdyn analyze|integrate|shoot|sweep|scalar|portrait --config cfg.json [--out DIR]

The command comes first; the two flags follow in either order, each as
`--flag value` or `--flag=value`, and are spelled out in full. `-h` or
`--help` prints the usage line and the commands.

`integrate` writes the regular radial solution from (u0, v0) as a CSV (the one
`mode` is "radial"); `shoot` classifies the manifold seed at angle `theta`.

Exit codes: 0 success, 2 usage error (no command or an unknown one, no
--config, an unknown, repeated or value-less flag, a stray argument: the
usage line goes to stderr) or config error (also for a NaN or infinite
number, a fractional count, a value out of its range, or an output
directory that is empty, not a string or cannot be written), 3 internal numeric
failure; a family sweep's internal failure also names the family value.
Recoverable numeric conditions (e.g. a power solution that does not exist) are
recorded in the report, not fatal. Reruns with identical configs produce
byte-identical outputs: floats are printed at 17 significant digits and all
orderings are fixed.
"""

from __future__ import annotations

import json
import math
import os
import sys

from ._record import record
from .errors import ConfigError, EfdynError, NotApplicable, PreconditionViolated, SeriesInvalid
from .model import PARAM_KEYS, SystemParams, derive_exponents, phase_rhs, validate_params
from .numerics import MANIFOLD_RHO, RADIAL_R0, T_END

# Each command imports the modules only it reads (dynamics, energies,
# equilibria, spectra, scalar), so a run loads what it uses: analyze, which
# integrates nothing, loads neither dynamics nor the kernel. ScalarParams in
# the annotations is efdyn.scalar's class.

COMMANDS = ("analyze", "integrate", "shoot", "sweep", "scalar", "portrait")

USAGE = f"usage: efdyn {{{','.join(COMMANDS)}}} --config PATH [--out DIR]"
_HELP = f"""{USAGE}

Radial Emden-Fowler dynamics toolkit: one JSON config per run.

commands:
  analyze    exponents, fixed points, spectra, regions and predicted existence
  integrate  the regular radial solution from (u0, v0)
  shoot      classify the manifold seed at angle theta
  sweep      classify seeds over the angles, or ground states over a family
  scalar     classify the scalar equation
  portrait   the scalar phase plane and its regular orbit"""
_FLAGS = ("--config", "--out")

_TOP_KEYS = {"command", "params", "scalar", "out", "integrate", "shoot", "sweep",
             "portrait"}
_BLOCK_KEYS = {
    "integrate": {"mode", "u0", "v0", "r_max"},
    "shoot": {"theta", "rho"},
    "sweep": {"kind", "n", "parameter", "start", "stop", "step", "n_angles"},
    "portrait": {"ranges", "grid"},
}
_SCALAR_KEYS = {"N", "p", "a", "Q", "eps"}


def _fmt(x) -> str:
    return "%.17g" % float(x)


@record
class RunConfig:
    command: str
    params: SystemParams | None
    scalar: ScalarParams | None
    out: str
    block: dict


def _finite(value) -> float:
    """`value` as a finite float. It must be a JSON number, not a string or a
    boolean (a bool is an int to Python); and not NaN or Infinity, which
    Python's json reads."""
    if isinstance(value, (str, bool)):
        raise TypeError(value)
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(value)
    return x


def _whole(value) -> int:
    """`value` as an int, if it is a finite whole number (3.7 is not truncated)."""
    x = _finite(value)
    if not x.is_integer():
        raise ValueError(value)
    return int(x)


def _number(block: dict, path: str, key: str, default=None, convert=_finite):
    """block[key] read by `convert` (_finite or _whole), or `default` if the
    key is absent (None: the key is required); a value `convert` refuses is a
    config error at path.key."""
    if key not in block:
        if default is None:
            raise ConfigError(f"{path}.{key}", "required")
        return default
    try:
        return convert(block[key])
    except (TypeError, ValueError, OverflowError):
        what = "whole" if convert is _whole else "finite"
        raise ConfigError(f"{path}.{key}", f"not a {what} number: {block[key]!r}")


def _numbers(value, path: str, n: int, convert=_finite) -> list:
    """`value` as a list of n entries, each read by `convert`."""
    if not isinstance(value, list) or len(value) != n:
        raise ConfigError(path, f"need a list of {n}, got {value!r}")
    try:
        return [convert(v) for v in value]
    except (TypeError, ValueError, OverflowError):
        what = "whole" if convert is _whole else "finite"
        raise ConfigError(path, f"not {n} {what} numbers: {value!r}")


def _object(raw: dict, path: str, keys) -> dict:
    """raw[path], checked to be an object whose keys are all in `keys`."""
    block = raw[path]
    if not isinstance(block, dict):
        raise ConfigError(path, "must be an object")
    for key in block:
        if key not in keys:
            raise ConfigError(f"{path}.{key}", "unknown key")
    return block


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
        pd = _object(raw, "params", PARAM_KEYS)
        for key in ("N", "p", "q"):
            if key not in pd:
                raise ConfigError(f"params.{key}", "required")
        for key in pd:      # checked only: the report keeps the values as written
            _number(pd, "params", key)
        try:
            params = SystemParams.from_dict(pd)
        except EfdynError as exc:
            raise ConfigError("params", str(exc))

    scalar = None
    if "scalar" in raw:
        from .scalar import ScalarParams
        sd = _object(raw, "scalar", _SCALAR_KEYS)
        for key in ("N", "p", "a", "Q"):    # checked only, as in params
            _number(sd, "scalar", key)
        eps = _number(sd, "scalar", "eps", 1, _whole)
        try:
            scalar = ScalarParams(N=sd["N"], p=sd["p"], a=sd["a"], Q=sd["Q"], eps=eps)
        except EfdynError as exc:
            raise ConfigError("scalar", str(exc))

    block = {}
    if command in _BLOCK_KEYS and command in raw:
        block = _object(raw, command, _BLOCK_KEYS[command])

    # the config's directory and the --out one that overrides it: an empty
    # name is refused, not replaced by another directory
    names = [raw.get("out", "efdyn-out")] + ([] if out_override is None else [out_override])
    for name in names:
        if not (isinstance(name, str) and name):
            raise ConfigError("out", f"must be a directory name, got {name!r}")
    return RunConfig(command=command, params=params, scalar=scalar, out=names[-1], block=block)


@record
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
            json.dump(self.report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
            fh.write("\n".join(self.summary) + "\n")
        return written + ["report.json", "summary.txt"]


def _need_params(rc: RunConfig) -> SystemParams:
    if rc.params is None:
        raise ConfigError("params", "required for this command")
    return rc.params


def _shot_params(rc: RunConfig) -> SystemParams:
    """The params of a command that shoots; where no shot applies, a config error."""
    from .dynamics import check_shot_params
    try:
        check_shot_params(_need_params(rc))
    except NotApplicable as exc:
        raise ConfigError("params", str(exc)) from None
    return rc.params


def _need_scalar(rc: RunConfig) -> ScalarParams:
    if rc.scalar is None:
        raise ConfigError("scalar", "required for this command")
    return rc.scalar


# -- command implementations ----------------------------------------------------

def _run_analyze(rc: RunConfig) -> ReportBundle:
    from . import energies, equilibria, spectra
    P = _need_params(rc)
    report: dict = {"command": "analyze", "params": P.to_dict(), "errors": []}
    report["validation"] = validate_params(P).to_dict()
    try:
        ex = derive_exponents(P)
        report["exponents"] = {"D": ex.D, "gamma": ex.gamma, "xi": ex.xi}
    except EfdynError as exc:
        report["errors"].append(str(exc))
        ex = None

    catalog = equilibria.fixed_point_catalog(P)
    cat_entries = []
    for fp in catalog:
        entry = fp.to_dict()
        if fp.defined:
            try:
                sp = spectra.spectrum_at(P, fp)
                entry["spectrum"] = sp.to_dict()
                entry["verdicts"] = [v.to_dict() for v in spectra.local_verdicts(P, fp, sp)]
            except EfdynError as exc:
                report["errors"].append(f"{fp.label.value}: {exc}")
        cat_entries.append(entry)
    report["fixed_points"] = cat_entries

    try:
        qc = spectra.m0_characteristic(P)
        report["m0_quartic"] = {"E": qc.E, "F": qc.F, "G": qc.G, "H": qc.H}
        report["oscillation"] = spectra.oscillation_condition(P).to_dict()
    except EfdynError as exc:
        report["errors"].append(str(exc))
    try:
        ps = equilibria.particular_solution(P)
        report["power_solution"] = {"A": ps.A, "B": ps.B,
                                    "gamma": ps.gamma, "xi": ps.xi}
    except EfdynError as exc:
        report["power_solution"] = None
        report["errors"].append(f"power solution: {exc}")

    region = energies.classify_region(P)
    report["region"] = {k.value: v.value for k, v in region.items()}
    verdict = energies.predict_existence(P)
    report["existence"] = verdict.to_dict()
    try:
        report["critical_asymptotics"] = energies.predict_asymptotics(P).to_dict()
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
    from .dynamics import integrate_radial
    P = _need_params(rc)
    block = rc.block
    mode = block.get("mode", "radial")
    if mode != "radial":
        raise ConfigError("integrate.mode", f"unknown mode {mode!r}; the one mode is 'radial'")
    u0 = _number(block, "integrate", "u0", 1.0)
    v0 = _number(block, "integrate", "v0", 1.0)
    r_max = _number(block, "integrate", "r_max", 1e4)
    for key, value in (("u0", u0), ("v0", v0)):
        if value <= 0.0:
            raise ConfigError(f"integrate.{key}", f"need a value > 0, got {value!r}")
    if r_max <= RADIAL_R0:      # the run starts at RADIAL_R0 and goes outward
        raise ConfigError("integrate.r_max", f"need a radius > {RADIAL_R0}, got {r_max!r}")
    try:
        rad = integrate_radial(P, u0, v0, r_max)
    except SeriesInvalid as exc:    # no series for the exponents, or one that starts at or below 0
        path = "params" if min(P.p + P.a, P.q + P.b) <= 0.0 else "integrate.u0"
        raise ConfigError(path, str(exc)) from None
    except PreconditionViolated as exc:     # the startup series leaves the floats
        raise ConfigError("integrate.u0", str(exc)) from None
    rows = [["r", "u", "v", "du", "dv"]]
    for i in range(len(rad.r)):
        rows.append([_fmt(rad.r[i]), _fmt(rad.u[i]), _fmt(rad.v[i]),
                     _fmt(rad.du[i]), _fmt(rad.dv[i])])
    # the end as kind "blow-up", "max-time" or "event" with the event's name
    end = rad.termination
    kind = end if end in ("blow-up", "max-time") else "event"
    report = {"command": "integrate", "params": P.to_dict(), "mode": mode,
              "termination": {"kind": kind, "label": None,
                              "event": end if kind == "event" else None},
              "events": [[t, name] for t, name in rad.events]}
    summary = [f"integrate radial: {len(rad.r)} samples, termination {kind}"]
    return ReportBundle(report=report, csv_files={"trajectory.csv": rows}, summary=summary)


def _run_shoot(rc: RunConfig) -> ReportBundle:
    from .dynamics import _seed, read_shot
    P = _shot_params(rc)
    block = rc.block
    theta = _number(block, "shoot", "theta")
    if not 0.0 <= theta <= math.pi / 2:
        raise ConfigError("shoot.theta", f"need an angle in [0, pi/2], got {theta!r}")
    rho = _number(block, "shoot", "rho", MANIFOLD_RHO)
    if rho <= 0.0:
        raise ConfigError("shoot.rho", f"need a radius > 0, got {rho!r}")
    x, y = _seed(theta, rho)
    if x >= P.x_bound or y >= P.y_bound:
        raise ConfigError("shoot.rho", f"the seed ({x!r}, {y!r}) at rho = {rho!r} is not "
                                       f"inside the box (0, {P.x_bound!r}) x (0, {P.y_bound!r})")
    out = read_shot(P, x, y, rho)
    report = {"command": "shoot", "params": P.to_dict(), "outcome": out.to_dict()}
    summary = [f"shoot ({_fmt(x)}, {_fmt(y)}): {out.s_class.value}/{out.m_class.value}"]
    return ReportBundle(report=report, csv_files={}, summary=summary)


def family_grid(start: float, stop: float, step: float) -> list[float]:
    """The values of a family sweep: start + k step up to stop, each rounded
    to 12 decimals. A step that leaves start or stop unchanged (one not > 0,
    or below the float spacing there) raises PreconditionViolated: the value
    loop would not end."""
    if not (start + step > start and stop + step > stop):
        raise PreconditionViolated(f"need a step that moves every value from {start!r} "
                                   f"to {stop!r}, got {step!r}")
    values, v = [], start
    while v <= stop + 1e-12:
        values.append(round(v, 12))
        v += step
    return values


# the one-parameter families of a family sweep: the parameters at value v
_FAMILIES = {
    "delta=mu": lambda P, v: P.replace(delta=v, mu=v),
    "s=m": lambda P, v: P.replace(s=v, m=v),
    "s=m-potential": lambda P, v: P.replace(s=v, m=v, delta=v + 1.0, mu=v + 1.0),
}


def search_ground_state(params: SystemParams, n_angles: int):
    """`dynamics.search_ground_state` at one family value, looked up when
    called; perfbench/launch.py replaces this name to time each value."""
    from .dynamics import search_ground_state
    return search_ground_state(params, n_angles=n_angles)


def _run_sweep(rc: RunConfig) -> ReportBundle:
    from . import energies
    from .dynamics import _angle_grid, _seed, read_shot
    P = _shot_params(rc)      # a family moves delta, mu, s or m: never p, q or N
    block = rc.block
    kind = block.get("kind", "angle")
    csvs = {}
    if kind == "angle":
        n = _number(block, "sweep", "n", 33, _whole)
        if n < 0:
            raise ConfigError("sweep.n", f"need a count >= 0, got {n}")

        def report_at(th):
            try:
                return read_shot(P, *_seed(th, MANIFOLD_RHO))
            except Exception as exc:    # main names the angle an internal error hit
                exc.sweep_value = f"theta = {th!r}"
                raise
        thetas, reports = _angle_grid(P, n, report_at)
        rows = [["theta", "sClass", "mClass", "hitTime"]]
        for th, o in zip(thetas, reports):
            first = min((t for _, t in o.hit_times), default=math.nan)
            rows.append([_fmt(th), o.s_class.value, o.m_class.value, _fmt(first)])
        csvs["sweep.csv"] = rows
        report = {"command": "sweep", "kind": "angle", "params": P.to_dict(),
                  "n": n, "rho": MANIFOLD_RHO}
        summary = [f"angle sweep: {n} seeds",
                   "classes: " + " ".join(o.s_class.value for o in reports)]
    elif kind == "family":
        parameter = block.get("parameter", "delta=mu")
        if not isinstance(parameter, str) or parameter not in _FAMILIES:
            raise ConfigError("sweep.parameter", f"unknown family parameter {parameter!r}")
        start, stop = _number(block, "sweep", "start"), _number(block, "sweep", "stop")
        try:
            values = family_grid(start, stop, _number(block, "sweep", "step", 0.1))
        except PreconditionViolated as exc:
            raise ConfigError("sweep.step", str(exc)) from None
        n_angles = _number(block, "sweep", "n_angles", 17, _whole)
        if n_angles < 1:
            raise ConfigError("sweep.n_angles", f"need a count >= 1, got {n_angles}")
        rows = [["value", "delta", "mu", "s", "m", "found_gs", "predicted"]]
        flips = []
        prev = None
        for v in values:
            Pv = _FAMILIES[parameter](P, v)
            try:
                res = search_ground_state(Pv, n_angles)
                pred = energies.predict_existence(Pv).verdict.value
            except Exception as exc:    # main names the value an internal error hit
                exc.sweep_value = f"{parameter} = {v!r}"
                raise
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
    from .scalar import scalar_classify
    sp = _need_scalar(rc)
    try:
        rep = scalar_classify(sp.N, sp.p, sp.a, sp.Q, sp.eps)
    except (NotApplicable, SeriesInvalid) as exc:   # a point outside the theory, not a failure
        raise ConfigError("scalar", str(exc))
    report = {"command": "scalar", "report": rep.to_dict()}
    summary = [f"scalar N={_fmt(sp.N)} p={_fmt(sp.p)} a={_fmt(sp.a)} Q={_fmt(sp.Q)} "
               f"eps={sp.eps}",
               f"Q1={_fmt(rep.Q1)} Q2={_fmt(rep.Q2)} gamma={_fmt(rep.gamma)}",
               f"behavior: {rep.behavior.value}"]
    return ReportBundle(report=report, csv_files={}, summary=summary)


def _run_portrait(rc: RunConfig) -> ReportBundle:
    """The scalar phase plane: the vector field on a grid plus the regular orbit."""
    from .dynamics import linspace
    from .scalar import capture_events, diagonal_trajectory, regular_seed, scalar_fixed_points
    sp = _need_scalar(rc)
    block = rc.block
    grid = _numbers(block.get("grid", [21, 21]), "portrait.grid", 2, _whole)
    if min(grid) < 0:
        raise ConfigError("portrait.grid", f"need sizes >= 0, got {grid}")
    fps = scalar_fixed_points(sp)
    ranges = _numbers(block.get("ranges", [[0.0, 1.5 * sp.x_bound], [0.0, 1.5 * (sp.N + sp.a)]]),
                      "portrait.ranges", 2, lambda r: _numbers(r, "portrait.ranges", 2))
    xs = linspace(ranges[0][0], ranges[0][1], grid[0])
    zs = linspace(ranges[1][0], ranges[1][1], grid[1])
    # the plane is the diagonal (X, X, Z, Z) of the symmetric system
    rhs = phase_rhs(sp.system)
    rows = [["X", "Z", "dX", "dZ"]]
    for xv in xs:
        for zv in zs:
            d = rhs(0.0, (xv, xv, zv, zv))
            rows.append([_fmt(xv), _fmt(zv), _fmt(d[0]), _fmt(d[2])])
    traj = diagonal_trajectory(sp, regular_seed(sp, MANIFOLD_RHO), (0.0, T_END),
                               events=capture_events(sp))
    trows = [["trajectory", "t", "X", "Z"]]
    for t, row in zip(traj.t, traj.y):
        trows.append(["0", _fmt(t), _fmt(row[0]), _fmt(row[2])])
    report = {"command": "portrait", "scalar": sp.to_dict(),
              "fixed_points": {k: list(v) for k, v in fps.items()}}
    summary = ["scalar portrait: fixed points " +
               " ".join(f"{k}=({_fmt(v[0])},{_fmt(v[1])})" for k, v in fps.items())]
    return ReportBundle(report=report, csv_files={"portrait.csv": rows, "trajectories.csv": trows},
                        summary=summary)


_RUNNERS = {"analyze": _run_analyze, "integrate": _run_integrate, "shoot": _run_shoot,
            "sweep": _run_sweep, "scalar": _run_scalar, "portrait": _run_portrait}


def run(rc: RunConfig) -> ReportBundle:
    return _RUNNERS[rc.command](rc)


def _usage_error(message: str):
    """Print the usage line and `message` to stderr and exit 2."""
    print(f"{USAGE}\nefdyn: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse_argv(argv: list[str]) -> tuple[str, str, str | None]:
    """The command, the --config path and the --out directory (None if not
    given) of `efdyn COMMAND --config PATH [--out DIR]`. The flags come in
    either order, as `--flag value` or `--flag=value`. -h or --help anywhere
    prints the help and exits 0; any other malformed command line is a usage
    error."""
    if "-h" in argv or "--help" in argv:
        print(_HELP)
        raise SystemExit(0)
    if not argv or argv[0] not in COMMANDS:
        _usage_error("the command comes first, one of " + ", ".join(COMMANDS))
    flags, rest = {}, iter(argv[1:])
    for arg in rest:
        flag, eq, value = arg.partition("=")
        if flag not in _FLAGS:
            _usage_error(f"unrecognized argument: {arg}")
        if not eq:
            value = next(rest, None)
            if value is None or value.startswith("-"):
                _usage_error(f"argument {flag}: expected one argument")
        if flag in flags:
            _usage_error(f"argument {flag}: given twice")
        flags[flag] = value
    if "--config" not in flags:
        _usage_error("the argument --config is required")
    return argv[0], flags["--config"], flags.get("--out")


def main(argv=None) -> int:
    command, config, out = _parse_argv(sys.argv[1:] if argv is None else argv)
    rc = None
    try:
        try:
            with open(config) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError("config", str(exc))
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}")
        rc = parse_config(raw, command, out)
        bundle = run(rc)
        try:
            files = bundle.write(rc.out)
        except OSError as exc:
            raise ConfigError("out", str(exc))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure: name the run it hit
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(f"  command: {command}", file=sys.stderr)
        if rc is not None:
            for key, value in (("params", rc.params), ("scalar", rc.scalar)):
                if value is not None:
                    print(f"  {key}: {json.dumps(value.to_dict())}", file=sys.stderr)
            if rc.block:
                print(f"  {command}: {json.dumps(rc.block)}", file=sys.stderr)
        if hasattr(exc, "sweep_value"):
            print(f"  value: {exc.sweep_value}", file=sys.stderr)
        tb = exc.__traceback__              # where it was raised: the innermost frame
        while tb.tb_next is not None:
            tb = tb.tb_next
        code = tb.tb_frame.f_code
        print(f"  at: {code.co_filename}:{tb.tb_lineno} in {code.co_name}", file=sys.stderr)
        return 3
    for line in bundle.summary:
        print(line)
    print(f"wrote {', '.join(files)} to {rc.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
