"""Layered benchmark of efdyn: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; efdyn is imported from its ``src/``. With
``--trace 0`` the run measures the end-to-end metrics with no hooks installed,
reporting times at a reference machine speed (README, "Noise");
with ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Everything else (environment record, per-op results, spans) is written to
``.bench_out/results/`` in the checkout. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import REFERENCE_SAMPLE_S, WORKLOADS, Context, run_child, speed_sample

# failed_frac and verdict_mismatch are printed but not listed in BENCHMARK.json:
# failures are the JSON line's own fields, and a mismatch count may be 0.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("model.vector_field_arr.calls", "count"),
    ("model.vector_field_arr.busy_s", "s"),
    ("dynamics.integrate_m.calls", "count"),
    ("dynamics.integrate_m.busy_s", "s"),
    ("dynamics.integrate_m.self_s", "s"),
    ("dynamics.integrate_m.steps_accepted", "count"),
    ("dynamics.integrate_m.steps_attempted", "count"),
    ("dynamics.integrate_m.steps_rejected", "count"),
    ("dynamics.integrate_m.steps_after_decision_frac", "ratio"),
    ("dynamics.classify_shot.calls", "count"),
    ("dynamics.classify_shot.horizon_extensions", "count"),
    ("dynamics.sweep_angles.calls", "count"),
    ("dynamics.bisection.shots", "count"),
    ("dynamics.search_ground_state.calls", "count"),
    ("dynamics.search_dirichlet.calls", "count"),
    ("dynamics.integrate_radial.calls", "count"),
    ("dynamics.integrate_radial.steps_accepted", "count"),
    ("dynamics.integrate_radial.steps_attempted", "count"),
    ("dynamics.oracle_compare.calls", "count"),
    ("scalar.scalar_classify.calls", "count"),
    ("scalar.scalar_vector_field.calls", "count"),
    ("scalar.steps_attempted", "count"),
    ("equilibria.fixed_point_catalog.calls", "count"),
    ("spectra.spectrum_at.calls", "count"),
    ("spectra.local_verdicts.calls", "count"),
    ("energies.predict_existence.calls", "count"),
    ("cli.parse_config.calls", "count"),
    ("cli.write.bytes", "bytes"),
    ("setup.interpreter_s", "s"),
    ("setup.import_efdyn_s", "s"),
    ("setup.import_scipy_integrate_s", "s"),
    ("trace.overhead_frac", "ratio"),
)
SETUP_REPEATS = 3


def _median_child(argv, env, cwd, k=SETUP_REPEATS) -> tuple[float, list]:
    runs = [run_child(argv, env, cwd) for _ in range(k)]
    bad = [r for r in runs if r.code != 0]
    if bad:
        raise RuntimeError(f"{' '.join(argv)} exited {bad[0].code}: {bad[0].stderr[-500:]}")
    return statistics.median(r.wall for r in runs), runs


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            out[parts[2].strip()] = int(parts[1]) / 1e6
    return out


def measure_setup(ctx: Context, traced: bool) -> tuple[dict, dict]:
    """Set-up metrics and the ``-X importtime`` breakdown behind them. The
    ``-X importtime`` runs come first: they also fill the bytecode cache of a
    fresh checkout. ``setup_s`` is at the reference speed, ``setup_measured_s``
    as measured."""
    py, env, cwd = sys.executable, ctx.env, str(ctx.root)
    _, runs = _median_child([py, "-X", "importtime", "-c", "import efdyn"], env, cwd,
                            SETUP_REPEATS if traced else 1)
    tables = [import_times(r.stderr) for r in runs]
    if traced:
        metrics = {"setup.interpreter_s": _median_child([py, "-c", "pass"], env, cwd)[0]}
        for name, key in (("efdyn", "setup.import_efdyn_s"),
                          ("scipy.integrate", "setup.import_scipy_integrate_s")):
            metrics[key] = statistics.median(t.get(name, 0.0) for t in tables)
    else:
        runs = [ctx.timed_child([py, "-c", "import efdyn"]) for _ in range(SETUP_REPEATS)]
        bad = [r for r, _ in runs if r.code != 0]
        if bad:
            raise RuntimeError(f"import efdyn exited {bad[0].code}: {bad[0].stderr[-500:]}")
        metrics = {"setup_s": statistics.median(ref for _, ref in runs),
                   "setup_measured_s": statistics.median(r.wall for r, _ in runs)}
    top = sorted(tables[0].items(), key=lambda kv: -kv[1])[:15]
    return metrics, {"importtime_cumulative_s": dict(top)}


def environment(root: Path, seed: int, threads_removed: bool) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "not a git checkout"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit,
            "seed": seed, "EFDYN_THREADS": "unset",
            "EFDYN_THREADS_was_set": threads_removed}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it:
    (value, percentile, sample count). Under eleven samples: the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n >= 11:
        return xs[n - 11], 100.0 * (n - 10) / n, n
    return xs[-1], 100.0, n


def run_passes(wl, ctx: Context, seconds: float, traced: bool):
    """floor(seconds / wl.pass_s) passes, at least two; traced, half as many
    untraced/traced pairs, at least one. ``pass_s`` is the pass time of the
    workload when the benchmark was defined, so a run does the same work on
    every commit and its statistics (the tail percentile above all) keep
    their sample count. On a machine slower than that, the run stops once
    it has measured 1.25 x ``seconds``."""
    passes, traced_passes = [], []
    n = max(1, int(seconds // (2 * wl.pass_s))) if traced else max(2, int(seconds // wl.pass_s))
    t_end = time.perf_counter() + 1.25 * seconds
    while len(passes) < n and (len(passes) < (1 if traced else 2) or time.perf_counter() < t_end):
        passes.append(wl.run_pass(ctx, False, len(passes)))
        if traced:
            rec = spans.Recorder()
            rec.install()
            ctx.recorder = rec
            try:
                res = wl.run_pass(ctx, True, len(passes))
            finally:
                ctx.recorder = None
                rec.uninstall()
            res.spans = res.spans or rec.spans
            traced_passes.append(res)
    return passes, traced_passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    traced = bool(args.trace)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "efdyn" / "__init__.py").is_file():
        print(f"efdyn sources not found under {src}", file=sys.stderr)
        return 2
    threads_removed = os.environ.pop("EFDYN_THREADS", None) is not None
    # one CPU for the run and its children, so that the speed samples see
    # the CPU the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    sys.path.insert(0, str(src))
    import efdyn
    if not Path(efdyn.__file__).resolve().is_relative_to(src.resolve()):
        print(f"imported efdyn from {efdyn.__file__}, not from {src}", file=sys.stderr)
        return 2

    out_root = root / ".bench_out"
    work = out_root / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        env_record = environment(root, args.seed, threads_removed)
        ctx = Context(root, work, env)
        speed_sample()                  # the first solve pays one-off set-up
        setup, importtime = measure_setup(ctx, traced)
        env_record.update(importtime)
        wl = WORKLOADS[args.workload](args.seed)
        passes, traced_passes = run_passes(wl, ctx, args.seconds, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # -- correctness: per-op errors, and output digests equal across all passes
    first_digest, failures = {}, []
    ops = [op for p in passes + traced_passes for op in p.ops]
    for op in ops:
        if op.error is None and op.digest is not None:
            ref = first_digest.setdefault(op.key, op.digest)
            if op.digest != ref:
                op.error = "output differs from an earlier repeat of this op"
        if op.error is not None:
            failures.append({"op": op.key, "error": op.error})
    attempted, failed = len(ops), len(failures)
    mismatches = [op.key for op in passes[0].ops if op.mismatch]

    lat = [op.ref for p in passes for op in p.ops]
    raw_lat = [op.latency for p in passes for op in p.ops]
    tail_v, tail_pct, n_lat = tail(lat)
    if any(p.peak_rss_kb for p in passes):
        peak_kb = max(p.peak_rss_kb for p in passes)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = {"setup_s": setup.get("setup_s", 0.0),
               "wall_s": statistics.median(p.ref_wall for p in passes),
               "op_p50_s": statistics.median(lat), "op_tail_s": tail_v,
               "peak_rss_mb": peak_kb / 1024.0, "failed_frac": failed / attempted,
               "verdict_mismatch": len(mismatches)}
    measured = {"setup_s": setup.get("setup_measured_s", 0.0),
                "wall_s": statistics.median(p.wall for p in passes),
                "op_p50_s": statistics.median(raw_lat), "op_tail_s": tail(raw_lat)[0]}
    units = {"failed_frac": "ratio", "verdict_mismatch": "count", **dict(END_TO_END)}

    layers = {}
    if traced:
        per_pass = [spans.layer_metrics(p.spans) for p in traced_passes]
        for key in sorted(set().union(*per_pass)):
            layers[key] = statistics.median(m.get(key, 0) for m in per_pass)
        counts = [{k: v for k, v in m.items() if k.endswith(".calls") or ".steps_" in k
                   or k.endswith(".shots")} for m in per_pass]
        layers["trace.counts_repeat"] = all(c == counts[0] for c in counts)
        layers["trace.overhead_frac"] = (statistics.median(p.wall for p in traced_passes)
                                         / statistics.median(p.wall for p in passes) - 1.0)
        layers.update(setup)

    result_file = out_root / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json")
    result_file.parent.mkdir(parents=True, exist_ok=True)
    with open(result_file, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env_record, "summary": summary,
                   "measured_s": measured,
                   "op_tail": {"percentile": tail_pct, "samples": n_lat},
                   "layers": layers, "failures": failures, "verdict_mismatches": mismatches,
                   "passes": [{"wall": p.wall, "ops": [vars(o) for o in p.ops]}
                              for p in passes + traced_passes],
                   "spans": [p.spans for p in traced_passes]}, fh, default=repr)

    print(f"environment: {json.dumps(env_record, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes"
          f"{f' + {len(traced_passes)} traced' if traced else ''}, {attempted} ops, "
          f"closed loop, one client; EFDYN_THREADS removed from every run's environment")
    if not traced:
        for key, value in summary.items():
            raw = f"  (measured {measured[key]:.6g} s)" if key in measured else ""
            print(f"  {key:<18} {value:.6g} {units[key]}{raw}")
        print(f"  op_tail_s is the p{tail_pct:.1f} latency of {n_lat} ops; times are at the "
              f"reference speed (speed_sample() = {REFERENCE_SAMPLE_S} s)")
    else:
        for key, value in layers.items():
            print(f"  {key:<48} {value:.6g}")
    for f in failures[:10]:
        print(f"  FAILED {f['op']}: {f['error']}")
    print(f"  results: {result_file.relative_to(root)}")

    wanted = END_TO_END if not traced else PER_LAYER
    source = summary if not traced else layers
    metrics = {name: {"value": float(source.get(name, 0.0)), "unit": unit}
               for name, unit in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
