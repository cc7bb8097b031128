"""Tests of the benchmark itself (not of efdyn). Run from the repository root:

    python3 -m pytest -q perfbench/tests

Some tests run traced passes and take a minute or two in total.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture
def ctx(tmp_path):
    env = dict(os.environ)
    env.pop("EFDYN_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return wl.Context(ROOT, tmp_path, env)


def _traced_pass(workload, ctx, pass_no=1):
    rec = spans.Recorder()
    rec.install()
    ctx.recorder = rec
    try:
        res = workload.run_pass(ctx, True, pass_no)
    finally:
        ctx.recorder = None
        rec.uninstall()
    return res, res.spans or rec.spans


def _per_op(span_list):
    ops = {}
    for s in span_list:
        ops.setdefault(s[2], []).append(s)
    return {op: spans.layer_metrics(ss) for op, ss in ops.items()}


@pytest.mark.parametrize("make", [wl.family_sweep_inputs, wl.bisect_dirichlet_inputs,
                                  wl.cli_single_inputs, wl.oracle_scalar_inputs])
def test_generator_is_deterministic_for_a_seed(make):
    assert json.dumps(make(7)) == json.dumps(make(7))
    if make is not wl.cli_single_inputs:
        assert json.dumps(make(7)) != json.dumps(make(8))


def test_family_sweep_has_one_value_on_the_critical_hyperbola():
    from efdyn import hamiltonian_params
    from efdyn.energies import CriticalCurve, Position, classify_region
    for seed in range(40):
        cfg = wl.family_sweep_inputs(seed)
        sw, N = cfg["sweep"], cfg["params"]["N"]
        assert 5.0 <= N <= 7.0
        values = wl.family_grid(sw["start"], sw["stop"], sw["step"])
        assert len(values) == 19
        on = [v for v in values
              if classify_region(hamiltonian_params(N, v, v))[CriticalCurve.H0] is Position.ON]
        assert len(on) == 1, (seed, N, on)


def test_cli_single_configs_are_the_shipped_ones():
    for command, cfg in wl.SINGLE_CONFIGS.items():
        shipped = [json.loads(p.read_text()) for p in (ROOT / "configs").glob("*.json")]
        shipped = [{k: v for k, v in c.items() if k != "out"} for c in shipped
                   if c["command"] == command]
        assert shipped == [cfg], command


def test_every_bisect_dirichlet_op_bisects(ctx):
    for seed in (0, 1):
        res, span_list = _traced_pass(wl.BisectDirichlet(seed), ctx)
        assert all(op.error is None for op in res.ops), [op.error for op in res.ops]
        per_op = _per_op(span_list)
        assert len(per_op) == len(res.ops)
        for i, pt in enumerate(wl.bisect_dirichlet_inputs(seed)):
            m = per_op[f"bisect-dirichlet/1/{i}"]
            assert m.get("dynamics.bisection.shots", 0) > 0, (seed, i)
            if pt["side"] == "below":      # a Dirichlet solution is found and integrated
                assert m["dynamics.integrate_radial.calls"] == 1, (seed, i)


def test_family_sweep_never_bisects_and_tracing_keeps_reports_identical(ctx):
    w = wl.FamilySweep(3)
    plain = w.run_pass(ctx, False, 0)
    traced, span_list = _traced_pass(w, ctx)
    assert [op.error for op in plain.ops + traced.ops] == [None] * 38
    assert {op.digest for op in plain.ops + traced.ops} == {plain.ops[0].digest}
    m = spans.layer_metrics(span_list)
    assert m.get("dynamics.bisection.shots", 0) == 0
    assert m["dynamics.classify_shot.calls"] == 19 * 9
    assert m["dynamics.search_ground_state.calls"] == 19


def test_tracing_keeps_single_command_reports_identical(ctx):
    w = wl.CliSingle(0)
    plain = w.run_pass(ctx, False, 0)
    traced, span_list = _traced_pass(w, ctx)
    assert [op.digest for op in plain.ops] == [op.digest for op in traced.ops]
    assert all(op.error is None for op in plain.ops + traced.ops)
    m = spans.layer_metrics(span_list)
    assert m["cli.parse_config.calls"] == 5 and m["cli.write.bytes"] > 0
    assert m["spectra.spectrum_at.calls"] > 0 and m["equilibria.fixed_point_catalog.calls"] > 0


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def test_two_traced_runs_give_identical_counts():
    runs = []
    for _ in range(2):
        proc = _bench("--workload", "oracle-scalar", "--seed", "4", "--seconds", "1",
                      "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
              for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["dynamics.oracle_compare.calls"] == wl.N_ORACLE
    assert counts[0]["scalar.scalar_classify.calls"] == 6 * wl.SCALAR_SETS
    assert all(r["correct"] and r["failed"] == 0 for r in runs)


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "cli-single", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    xs = [float(i) for i in range(1, 41)]
    assert run.tail(xs) == (30.0, 75.0, 40)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_self_time_excludes_children_and_leaves():
    # op root [0, 10] -> classify_shot [1, 9] (2 s of folded leaf calls) -> integrate_m [2, 5]
    span_list = [
        [0, None, "op", "bench.op", 0.0, 10.0, 8.0, {}],
        [1, 0, "op", "dynamics.classify_shot", 1.0, 9.0, 5.0,
         {"model.vector_field_arr": 4, "model.vector_field_arr.s": 2.0}],
        [2, 1, "op", "dynamics.integrate_m", 2.0, 5.0, 0.0, {"rk_step": 7, "steps_accepted": 5}],
    ]
    m = spans.layer_metrics(span_list)
    assert m["dynamics.classify_shot.self_s"] == 3.0
    assert m["dynamics.integrate_m.busy_s"] == 3.0
    assert m["model.vector_field_arr.calls"] == 4
    assert m["dynamics.integrate_m.steps_rejected"] == 2
