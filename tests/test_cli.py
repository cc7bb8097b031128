import hashlib
import json
import math
import os
import sys
from pathlib import Path

import pytest

from efdyn import cli, dynamics, scalar
from efdyn.cli import main, parse_config, run
from efdyn.dynamics import _seed, read_shot, search_ground_state
from efdyn.errors import ConfigError, PreconditionViolated
from efdyn.model import SystemParams
from efdyn.numerics import CAPTURE_DIST
from efdyn.scalar import ScalarBehavior, scalar_classify

from conftest import SCALAR_CASES

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
CONFIG_OUTPUTS = Path(__file__).resolve().parent / "config_outputs.sha256"

HAM_CONFIG = {
    "params": {"N": 6.0, "p": 2.0, "q": 2.0, "a": 0.0, "b": 0.0,
               "s": 0.0, "m": 0.0, "delta": 2.0, "mu": 2.0, "eps1": 1, "eps2": 1},
}


# fields of the removed `numerics` block: some were never read, the others
# are the constants of efdyn.numerics now
REMOVED_NUMERICS = ("fixed_point_atol", "spectrum_rtol", "root_residual_tol",
                    "event_ttol", "t_start", "ode_rtol", "t_end")


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"paramz": {}}, "analyze")
        assert err.value.path == "paramz"

    def test_unknown_param_key(self):
        bad = {"params": dict(HAM_CONFIG["params"], extra=1.0)}
        with pytest.raises(ConfigError) as err:
            parse_config(bad, "analyze")
        assert err.value.path == "params.extra"

    def test_missing_required_param(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"params": {"N": 6.0, "p": 2.0}}, "analyze")
        assert err.value.path == "params.q"

    def test_command_mismatch(self):
        with pytest.raises(ConfigError):
            parse_config(dict(HAM_CONFIG, command="shoot"), "analyze")

    def test_unknown_block_key(self):
        raw = dict(HAM_CONFIG, sweep={"kindz": "angle"})
        with pytest.raises(ConfigError) as err:
            parse_config(raw, "sweep")
        assert err.value.path == "sweep.kindz"
        # the numerics block is gone: whatever it sets, the whole block is rejected
        for key in REMOVED_NUMERICS:
            with pytest.raises(ConfigError) as err:
                parse_config(dict(HAM_CONFIG, numerics={key: 1e-10}), "analyze")
            assert err.value.path == "numerics"

    def test_round_trip_idempotent(self):
        rc1 = parse_config(HAM_CONFIG, "analyze")
        rc2 = parse_config(json.loads(json.dumps(HAM_CONFIG)), "analyze")
        assert rc1 == rc2


class TestAnalyze:
    def test_full_report(self, tmp_path):
        cfg = write_config(tmp_path, HAM_CONFIG)
        out = str(tmp_path / "out")
        assert main(["analyze", "--config", cfg, "--out", out]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["existence"]["verdict"] == "GS-exists"
        assert report["region"]["H0"] == "on"
        eigs = {(round(e["re"], 9), round(e["im"], 9))
                for fp in report["fixed_points"] if fp["label"] == "M0"
                for e in fp["spectrum"]["eigenvalues"]}
        s3 = 2 * math.sqrt(3)
        assert (round(s3, 9), 0.0) in eigs and (0.0, 2.0) in eigs
        assert report["power_solution"]["A"] == pytest.approx(4.0)
        # manifest lists exactly the files written
        for name in report["manifest"]["files"]:
            assert (tmp_path / "out" / name).exists()


    def test_each_spectrum_is_computed_once(self, tmp_path, monkeypatch):
        # the local verdicts read the spectrum of the report's entry: M0's
        # quartic is solved once
        from efdyn import equilibria, spectra
        calls, real = [], spectra.spectrum_at

        def counted(params, fp):
            calls.append(fp.label)
            return real(params, fp)
        monkeypatch.setattr(spectra, "spectrum_at", counted)
        cfg = CONFIGS / "analyze_hamiltonian_critical.json"
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        P = SystemParams.from_dict(json.loads(cfg.read_text())["params"])
        defined = [fp.label for fp in equilibria.fixed_point_catalog(P) if fp.defined]
        assert "M0" in {label.value for label in defined}
        assert calls == defined


class TestReruns:
    @pytest.mark.parametrize("config", sorted(p.stem for p in CONFIGS.glob("*.json")))
    def test_deterministic_reruns(self, tmp_path, monkeypatch, capsys, config):
        # two runs of a shipped config write the same bytes to every file and
        # to stdout; each writes to "out" in its own directory, so that the
        # path stdout names is the same too
        path = CONFIGS / f"{config}.json"
        command = json.loads(path.read_text())["command"]
        runs = []
        for sub in ("o1", "o2"):
            (tmp_path / sub).mkdir()
            monkeypatch.chdir(tmp_path / sub)
            assert main([command, "--config", str(path), "--out", "out"]) == 0
            files = {f.name: f.read_bytes() for f in sorted((tmp_path / sub / "out").iterdir())}
            runs.append((files, capsys.readouterr().out))
        assert "report.json" in runs[0][0]
        assert runs[0] == runs[1]


class TestPinnedOutputs:
    def test_shipped_configs_write_the_pinned_bytes(self, tmp_path, capsys):
        r"""Every file that each shipped config writes has the SHA-256 listed
        in tests/config_outputs.sha256, a `sha256sum` listing of paths
        <config stem>/<file name>. A change that moves an output on purpose
        says which and why, and rewrites the listing from the repository root:

            for cfg in configs/*.json; do
              command=$(python -c "import json, sys; print(json.load(open(sys.argv[1]))['command'])" "$cfg")
              PYTHONPATH=src python -m efdyn.cli "$command" --config "$cfg" \
                --out "efdyn-out/$(basename "$cfg" .json)"
            done
            (cd efdyn-out && find . -type f | sed 's|^\./||' | LC_ALL=C sort | xargs sha256sum) \
              > tests/config_outputs.sha256
        """
        written = {}
        for path in sorted(CONFIGS.glob("*.json")):
            command = json.loads(path.read_text())["command"]
            out = tmp_path / path.stem
            assert main([command, "--config", str(path), "--out", str(out)]) == 0
            for f in out.iterdir():
                written[f"{path.stem}/{f.name}"] = hashlib.sha256(f.read_bytes()).hexdigest()
        capsys.readouterr()
        pinned = {name: digest for digest, name in
                  (line.split("  ", 1) for line in CONFIG_OUTPUTS.read_text().splitlines())}
        assert written == pinned


class TestCommands:
    def test_integrate_radial_csv(self, tmp_path):
        raw = dict(HAM_CONFIG, integrate={"mode": "radial", "u0": 1.0, "v0": 1.0,
                                          "r_max": 10.0})
        cfg = write_config(tmp_path, raw)
        out = str(tmp_path / "out")
        assert main(["integrate", "--config", cfg, "--out", out]) == 0
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "r,u,v,du,dv"

    @pytest.mark.parametrize("changes,block,termination,samples", [
        (dict(delta=1.5, mu=1.5), {}, {"kind": "event", "label": None, "event": "u-zero"}, 144),
        (dict(delta=1.5, mu=1.5), {"v0": 0.5},
         {"kind": "event", "label": None, "event": "v-zero"}, 203),
        (dict(eps1=-1, eps2=-1), {}, {"kind": "blow-up", "label": None, "event": None}, 186),
    ], ids=["u-zero", "v-zero", "blow-up"])
    def test_integrate_reports_how_the_run_ended(self, tmp_path, capsys, changes, block,
                                                 termination, samples):
        # the shipped config pins the max-time end; these are the other three
        raw = {"params": dict(HAM_CONFIG["params"], **changes), "integrate": block}
        cfg = write_config(tmp_path, raw)
        assert main(["integrate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["termination"] == termination
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert summary == f"integrate radial: {samples} samples, termination {termination['kind']}\n"

    def test_shoot(self, tmp_path):
        raw = dict(HAM_CONFIG, shoot={"theta": 0.3, "rho": 1e-4})
        raw["params"] = dict(raw["params"], delta=1.5, mu=1.5)
        cfg = write_config(tmp_path, raw)
        out = str(tmp_path / "out")
        assert main(["shoot", "--config", cfg, "--out", out]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["outcome"]["sClass"] in ("S1", "S2", "S3", "S")
        # theta is seeded as the searches seed their angles
        P = SystemParams.from_dict(raw["params"])
        assert report["outcome"] == read_shot(P, *_seed(0.3, 1e-4), 1e-4).to_dict()

    @pytest.mark.parametrize("rho", [1e-4, 1e-5, 1e-6, 3e-4])
    def test_seed_at_quarter_pi_is_diagonal(self, rho):
        # cos and sin of the rounded pi/4 differ by an ulp; the seed does not
        x, y = _seed(math.pi / 4, rho)
        assert x == y

    def test_shoot_on_the_diagonal(self, tmp_path):
        # a symmetric system seeded on its diagonal stays there: the shot is S,
        # where a seed one ulp off it ended as S2
        raw = dict(HAM_CONFIG, shoot={"theta": math.pi / 4, "rho": 1e-5})
        raw["params"] = dict(raw["params"], s=0.5, m=0.5, delta=2.5, mu=2.5)
        cfg = write_config(tmp_path, raw)
        out = str(tmp_path / "out")
        assert main(["shoot", "--config", cfg, "--out", out]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["outcome"]["sClass"] == "S"

    def test_sweep_angle(self, tmp_path):
        raw = dict(HAM_CONFIG, sweep={"kind": "angle", "n": 5})
        raw["params"] = dict(raw["params"], delta=1.5, mu=1.5)
        cfg = write_config(tmp_path, raw)
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "theta,sClass,mClass,hitTime"
        assert len(lines) == 6
        # delta = mu: the system is exchange-symmetric, so the row at angle
        # pi/2 - theta is the mirror of the row at theta, hit time and all
        rows = [ln.split(",") for ln in lines[1:]]
        swap = {"S1": "S2", "S2": "S1", "M1": "M2", "M2": "M1"}
        assert [r[1] for r in rows] == ["S1", "S1", "S3", "S2", "S2"]
        for row, mirror in zip(rows, rows[::-1]):
            assert mirror[1:] == [swap.get(row[1], row[1]), swap.get(row[2], row[2]), row[3]]

    def test_sweep_angle_empty(self, tmp_path):
        # an empty angle listing is a listing, not a verdict
        cfg = write_config(tmp_path, dict(HAM_CONFIG, sweep={"kind": "angle", "n": 0}))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines == ["theta,sClass,mClass,hitTime"]

    @pytest.mark.parametrize("command,raw", [
        ("analyze", {"params": dict(HAM_CONFIG["params"], s=3.0, m=3.0)}),
        ("sweep", dict(HAM_CONFIG, sweep={"kind": "family", "parameter": "s=m",
                                          "start": 3.0, "stop": 3.0, "n_angles": 3})),
    ], ids=["analyze", "sweep-family"])
    def test_zero_discriminant_predicts_unknown(self, tmp_path, command, raw):
        # at D = 0 the decay exponents are undefined: the prediction is
        # unknown, not an internal error
        cfg = write_config(tmp_path, raw)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        if command == "analyze":
            report = json.loads((tmp_path / "out" / "report.json").read_text())
            assert report["existence"]["verdict"] == "unknown"
        else:
            rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
            assert rows[1].split(",")[-1] == "unknown"

    @pytest.mark.parametrize("params", [
        dict(HAM_CONFIG["params"], N=2.0),
        dict(HAM_CONFIG["params"], N=3.0, p=3.0, q=3.0, s=0.5, m=0.5),
    ], ids=["N=p=q=2", "N=p=q=3"])
    def test_analyze_at_p_equal_to_N(self, tmp_path, capsys, params):
        # the formulas that divide by N - p, or by N - 2, do not apply: as at
        # p > N, the report fails validation and still carries a verdict
        cfg = write_config(tmp_path, {"params": params})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert "validation: fail" in capsys.readouterr().out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["existence"]["verdict"] != "unknown"

    @pytest.mark.parametrize("start,stop", [(1.0, 2.0), (0.0, 1.0)])
    def test_family_grid_refuses_a_step_that_leaves_a_value(self, deadline, start, stop):
        # from 0 a step of 1e-20 advances, but stalls long before 1
        with pytest.raises(PreconditionViolated, match="need a step that moves every value"):
            cli.family_grid(start, stop, 1e-20)

    def test_sweep_family(self, tmp_path):
        raw = dict(HAM_CONFIG, sweep={"kind": "family", "parameter": "delta=mu",
                                      "start": 2.4, "stop": 2.6, "step": 0.1,
                                      "n_angles": 5})
        cfg = write_config(tmp_path, raw)
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "value,delta,mu,s,m,found_gs,predicted"
        assert len(lines) == 4
        assert all(ln.split(",")[5] == "1" for ln in lines[1:])   # supercritical: all found

    @pytest.mark.parametrize("parameter,delta_mu", [("s=m", lambda v: 2.0),
                                                    ("s=m-potential", lambda v: v + 1.0)])
    def test_sweep_family_self_exponents(self, tmp_path, parameter, delta_mu):
        raw = dict(HAM_CONFIG, sweep={"kind": "family", "parameter": parameter,
                                      "start": 0.3, "stop": 0.5, "step": 0.2,
                                      "n_angles": 3})
        cfg = write_config(tmp_path, raw)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "value,delta,mu,s,m,found_gs,predicted"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [float(row[0]) for row in rows] == [0.3, 0.5]
        for row in rows:
            v = float(row[0])
            assert [float(x) for x in row[1:5]] == [delta_mu(v), delta_mu(v), v, v]
            P = SystemParams(**HAM_CONFIG["params"]).replace(
                delta=delta_mu(v), mu=delta_mu(v), s=v, m=v)
            assert row[5] == ("1" if search_ground_state(P, n_angles=3).found else "0")

    def test_scalar_command(self, tmp_path):
        raw = {"scalar": {"N": 3.0, "p": 2.0, "a": 0.0, "Q": 6.0}}
        cfg = write_config(tmp_path, raw)
        out = str(tmp_path / "out")
        assert main(["scalar", "--config", cfg, "--out", out]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "ground states" in report["report"]["behavior"]

    def test_scalar_absorption_connection_near_p_minus_one(self, tmp_path):
        # ln u along the run passes the range of exp here; the end slopes are
        # read off X and need no profile
        raw = {"scalar": {"N": 3.0, "p": 2.0, "a": 0.0, "Q": 1.1, "eps": -1}}
        cfg = write_config(tmp_path, raw)
        out = str(tmp_path / "out")
        assert main(["scalar", "--config", cfg, "--out", out]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["report"]["evidence"]["termination"] == "converged:A0"

    def test_portrait_scalar_arrows_vanish_at_fixed_points(self, tmp_path):
        raw = {"scalar": {"N": 3.0, "p": 2.0, "a": 0.0, "Q": 5.0},
               "portrait": {"ranges": [[0.0, 1.0], [0.0, 3.0]], "grid": [3, 7]}}
        cfg = write_config(tmp_path, raw)
        out = str(tmp_path / "out")
        assert main(["portrait", "--config", cfg, "--out", out]) == 0
        rows = [ln.split(",") for ln in
                (tmp_path / "out" / "portrait.csv").read_text().splitlines()[1:]]
        table = {(float(r[0]), float(r[1])): (float(r[2]), float(r[3])) for r in rows}
        for pt in ((0.5, 0.5), (0.0, 3.0), (1.0, 0.0)):
            assert table[pt] == (0.0, 0.0)

    def test_portrait_scalar_orbit_stops_at_saddle(self, tmp_path):
        # the shipped critical portrait: the regular orbit runs along the
        # invariant line into the saddle A0 = (1, 0); past it only roundoff
        # would decide where it goes, so it ends within CAPTURE_DIST of A0
        cfg = os.path.join(os.path.dirname(__file__), "..", "configs",
                           "portrait_scalar_critical.json")
        out = str(tmp_path / "out")
        assert main(["portrait", "--config", cfg, "--out", out]) == 0
        last = (tmp_path / "out" / "trajectories.csv").read_text().splitlines()[-1]
        t, X, Z = (float(v) for v in last.split(",")[1:])
        assert t < 16.0
        assert max(abs(X - 1.0), abs(Z)) <= CAPTURE_DIST


def non_builtin(obj, path="report"):
    """Paths of the values in a report that are not of a builtin type the
    JSON writer serialises (dict, list, tuple, str, int, float, bool and
    None)."""
    if type(obj) is dict:
        return [bad for k, v in obj.items() for bad in non_builtin(v, f"{path}.{k}")]
    if type(obj) in (list, tuple):
        return [bad for i, v in enumerate(obj) for bad in non_builtin(v, f"{path}[{i}]")]
    if type(obj) in (str, int, float, bool, type(None)):
        return []
    return [f"{path}: {type(obj).__name__}"]


class TestReportValues:
    # every report value is a builtin: the writer needs no numpy conversion

    @pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_config_report(self, config, tmp_path):
        raw = json.loads(config.read_text())
        bundle = run(parse_config(raw, raw["command"], str(tmp_path)))
        assert non_builtin(bundle.report) == []

    @pytest.mark.parametrize("behavior", list(ScalarBehavior), ids=lambda b: b.name)
    def test_scalar_report(self, behavior):
        rep = scalar_classify(*SCALAR_CASES[behavior])
        assert rep.behavior is behavior
        assert non_builtin(rep.to_dict()) == []


class TestExitCodes:
    def test_config_error_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"paramz": 1})
        assert main(["analyze", "--config", cfg]) == 2
        cfg = write_config(tmp_path, dict(HAM_CONFIG, numerics={"event_ttol": 1e-10}))
        assert main(["analyze", "--config", cfg]) == 2

    def test_numerics_block_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(HAM_CONFIG, numerics={"ode_rtol": 1e-8}))
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "config error: numerics: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--tol", "--horizon"])
    def test_removed_flag_exit_2(self, tmp_path, flag):
        cfg = write_config(tmp_path, HAM_CONFIG)
        with pytest.raises(SystemExit) as err:
            main(["analyze", "--config", cfg, "--out", str(tmp_path / "out"), flag, "1e-8"])
        assert err.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,raw,key,failing,block", [
        ("shoot", dict(HAM_CONFIG, shoot={"theta": 0.3}), "params", "read_shot",
         ['  shoot: {"theta": 0.3}']),
        ("scalar", {"scalar": {"N": 3.0, "p": 2.0, "a": 0.0, "Q": 4.0, "eps": -1}},
         "scalar", "scalar_classify", []),
    ])
    def test_internal_error_exit_3_names_the_run(self, tmp_path, capsys, monkeypatch,
                                                 command, raw, key, failing, block):
        # an internal failure says which command and parameters it hit, on
        # stderr only: nothing is written
        def fail(*args, **kwargs):
            raise ZeroDivisionError("float division by zero")
        # patched where the command reads it: `shoot` imports read_shot from
        # efdyn.dynamics, and `scalar` scalar_classify from efdyn.scalar, when
        # it runs
        owner = {"read_shot": dynamics, "scalar_classify": scalar}[failing]
        monkeypatch.setattr(owner, failing, fail)
        cfg = write_config(tmp_path, raw)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert lines[:2] == ["internal error: ZeroDivisionError: float division by zero",
                             f"  command: {command}"]
        assert lines[2].startswith(f"  {key}: ")
        assert json.loads(lines[2].split(": ", 1)[1]) == raw[key]
        # the last line is where the failure was raised: in `fail`
        code = fail.__code__
        assert lines[3:] == block + [
            f"  at: {code.co_filename}:{code.co_firstlineno + 1} in fail"]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_family_sweep_internal_error_names_the_value(self, tmp_path, capsys, monkeypatch):
        # a family sweep's internal failure also names the value it hit, here
        # the third of three; nothing is written
        search, calls = dynamics.search_ground_state, []

        def fail_at_third(params, n_angles):
            calls.append(params)
            if len(calls) == 3:
                raise ZeroDivisionError("float division by zero")
            return search(params, n_angles=n_angles)
        monkeypatch.setattr(dynamics, "search_ground_state", fail_at_third)
        block = {"kind": "family", "parameter": "delta=mu", "start": 2.4, "stop": 2.6,
                 "step": 0.1, "n_angles": 3}
        cfg = write_config(tmp_path, dict(HAM_CONFIG, sweep=block))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert lines[:2] == ["internal error: ZeroDivisionError: float division by zero",
                             "  command: sweep"]
        assert json.loads(lines[2].split("params: ", 1)[1]) == HAM_CONFIG["params"]
        assert json.loads(lines[3].split("sweep: ", 1)[1]) == block
        assert lines[4:] == ["  value: delta=mu = 2.6",
                             f"  at: {fail_at_third.__code__.co_filename}:"
                             f"{fail_at_third.__code__.co_firstlineno + 3} in fail_at_third"]
        assert [P.delta for P in calls] == [2.4, 2.5, 2.6]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_angle_sweep_internal_error_names_the_angle(self, tmp_path, capsys, monkeypatch):
        # an angle sweep's internal failure names the grid angle it hit, here
        # the second of three on a system without exchange symmetry, where
        # every angle is shot; nothing is written
        shoot, calls = dynamics.read_shot, []

        def fail_at_second(params, x, y):
            calls.append((x, y))
            if len(calls) == 2:
                raise ZeroDivisionError("float division by zero")
            return shoot(params, x, y)
        monkeypatch.setattr(dynamics, "read_shot", fail_at_second)
        params = dict(HAM_CONFIG["params"], delta=1.6, mu=2.1)
        block = {"kind": "angle", "n": 3}
        cfg = write_config(tmp_path, {"params": params, "sweep": block})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert lines[:2] == ["internal error: ZeroDivisionError: float division by zero",
                             "  command: sweep"]
        assert json.loads(lines[2].split("params: ", 1)[1]) == params
        assert json.loads(lines[3].split("sweep: ", 1)[1]) == block
        theta = dynamics.linspace(0.0, math.pi / 2, 5)[2]
        assert calls[1] == _seed(theta, dynamics.MANIFOLD_RHO)
        assert lines[4:] == [f"  value: theta = {theta!r}",
                             f"  at: {fail_at_second.__code__.co_filename}:"
                             f"{fail_at_second.__code__.co_firstlineno + 3} in fail_at_second"]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,block", [
        ("shoot", {"theta": 0.3}),
        ("sweep", {"kind": "angle", "n": 3}),
        ("sweep", {"kind": "family", "start": 2.0, "stop": 2.2, "step": 0.1, "n_angles": 3}),
    ], ids=["shoot", "angle-sweep", "family-sweep"])
    def test_shot_outside_one_to_n_exit_2(self, tmp_path, capsys, command, block):
        # at N = 1.8 < p = q = 2 the box a shot leaves is empty: a config error
        # that names the inequality, neither an Inconclusive (exit 3) nor the
        # box of shoot.rho
        raw = {"params": dict(HAM_CONFIG["params"], N=1.8), command: block}
        cfg = write_config(tmp_path, raw)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "config error: params: shots need 1 < p < N: p = 2.0, N = 1.8\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,block", [
        ("shoot", {"theta": 0.7853981633974483, "rho": 1e-4}),
        ("sweep", {"kind": "angle", "n": 3}),
        ("sweep", {"kind": "family", "start": 1.5, "stop": 1.6, "step": 0.1, "n_angles": 3}),
    ], ids=["shoot", "angle-sweep", "family-sweep"])
    @pytest.mark.parametrize("eps1,eps2", [(-1, 1), (1, -1), (-1, -1)])
    def test_shot_at_other_signs_exit_2(self, tmp_path, capsys, command, block, eps1, eps2):
        # the phase field reads no sign: a shot at eps != (1, 1) would report
        # the answer at eps = (1, 1). integrate answers at every sign
        params = dict(HAM_CONFIG["params"], delta=1.5, mu=1.5, eps1=eps1, eps2=eps2)
        cfg = write_config(tmp_path, {"params": params, command: block})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (f"config error: params: shots need eps1 = eps2 = 1: "
                                           f"eps1 = {eps1}, eps2 = {eps2}\n")
        assert not (tmp_path / "out").exists()
        cfg = write_config(tmp_path, {"params": params, "integrate": {"r_max": 10.0}})
        assert main(["integrate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("params,u0", [
        (dict(HAM_CONFIG["params"]), 1e300),
        (dict(HAM_CONFIG["params"], s=1.0, m=0.5, delta=1.5, mu=2.0), 1e200),
        (dict(HAM_CONFIG["params"], s=1.0, m=1.0, delta=1.0, mu=1.0), 1e200),
    ], ids=["hamiltonian-1e300", "power-overflow-1e200", "product-overflow-1e200"])
    def test_integrate_startup_overflow_exit_2(self, tmp_path, capsys, params, u0):
        # the startup series leaves the floats: a power that raises
        # OverflowError (exit 3 before), or a product that overflows to inf
        cfg = write_config(tmp_path, {"params": params, "integrate": {"u0": u0, "v0": u0}})
        assert main(["integrate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: integrate.u0: u0 = {u0!r}, v0 = {u0!r}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("changes,path,message", [
        (dict(a=-2.5), "params", "startup series needs min(p+a, q+b) > 0"),
        (dict(N=4.0, p=3.0, q=3.0, a=-2.9, b=-2.9), "integrate.u0",
         "u0 = 1.0, v0 = 1.0: the startup series at r0 = 1e-06 starts at "
         "u = -8.55726554942188, v = -8.55726554942188, not both positive"),
    ], ids=["no-series", "start-below-zero"])
    def test_integrate_invalid_series_exit_2(self, tmp_path, capsys, changes, path, message):
        # SeriesInvalid is the config's point, not an internal failure (exit 3 before)
        cfg = write_config(tmp_path, {"params": dict(HAM_CONFIG["params"], **changes)})
        assert main(["integrate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_portrait_without_scalar_exit_2(self, tmp_path, capsys):
        # portrait draws the scalar plane only; system parameters alone do not do
        cfg = write_config(tmp_path, dict(HAM_CONFIG, portrait={"grid": [5, 5]}))
        assert main(["portrait", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "config error: scalar: required for this command" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # every block key that was removed, and the removed phase mode of
    # integrate: the portrait keys plane and fixed kept their ids
    @pytest.mark.parametrize("path,value", [
        ("portrait.plane", ["X", "Y"]), ("portrait.fixed", {"Z": 2.0}),
        ("integrate.initial", [0.1, 0.1, 5.9, 5.9]), ("integrate.t_span", [0.0, 3.0]),
        ("shoot.x", 1e-4), ("shoot.y", 1e-4), ("sweep.rho", 1e-4),
        ("portrait.trajectories", [[1e-4, 3.0]]), ("portrait.t_span", [0.0, 3.0]),
        ("integrate.mode", "phase"),
    ], ids=["plane", "fixed", "integrate.initial", "integrate.t_span", "shoot.x", "shoot.y",
            "sweep.rho", "portrait.trajectories", "portrait.t_span", "integrate.mode=phase"])
    def test_removed_portrait_key_exit_2(self, tmp_path, capsys, path, value):
        command, key = path.split(".")
        raw = ({"scalar": {"N": 3.0, "p": 2.0, "a": 0.0, "Q": 5.0}} if command == "portrait"
               else dict(HAM_CONFIG))
        raw[command] = {key: value}
        cfg = write_config(tmp_path, raw)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {path}: " in err
        assert key == "mode" or f"{path}: unknown key" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,raw,path", [
        ("sweep", dict(HAM_CONFIG, sweep={"kind": "family"}), "sweep.start"),
        ("portrait", {"scalar": {"N": 3.0, "p": 2.0, "a": 0.0, "Q": 5.0},
                      "portrait": {"grid": [3]}}, "portrait.grid"),
        ("scalar", {"scalar": {"N": 3.0, "p": 2.0, "a": 0.0, "Q": 5.0, "eps": "x"}},
         "scalar.eps"),
        # a step that is not > 0 would make the family's value loop endless
        ("sweep", dict(HAM_CONFIG, sweep={"kind": "family", "start": 2.0, "stop": 2.2,
                                          "step": 0}), "sweep.step"),
        ("sweep", dict(HAM_CONFIG, sweep={"kind": "family", "start": 2.0, "stop": 2.2,
                                          "step": -0.1}), "sweep.step"),
        ("sweep", dict(HAM_CONFIG, sweep={"kind": "family", "start": 2.0, "stop": 2.2,
                                          "step": math.nan}), "sweep.step"),
        # a step below the float spacing leaves the value unchanged: 1 + 1e-20 == 1
        ("sweep", dict(HAM_CONFIG, sweep={"kind": "family", "start": 1.0, "stop": 2.0,
                                          "step": 1e-20}), "sweep.step"),
        ("sweep", dict(HAM_CONFIG, sweep={"kind": "angle", "n": -3}), "sweep.n"),
        ("sweep", dict(HAM_CONFIG, sweep={"kind": "family", "start": 2.0, "stop": 2.2,
                                          "n_angles": -1}), "sweep.n_angles"),
        # zero shots would write every found_gs as 0
        ("sweep", dict(HAM_CONFIG, sweep={"kind": "family", "start": 2.0, "stop": 2.2,
                                          "n_angles": 0}), "sweep.n_angles"),
        # a count is a whole number, not truncated; every number is finite
        ("sweep", dict(HAM_CONFIG, sweep={"kind": "family", "start": 2.0, "stop": 2.2,
                                          "n_angles": 3.7}), "sweep.n_angles"),
        ("sweep", dict(HAM_CONFIG, sweep={"kind": "angle", "n": 2.5}), "sweep.n"),
        ("scalar", {"scalar": {"N": 3.0, "p": 2.0, "a": 0.0, "Q": 5.0, "eps": 1.9}},
         "scalar.eps"),
        ("scalar", {"scalar": {"N": 3.0, "p": 2.0, "a": 0.0, "Q": math.inf}}, "scalar.Q"),
        ("portrait", {"scalar": {"N": 3.0, "p": 2.0, "a": 0.0, "Q": 5.0},
                      "portrait": {"grid": [3.9, 2.2]}}, "portrait.grid"),
        ("portrait", {"scalar": {"N": 3.0, "p": 2.0, "a": 0.0, "Q": 5.0},
                      "portrait": {"ranges": [[0.0, math.nan], [0.0, 3.0]]}},
         "portrait.ranges"),
        ("analyze", {"params": dict(HAM_CONFIG["params"], N=math.nan)}, "params.N"),
        # params keep their values as written: a string would fail past the check
        ("analyze", {"params": dict(HAM_CONFIG["params"], N="6")}, "params.N"),
        ("sweep", dict(HAM_CONFIG, sweep={"kind": "family", "start": -math.inf, "stop": 2.2}),
         "sweep.start"),
        # a NaN u0 made the radial run loop forever
        ("integrate", dict(HAM_CONFIG, integrate={"u0": math.nan}), "integrate.u0"),
        ("integrate", dict(HAM_CONFIG, integrate={"u0": 0.0}), "integrate.u0"),
        ("integrate", dict(HAM_CONFIG, integrate={"v0": -1.0}), "integrate.v0"),
        ("integrate", dict(HAM_CONFIG, integrate={"r_max": 0.0}), "integrate.r_max"),
        # below the startup radius RADIAL_R0 the run would go inward
        ("integrate", dict(HAM_CONFIG, integrate={"r_max": 1e-7}), "integrate.r_max"),
        ("integrate", dict(HAM_CONFIG, integrate={"r_max": math.inf}), "integrate.r_max"),
        ("shoot", dict(HAM_CONFIG, shoot={"theta": -0.1}), "shoot.theta"),
        ("shoot", dict(HAM_CONFIG, shoot={"theta": 2.0}), "shoot.theta"),
        ("shoot", dict(HAM_CONFIG, shoot={"theta": 0.5, "rho": 0.0}), "shoot.rho"),
        ("shoot", dict(HAM_CONFIG, shoot={"rho": 1e-4}), "shoot.theta"),
        # a seed past the face x = x_bound: the run would start outside the box
        ("shoot", dict(HAM_CONFIG, params=dict(HAM_CONFIG["params"], delta=1.5, mu=1.5),
                       shoot={"theta": 0.3, "rho": 10.0}), "shoot.rho"),
        # an empty value grid (start > stop) must not hide a misspelled family
        ("sweep", dict(HAM_CONFIG, sweep={"kind": "family", "parameter": "delta=nu",
                                          "start": 2.2, "stop": 2.0}), "sweep.parameter"),
        # json reads true as True, an int to Python: n = true ran a one-seed
        # sweep, and eps1 = true went back into report.json
        ("sweep", dict(HAM_CONFIG, sweep={"kind": "angle", "n": True}), "sweep.n"),
        ("analyze", {"params": dict(HAM_CONFIG["params"], eps1=True)}, "params.eps1"),
        ("scalar", {"scalar": {"N": 3.0, "p": 2.0, "a": 0.0, "Q": 5.0, "eps": True}},
         "scalar.eps"),
        ("integrate", dict(HAM_CONFIG, integrate={"u0": True}), "integrate.u0"),
    ], ids=["family-without-start", "one-grid-size", "eps-not-a-number", "family-zero-step",
            "family-negative-step", "family-nan-step", "family-step-below-spacing",
            "angle-negative-n",
            "family-negative-n_angles", "family-zero-n_angles", "family-fractional-n_angles",
            "angle-fractional-n", "eps-fractional", "scalar-infinite-Q",
            "fractional-grid", "nan-range", "params-nan-N", "params-string-N",
            "family-infinite-start",
            "integrate-nan-u0", "integrate-zero-u0", "integrate-negative-v0",
            "integrate-zero-r_max", "integrate-r_max-below-r0", "integrate-infinite-r_max",
            "shoot-negative-theta", "shoot-theta-above-pi/2", "shoot-zero-rho",
            "shoot-without-theta", "shoot-seed-outside-box", "family-misspelled-parameter",
            "angle-boolean-n", "params-boolean-eps1", "eps-boolean", "integrate-boolean-u0"])
    def test_malformed_value_exit_2(self, tmp_path, capsys, deadline, command, raw, path):
        cfg = write_config(tmp_path, raw)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {path}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_scalar_point_outside_the_theory_exit_2(self, tmp_path, capsys):
        # Q < p - 1 with the absorption sign: M0 is no saddle, so there is no
        # connection to classify; that is the config's point, not a failure
        raw = {"scalar": {"N": 3.0, "p": 2.0, "a": 0.0, "Q": 0.5, "eps": -1}}
        cfg = write_config(tmp_path, raw)
        assert main(["scalar", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: scalar: Q = 0.5 < p - 1 = 1.0: M0 is no saddle, "
            "there is no connection to follow\n")
        assert not (tmp_path / "out").exists()

    def test_scalar_series_that_starts_below_zero_exit_2(self, tmp_path, capsys):
        raw = {"scalar": {"N": 3.0, "p": 2.0, "a": -1.9, "Q": 7.0}}
        cfg = write_config(tmp_path, raw)
        assert main(["scalar", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: scalar: u0 = 1.0, v0 = 1.0: the startup series at r0 = 1e-06 "
            "starts at u = -1.2835331195541588, v = -1.2835331195541588, not both positive\n")
        assert not (tmp_path / "out").exists()

    def test_scalar_amplitude_fit_without_samples_exit_3(self, tmp_path, capsys):
        raw = {"scalar": {"N": 4.802210480965609, "p": 3.9829484180064085,
                          "a": -3.5483541884636005, "Q": 9.414240922040428}}
        cfg = write_config(tmp_path, raw)
        assert main(["scalar", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith(
            "internal error: Inconclusive: the radial run ended by u-zero at r = "
            "4.354893159692437e-06, before any sample beyond r = 30000.0: no amplitude fit\n")

    def test_scalar_absorption_step_underflow_exit_0(self, tmp_path, capsys):
        # Q > Q1 with the absorption sign: the verdict is the theory's, and
        # the radial run whose step collapses at r = 3.86 is recorded in the
        # report, not an internal error
        raw = {"scalar": {"N": 6.0, "p": 1.25, "a": 0.0, "Q": 5.0, "eps": -1}}
        cfg = write_config(tmp_path, raw)
        assert main(["scalar", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "out" / "report.json").read_text())["report"]
        assert report["behavior"] == "all solutions near 0 regular; they blow up at finite radius"
        assert report["evidence"] == {"termination": "step-underflow"}

    def test_non_string_out_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(HAM_CONFIG, out=5))
        assert main(["analyze", "--config", cfg]) == 2
        assert capsys.readouterr().err == \
            "config error: out: must be a directory name, got 5\n"

    def test_empty_out_exit_2(self, tmp_path, monkeypatch, capsys):
        # an empty name is refused, not replaced by the default directory
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, dict(HAM_CONFIG, out=""))
        assert main(["analyze", "--config", cfg]) == 2
        assert capsys.readouterr() == ("", "config error: out: must be a directory name, "
                                           "got ''\n")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_out_naming_a_file_exit_2(self, tmp_path, capsys):
        # the output directory cannot be made where a file already is
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        cfg = write_config(tmp_path, HAM_CONFIG)
        assert main(["analyze", "--config", cfg, "--out", str(taken)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: out: ")
        assert str(taken) in captured.err
        assert captured.out == ""
        assert taken.read_text() == "kept\n"

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["analyze", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["analyze", "--config", str(path)]) == 2

    def test_recoverable_numeric_conditions_exit_0(self, tmp_path):
        # absorption sign: the power solution does not exist; analyze still runs
        raw = {"params": dict(HAM_CONFIG["params"], eps1=-1, eps2=-1)}
        cfg = write_config(tmp_path, raw)
        out = str(tmp_path / "out")
        assert main(["analyze", "--config", cfg, "--out", out]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["power_solution"] is None
        assert report["errors"]


# efdyn COMMAND --config PATH [--out DIR], read by hand: each argv ({cfg} a
# valid config, {out} an output directory), its exit code, and the stream the
# usage line goes to (None: the command runs; "config": a config error that
# names `out`, with no usage line)
ARGV_CASES = {
    "config-then-out": (["analyze", "--config", "{cfg}", "--out", "{out}"], 0, None),
    "out-then-config": (["analyze", "--out", "{out}", "--config", "{cfg}"], 0, None),
    "equals-forms": (["analyze", "--config={cfg}", "--out={out}"], 0, None),
    "mixed-forms": (["analyze", "--out={out}", "--config", "{cfg}"], 0, None),
    "-h": (["-h"], 0, "out"),
    "--help": (["--help"], 0, "out"),
    "help-after-command": (["analyze", "--config", "{cfg}", "--help"], 0, "out"),
    "no-arguments": ([], 2, "err"),
    "unknown-command": (["analyse", "--config", "{cfg}", "--out", "{out}"], 2, "err"),
    "command-last": (["--config", "{cfg}", "--out", "{out}", "analyze"], 2, "err"),
    "missing-config": (["analyze", "--out", "{out}"], 2, "err"),
    "config-without-value": (["analyze", "--out", "{out}", "--config"], 2, "err"),
    "config-before-a-flag": (["analyze", "--config", "--out", "{out}"], 2, "err"),
    "repeated-out": (["analyze", "--config", "{cfg}", "--out", "{out}", "--out", "{out}"],
                     2, "err"),
    "unknown-flag": (["analyze", "--config", "{cfg}", "--out", "{out}", "--verbose"], 2, "err"),
    "abbreviated-flag": (["analyze", "--conf", "{cfg}", "--out", "{out}"], 2, "err"),
    "stray-argument": (["analyze", "--config", "{cfg}", "--out", "{out}", "extra"], 2, "err"),
    "empty-out-equals": (["analyze", "--config", "{cfg}", "--out="], 2, "config"),
    "empty-out": (["analyze", "--config", "{cfg}", "--out", ""], 2, "config"),
}


class TestCommandLine:
    @pytest.mark.parametrize("case", ARGV_CASES)
    def test_argv(self, tmp_path, monkeypatch, capsys, case):
        template, code, usage_on = ARGV_CASES[case]
        cfg, out = write_config(tmp_path, HAM_CONFIG), tmp_path / "out"
        argv = [arg.format(cfg=cfg, out=out) for arg in template]
        if usage_on is None:
            assert main(argv) == 0
            assert (out / "report.json").exists()
            return
        if usage_on == "config":
            # nothing is written, not even to the default directory
            monkeypatch.chdir(tmp_path)
            assert main(argv) == code
            assert capsys.readouterr() == ("", "config error: out: must be a directory "
                                               "name, got ''\n")
            assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
            return
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == code
        captured = capsys.readouterr()
        shown = captured.out if usage_on == "out" else captured.err
        other = captured.err if usage_on == "out" else captured.out
        assert shown.splitlines()[0] == cli.USAGE
        assert other == ""
        if code == 0:       # the help lists every command
            assert all(f"\n  {command} " in shown for command in cli.COMMANDS)
        else:
            assert shown.splitlines()[1].startswith("efdyn: error: ")
        assert not out.exists()

    def test_argv_none_reads_sys_argv(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        monkeypatch.setattr(sys, "argv", ["efdyn", "analyze", "--config",
                                          write_config(tmp_path, HAM_CONFIG), "--out", str(out)])
        assert main() == 0
        assert (out / "report.json").exists()
