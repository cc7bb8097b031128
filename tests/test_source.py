"""Checks on the source tree itself: the numerical constants, the absence of a
tolerance parameter, the scripts' imports, the public surface and numpy's
absence from the package and the scripts."""

import ast
import json
import math
import re
import runpy
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import efdyn
from efdyn import dynamics, numerics
from efdyn.dynamics import EventSpec
from efdyn.model import hamiltonian_params
from efdyn.scalar import ScalarBehavior

from conftest import SCALAR_CASES

SRC = Path(efdyn.__file__).parent
ROOT = SRC.parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
# the callers outside src/ that the package serves
CLIENTS = SCRIPTS + sorted((ROOT / "perfbench").rglob("*.py"))
README = (ROOT / "README.md").read_text()

# definitions with no caller yet, kept for the ROADMAP item that names them
# as its next caller
KEPT_FOR_ROADMAP = {
    "energy_value": "item 4",
    "energy_derivative": "items 4 and 7",
    "explicit_critical_solution": "item 4",
    "nonvariational_lower": "item 7",
    "phi": "item 4",
}

# a change of tolerance is a deliberate edit of this table
PINNED = {
    "IDENTITY_RTOL": 1e-10, "CENTER_TOL": 1e-9, "DEGENERACY_BAND": 1e-8,
    "ODE_RTOL": 1e-10, "ODE_ATOL": 1e-12, "BLOW_UP": 1e6, "T_END": 40.0,
    "MANIFOLD_RHO": 1e-4, "SIM_WINDOW": 1e-6,
    "ANGLE_TOL": 1e-10, "CAPTURE_DIST": 1e-8,
    "RADIAL_R0": 1e-6, "SCALAR_R_MAX": 1e5,
}


def test_blow_up_is_decided_in_one_place():
    # one terminal event ends every kernel run where its orbit goes to
    # infinity: only efdyn.dynamics reads BLOW_UP, and each problem builder
    # carries that event once
    readers = {path.stem for path in sorted(SRC.glob("*.py")) if path.stem != "numerics"
               for name, _ in _uses(ast.parse(path.read_text())) if name == "BLOW_UP"}
    assert readers == {"dynamics"}
    P = hamiltonian_params(6.0, 2.0, 2.0)
    bound = EventSpec("x-bound", lambda t, y: y[0] - P.x_bound)
    phase = dynamics._phase_problem(P, dynamics.launch_regular(P, 1e-4, 0.0), (0.0, 40.0),
                                    [bound])
    radial = dynamics._radial_problem(P, 1.0, 1.0, 1e4)
    for problem in (phase, radial):
        names = [ev.name for ev in problem[-1]]
        assert [n for n in names if n.startswith("blow")] == ["blow-up"]


def test_only_a_shot_pauses_the_kernel():
    # every kernel run but a shot's runs to its end through dop853.solve: one
    # function outside the kernel steps a run itself, classify_shot, which
    # stops it at the S-decision
    def calls_steps(node):
        return any(isinstance(sub, ast.Attribute) and sub.attr == "steps"
                   and isinstance(sub.value, ast.Name) and sub.value.id == "dop853"
                   for sub in ast.walk(node))

    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert "steps" not in {alias.name for node in ast.walk(tree)
                               if isinstance(node, ast.ImportFrom) for alias in node.names}
        defs = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        defs += [(f"{cls.name}.{fn.name}", fn) for cls in tree.body
                 if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)]
        callers += [f"{path.stem}.{name}" for name, fn in defs if calls_steps(fn)]
    assert callers == ["dynamics.classify_shot"]


def _is_minus_one(node) -> bool:
    try:
        return ast.literal_eval(node) == -1
    except (ValueError, TypeError):
        return False


def test_only_the_kernel_decides_a_step_underflow():
    # the kernel raises StepSizeUnderflow with its failed run: no other
    # module raises it or compares a run's status with -1, and no module
    # reads a state at a root but through the run's dense output, `at`
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.stem}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Attribute) and node.attr == "event_states":
                found.append(f"{where} reads event_states")
            if path.stem == "dop853":
                continue
            if isinstance(node, ast.Raise) and any(
                    isinstance(sub, ast.Name) and sub.id == "StepSizeUnderflow"
                    for sub in ast.walk(node)):
                found.append(f"{where} raises StepSizeUnderflow")
            if isinstance(node, ast.Compare) and any(
                    isinstance(sub, ast.Attribute) and sub.attr == "status"
                    for sub in ast.walk(node)) \
                    and any(_is_minus_one(side) for side in (node.left, *node.comparators)):
                found.append(f"{where} compares a status with -1")
    assert found == []


def test_searches_read_s_classes_only():
    # a search answers from S-classes alone, so no shot of it runs past its
    # S-decision: only reports (read_shot) read a shot's M-class or hit times.
    # The grid and mirror of sweep_angles (_angle_grid) read neither; the
    # report sweep of `sweep kind=angle` hands it read_shot
    tree = ast.parse((SRC / "dynamics.py").read_text())
    searches = ("_angle_grid", "sweep_angles", "_bisect_boundary", "search_ground_state",
                "search_dirichlet")
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reads(node):
        return (isinstance(node, ast.Attribute)
                and node.attr in ("m_class", "hit_times", "read_shot")
                or isinstance(node, ast.Name) and node.id == "read_shot")
    found = [f"{name}:{node.lineno}" for name in searches
             for node in ast.walk(defs[name]) if reads(node)]
    assert found == []


def test_stepping_loop_calls_no_min_or_max():
    # dop853._run's step loop compares where scipy's controller calls min()
    # and max(), and binds math.nextafter once per run
    tree = ast.parse((SRC / "dop853.py").read_text())
    run = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name == "_run")
    loop = next(node for node in ast.walk(run) if isinstance(node, ast.While))
    called = {node.func.id for node in ast.walk(loop)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not called & {"min", "max"}
    assert not [node for node in ast.walk(loop) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "math"]


def test_numerics_constants_are_pinned():
    public = {k: v for k, v in vars(numerics).items() if not k.startswith("_")}
    assert {k: type(v) for k, v in public.items()} == {k: type(v) for k, v in PINNED.items()}
    assert public == PINNED


@pytest.mark.parametrize("name", ["cfg", "rtol", "atol", "tol"])
def test_no_function_takes_cfg(name):
    # tolerances are module constants; no function takes a settings object or
    # a tolerance of its own
    found = [f"{path.stem}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             for arg in ast.walk(node.args) if isinstance(arg, ast.arg) and arg.arg == name]
    assert found == []


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_loads(path):
    # every name a script imports from efdyn resolves; main() does not run
    namespace = runpy.run_path(str(path), run_name="not_main")
    assert callable(namespace["main"])


@pytest.mark.parametrize("path", [p for p in SCRIPTS if "--angles" in p.read_text()],
                         ids=lambda p: p.name)
def test_script_refuses_zero_angles(path, monkeypatch, capsys):
    main = runpy.run_path(str(path), run_name="not_main")["main"]
    monkeypatch.setattr(sys, "argv", [path.name, "--angles", "0"])
    with pytest.raises(SystemExit) as err:
        main()
    assert err.value.code == 2
    assert "--angles must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("path", [p for p in SCRIPTS if "--step" in p.read_text()],
                         ids=lambda p: p.name)
def test_script_refuses_a_step_that_does_not_advance(path, monkeypatch, capsys, deadline):
    # 1 + 1e-20 == 1: the value loop would never end
    main = runpy.run_path(str(path), run_name="not_main")["main"]
    monkeypatch.setattr(sys, "argv", [path.name, "--start", "1.0", "--stop", "2.0",
                                      "--step", "1e-20"])
    with pytest.raises(SystemExit) as err:
        main()
    assert err.value.code == 2
    assert "--step: need a step that moves every value" in capsys.readouterr().err


# one value of each script's grid, 3 angles: the scripts' own use of what
# the package returns (arrays built from radial tuples, report dicts) runs
SCRIPT_SMOKE_ARGS = {
    "hamiltonian_dichotomy.py": ["--start", "2.5", "--stop", "2.5", "--angles", "3"],
    "nonvariational_region.py": ["--grid", "1", "--angles", "3"],
    "potential_line_sweep.py": ["--start", "0.5", "--stop", "0.5", "--angles", "3"],
    "scalar_catalog.py": ["--Q", "4.0"],
}


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_runs_end_to_end(path, monkeypatch, tmp_path, capsys):
    main = runpy.run_path(str(path), run_name="not_main")["main"]
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", [path.name] + SCRIPT_SMOKE_ARGS[path.name]
                        + ["--out", str(out)])
    main()
    assert out.read_text()
    assert f"wrote {out}" in capsys.readouterr().out


# an empty grid of each script that sweeps one, and the CSV header it writes
EMPTY_GRIDS = {
    "hamiltonian_dichotomy.py": (["--start", "3", "--stop", "1"],
                                 "delta,found_gs,predicted,dirichlet_radius"),
    "nonvariational_region.py": (["--grid", "0", "--angles", "1"], "delta,mu,verdict,source"),
    "potential_line_sweep.py": (["--start", "0.8", "--stop", "0.2"], "s,found_gs,predicted"),
}


@pytest.mark.parametrize("name", sorted(EMPTY_GRIDS))
def test_script_writes_a_header_on_an_empty_grid(name, monkeypatch, tmp_path, capsys):
    # as the CLI sweep does: a header-only CSV, not an IndexError
    args, header = EMPTY_GRIDS[name]
    main = runpy.run_path(str(ROOT / "scripts" / name), run_name="not_main")["main"]
    out = tmp_path / "out.csv"
    monkeypatch.setattr(sys, "argv", [name, *args, "--out", str(out)])
    main()
    assert out.read_text().splitlines() == [header]
    assert f"wrote {out}" in capsys.readouterr().out


def _workflow_step(name):
    """The lines of the CI workflow step `name`, below its `- name:` line."""
    lines = (ROOT / ".github" / "workflows" / "tier1.yml").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == f"- name: {name}")
    indent = len(lines[start]) - len(lines[start].lstrip())
    step = []
    for line in lines[start + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        step.append(line)
    return step


def test_ci_scripts_step_runs_the_smoke_args():
    # the workflow's Scripts step says it runs SCRIPT_SMOKE_ARGS: it runs
    # every script once, with exactly those arguments and an --out
    runs = []
    for line in "\n".join(_workflow_step("Scripts")).replace("\\\n", " ").splitlines():
        command = re.search(r"\bpython scripts/(\S+\.py) (.*)", line)
        if command:
            args = shlex.split(command.group(2))
            out = args.index("--out")
            runs.append((command.group(1), args[:out] + args[out + 2:]))
    assert sorted(name for name, _ in runs) == [p.name for p in SCRIPTS]
    assert dict(runs) == SCRIPT_SMOKE_ARGS


def _uses(tree):
    """(identifier, line) for every name a module uses: names, attributes,
    imported names and string constants naming an attribute (as in getattr or
    a hook table)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value.rsplit(".", 1)[-1], node.lineno


def _readme_code():
    """The README's fenced blocks and inline code spans."""
    return re.findall(r"```[a-z]*\n(.*?)```", README, re.S) + re.findall(r"`([^`\n]+)`", README)


def _definitions(tree):
    """A module's top-level functions and classes, and the functions and
    properties of its classes; special methods such as __init__ are called by
    the language."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def test_every_definition_has_a_caller():
    # a top-level function or class, a method or a property stays only if the
    # package, a script, the benchmark or the README uses it, or a ROADMAP item
    # names it as next caller
    used = {name for path in CLIENTS for name, _ in _uses(ast.parse(path.read_text()))}
    used |= {w for code in _readme_code() for w in re.findall(r"\w+", code)}
    lines_in_src = {}              # name -> {(module, line)} of its uses in the package
    defs = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for name, line in _uses(tree):
            lines_in_src.setdefault(name, set()).add((path.stem, line))
        defs += [(path.stem, node) for node in _definitions(tree)]
    unused = [f"{mod}.{node.name}" for mod, node in defs
              if node.name not in used and node.name not in KEPT_FOR_ROADMAP
              and all(m == mod and node.lineno <= line <= node.end_lineno
                      for m, line in lines_in_src.get(node.name, ()))]
    assert unused == []
    assert set(KEPT_FOR_ROADMAP) <= {node.name for _, node in defs}
    # an entry leaves the table once it has its caller
    assert [name for name in KEPT_FOR_ROADMAP if name in used or any(
        not (m == mod and node.lineno <= line <= node.end_lineno)
        for mod, node in defs if node.name == name
        for m, line in lines_in_src.get(name, ()))] == []


def test_exports_are_what_clients_import():
    # the package namespace is exactly what the scripts, the benchmark and the
    # README example import from it; tests import from the submodules
    imported = set()
    trees = [ast.parse(path.read_text()) for path in CLIENTS]
    trees += [ast.parse(code) for code in re.findall(r"```python\n(.*?)```", README, re.S)]
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "efdyn" and not node.level:
                imported |= {alias.name for alias in node.names}
    assert set(efdyn.__all__) == imported
    # every name resolves, to the object its submodule defines
    for name in efdyn.__all__:
        value = getattr(efdyn, name)
        assert getattr(sys.modules[value.__module__], name) is value
    # no other public name is bound in the namespace
    exported = {k for k, v in vars(efdyn).items()
                if not k.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exported <= set(efdyn.__all__)


# -- efdyn runs on the standard library alone ----------------------------------
# No module under src/ and no script imports numpy or scipy: the M0 quartic is
# solved in real arithmetic, radial runs are tuples, the Jacobians and the
# amplitude fit are closed forms, and the slopes of ln u are read off the phase
# coordinates. `import efdyn` and every shipped config load neither, and
# scalar_classify, the scalar catalogue and every script run with both
# blocked; the tests use them as oracles only.

NUMPY_FREE_CONFIGS = tuple(sorted(p.stem for p in (ROOT / "configs").glob("*.json")))
BLOCKED = ("numpy", "scipy")

# a subprocess prelude: imports of numpy and scipy fail as on a Python without them
WITHOUT_NUMPY = f"""
import sys
class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in {BLOCKED!r}:
            raise ModuleNotFoundError(f"No module named {{name!r}}", name=name)
sys.meta_path.insert(0, Refuse())
"""


def _run_without_numpy(code, *args) -> str:
    """Run `code` in a fresh Python that cannot import numpy or scipy; its
    standard output."""
    return subprocess.run([sys.executable, "-c", WITHOUT_NUMPY + code
                           + f"\nassert not set({BLOCKED!r}) & set(sys.modules)\n", *args],
                          check=True, stdout=subprocess.PIPE, text=True,
                          env={"PYTHONPATH": str(SRC.parent)}).stdout


def _run_script_without_numpy(path, *args):
    _run_without_numpy("""
import runpy
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
""", str(path), *args)


def _config_args(config, tmp_path):
    """The command of configs/<config>.json and the arguments of its CLI run."""
    path = ROOT / "configs" / f"{config}.json"
    command = json.loads(path.read_text())["command"]
    return command, ["-m", "efdyn.cli", command, "--config", str(path),
                     "--out", str(tmp_path / config)]


def _imported(args, flags=()):
    """The modules a fresh `python <flags> <args>` imports, as `-X importtime`
    lists them."""
    out = subprocess.run([sys.executable, *flags, "-X", "importtime"] + args,
                         capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": str(SRC.parent)})
    return [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()
            if line.startswith("import time:")]


# standard-library modules that start-up does without: argparse (with the
# gettext and locale of its messages, and the shutil of its help layout) and
# typing. A site that pre-loads them (a .pth file) hides who else imports
# them, so they are read from a run without site (`python -S`)
NOT_AT_START_UP = {"argparse", "gettext", "locale", "shutil", "typing"}


@pytest.mark.parametrize("config", ("import",) + NUMPY_FREE_CONFIGS)
def test_start_up_loads_no_numpy(config, tmp_path):
    if config == "import":
        # every exported name, so that every module the namespace reaches loads
        command = None
        args = ["-c", "import efdyn\nfor name in efdyn.__all__: getattr(efdyn, name)"]
    else:
        command, args = _config_args(config, tmp_path)
    imported = _imported(args)
    if command != "analyze":    # analyze integrates nothing
        assert "efdyn.dynamics" in imported
    assert [name for name in imported if name.split(".")[0] == "numpy"] == []
    # efdyn's records are built by efdyn._record: dataclasses, and the inspect
    # it imports, would take most of the start-up time
    assert {"dataclasses", "inspect"} & set(imported) == set()
    assert NOT_AT_START_UP & set(_imported(args, ["-S"])) == set()


# The efdyn submodules each entry point loads. `import efdyn` runs the
# package's __init__ alone; the predictor (predict_existence) loads neither the
# integrator nor the linearisation (spectra, equilibria);
# each CLI command imports what it reads, and analyze, which integrates
# nothing, loads neither the shooting module (dynamics) nor the kernel (dop853). The kernel imports each step
# module (_step_*) for the runs that take it: integrate's radial run the radial
# step, the shipped shoot, scalar and portrait runs, on the invariant
# diagonal, the diagonal step, and sweep the phase and diagonal steps; no
# command takes the generic step. Only the runs that read the fixed-point
# catalog (M0's basin) load equilibria: integrate, scalar and portrait, whose
# plane orbits end at the plane's own fixed points, do not. efdyn.cli itself
# runs as __main__.
_STEP_MODULES = {path.stem for path in SRC.glob("_step_*.py")}
_CORE = {"_record", "errors", "model", "numerics"}
_KERNEL = _CORE | {"dynamics", "dop853"}
_EVERY = {path.stem for path in SRC.glob("*.py")} - {"__init__", "cli"} - _STEP_MODULES
MODULE_SETS = {
    "import": set(),
    "predict_existence": _CORE | {"energies", "scalar"},
    "integrate": _KERNEL | {"_step_radial"},
    "shoot": _KERNEL | {"equilibria", "_step_diagonal"},
    "scalar": _KERNEL | {"scalar", "_step_diagonal"},
    "portrait": _KERNEL | {"scalar", "_step_diagonal"},
    "analyze": _EVERY - {"dop853", "dynamics"},
    "sweep": _EVERY - {"spectra"} | {"_step_phase", "_step_diagonal"},
}


@pytest.mark.parametrize("entry", ("import", "predict_existence") + NUMPY_FREE_CONFIGS)
def test_entry_point_loads_only_its_modules(entry, tmp_path):
    if entry == "import":
        key, args = entry, ["-c", "import efdyn"]
    elif entry == "predict_existence":
        key, args = entry, ["-c", "from efdyn import predict_existence"]
    else:
        key, args = _config_args(entry, tmp_path)
    loaded = {name.split(".", 1)[1] for name in _imported(args)
              if name.startswith("efdyn.")}
    assert loaded == MODULE_SETS[key]


# a field of each kind, a start state, and the one step module its run loads:
# the phase field off the diagonal and on it, the radial field and a plain
# test field
_FIELD_STEPS = [
    ("model.phase_rhs(model.hamiltonian_params(6.0, 2.5, 2.5))", (0.1, 0.2, 5.0, 5.0),
     "_step_phase"),
    ("model.phase_rhs(model.hamiltonian_params(6.0, 2.5, 2.5))", (0.1, 0.1, 5.0, 5.0),
     "_step_diagonal"),
    ("dynamics._radial_rhs(model.hamiltonian_params(6.0, 2.0, 2.0))", (1.0, 1.0, -1e-7, -1e-7),
     "_step_radial"),
    ("lambda t, y: (-y[0], y[2], -y[1], 0.5 * y[3])", (1.0, 2.0, 3.0, 4.0), "_step_generic"),
]


@pytest.mark.parametrize("field,y0,step", _FIELD_STEPS,
                         ids=["phase", "diagonal", "radial", "plain"])
def test_a_run_loads_only_its_step_module(field, y0, step):
    # a fresh interpreter, so that no other run has imported a step
    code = f"""
import sys
from efdyn import dop853, dynamics, model
assert not [name for name in sys.modules if name.startswith("efdyn._step_")]
sol = dop853.solve({field}, 0.0, {y0!r}, 1.0)
assert sol.status == 0 and sol.n_accepted > 1
print(*sorted(name for name in sys.modules if name.startswith("efdyn._step_")))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(SRC.parent)}).stdout
    assert out.split() == [f"efdyn.{step}"]


def test_only_dop853_picks_a_step():
    # the fields set their constants; only dop853 reads them, and only it
    # imports a step module
    def picks(node):
        if isinstance(node, ast.Attribute):
            return (isinstance(node.ctx, ast.Load)
                    and node.attr in ("phase_constants", "radial_constants"))
        if isinstance(node, ast.ImportFrom):
            return ((node.module or "").startswith("_step_")
                    or any(alias.name.startswith("_step_") for alias in node.names))
        if isinstance(node, ast.Import):
            return any("._step_" in alias.name for alias in node.names)
        return False

    pickers = {path.stem for path in sorted(SRC.glob("*.py"))
               if any(map(picks, ast.walk(ast.parse(path.read_text()))))}
    assert pickers == {"dop853"}


def test_scalar_classify_runs_without_numpy():
    cases = {behavior.name: case for behavior, case in SCALAR_CASES.items()}
    _run_without_numpy("""
import json
from efdyn.scalar import scalar_classify
for name, case in json.loads(sys.argv[1]).items():
    assert scalar_classify(*case).behavior.name == name, name
""", json.dumps(cases))


def test_scalar_catalog_runs_without_numpy(tmp_path):
    # the two runs of the CI numpy-free job, which reach all six behaviours
    behaviors = set()
    for i, args in enumerate((["--eps", "1", "--Q", "2.5", "3", "4", "5", "6"],
                              ["--eps", "-1", "--Q", "2", "4"])):
        out = tmp_path / f"catalog{i}.json"
        _run_script_without_numpy(ROOT / "scripts" / "scalar_catalog.py", *args,
                                  "--out", str(out))
        behaviors |= {rep["behavior"] for rep in json.loads(out.read_text())}
    assert behaviors == {b.value for b in ScalarBehavior}


def test_readme_example_prints_its_comments():
    # the README's library example, as the CI numpy-free job runs it: the
    # first two lines are the values their comments name, the third a radius
    (code,) = re.findall(r"```python\n(.*?)```", README, re.S)
    printed = _run_without_numpy(code).splitlines()
    comments = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments) == 3
    assert printed[:2] == comments[:2]
    assert 0.0 < float(printed[2]) < math.inf


def test_pinned_bits_run_without_numpy():
    # the pins module as the CI numpy-free job runs it: exit 0, no value moved
    _run_script_without_numpy(ROOT / "tests" / "pinned_bits.py")


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_runs_without_numpy(path, tmp_path):
    # the smoke run of test_script_runs_end_to_end, as the CI numpy-free job runs it
    out = tmp_path / "out"
    _run_script_without_numpy(path, *SCRIPT_SMOKE_ARGS[path.name], "--out", str(out))
    assert out.read_text()


def test_src_imports_no_numpy_or_scipy():
    found = [f"{path.stem}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Import)
             and any(a.name.split(".")[0] in BLOCKED for a in node.names)
             or isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] in BLOCKED]
    assert found == []
