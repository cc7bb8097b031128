"""Checks on the source tree itself: the numerical constants, the absence of a
tolerance parameter, and the scripts' imports."""

import ast
import runpy
from pathlib import Path

import pytest

import efdyn
from efdyn import numerics

SRC = Path(efdyn.__file__).parent
SCRIPTS = sorted((SRC.parents[1] / "scripts").glob("*.py"))

# a change of tolerance is a deliberate edit of this table
PINNED = {
    "IDENTITY_RTOL": 1e-10, "CENTER_TOL": 1e-9, "DEGENERACY_BAND": 1e-8,
    "ODE_RTOL": 1e-10, "ODE_ATOL": 1e-12, "BLOW_UP": 1e6, "T_END": 40.0,
    "MAX_HORIZON_EXTENSIONS": 2,
    "MANIFOLD_RHO": 1e-4, "SIM_WINDOW": 1e-6, "HOPF_RATIO_TOL": 0.05,
    "ANGLE_TOL": 1e-10, "CAPTURE_DIST": 1e-8, "CAPTURE_STEPS": 5,
    "RADIAL_R0": 1e-6, "SCALAR_R_MAX": 1e5,
}


def test_numerics_constants_are_pinned():
    public = {k: v for k, v in vars(numerics).items() if not k.startswith("_")}
    assert {k: type(v) for k, v in public.items()} == {k: type(v) for k, v in PINNED.items()}
    assert public == PINNED


def test_no_function_takes_cfg():
    # tolerances are module constants; no function takes a settings object
    found = [f"{path.stem}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             for arg in ast.walk(node.args) if isinstance(arg, ast.arg) and arg.arg == "cfg"]
    assert found == []


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_loads(path):
    # every name a script imports from efdyn resolves; main() does not run
    namespace = runpy.run_path(str(path), run_name="not_main")
    assert callable(namespace["main"])
