"""Radial Emden-Fowler equations and systems through a 4D quadratic phase system.

The radial system maps onto an autonomous Kolmogorov-type ODE in (X, Y, Z, W);
this package provides the chart maps, the explicit fixed-point catalog with
spectra, the energy functionals with their critical curves, a shooting layer
that classifies regular solutions and locates ground states and Dirichlet
solutions, and a CLI (`efdyn`) over all of it.

The package namespace holds the names the scripts, the benchmark and the
README import (`__all__`); everything else is imported from its submodule.
The namespace is lazy (PEP 562): `import efdyn` runs this file only, and the
first access to a name imports its submodule and keeps the name here, so
`from efdyn import predict_existence` loads the theory without the
integrator. `efdyn.<submodule>` imports that submodule.
"""

_SOURCES = {
    "model": ("SystemParams", "derive_exponents", "hamiltonian_params",
              "nonvariational_params", "potential_params"),
    "energies": ("Verdict", "classify_region", "cubic_barrier", "predict_existence"),
    "scalar": ("ScalarBehavior", "scalar_classify"),
    "dynamics": ("integrate_radial", "search_dirichlet", "search_ground_state"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name, name)
    try:
        # __import__ rather than importlib.import_module, whose imports
        # `python -X importtime` does not list
        __import__(f"{__name__}.{module}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    if module != name:          # an exported name: keep it here
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]
