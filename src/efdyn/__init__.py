"""Radial Emden-Fowler equations and systems through a 4D quadratic phase system.

The radial system maps onto an autonomous Kolmogorov-type ODE in (X, Y, Z, W);
this package provides the chart maps, the explicit fixed-point catalog with
spectra, the energy functionals with their critical curves, a shooting layer
that classifies regular solutions and locates ground states and Dirichlet
solutions, and a CLI (`efdyn`) over all of it.

The package namespace holds the names the scripts, the benchmark and the
README import; everything else is imported from its submodule.
"""

from .model import (SystemParams, derive_exponents, hamiltonian_params,
                    nonvariational_params, potential_params)
from .energies import Verdict, classify_region, cubic_barrier, predict_existence
from .scalar import ScalarBehavior, scalar_classify
from .dynamics import integrate_radial, search_dirichlet, search_ground_state

__version__ = "0.1.0"
