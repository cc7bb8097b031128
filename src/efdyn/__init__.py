"""Radial Emden-Fowler equations and systems through a 4D quadratic phase system.

The radial system maps onto an autonomous Kolmogorov-type ODE in (X, Y, Z, W);
this package provides the chart maps, the explicit fixed-point catalog with
spectra, the energy functionals with their critical curves, a shooting layer
that classifies regular solutions and locates ground states and Dirichlet
solutions, and a CLI (`efdyn`) over all of it.
"""

from .errors import (BoundaryCase, ConfigError, DegeneratePoint, DegenerateState,
                     EfdynError, Inconclusive, NotApplicable, NotCritical,
                     PreconditionViolated, SeriesInvalid, StepSizeUnderflow,
                     UndefinedPoint, ZeroCoordinate, ZeroDiscriminant)
from .numerics import DEFAULT_NUMERICS, NumericsConfig
from .model import (DerivedExponents, PhaseState, RadialState, SystemParams,
                    derive_exponents, exchange_params, from_phase,
                    hamiltonian_params, nonvariational_params, potential_params,
                    regular_initial_values, rescale_system, rescale_to_unweighted,
                    symmetric_scalar_embedding, to_phase, validate_params,
                    vector_field, vector_field_arr)
from .equilibria import (AdmissibilityReport, FixedPoint, FixedPointLabel,
                         PowerSolution, admissibility, fixed_point,
                         fixed_point_catalog, particular_solution)
from .spectra import (AsymptoticProfile, Direction, Existence, LocalVerdict,
                      OscillationReport, QuarticCoeffs, Spectrum, jacobian_at,
                      local_verdicts, m0_characteristic, oscillation_condition,
                      polynomial_roots, spectrum_at)
from .energies import (CriticalCurve, EnergyKind, EnergySpec, ExistenceVerdict,
                       Position, ScalarPhaseState, ScalarRadialState, Verdict,
                       classify_region, cubic_barrier, energy_derivative,
                       energy_value, predict_asymptotics, predict_existence)
from .scalar import (ScalarBehavior, ScalarParams, ScalarReport, diagonal_trajectory,
                     scalar_classify, scalar_fixed_points, scalar_to_phase,
                     scalar_vector_field)
from .dynamics import (BoxBounds, DirichletSearch, EventSpec, GroundStateSearch,
                       MClass, RadialTrajectory, SClass, ShotOutcome, Termination,
                       Trajectory, classify_shot, integrate_m, integrate_radial,
                       launch_regular, search_dirichlet, search_ground_state,
                       sweep_angles)

__version__ = "0.1.0"
