"""Numerical constants.

The tolerances and limits of identity checks, integration, shooting and the
scalar classification, so a run is reproducible from the source alone. Each
module imports the constants it reads; a test that needs another value
patches the name in the module that reads it (e.g. `efdyn.dynamics.T_END`).
A band used at one site only is a literal there instead: `spectra._sgn`'s
1e-12, `spectra.oscillation_condition`'s 1e-9, `scalar.scalar_classify`'s
1e-12 (1 + |Q|), `scalar.explicit_critical_solution`'s 1e-12, the 1e-9 face
hysteresis of `dynamics._shot_problem` and the 1e-6 of its level that
`dynamics._m0_basin` leaves inside M0's basin, among others. A shot's M-class
takes no tolerance: the larger of X and Y at blow-up names it, and only an
exact tie reads M3 (`dynamics.read_shot`).
"""

# identity / algebra checks
IDENTITY_RTOL = 1e-10           # exact identities, slack covers roundoff only
CENTER_TOL = 1e-9               # |Re lambda| < CENTER_TOL*(1+|lambda|) counts as center
DEGENERACY_BAND = 1e-8          # near-zero denominator warning band

# integration
ODE_RTOL = 1e-10
ODE_ATOL = 1e-12
BLOW_UP = 1e6                   # coordinate value declared "infinite"
T_END = 40.0

# shooting
MANIFOLD_RHO = 1e-4             # seed radius on the regular manifold
SIM_WINDOW = 1e-6               # |tX - tY| below this counts as simultaneous
ANGLE_TOL = 1e-10               # bisection tolerance on the seed angle

# radial oracle
RADIAL_R0 = 1e-6                # startup radius for the series initialisation

# scalar classification
SCALAR_R_MAX = 1e5              # radius the regular scalar solution is followed to
CAPTURE_DIST = 1e-8             # a plane orbit within it of a fixed point is captured there
