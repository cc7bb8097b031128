"""Global numerics configuration.

Every tolerance used for identity checks, integration and classification
lives here so runs are reproducible from a single record.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class NumericsConfig:
    # identity / algebra checks
    identity_rtol: float = 1e-10        # exact identities, slack covers roundoff only
    center_tol: float = 1e-9            # |Re lambda| < center_tol*(1+|lambda|) counts as center
    degeneracy_band: float = 1e-8       # near-zero denominator warning band

    # integration
    ode_rtol: float = 1e-10
    ode_atol: float = 1e-12
    blow_up: float = 1e6                # coordinate value declared "infinite"
    t_end: float = 40.0
    max_horizon_extensions: int = 2

    # shooting
    manifold_rho: float = 1e-4          # seed radius on the regular manifold
    sim_window: float = 1e-6            # |tX - tY| below this counts as simultaneous
    hopf_ratio_tol: float = 0.05        # |X/Y - 1| at blow-up for simultaneous vanishing
    angle_tol: float = 1e-10            # bisection tolerance on the seed angle
    capture_dist: float = 1e-8          # fixed-point convergence distance
    capture_steps: int = 5              # consecutive accepted steps within capture_dist

    # radial oracle
    radial_r0: float = 1e-6             # startup radius for the series initialisation

    def with_(self, **kw) -> "NumericsConfig":
        return replace(self, **kw)


DEFAULT_NUMERICS = NumericsConfig()
