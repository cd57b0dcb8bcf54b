"""Spectrum sharing analytics for D2D-enabled cellular uplinks.

Closed-form SINR distributions, ergodic link rates, transmit-power
statistics and proportional-fair spectrum-sharing optimizers for overlay
and underlay in-band D2D, together with a Poisson / hexagonal-grid Monte
Carlo simulator that validates every analytical curve.
"""

from .model import (
    DerivedQuantities,
    NetworkParams,
    ParameterError,
    d2d_distance_cdf,
    default_sinr_thresholds,
    derive,
)
from .montecarlo import PowerSample, SimConfig, SimOutcome, sample_link_powers, simulate_d2d, simulate_uplink_hex
from .overlay import (
    CcdfCurve,
    DegenerateRateError,
    JointOptimum,
    RateReport,
    cellular_sinr_ccdf,
    cellular_spectral_efficiency,
    d2d_sinr_ccdf,
    d2d_spectral_efficiency,
    joint_optimize_mu_eta,
    optimal_partition,
    outofcell_exponent,
    overlay_rates,
)
from .power import (
    DegenerateModeError,
    PowerReport,
    actual_power_report,
    avg_power_cellular,
    avg_power_d2d_mode,
    avg_power_potential_d2d,
    optimal_mode_threshold,
)
from .specfun import (
    ConvergenceError,
    DomainError,
    QuadratureSpec,
    exp_integral_e1,
    hyp2f1_kernel,
    integrate_semiinfinite,
    lower_incomplete_gamma,
    sinc_normalized,
)
from .underlay import (
    OutageBound,
    cellular_sinr_ccdf_underlay,
    cellular_spectral_efficiency_underlay,
    d2d_sinr_ccdf_underlay,
    d2d_spectral_efficiency_underlay,
    feasible_beta_curves,
    max_beta_for_cellular_outage,
    max_beta_for_d2d_outage,
    optimal_access_factor,
    underlay_rates,
)

__version__ = "0.1.0"
