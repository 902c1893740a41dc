"""Pseudo-spectral simulator and verification harness for a power-law
Stokes-transport system on the periodic torus.

The velocity is the minimizer of a convex dissipation-work energy for the
current density (an inverse Stokes map), the density is advected in
divergence form, and every structural identity the model rests on is
covered by a numerical certificate: energy balance, strain bounds, stress
monotonicity, weak continuity of the inverse map, dyadic decomposition
calculus, and exponent admissibility.
"""

from .errors import (
    BadValue,
    CflViolation,
    ConfigError,
    DegenerateViscosity,
    InadmissibleExponents,
    MaxIterations,
    MissingRequired,
    NnstokesError,
    NonHermitianField,
    UnknownKey,
    UnresolvableMollifier,
)
from .spectral import (
    GridField,
    SpectralField,
    TorusGrid,
    VelocityField,
    bernstein_ratio,
    besov_norm,
    j_max,
    lebesgue_norm,
    leray_project,
    low_freq_truncate,
    lp_block,
    partial_derivative,
    reciprocal_norm,
    sharp_truncate,
    strain_tensor,
    to_grid,
    to_spectral,
)
from .rheology import (
    FluidParams,
    ViscosityLaw,
    bounded_power_law,
    check_law,
    constant_law,
    dissipation_density,
    power_law,
    stress,
    table_law,
    viscosity_eval,
)
from .fields import (
    constant_field,
    random_band_field,
    random_velocity,
    rough_field,
    sine1_field,
    sines2_field,
    stratified_field,
)
from .stokes import (
    StokesProblem,
    StokesReport,
    apriori_check,
    energy_balance_residual,
    functional_gradient,
    functional_value,
    minty_sweep,
    monotonicity_gap,
    monotonicity_gap_with_scale,
    pairing_l2,
    recover_pressure,
    solution_diagnostics,
    solve_stokes,
    solve_stokes_batch,
    solve_stokes_penalized,
)
from .transport import (
    AdmissibleEta,
    AdvectionScheme,
    advect_step,
    atan_scaled,
    commutator_residual,
    custom_eta,
    evolve,
    renormalize,
    smooth_clamp,
    speed_sup,
)
from .simulator import (
    DiagnosticsSeries,
    ExponentClass,
    SimulationConfig,
    SimulationResult,
    classify_exponents,
    convergence_sweep_n,
    penalty_sweep_N,
    run,
    smooth_density,
    smooth_velocity,
    velocity_l2_distance,
    velocity_l2_norm,
)
from .batteries import BATTERIES, BatteryResult, run_battery
from .io_formats import (
    CSV_HEADER,
    parse_config,
    parse_snapshot,
    read_diagnostics,
    read_snapshot,
    snapshot_bytes,
    write_diagnostics,
    write_snapshot,
)

__version__ = "0.1.0"
