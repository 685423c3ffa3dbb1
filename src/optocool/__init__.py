"""Radiation-pressure self-cooling of a micromechanical mirror.

Steady-state bistability, exact fluctuation spectra and variance
integrals, the effective-oscillator (adiabatic) approximation,
covariance dynamics with output-field correlations, and a matched-filter
homodyne readout, all in a shared dimensionless parametrization.
"""

__version__ = "0.1.0"

from .adiabatic import (
    CoolingDecomposition,
    EffectiveOscillator,
    OperatingPoint,
    RegimeReport,
    approx_variance,
    decompose,
    effective_rates,
    optimal_detuning,
    optimize_operating_point,
    regime_validity,
)
from .dynamics import (
    CovarianceState,
    HomodyneResult,
    LinearSystem,
    Trajectory,
    TwoTimeGrid,
    build_system,
    evolve_covariance,
    homodyne_readout,
    homodyne_variance,
    lyapunov_steady_state,
    matched_filter_pairs,
    output_variance_track,
    physicality_defect,
    steady_variances,
    thermal_covariance,
    two_time_correlations,
)
from .errors import (
    GridMismatch,
    ImaginaryFrequency,
    InvalidParams,
    InvalidRegime,
    NoStableBranch,
    NonPhysical,
    OptimizationFailure,
    OptocoolError,
    ParseError,
    QuadratureFailure,
    SingularResponse,
    SolverFailure,
    Unstable,
    ValidationError,
    WindowTooShort,
)
from .model import (
    Branch,
    DriftModes,
    NormalizedParams,
    PhysicalParams,
    StabilityReport,
    SteadyState,
    classify,
    denormalize,
    drift_matrix,
    drift_modes,
    normalize,
    solve_steady_state,
    thermal_occupancy,
)
from .spectra import (
    Method,
    ThermalNoiseModel,
    VarianceResult,
    cavity_response,
    coth_scale,
    effective_susceptibility,
    integrate_variances,
    noise_spectrum,
    position_variance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
