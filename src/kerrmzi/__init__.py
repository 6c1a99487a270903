"""Numerical toolkit for a Kerr-nonlinear Mach-Zehnder interferometer with
active correlation readout: closed-form phase sensitivity, quantum Fisher
information, and loss tolerance, verified against a truncated-Fock-space
simulator."""

__version__ = "0.1.0"

from .analytic import (
    QfiBreakdown,
    TransferCoefficients,
    UndefinedSensitivityError,
    chi3_phase,
    chi3_uncertainty,
    lossy_noise_at_zero,
    lossy_slope_at_zero,
    noise_at_zero,
    nonlinear_index,
    optimal_split_ratio,
    optimal_transmissivity,
    qcrb,
    qfi_linear,
    qfi_nonlinear,
    sensitivity,
    slope_at_zero,
    sql_nonlinear,
    transfer_coefficients,
)
from .config import (
    CoherentInput,
    ConfigFileError,
    InterferometerConfig,
    InvalidConfigError,
    KerrMediumSpec,
    LossParams,
    PhaseShift,
    SensitivityReport,
    SplitterParams,
    SqueezerParams,
    build_config,
    config_digest,
    load_config,
    load_medium,
    parse_config,
    validate,
)
from .oracle import (
    DensityOperator,
    FockState,
    TruncationError,
    apply_beam_splitter,
    apply_kerr,
    apply_loss,
    apply_two_mode_squeezer,
    numeric_slope,
    oracle_qfi,
    prepare_input,
    quadrature_stats,
    simulate,
    to_density,
)
from .sweep import (
    Axis,
    SweepResult,
    SweepSpec,
    ThresholdResult,
    find_sql_threshold,
    run_sweep,
    set_parameter,
    sql_thresholds,
)
