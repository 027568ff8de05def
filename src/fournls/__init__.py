"""Pseudo-spectral laboratory for the 1D fourth-order cubic NLS."""

from .errors import (
    AbortedRunError,
    ConfigError,
    InconclusiveFitError,
    NumericDomainError,
    QuadratureError,
    ResolutionError,
    TermBudgetError,
)
from .evolution import (
    EvolutionConfig,
    TrajectoryRecord,
    evolve,
    evolve_many,
    galerkin_evolve,
    galerkin_rhs,
    ifrk4_step,
    linear_propagate_4nls,
)
from .fitting import FitResult, fit_loglog
from .imethod import (
    IMethodParams,
    ModeSet,
    MultilinearResult,
    almost_conservation_experiment,
    apply_I,
    derivative_identity_check,
    energy2,
    energy4,
    gwp_parameters,
    lambda_n,
    symbol_m4,
    symbol_m6,
    symbol_sigma4,
)
from .spectral import (
    Field,
    Grid,
    Spectrum,
    apply_symbol,
    fractional_derivative,
    lebesgue_norm,
    make_gaussian,
    make_grid,
    mass,
    sobolev_norm,
    to_physical,
    to_spectrum,
)
from .symmetries import check_scaling_covariance, scale_transform

__version__ = "0.1.0"
