"""Spinning coloured disk model of classical EPR-B correlations."""

__version__ = "0.1.0"

from .circle import (
    Colouring,
    Mixture,
    ValidationError,
    OddSwitchCount,
    OutOfRange,
    DuplicateSwitch,
    as_mixture,
    full_switch_set,
    new_colouring,
    triangle_colouring,
)
from .correlation import (
    PiecewiseLinearCorrelation,
    exact_correlation,
    l2_distance_to_cosine,
    mixture_correlation,
    sup_distance_to_cosine,
)
from .montecarlo import (
    CountTable,
    GridSampler,
    InvalidSampler,
    UniformSampler,
    empirical_correlation,
    run_experiment,
)
from .spectral import (
    FIRST_HARMONIC_COEFF_BOUND,
    Spectrum,
    colouring_spectrum,
    first_harmonic_bound_check,
    gull_diagnostic,
    spectrum,
)
from .bell import CHSHSettings, chsh, chsh_scan, quantum_correlation
from .lattice import LatticeColouring, lattice_correlation, lift_to_continuous
from .optimize import (
    MIN_L2_DISTANCE,
    InfeasibleStart,
    OptimizationResult,
    optimise_fixed_k,
    optimise_mixture,
)

__all__ = [
    "__version__",
    "Colouring",
    "Mixture",
    "ValidationError",
    "OddSwitchCount",
    "OutOfRange",
    "DuplicateSwitch",
    "as_mixture",
    "full_switch_set",
    "new_colouring",
    "triangle_colouring",
    "PiecewiseLinearCorrelation",
    "exact_correlation",
    "l2_distance_to_cosine",
    "mixture_correlation",
    "sup_distance_to_cosine",
    "CountTable",
    "GridSampler",
    "InvalidSampler",
    "UniformSampler",
    "empirical_correlation",
    "run_experiment",
    "FIRST_HARMONIC_COEFF_BOUND",
    "Spectrum",
    "colouring_spectrum",
    "first_harmonic_bound_check",
    "gull_diagnostic",
    "spectrum",
    "CHSHSettings",
    "chsh",
    "chsh_scan",
    "quantum_correlation",
    "LatticeColouring",
    "lattice_correlation",
    "lift_to_continuous",
    "MIN_L2_DISTANCE",
    "InfeasibleStart",
    "OptimizationResult",
    "optimise_fixed_k",
    "optimise_mixture",
]
