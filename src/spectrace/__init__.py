"""spectrace: spectral traces and their asymptotic invariants.

Heat and cylinder kernel traces over exactly enumerable spectra with
certified truncation, least-squares extraction of expansion coefficients,
exact Riesz means and Dirac-comb moment expansions, and the Gamma-factor
relations tying all the coefficient families together (including the vacuum
energy invariant read off the cylinder expansion).
"""

from .spectra import (
    Spectrum,
    SpectrumFormatError,
    counting,
    finite_spectrum,
    interval_spectrum,
    load_spectrum,
    product_spectrum,
    torus_spectrum,
)
from .traces import (
    ToleranceError,
    TraceSample,
    cylinder_trace,
    cylinder_trace_derivative,
    heat_diagonal_interval,
    heat_trace,
    trace_grid,
)
from .riesz import (
    extract_riesz_coeffs,
    riesz_mean,
    weyl_remainder,
)
from .moments import (
    MomentExpansionResult,
    TestFunction,
    comb_expansion,
    comb_pairing,
    moment,
)
from .invariants import (
    AsymptoticExpansion,
    ExactCoeff,
    ExpansionTerm,
    bernoulli_numbers,
    casimir_energy,
    cylinder_expansion,
    expansion_derivative,
    expansion_product,
    expansion_to_json,
    gamma_half,
    heat_expansion,
    heat_to_cylinder,
    riesz_to_trace,
    zeta_neg_int,
)
from .fitkit import (
    AsymptoticBasis,
    FitReport,
    IllConditionedBasisError,
    LogTermDetection,
    cylinder_basis,
    dcylinder_basis,
    detect_log_term,
    fit_expansion,
    geometric_grid,
    heat_basis,
    power_basis,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticBasis",
    "AsymptoticExpansion",
    "ExactCoeff",
    "ExpansionTerm",
    "FitReport",
    "IllConditionedBasisError",
    "LogTermDetection",
    "MomentExpansionResult",
    "Spectrum",
    "SpectrumFormatError",
    "TestFunction",
    "ToleranceError",
    "TraceSample",
    "bernoulli_numbers",
    "casimir_energy",
    "comb_expansion",
    "comb_pairing",
    "counting",
    "cylinder_basis",
    "cylinder_expansion",
    "cylinder_trace",
    "cylinder_trace_derivative",
    "dcylinder_basis",
    "detect_log_term",
    "expansion_derivative",
    "expansion_product",
    "expansion_to_json",
    "extract_riesz_coeffs",
    "finite_spectrum",
    "fit_expansion",
    "gamma_half",
    "geometric_grid",
    "heat_basis",
    "heat_diagonal_interval",
    "heat_expansion",
    "heat_to_cylinder",
    "heat_trace",
    "interval_spectrum",
    "load_spectrum",
    "moment",
    "power_basis",
    "product_spectrum",
    "riesz_mean",
    "riesz_to_trace",
    "torus_spectrum",
    "trace_grid",
    "weyl_remainder",
    "zeta_neg_int",
]
