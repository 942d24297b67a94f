"""opasim: desk-scale simulator of optical parametric squeezed-light generation.

A quadratic dielectric medium is modeled as a pointwise polarization
transfer; classical carriers plus Gaussian quantum-noise quadratures are
propagated through it and the phase-dependent squeezing of the output is
quantified, cross-checked against a closed-form quadrature map.

The package exports the names of the README's library example; everything
else is imported from its module.
"""

from .ensemble import (
    EnsembleConfig,
    GaussianState,
    VacuumConvention,
    default_thetas,
    propagate_ensemble,
    sample_state_array,
    squeezing_report,
    variance_scan,
)
from .fields import TimeGrid
from .medium import SusceptibilityProfile
from .oracle import PassGain, single_pass

__version__ = "0.1.0"

__all__ = [
    "EnsembleConfig",
    "GaussianState",
    "PassGain",
    "SusceptibilityProfile",
    "TimeGrid",
    "VacuumConvention",
    "default_thetas",
    "propagate_ensemble",
    "sample_state_array",
    "single_pass",
    "squeezing_report",
    "variance_scan",
]
