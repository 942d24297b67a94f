"""opasim: desk-scale simulator of optical parametric squeezed-light generation.

A quadratic dielectric medium is modeled as a pointwise polarization
transfer; classical carriers plus Gaussian quantum-noise quadratures are
propagated through it and the phase-dependent squeezing of the output is
quantified, cross-checked against a closed-form quadrature map.

The package exports the names of the README's library example; everything
else is imported from its module.
"""

from .cli import run_scan
from .config import RunConfig
from .ensemble import squeezing_report

__version__ = "0.1.0"

__all__ = [
    "RunConfig",
    "run_scan",
    "squeezing_report",
]
