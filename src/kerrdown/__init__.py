"""Quadrature squeezing of the Kerr-down-conversion two-mode system.

Closed-form single-mode, two-mode, sum and principal squeezing of two boson
modes coupled by a cross-Kerr phase and a resonant pair-production term, with
every closed form cross-validated against an independent truncated Fock-space
evolution of the full generator.
"""

__version__ = "0.1.0"

from .errors import (
    AsymmetricAmplitudes,
    DegenerateDenominator,
    KerrdownError,
    NormDrift,
    NotAnExtremumTime,
    NumericOverflow,
    TailOverflow,
    TruncationTooSevere,
)
from .moments_engine import (
    DConvention,
    SqueezeKind,
    SystemParams,
    kernel,
    mode_moments,
    moments_for,
    pair_moments,
    sum_moments,
)
from .quad_core import (
    QuadratureMoments,
    factor_phase,
    factors,
)

__all__ = [
    "__version__",
    "AsymmetricAmplitudes",
    "DConvention",
    "DegenerateDenominator",
    "KerrdownError",
    "NormDrift",
    "NotAnExtremumTime",
    "NumericOverflow",
    "QuadratureMoments",
    "SqueezeKind",
    "SystemParams",
    "TailOverflow",
    "TruncationTooSevere",
    "factor_phase",
    "factors",
    "kernel",
    "mode_moments",
    "moments_for",
    "pair_moments",
    "sum_moments",
]
