"""Exception types shared across the package."""


class KerrdownError(Exception):
    """Base class for all kerrdown errors."""


class DegenerateDenominator(KerrdownError):
    """The commutator expectation normalizing a squeezing factor is (numerically) zero.

    The normalized factor is genuinely undefined there, e.g. sum squeezing of
    double vacuum at t = 0; we refuse to return a limit.
    """


class NumericOverflow(KerrdownError):
    """A phase, gain factor or moment left the float range, came out nan or lost its precision."""


class NotAnExtremumTime(KerrdownError):
    """Requested time is not one of the discrete Kerr extremum times chi*t = m*pi/2, m odd."""


class AsymmetricAmplitudes(KerrdownError):
    """The extremum reduction is only derived for equal seed amplitudes alpha1 == alpha2."""


class TruncationTooSevere(KerrdownError):
    """Coherent seed does not fit in the requested Fock cutoff within tolerance."""


class NormDrift(KerrdownError):
    """State norm moved by more than the unitarity budget during evolution."""


class TailOverflow(KerrdownError):
    """Population reached the top Fock shells; the cutoff is too small for this time span."""
