"""Generic quadrature-squeezing framework.

Everything here is agnostic of which physical operator B plays the role of the
mode amplitude.  Given the five scalar moments

    <B>, <B^2>, <B+ B>,  and d = <[B, B+]>,

the two quadratures X = (B + B+)/2 and Y = (B - B+)/2i have normalized variance
excesses ("squeezing factors")

    F = (4 <(dX)^2> - |d|) / |d|,     G = (4 <(dY)^2> - |d|) / |d|,

negative values signaling squeezing below the coherent-state level.  Rotating
the quadrature pair by a homodyne phase phi and minimizing over phi gives the
principal squeezing V, the envelope of all F_phi curves:

    V = [ d + 2<B+ B> - 2|<B>|^2 - |d| - 2|<B^2> - <B>^2| ] / |d|.

`factor_phase` is the single source of truth: `factor_x` and `factor_y` are
literally `factor_phase` at phi = 0 and phi = pi/2, so the definitional
identities hold bit-exactly.

All functions are pure and the value types immutable, so they are safe to call
from any number of concurrent workers.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .errors import DegenerateDenominator, NumericOverflow

# Below this the normalized factors are undefined (division by the commutator
# expectation); callers must treat such points as degenerate, not as limits.
EPS_DEN = 1e-12

# Slack for the construction-time sanity checks.  Moment sets produced by the
# numerical oracle carry O(1e-13) arithmetic noise.
_CHECK_TOL = 1e-9

# Every factor numerator adds a few multiples of |<B>|^2, |<B^2>|, <B+ B> and
# |d|; keeping <B+ B> + |d| below this leaves the factor arithmetic finite.
_MOMENT_MAX = sys.float_info.max / 64


@dataclass(frozen=True)
class QuadratureMoments:
    """The moment set of one composite amplitude B at one instant.

    mean_b      -- <B>
    mean_b_sq   -- <B^2>
    mean_bdag_b -- <B+ B>, photon-number-like, real and nonnegative
    mean_d      -- commutator expectation <[B, B+]>; real for every B used
                   here (identity, a number, or a number-operator sum)
    """

    mean_b: complex
    mean_b_sq: complex
    mean_bdag_b: float
    mean_d: float

    def __post_init__(self):
        # mean_d and mean_bdag_b are real by contract; float() raises on complex
        object.__setattr__(self, "mean_b", complex(self.mean_b))
        object.__setattr__(self, "mean_b_sq", complex(self.mean_b_sq))
        object.__setattr__(self, "mean_bdag_b", float(self.mean_bdag_b))
        object.__setattr__(self, "mean_d", float(self.mean_d))
        n, b_abs = self.mean_bdag_b, abs(self.mean_b)
        cap = n + abs(self.mean_d)
        if not n >= -_CHECK_TOL:
            problem = f"mean_bdag_b must be >= 0, got {n}"
        # Cauchy-Schwarz for any physical state
        elif not n >= b_abs * b_abs - _CHECK_TOL:
            problem = f"mean_bdag_b={n} < |mean_b|^2={b_abs * b_abs}: unphysical moment set"
        # finite-second-moment sanity bound (checked, not assumed)
        elif not abs(self.mean_b_sq) <= cap + _CHECK_TOL:
            problem = f"|mean_b_sq|={abs(self.mean_b_sq)} exceeds mean_bdag_b + |mean_d|"
        elif not cap < _MOMENT_MAX:
            problem = f"mean_bdag_b + |mean_d| = {cap} is out of float range"
        else:
            return
        # A failed check shows an unphysical state only while the roundoff of
        # the moments stays below the slack; past that, and for nan or
        # infinite moments, the arithmetic ran out of range or precision.
        scale = b_abs * b_abs + abs(self.mean_b_sq) + abs(n) + abs(self.mean_d)
        if not scale * sys.float_info.epsilon <= _CHECK_TOL:
            raise NumericOverflow(f"{problem} (moments of size {scale:.3e})")
        raise ValueError(problem)


@dataclass(frozen=True)
class SqueezingFactors:
    """The (F, G, V) triple at one interaction time t."""

    f: float
    g: float
    v: float
    t: float


def _check_denominator(m: QuadratureMoments) -> float:
    d_abs = abs(m.mean_d)
    if d_abs <= EPS_DEN:
        raise DegenerateDenominator(
            f"|<D>| = {d_abs} <= {EPS_DEN}; squeezing factor undefined"
        )
    return d_abs


def factor_phase(m: QuadratureMoments, phi: float) -> float:
    """Squeezing factor of the phase-rotated quadrature X_phi = (B e^-iphi + B+ e^iphi)/2.

    Expanded form of (4 <(dX_phi)^2> - |d|) / |d|.  Raises DegenerateDenominator
    when |mean_d| <= EPS_DEN.
    """
    d_abs = _check_denominator(m)
    rot = cmath.exp(-1j * phi)
    num = (
        2.0 * (m.mean_b_sq * rot * rot).real
        + 2.0 * m.mean_bdag_b
        + m.mean_d
        - d_abs
        - 4.0 * (m.mean_b * rot).real ** 2
    )
    return num / d_abs


def factor_x(m: QuadratureMoments) -> float:
    """Squeezing factor of the X quadrature; F < 0 signals squeezing in X."""
    return factor_phase(m, 0.0)


def factor_y(m: QuadratureMoments) -> float:
    """Squeezing factor of the Y quadrature."""
    return factor_phase(m, 0.5 * math.pi)


def principal(m: QuadratureMoments) -> float:
    """Principal squeezing: the exact minimum of factor_phase over the homodyne phase.

    Closed form of min_phi factor_phase(m, phi); V <= F and V <= G always.
    """
    d_abs = _check_denominator(m)
    w = m.mean_b_sq - m.mean_b * m.mean_b
    num = (
        m.mean_d
        + 2.0 * m.mean_bdag_b
        - 2.0 * abs(m.mean_b) ** 2
        - d_abs
        - 2.0 * abs(w)
    )
    return num / d_abs


def factors_at(m: QuadratureMoments, t: float) -> SqueezingFactors:
    """Bundle (F, G, V) of a moment set into a SqueezingFactors row."""
    return SqueezingFactors(f=factor_x(m), g=factor_y(m), v=principal(m), t=t)
