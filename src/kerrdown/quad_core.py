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
from dataclasses import dataclass, fields

import numpy as np

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
    """The moment set of one composite amplitude B at one instant, or one set per time.

    mean_b      -- <B>
    mean_b_sq   -- <B^2>
    mean_bdag_b -- <B+ B>, photon-number-like, real and nonnegative
    mean_d      -- commutator expectation <[B, B+]>; real for every B used
                   here (identity, a number, or a number-operator sum)

    Stored as numpy arrays: 0-d for one instant, 1-D for one set per time
    (scalars given with 1-D fields are broadcast).
    """

    mean_b: complex | np.ndarray
    mean_b_sq: complex | np.ndarray
    mean_bdag_b: float | np.ndarray
    mean_d: float | np.ndarray

    def __post_init__(self):
        values = np.broadcast_arrays(self.mean_b, self.mean_b_sq, self.mean_bdag_b, self.mean_d)
        for f, x, dtype in zip(fields(self), values, (complex, complex, float, float)):
            # mean_d and mean_bdag_b are real by contract: refuse, not drop, an imaginary part
            if dtype is float and np.iscomplexobj(x):
                raise TypeError(f"{f.name} must be real, got {x}")
            object.__setattr__(self, f.name, np.asarray(x, dtype))
        with np.errstate(over="ignore", invalid="ignore"):  # nan and inf fail the checks
            n, d_abs = self.mean_bdag_b, abs(self.mean_d)
            b_abs2, b_sq_abs = abs(self.mean_b) ** 2, abs(self.mean_b_sq)
            cap = n + d_abs
            scale = b_abs2 + b_sq_abs + abs(n) + d_abs
            for passed, problem, value in (
                (n >= -_CHECK_TOL, "mean_bdag_b must be >= 0, got", n),
                # Cauchy-Schwarz for any physical state
                (n >= b_abs2 - _CHECK_TOL,
                 "unphysical moment set: mean_bdag_b < |mean_b|^2 =", b_abs2),
                # finite-second-moment sanity bound (checked, not assumed)
                (b_sq_abs <= cap + _CHECK_TOL,
                 "|mean_b_sq| exceeds mean_bdag_b + |mean_d|:", b_sq_abs),
                (cap < _MOMENT_MAX, "mean_bdag_b + |mean_d| is out of float range:", cap),
            ):
                if not passed.all():
                    i = np.argmin(np.ravel(passed))  # report the first failing set
                    break
            else:
                return
        problem, scale = f"{problem} {np.ravel(value)[i]}", np.ravel(scale)[i]
        # A failed check shows an unphysical state only while the roundoff of
        # the moments stays below the slack; past that, and for nan or
        # infinite moments, the arithmetic ran out of range or precision.
        if not scale * sys.float_info.epsilon <= _CHECK_TOL:
            raise NumericOverflow(f"{problem} (moments of size {scale:.3e})")
        raise ValueError(problem)


@dataclass(frozen=True)
class SqueezingFactors:
    """The (F, G, V) columns over the interaction times t (scalars at one time)."""

    f: float | np.ndarray
    g: float | np.ndarray
    v: float | np.ndarray
    t: float | np.ndarray


def _check_denominator(m: QuadratureMoments):
    d_abs = abs(m.mean_d)
    if np.any(d_abs <= EPS_DEN):
        raise DegenerateDenominator(
            f"|<D>| = {np.min(d_abs)} <= {EPS_DEN}; squeezing factor undefined"
        )
    return d_abs


def factor_phase(m: QuadratureMoments, phi: float):
    """Squeezing factor of the phase-rotated quadrature X_phi = (B e^-iphi + B+ e^iphi)/2.

    Expanded form of (4 <(dX_phi)^2> - |d|) / |d|.  Raises DegenerateDenominator
    when |mean_d| <= EPS_DEN at any point.
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


def factor_x(m: QuadratureMoments):
    """Squeezing factor of the X quadrature; F < 0 signals squeezing in X."""
    return factor_phase(m, 0.0)


def factor_y(m: QuadratureMoments):
    """Squeezing factor of the Y quadrature."""
    return factor_phase(m, 0.5 * math.pi)


def principal(m: QuadratureMoments):
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
