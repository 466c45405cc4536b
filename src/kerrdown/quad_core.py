"""Generic quadrature-squeezing framework.

Everything here is agnostic of which physical operator B plays the role of the
mode amplitude.  Given the four scalar moments

    <B>, <B^2>, <B+ B>,  and d = <[B, B+]>,

the two quadratures X = (B + B+)/2 and Y = (B - B+)/2i have normalized variance
excesses ("squeezing factors")

    F = (4 <(dX)^2> - |d|) / |d|,     G = (4 <(dY)^2> - |d|) / |d|,

negative values signaling squeezing below the coherent-state level.  Every
factor is read from one variance pair,

    u = d + 2 (<B+ B> - |<B>|^2) - |d|,     w = <B^2> - <B>^2.

The quadrature X_phi = (B e^-iphi + B+ e^iphi)/2, rotated by a homodyne phase
phi, has the factor F_phi = (u + 2 Re(w e^{-2i phi})) / |d|; minimizing over
phi gives the principal squeezing V, the envelope of all F_phi curves:

    V = (u - 2|w|) / |d|.

Since Re(w e^{-2i phi}) >= -|w|, V <= F_phi holds by construction, not only up
to roundoff.  `factors` reads (u, w) once and gives F and G by the same rotation
as `factor_phase` at phi = 0 and phi = pi/2, so the definitional identities
hold bit-exactly.

All functions are pure and the value types immutable, so they are safe to call
from any number of concurrent workers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateDenominator, NumericOverflow

# Below this the normalized factors are undefined (division by the commutator
# expectation); callers must treat such points as degenerate, not as limits.
EPS_DEN = 1e-12

# Slack for the construction-time sanity checks.  Moment sets produced by the
# numerical oracle carry O(1e-13) arithmetic noise; the checks add the roundoff
# of the moments, eps (|<B>|^2 + |<B^2>| + <B+ B> + |d|), on top.
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

    Stored as numpy arrays of the fields' broadcast shape: 0-d for one
    instant, 1-D for one set per time, (P, T) for a batch of P parameter sets
    at T times.
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
            cap, scale = n + d_abs, b_abs2 + b_sq_abs + abs(n) + d_abs
            slack = _CHECK_TOL + sys.float_info.epsilon * scale
            for passed, problem, value, error in (
                (np.isfinite(scale) & (cap < _MOMENT_MAX),
                 "moments out of float range, size", scale, NumericOverflow),
                (n >= -slack, "mean_bdag_b must be >= 0, got", n, ValueError),
                # Cauchy-Schwarz for any physical state
                (n >= b_abs2 - slack,
                 "unphysical moment set: mean_bdag_b < |mean_b|^2 =", b_abs2, ValueError),
                # finite-second-moment sanity bound (checked, not assumed)
                (b_sq_abs <= cap + slack,
                 "|mean_b_sq| exceeds mean_bdag_b + |mean_d|:", b_sq_abs, ValueError),
            ):
                if not passed.all():
                    i = np.argmin(np.ravel(passed))  # report the first failing set
                    raise error(f"{problem} {np.ravel(value)[i]}")


def _variances(m: QuadratureMoments):
    """(u, w, |d|): the phase-independent and the phase-dependent part of 4 <(dX_phi)^2> - |d|."""
    d_abs = abs(m.mean_d)
    if np.any(d_abs <= EPS_DEN):
        raise DegenerateDenominator(
            f"|<D>| = {np.min(d_abs)} <= {EPS_DEN}; squeezing factor undefined"
        )
    # u and w cancel moments of this size; their roundoff must stay below the slack
    scale = abs(m.mean_b) ** 2 + abs(m.mean_b_sq) + abs(m.mean_bdag_b) + d_abs
    if not np.all(scale * sys.float_info.epsilon <= _CHECK_TOL * d_abs):
        raise NumericOverflow(f"factor lost its precision (moments of size {np.max(scale):.3e})")
    u = m.mean_d + 2.0 * (m.mean_bdag_b - abs(m.mean_b) ** 2) - d_abs
    return u, m.mean_b_sq - m.mean_b * m.mean_b, d_abs


def _rotated(u, w, d_abs, phi: float):
    return (u + 2.0 * (w * complex(math.cos(-2.0 * phi), math.sin(-2.0 * phi))).real) / d_abs


def factor_phase(m: QuadratureMoments, phi: float):
    """Squeezing factor of the phase-rotated quadrature X_phi = (B e^-iphi + B+ e^iphi)/2.

    (u + 2 Re(w e^{-2i phi})) / |d|.  Raises DegenerateDenominator when
    |mean_d| <= EPS_DEN at any point, and NumericOverflow where the roundoff
    of the moments exceeds the check slack times |mean_d|.
    """
    return _rotated(*_variances(m), phi)


def factors(m: QuadratureMoments):
    """(F, G, V): the X and Y factors and the principal squeezing, from one (u, w).

    F and G are factor_phase at phi = 0 and pi/2, and V = (u - 2 |w|) / |d| is
    its exact minimum over phi, so V <= F, G by construction.  Raises as factor_phase.
    """
    u, w, d_abs = _variances(m)
    return _rotated(u, w, d_abs, 0.0), _rotated(u, w, d_abs, 0.5 * math.pi), (u - 2.0 * abs(w)) / d_abs
