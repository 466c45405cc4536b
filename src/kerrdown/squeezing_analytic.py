"""Closed-form squeezing factors as explicit trigonometric expressions.

This module is the second, independent arithmetic route to the factors: where
`moments_engine` + `quad_core` assemble complex moments and project them, the
functions here evaluate fully expanded real closed forms built from the
AuxQuantities abbreviations (C, S, eps1, eps2, Theta+-, theta).  The test suite
holds the two routes together to 1e-10 and both against the Fock oracle.

Variants
--------
The single-mode formulas circulate with defects that the Fock oracle rules
out, so the single-mode functions take a `Variant` (or its string value):

* ``"arbitrated"`` (default) -- the form the oracle confirms.
* ``"sin-theta"`` -- the alpha2^2 S^2 term of the middle block carries
  sin(theta) instead of cos(theta).  Already the k -> 0 limit shows it wrong
  (it gives 2 S^2 - 2 alpha2^2 S^2 against the exact Bogoliubov answer
  2 S^2), but the choice is proven, not assumed.
* ``"single-dephasing"`` -- the mean-field blocks [Re<B>]^2, [Im<B>]^2 are
  weighted by exp(eps1 sin^2(chi t)) instead of its square.  Since Re<B>
  itself scales with exp(eps1 sin^2(chi t)), the squared weight is forced;
  the single weight overstates the squeezing dips.
* ``"unarbitrated"`` -- both defects together.

`verify` measures every single-mode variant against the oracle and fails
when a rejected one comes within 1e-3 of it.  The two-mode and sum factors
have the arbitrated form only.

The principal squeezing has no expanded per-kind closed form (it needs the
complex moments), so sweep assembly takes V from the moment route.

As in `moments_engine`, t is a float or a 1-D numpy array (the extremum
reduction takes a float only), and F or G out of range raises NumericOverflow.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import (
    AsymmetricAmplitudes,
    DegenerateDenominator,
    NotAnExtremumTime,
    NumericOverflow,
)
from .moments_engine import (
    DConvention,
    SqueezeKind,
    SystemParams,
    aux_quantities,
    sum_moments,
)
from .quad_core import EPS_DEN

# extremum times chi*t = m*pi/2 are accepted within this window
_EXTREMUM_TOL = 1e-9


class Variant(enum.Enum):
    """Single-mode closed-form variant; `Variant(value)` converts and validates a string."""

    ARBITRATED = "arbitrated"
    SIN_THETA = "sin-theta"
    SINGLE_DEPHASING = "single-dephasing"
    UNARBITRATED = "unarbitrated"


def _finite(f, g):
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
        raise NumericOverflow("squeezing factor F or G is out of float range")
    return f, g


def single_mode_fg(
    p: SystemParams, t, which: int = 1, variant: Variant | str = Variant.ARBITRATED
):
    """Single-mode squeezing factors (F, G) for mode 1 or 2; d = 1.

    Mode 2 is the exact alpha1 <-> alpha2 swap of mode 1 (eps2 flips with it).
    """
    variant = Variant(variant)
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which}")
    a1, a2 = (p.alpha1, p.alpha2) if which == 1 else (p.alpha2, p.alpha1)
    aux = aux_quantities(SystemParams(p.chi_bar, p.k, a1, a2), t)
    c, s = aux.c, aux.s
    with np.errstate(over="ignore", invalid="ignore"):
        x = p.chi_bar * t
        s2 = np.sin(2.0 * x)
        dephase_mid = np.exp(aux.eps1 * s2 * s2)
        single_dephasing = variant in (Variant.SINGLE_DEPHASING, Variant.UNARBITRATED)
        e1_weight = aux.eps1 if single_dephasing else 2.0 * aux.eps1
        dephase_mean = np.exp(e1_weight * np.sin(x) ** 2)
        sin_theta = variant in (Variant.SIN_THETA, Variant.UNARBITRATED)
        theta_term = np.sin(aux.theta) if sin_theta else np.cos(aux.theta)

        head = 2.0 * (a1 * a1 * c * c + 2.0 * a1 * a2 * s * c + s * s * (a2 * a2 + 1.0))
        mid = 2.0 * dephase_mid * (
            a1 * a1 * c * c * np.cos(aux.theta_plus)
            + a2 * a2 * s * s * theta_term
            + 2.0 * a1 * a2 * c * s * np.cos(aux.theta_minus)
        )
        re_b = a1 * c * np.cos(aux.eps2 * s2) + a2 * s * np.cos(2.0 * x - aux.eps2 * s2)
        im_b = a1 * c * np.sin(aux.eps2 * s2) - a2 * s * np.sin(2.0 * x - aux.eps2 * s2)
        f = head + mid - 4.0 * re_b * re_b * dephase_mean
        g = head - mid - 4.0 * im_b * im_b * dephase_mean
    return _finite(f, g)


def single_mode_extremum(
    p: SystemParams, t: float, variant: Variant | str = Variant.ARBITRATED
) -> tuple[float, float]:
    """Reduced single-mode factors at the Kerr extremum times, alpha1 == alpha2.

        F = 2 S^2 - 4 alpha1^2 exp(2 eps1 - 2kt),   G = 4 alpha1^2 (C+S)^2 + 2 S^2.

    Valid only at chi*t = m*pi/2 with m an odd positive integer: at even
    multiples the Kerr dephasing rewinds completely and the full expression
    must be used instead.  Only the "arbitrated" form and the "unarbitrated"
    one, which keeps the circulated exp(eps1 - 2kt) weight, are reduced.
    """
    variant = Variant(variant)
    if variant not in (Variant.ARBITRATED, Variant.UNARBITRATED):
        raise ValueError(f"the extremum reduction has no {variant.value!r} form")
    if abs(p.alpha1 - p.alpha2) > 1e-12:
        raise AsymmetricAmplitudes(
            f"extremum reduction needs alpha1 == alpha2, got {p.alpha1}, {p.alpha2}"
        )
    x = p.chi_bar * t
    m = round(x / (0.5 * math.pi))
    if abs(x - m * 0.5 * math.pi) > _EXTREMUM_TOL or m < 1 or m % 2 == 0:
        raise NotAnExtremumTime(
            f"chi*t = {x} is not an odd multiple of pi/2 within {_EXTREMUM_TOL}"
        )
    aux = aux_quantities(p, t)
    c, s = aux.c, aux.s
    weight = 2.0 * aux.eps1 if variant is Variant.ARBITRATED else aux.eps1
    f = 2.0 * s * s - 4.0 * p.alpha1**2 * math.exp(weight - 2.0 * p.k * t)
    g = 4.0 * p.alpha1**2 * (c + s) ** 2 + 2.0 * s * s
    return f, g


def two_mode_fg(p: SystemParams, t):
    """Two-mode squeezing factors (F, G) for B = A1 + A2; d = 2.

    Head terms delegate to `single_mode_fg`; on top come the pair-coherence
    term ~ cos(2 chi t), the exp(eps1 sin^2 2 chi t) exchange block, and the
    exp(2 eps1 sin^2 chi t) mean-field product block.
    """
    f1, g1 = single_mode_fg(p, t, 1)
    f2, g2 = single_mode_fg(p, t, 2)
    aux = aux_quantities(p, t)
    c, s = aux.c, aux.s
    a1, a2 = p.alpha1, p.alpha2
    with np.errstate(over="ignore", invalid="ignore"):
        x = p.chi_bar * t
        s2, s4 = np.sin(2.0 * x), np.sin(4.0 * x)
        pair = (
            2.0
            * (a1 * a2 * (s * s + c * c) + s * c * (a1 * a1 + a2 * a2 + 1.0))
            * np.cos(2.0 * x)
        )
        exchange = (
            2.0
            * np.exp(aux.eps1 * s2 * s2)
            * (
                a1 * a2 * (c * c + s * s) * np.cos(aux.eps2 * s4)
                + c * s * a1 * a1 * np.cos(4.0 * x + aux.eps2 * s4)
                + c * s * a2 * a2 * np.cos(4.0 * x - aux.eps2 * s4)
            )
        )
        mean_weight = np.exp(2.0 * aux.eps1 * np.sin(x) ** 2)
        re1 = a1 * c * np.cos(aux.eps2 * s2) + a2 * s * np.cos(2.0 * x - aux.eps2 * s2)
        im1 = -a1 * c * np.sin(aux.eps2 * s2) + a2 * s * np.sin(2.0 * x - aux.eps2 * s2)
        re2 = a2 * c * np.cos(aux.eps2 * s2) + a1 * s * np.cos(2.0 * x + aux.eps2 * s2)
        im2 = a2 * c * np.sin(aux.eps2 * s2) + a1 * s * np.sin(2.0 * x + aux.eps2 * s2)
        f = 0.5 * (f1 + f2) + pair + exchange - 4.0 * re1 * re2 * mean_weight
        g = 0.5 * (g1 + g2) - pair + exchange - 4.0 * im1 * im2 * mean_weight
    return _finite(f, g)


def sum_fg(
    p: SystemParams,
    t,
    d_convention: DConvention = DConvention.NUMBER_SUM,
):
    """Sum-squeezing factors (F, G) for B = A1 A2.

    The Kerr coupling enters only through the explicit cos(4 chi t),
    cos^2/sin^2(2 chi t) projection factors; the sub-moments are those of the
    pure down-converter, obtained from `moments_engine` with chi forced to 0.
    Reduces exactly to the y-only form at chi = 0 and to (0, 0) at k = 0.
    """
    p0 = SystemParams(0.0, p.k, p.alpha1, p.alpha2)
    m0 = sum_moments(p0, t, d_convention)
    d = m0.mean_d
    if np.any(np.abs(d) <= EPS_DEN):
        raise DegenerateDenominator(f"<n1> + <n2> = {np.min(d)} <= {EPS_DEN}")
    x = p.chi_bar * t
    c4, c2, s2 = np.cos(4.0 * x), np.cos(2.0 * x), np.sin(2.0 * x)
    m_nn = m0.mean_bdag_b
    m_b2 = m0.mean_b_sq.real
    m_b = m0.mean_b.real
    f = (2.0 * m_nn + 2.0 * m_b2 * c4 - 4.0 * m_b * m_b * c2 * c2) / d
    g = (2.0 * m_nn - 2.0 * m_b2 * c4 - 4.0 * m_b * m_b * s2 * s2) / d
    return f, g


def factors(
    p: SystemParams,
    t,
    kind: SqueezeKind,
    d_convention: DConvention = DConvention.NUMBER_SUM,
):
    """(F, G) of the requested kind along this module's closed-form route."""
    if kind is SqueezeKind.SINGLE1:
        return single_mode_fg(p, t, 1)
    if kind is SqueezeKind.SINGLE2:
        return single_mode_fg(p, t, 2)
    if kind is SqueezeKind.TWO_MODE:
        return two_mode_fg(p, t)
    if kind is SqueezeKind.SUM:
        return sum_fg(p, t, d_convention)
    raise ValueError(f"unknown kind {kind!r}")
