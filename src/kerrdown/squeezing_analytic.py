"""Closed-form squeezing factors as explicit trigonometric expressions.

This module is the second, independent arithmetic route to the factors: where
`moments_engine` + `quad_core` assemble complex moments and project them, the
functions here evaluate fully expanded real closed forms in C, S = cosh kt,
sinh kt, eps1 = -2 (alpha1^2 + alpha2^2), eps2 = alpha1^2 - alpha2^2 and the
angles 2 chi t +- eps2 sin 4 chi t, theta = 6 chi t - eps2 sin 4 chi t.  Its
only function from `moments_engine` is the (p, t) domain gate `_hyperbolic`.
The test suite holds the two routes together to 1e-10 and both against the
Fock oracle.

Variants
--------
The single-mode formulas circulate with defects that the Fock oracle rules
out.  `single_mode_variants` gives every `Variant` from one evaluation of the
terms; only `single_mode_extremum` takes one (or its string value):

* ``"arbitrated"`` (default) -- the form the oracle confirms; `factor_sets`
  gives it as a single-mode cell's F and G.
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

Principal squeezing: F_phi = (F + G)/2 + (F - G)/2 cos 2phi + H sin 2phi,
H = 2 Im w / |d| with w as in `quad_core`, and each kind's H is expanded from
the terms of its F and G.  `factor_sets` gives its minimum over phi,
V = (F + G)/2 - hypot((F - G)/2, H), as min(F, G) - (hypot((F - G)/2, H) -
|F - G|/2), so V <= F, G holds without slack, for several (kind,
d_convention) cells in one call, or for one as a one-item list.

As in `moments_engine`, t is a float or a 1-D numpy array and the params may
be a batch broadcast against t (the extremum reduction takes a float t and
one parameter set only).  A factor out of range, or whose cancelled terms
carry more roundoff than `quad_core`'s slack, raises NumericOverflow.
"""

from __future__ import annotations

import enum
import functools
import math
import sys

import numpy as np

from .errors import (
    AsymmetricAmplitudes,
    DegenerateDenominator,
    NotAnExtremumTime,
    NumericOverflow,
)
from .moments_engine import DConvention, SqueezeKind, SystemParams, _hyperbolic
from .quad_core import _CHECK_TOL, EPS_DEN

# extremum times chi*t = m*pi/2 are accepted within this window
_EXTREMUM_TOL = 1e-9


class Variant(enum.Enum):
    """Single-mode closed-form variant; `Variant(value)` converts and validates a string."""

    ARBITRATED = "arbitrated"
    SIN_THETA = "sin-theta"
    SINGLE_DEPHASING = "single-dephasing"
    UNARBITRATED = "unarbitrated"


def _checked(scale, *values):
    """The factors once finite, and once eps * scale (their terms' roundoff / |d|) <= _CHECK_TOL."""
    if not all(np.all(np.isfinite(x)) for x in values):
        raise NumericOverflow("squeezing factor is out of float range")
    if not np.all(scale * sys.float_info.epsilon <= _CHECK_TOL):
        raise NumericOverflow(f"factor lost its precision (terms of size {np.max(scale):.3e})")
    return values


def _single_mode(p: SystemParams, t):
    """Mode 1's arbitrated (F, G, H, terms' scale, Re<B>, Im<B>, their weight), unchecked, then
    `variant_fg`, which gives a variant's (terms' scale, F, G) from the same terms."""
    a1, a2 = p.alpha1, p.alpha2
    c, s = _hyperbolic(p, t)
    x = p.chi_bar * t
    eps1, eps2 = -2.0 * (a1**2 + a2**2), a1**2 - a2**2
    eps2_s4 = eps2 * np.sin(4.0 * x)
    theta = 6.0 * x - eps2_s4
    with np.errstate(over="ignore", invalid="ignore"):
        s2 = np.sin(2.0 * x)
        dephase_mid = np.exp(eps1 * s2 * s2)
        sin_x2, sin_theta = np.sin(x) ** 2, np.sin(theta)
        dephase_mean = np.exp(2.0 * eps1 * sin_x2)

        head = 2.0 * (a1 * a1 * c * c + 2.0 * a1 * a2 * s * c + s * s * (a2 * a2 + 1.0))
        # the middle block's terms; the variants differ only in the alpha2^2 S^2 one's factor
        near, far = a1 * a1 * c * c * np.cos(2.0 * x + eps2_s4), a2 * a2 * s * s
        cross = 2.0 * a1 * a2 * c * s * np.cos(2.0 * x - eps2_s4)
        mid_h = 2.0 * dephase_mid * (
            -a1 * a1 * c * c * np.sin(2.0 * x + eps2_s4)
            + far * sin_theta
            + 2.0 * a1 * a2 * c * s * np.sin(2.0 * x - eps2_s4)
        )
        re_b = a1 * c * np.cos(eps2 * s2) + a2 * s * np.cos(2.0 * x - eps2 * s2)
        im_b = a1 * c * np.sin(eps2 * s2) - a2 * s * np.sin(2.0 * x - eps2 * s2)
        h = mid_h + 4.0 * re_b * im_b * dephase_mean
        mean_sq = 4.0 * (re_b * re_b + im_b * im_b)
    single_weight = functools.cache(lambda: np.exp(eps1 * sin_x2))

    def variant_fg(variant: Variant):
        with np.errstate(over="ignore", invalid="ignore"):
            weight = dephase_mean if variant in (Variant.ARBITRATED, Variant.SIN_THETA) else single_weight()
            theta_term = np.cos(theta) if variant in (Variant.ARBITRATED, Variant.SINGLE_DEPHASING) else sin_theta
            mid = 2.0 * dephase_mid * (near + far * theta_term + cross)
            scale = head + abs(mid) + abs(mid_h) + mean_sq * weight
            return scale, head + mid - 4.0 * re_b * re_b * weight, head - mid - 4.0 * im_b * im_b * weight

    scale, f, g = variant_fg(Variant.ARBITRATED)
    return f, g, h, scale, re_b, im_b, dephase_mean, variant_fg


def single_mode_variants(p: SystemParams, t) -> dict:
    """{variant: (F, G)} of mode 1 for every variant, d = 1, from one evaluation of its terms;
    mode 2: of `p.mirrored`."""
    f, g, _, scale, *_, variant_fg = _single_mode(p, t)
    return {v: _checked(scale, f, g) if v is Variant.ARBITRATED else _checked(*variant_fg(v))
            for v in Variant}


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
    p.require_one("single_mode_extremum")
    variant = Variant(variant)
    if variant not in (Variant.ARBITRATED, Variant.UNARBITRATED):
        raise ValueError(f"the extremum reduction has no {variant.value!r} form")
    if abs(p.alpha1 - p.alpha2) > 1e-12:
        raise AsymmetricAmplitudes(
            f"extremum reduction needs alpha1 == alpha2, got {p.alpha1}, {p.alpha2}"
        )
    x = p.chi_bar * t
    m = round(x / (0.5 * math.pi)) if math.isfinite(x) else 0  # a non-finite chi*t is refused as m = 0
    if abs(x - m * 0.5 * math.pi) > _EXTREMUM_TOL or m < 1 or m % 2 == 0:
        raise NotAnExtremumTime(
            f"chi*t = {x} is not an odd multiple of pi/2 within {_EXTREMUM_TOL}"
        )
    c, s = _hyperbolic(p, t)
    eps1 = -2.0 * (p.alpha1**2 + p.alpha2**2)
    weight = 2.0 * eps1 if variant is Variant.ARBITRATED else eps1
    f = 2.0 * s * s - 4.0 * p.alpha1**2 * math.exp(weight - 2.0 * p.k * t)
    g = 4.0 * p.alpha1**2 * (c + s) ** 2 + 2.0 * s * s
    return f, g


def _two_mode(p: SystemParams, t, mode1, mode2):
    """(F, G, H, scale) of B = A1 + A2 before the checks, from `_single_mode` of p and p.mirrored; d = 2.

    Head terms and both mean-field blocks come from the single-mode forms; on
    top come the pair-coherence term ~ cos(2 chi t) (sin in H), the exchange
    block exp(eps1 sin^2 2 chi t) (not in H) and the mean-field product, each
    no larger than the single-mode terms, so both modes' scales bound them.
    """
    f1, g1, h1, scale1, re1, im1, mean_weight, _ = mode1
    f2, g2, h2, scale2, re2, im2, _, _ = mode2
    c, s = _hyperbolic(p, t)
    a1, a2 = p.alpha1, p.alpha2
    eps1, eps2 = -2.0 * (a1**2 + a2**2), a1**2 - a2**2
    with np.errstate(over="ignore", invalid="ignore"):
        x = p.chi_bar * t
        c2, s2, s4 = np.cos(2.0 * x), np.sin(2.0 * x), np.sin(4.0 * x)
        pair = 2.0 * (a1 * a2 * (s * s + c * c) + s * c * (a1 * a1 + a2 * a2 + 1.0))
        exchange = (
            2.0
            * np.exp(eps1 * s2 * s2)
            * (
                a1 * a2 * (c * c + s * s) * np.cos(eps2 * s4)
                + c * s * a1 * a1 * np.cos(4.0 * x + eps2 * s4)
                + c * s * a2 * a2 * np.cos(4.0 * x - eps2 * s4)
            )
        )
        f = 0.5 * (f1 + f2) + pair * c2 + exchange - 4.0 * re1 * re2 * mean_weight
        g = 0.5 * (g1 + g2) - pair * c2 + exchange - 4.0 * im1 * im2 * mean_weight
        h = 0.5 * (h1 + h2) + pair * s2 + 2.0 * mean_weight * (re1 * im2 + im1 * re2)
    return f, g, h, scale1 + scale2


def _sum(p: SystemParams, t):
    """(F, G, H, scale) of B = A1 A2 times d, then <n1> + <n2>; d divides them after the checks.

    The mean field cancels: var_n = <B+ B> - |<B>|^2 = S^2 (beta1^2 + beta2^2) + S^4
    and var_w = |<B^2> - <B>^2| = 2 beta1 beta2 C S + C^2 S^2 give F, G =
    (2 var_n +- 2 var_w cos(4 chi t)) / d and H = 2 var_w sin(4 chi t) / d,
    with beta1, beta2 and d as in `moments_engine`: only var_n ~ var_w cancel.
    """
    c, s = _hyperbolic(p, t)
    with np.errstate(over="ignore", invalid="ignore"):
        b1 = p.alpha1 * c + p.alpha2 * s
        b2 = p.alpha2 * c + p.alpha1 * s
        var_n = s * s * (b1 * b1 + b2 * b2) + s * s * s * s
        var_w = 2.0 * b1 * b2 * c * s + c * c * s * s
        x4 = 4.0 * p.chi_bar * t
        osc = 2.0 * var_w * np.cos(x4)
        terms = (2.0 * var_n + osc, 2.0 * var_n - osc, 2.0 * var_w * np.sin(x4), 2.0 * (var_n + var_w))
        return *terms, b1 * b1 + b2 * b2 + 2.0 * s * s


def factor_sets(p: SystemParams, t, cells) -> list[tuple]:
    """(F, G, V) of each (kind, d_convention) cell along this module's closed-form route; mode 1's
    terms of p and of `p.mirrored` and the sum's are evaluated at most once each, for every cell."""
    cells = SqueezeKind.cells(cells)
    mode = functools.cache(lambda kind: _single_mode(p.mirrored if kind is SqueezeKind.SINGLE2 else p, t))
    sum_terms = functools.cache(lambda: _sum(p, t))
    sets = []
    for kind, conv in cells:
        with np.errstate(over="ignore", invalid="ignore"):
            if kind is SqueezeKind.TWO_MODE:
                f, g, h, scale = _two_mode(p, t, mode(SqueezeKind.SINGLE1), mode(SqueezeKind.SINGLE2))
            elif kind is SqueezeKind.SUM:
                *terms, n_total = sum_terms()
                d = n_total if conv is DConvention.NUMBER_SUM else n_total + 1.0
                if np.any(d <= EPS_DEN):
                    raise DegenerateDenominator(f"<n1> + <n2> = {np.min(d)} <= {EPS_DEN}")
                f, g, h, scale = (x / d for x in terms)
            else:
                f, g, h, scale, *_ = mode(kind)
            half_gap = 0.5 * abs(f - g)
            v = np.minimum(f, g) - (np.hypot(half_gap, h) - half_gap)
        sets.append(_checked(scale, f, g, v))
    return sets
