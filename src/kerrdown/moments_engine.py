"""Exact coherent-state moments of the Kerr + pair-production two-mode system.

Model
-----
Two boson modes interact through an intensity-dependent cross phase (a Kerr
medium) and a resonant pair-creation term (nondegenerate down-conversion).
Exact solvability requires the self-phase couplings to be locked to the cross
coupling (chi_1 = chi_2, cross = -2 chi_1); with that lock, and with the
single-mode frequency shifts it produces absorbed into the co-rotating frame
(they only redefine the mode carriers), the frame generator is

    H = chi * N(N - 1) - i k (a1 a2 - a1+ a2+),        N = n1 - n2,

with N a constant of motion.  The Heisenberg solution is then

    A1(t) = exp(-2i chi N t) (a1 C + a2+ S),
    A2(t) = exp(+2i chi N t) (a2 C + a1+ S),           C, S = cosh kt, sinh kt.

The mode-2 carrier includes a 2*chi dressed-frequency shift; this is the unique
carrier choice under which mode 2 is the exact alpha1 <-> alpha2 mirror of
mode 1 (and it is what `fock_oracle.moment_sets` applies when reading
moments out of the evolved state).

Moment recipe
-------------
Every moment is obtained by commuting the phase factors through the ladder
operators with the shift rules

    f(N) a1 = a1 f(N-1),   f(N) a2+ = a2+ f(N-1),
    f(N) a2 = a2 f(N+1),   f(N) a1+ = a1+ f(N+1),

and evaluating the leftover exp(i m phi N), phi = 2 chi t, on the coherent
state |alpha1, alpha2> via the displacement kernel

    <alpha| e^{i lam n} |alpha> = exp(alpha^2 (e^{i lam} - 1)),

whose product over both modes is `kerr_kernel(p, m, t)` below.  Writing
beta1 = alpha1 C + alpha2 S and beta2 = alpha2 C + alpha1 S, the closed forms
are (K(m) := kerr_kernel, e := e^{i phi}):

mode 1 (B = A1, d = 1):
    <B>    = (alpha1 C + alpha2 S e) K(-1)
    <B^2>  = e^{-i phi} K(-2) (C^2 a1^2 + S^2 a2^2 e^4 + 2CS a1 a2 e^2)
    <B+ B> = C^2 a1^2 + S^2 (a2^2 + 1) + 2CS a1 a2
mode 2: mode 1 of `SystemParams.mirrored` (K conjugates and eps2 flips).
two-mode (B = A1 + A2, d = 2): single-mode pieces plus the cross moments
    <A1 A2>  = e (beta1 beta2 + CS)                      [no Kerr dephasing]
    <A1+ A2> = K(2) (a1 a2 (C^2+S^2) + CS a1^2 e^2 + CS a2^2 e^-2)
sum (B = A1 A2, d = <n1 + n2> or <n1 + n2> + 1): Kerr phases cancel inside all
N-commuting products, so up to the carrier rotation the moments are those of
the pure down-converter:
    <B>    = e   (beta1 beta2 + CS)
    <B^2>  = e^2 (beta1^2 beta2^2 + 4 beta1 beta2 CS + 2 C^2 S^2)
    <B+ B> = beta1^2 beta2^2 + 2 beta1 beta2 CS + S^2 (beta1^2 + beta2^2)
             + C^2 S^2 + S^4
    <n1 + n2> = beta1^2 + beta2^2 + 2 S^2

All of these are proven against `fock_oracle` by the test suite (each moment to
1e-6 on the verification grid, limited only by the evolution arithmetic).

Every function takes t as a float (scalar moments) or a 1-D numpy array (one
moment set per time), and `SystemParams` of one parameter set or of a batch,
whose fields broadcast against t (a batch of shape (P, 1) and T times give
(P, T) moment sets).  Overflow becomes inf or nan, which `_hyperbolic` and
`QuadratureMoments` report as NumericOverflow, so numpy's floating-point
warnings are silenced.  Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericOverflow
from .quad_core import QuadratureMoments

__all__ = [
    "SystemParams",
    "SqueezeKind",
    "DConvention",
    "kernel",
    "kerr_kernel",
    "mode_moments",
    "pair_moments",
    "sum_moments",
    "moments_for",
    "moment_sets",
]


# The closed forms take trig functions of up to 6 chi t plus the seed terms
# eps1, eps2 ~ alpha^2; bounding chi t and alpha1^2 + alpha2^2 by this keeps
# those arguments finite.
_MAX_ARG = sys.float_info.max / 16


@dataclass(frozen=True)
class SystemParams:
    """Physical couplings and coherent seed amplitudes.

    chi_bar -- cross-Kerr coupling (rad per unit time); the self-phase
               couplings are derived, never independent inputs (the exact
               solution exists only on that constraint surface)
    k       -- parametric gain (rad per unit time), k >= 0
    alpha1, alpha2 -- initial coherent amplitudes, real and >= 0 (complex
               seeds are out of scope and rejected)

    A field is a float, or a real numpy array for a batch of parameter sets;
    the array fields share one shape, float fields apply to the whole batch,
    and every entry is held to the rules of a float.  The closed forms
    broadcast a batch against t; the oracle's moment sets take a (P, 1) one.
    """

    chi_bar: float | np.ndarray
    k: float | np.ndarray
    alpha1: float | np.ndarray
    alpha2: float | np.ndarray

    def __post_init__(self):
        shapes, low = set(), {}
        for name in ("chi_bar", "k", "alpha1", "alpha2"):
            val = getattr(self, name)
            if isinstance(val, np.ndarray) and val.ndim and val.dtype.kind in "biuf":
                val = val.astype(float)  # an own, read-only copy
                val.flags.writeable = False
                shapes.add(val.shape)
                lo, hi = val.min(), val.max()  # a nan reaches both
            elif isinstance(val, numbers.Real):
                val = lo = hi = float(val)
            else:
                raise TypeError(f"{name} must be real, got {val!r}")
            for x in (lo, hi):
                if not math.isfinite(x):
                    raise ValueError(f"{name} must be finite, got {x}")
            object.__setattr__(self, name, val)
            low[name] = lo
        if len(shapes) > 1:
            raise ValueError(f"batched fields must share one shape, got {sorted(shapes)}")
        if low["k"] < 0:
            raise ValueError(f"k must be >= 0, got {low['k']}")
        if low["alpha1"] < 0 or low["alpha2"] < 0:
            raise ValueError("coherent amplitudes must be >= 0")
        with np.errstate(over="ignore"):
            r2 = np.max(self.alpha1 * self.alpha1 + self.alpha2 * self.alpha2)
        if not r2 < _MAX_ARG:
            raise ValueError("alpha1^2 + alpha2^2 must stay within the float range")

    @functools.cached_property
    def shape(self) -> tuple[int, ...]:
        """Shape of the batch; () for one parameter set; computed once per instance."""
        return np.broadcast_shapes(*map(np.shape, (self.chi_bar, self.k, self.alpha1, self.alpha2)))

    def require_one(self, caller: str) -> None:
        """Raise TypeError if these params are a batch: caller takes one parameter set."""
        if self.shape:
            raise TypeError(f"{caller} takes one parameter set, got a batch of shape {self.shape}")

    @functools.cached_property
    def mirrored(self) -> SystemParams:
        """The params with alpha1 and alpha2 swapped: mode 2 is mode 1 of these; built once per instance."""
        return SystemParams(self.chi_bar, self.k, self.alpha2, self.alpha1)


class SqueezeKind(enum.Enum):
    """Which composite amplitude B is examined."""

    SINGLE1 = "single1"
    SINGLE2 = "single2"
    TWO_MODE = "two"
    SUM = "sum"

    @staticmethod
    def cells(cells) -> list[tuple[SqueezeKind, DConvention]]:
        """The (kind, d_convention) cells, conventions converted; every route reads its cells so first."""
        if bad := [kind for kind, _ in cells if not isinstance(kind, SqueezeKind)]:
            raise ValueError(f"unknown kind {bad[0]!r}")
        return [(kind, DConvention(conv)) for kind, conv in cells]


class DConvention(enum.Enum):
    """Normalization of sum squeezing; `DConvention(value)` converts and validates a string.

    NUMBER_SUM ("paper")  -- d = <n1 + n2>, the number-sum reading
    COMMUTATOR            -- d = <[A1 A2, A2+ A1+]> = <n1 + n2> + 1
    """

    NUMBER_SUM = "paper"
    COMMUTATOR = "commutator"


def _hyperbolic(p: SystemParams, t):
    """(cosh kt, sinh kt) once (p, t) pass the domain gate of both closed-form routes."""
    with np.errstate(over="ignore", invalid="ignore"):
        x, kt = np.abs(p.chi_bar * t), p.k * t
        c, s = np.cosh(kt), np.sinh(kt)
    if not np.all(x < _MAX_ARG):  # also fails for a nan t
        raise NumericOverflow(f"Kerr phase chi t = {np.max(x)} is out of float range")
    if not np.all(np.isfinite(c)):
        raise NumericOverflow(f"cosh(k t) overflows at k t = {np.max(kt)}")
    return c, s


def kernel(alpha: float, lam):
    """Coherent displacement kernel <alpha| e^{i lam n} |alpha> for real alpha.

    Equals exp(alpha^2 (cos lam - 1)) * exp(i alpha^2 sin lam); magnitude <= 1.
    """
    return np.exp(alpha * alpha * (np.exp(1j * lam) - 1.0))


def kerr_kernel(p: SystemParams, m: int, t):
    """Two-mode kernel <e^{i m phi N}> on |alpha1, alpha2>, phi = 2 chi t.

    Magnitude exp(eps1 sin^2(m chi t)), phase eps2 sin(2 m chi t).
    """
    phi = 2.0 * p.chi_bar * t
    return kernel(p.alpha1, m * phi) * kernel(p.alpha2, -m * phi)


def mode_moments(p: SystemParams, t) -> QuadratureMoments:
    """Moments of the dressed mode amplitude B = A1(t); d = 1 (mode 2: of `p.mirrored`)."""
    a1, a2 = p.alpha1, p.alpha2
    c, s = _hyperbolic(p, t)
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(2j * p.chi_bar * t)
        mean_b = (a1 * c + a2 * s * e) * kerr_kernel(p, -1, t)
        mean_b_sq = (
            (1.0 / e)
            * kerr_kernel(p, -2, t)
            * (c * c * a1 * a1 + s * s * a2 * a2 * e**4 + 2.0 * c * s * a1 * a2 * e**2)
        )
        mean_n = c * c * a1 * a1 + s * s * (a2 * a2 + 1.0) + 2.0 * c * s * a1 * a2
    return QuadratureMoments(
        mean_b=mean_b, mean_b_sq=mean_b_sq, mean_bdag_b=mean_n, mean_d=1.0
    )


def _pair_moments(p: SystemParams, t, m1: QuadratureMoments, m2: QuadratureMoments) -> QuadratureMoments:
    """Moments of the mode sum B = A1(t) + A2(t), d = 2, on top of the modes' moment sets m1, m2."""
    c, s = _hyperbolic(p, t)
    a1, a2 = p.alpha1, p.alpha2
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(2j * p.chi_bar * t)
        cross_bb = e * (a1 * a2 * (c * c + s * s) + c * s * (a1 * a1 + a2 * a2 + 1.0))
        cross_nb = kerr_kernel(p, 2, t) * (
            a1 * a2 * (c * c + s * s)
            + c * s * a1 * a1 * e * e
            + c * s * a2 * a2 / (e * e)
        )
        mean_b_sq = m1.mean_b_sq + m2.mean_b_sq + 2.0 * cross_bb
        mean_n = m1.mean_bdag_b + m2.mean_bdag_b + 2.0 * cross_nb.real
    return QuadratureMoments(
        mean_b=m1.mean_b + m2.mean_b, mean_b_sq=mean_b_sq, mean_bdag_b=mean_n, mean_d=2.0
    )


def pair_moments(p: SystemParams, t) -> QuadratureMoments:
    """Moments of the mode sum B = A1(t) + A2(t); d = 2."""
    return moment_sets(p, t, [(SqueezeKind.TWO_MODE, DConvention.NUMBER_SUM)])[0]


def sum_moments(
    p: SystemParams,
    t,
    d_convention: DConvention = DConvention.NUMBER_SUM,
) -> QuadratureMoments:
    """Moments of the pair amplitude B = A1(t) A2(t).

    The Kerr phase enters only through the carrier rotation e^{2i chi t} of B;
    all magnitudes are those of the pure down-converter.
    """
    c, s = _hyperbolic(p, t)
    with np.errstate(over="ignore", invalid="ignore"):
        b1 = p.alpha1 * c + p.alpha2 * s
        b2 = p.alpha2 * c + p.alpha1 * s
        e = np.exp(2j * p.chi_bar * t)
        mean_b = e * (b1 * b2 + c * s)
        mean_b_sq = e * e * (b1 * b1 * b2 * b2 + 4.0 * b1 * b2 * c * s + 2.0 * c * c * s * s)
        mean_nb = (
            b1 * b1 * b2 * b2
            + 2.0 * b1 * b2 * c * s
            + s * s * (b1 * b1 + b2 * b2)
            + c * c * s * s
            + s * s * s * s
        )
        n_total = b1 * b1 + b2 * b2 + 2.0 * s * s
    d = n_total if DConvention(d_convention) is DConvention.NUMBER_SUM else n_total + 1.0
    return QuadratureMoments(
        mean_b=mean_b, mean_b_sq=mean_b_sq, mean_bdag_b=mean_nb, mean_d=d
    )


def moment_sets(p: SystemParams, t, cells) -> list[QuadratureMoments]:
    """Moment sets of each (kind, d_convention) cell at the time(s) t; each mode's and the sum's formed once."""
    cells = SqueezeKind.cells(cells)
    mode = functools.cache(lambda kind: mode_moments(p.mirrored if kind is SqueezeKind.SINGLE2 else p, t))
    number_sum = functools.cache(lambda: sum_moments(p, t, DConvention.NUMBER_SUM))
    sets = []
    for kind, conv in cells:
        if kind is SqueezeKind.TWO_MODE:
            sets.append(_pair_moments(p, t, mode(SqueezeKind.SINGLE1), mode(SqueezeKind.SINGLE2)))
        elif kind is SqueezeKind.SUM:
            m = number_sum()
            # the commutator convention's d is <n1 + n2> + 1
            sets.append(m if conv is DConvention.NUMBER_SUM else replace(m, mean_d=m.mean_d + 1.0))
        else:
            sets.append(mode(kind))
    return sets


def moments_for(
    p: SystemParams, t, kind: SqueezeKind, d_convention: DConvention = DConvention.NUMBER_SUM
) -> QuadratureMoments:
    """The moment set of the requested squeezing kind at the time(s) t: one cell of `moment_sets`."""
    return moment_sets(p, t, [(kind, d_convention)])[0]
