"""Independent numerical ground truth on a truncated two-mode Fock basis.

Builds the co-rotating-frame generator of the Kerr + pair-production system,
evolves the coherent seed exactly (spectral decomposition of the small dense
Hamiltonian), and reads out arbitrary normally ordered moments.  Every closed
form in `moments_engine` / `squeezing_analytic` is validated against this
module; it is also the arbiter between the circulated formula variants.

Basis and frame
---------------
States live on the product grid 0 <= n1, n2 <= n_max, flattened row-major
(index = n1 * (n_max + 1) + n2).  The generator is

    H = chi * N(N - 1) - i k (a1 a2 - a1+ a2+),      N = n1 - n2,

i.e. the self-phase couplings locked to the cross coupling with the resulting
single-mode frequency shifts absorbed into the frame (see `moments_engine` for
the dressing).  In this frame the Schrodinger expectations of a1 are exactly
the dressed-mode moments <A1(t)...>; mode-2 moments additionally carry the
2*chi carrier, applied per power in `moment_sets`.

The seed state is kept truncated-unnormalized: its norm deficit is the
truncation diagnostic, and every moment divides by the norm squared so the
deficit cannot bias moments.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NormDrift, NumericOverflow, TailOverflow, TruncationTooSevere
from .moments_engine import DConvention, SqueezeKind, SystemParams
from .quad_core import QuadratureMoments

__all__ = [
    "FockState",
    "OracleConfig",
    "build_hamiltonian",
    "coherent_state",
    "evolve_seed",
    "expect",
    "moment_set_numeric",
    "moment_sets",
]

# Spectra kept warm.  Callers walk one (n_max, chi, k) at a time, or alternate
# two cutoffs of one parameter set (the cutoff-doubling check); each entry of a
# 32-cutoff spectrum holds a 1089^2 complex eigenvector matrix (19 MB).
_SPECTRA = 2


@dataclass
class OracleConfig:
    """Knobs of the numerical oracle.

    n_max     -- Fock cutoff per mode (>= 4)
    tau_norm  -- allowed drift of the state norm under evolution
    tau_tail  -- allowed population of the top two number shells (relative to
                 the norm); exceeding it raises TailOverflow instead of
                 silently degrading
    tau_trunc -- allowed norm deficit of the truncated coherent seed
    """

    n_max: int = 24
    tau_norm: float = 1e-10
    tau_tail: float = 1e-10
    tau_trunc: float = 1e-12

    def __post_init__(self):
        if self.n_max < 4:
            raise ValueError(f"n_max must be >= 4, got {self.n_max}")


@dataclass
class FockState:
    """Amplitude tensor over the truncated two-mode number basis."""

    amp: np.ndarray  # complex, shape (n_max + 1, n_max + 1)
    n_max: int

    def __post_init__(self):
        self.amp = np.asarray(self.amp, dtype=complex)
        dim = self.n_max + 1
        if self.amp.shape != (dim, dim):
            raise ValueError(f"amp must have shape {(dim, dim)}, got {self.amp.shape}")

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amp) ** 2))

    def tail_population(self) -> float:
        """Relative weight sitting in the top two shells of either mode."""
        w = np.abs(self.amp) ** 2
        tail = w[-2:, :].sum() + w[:-2, -2:].sum()
        return float(tail / w.sum())

    def vector(self) -> np.ndarray:
        return self.amp.reshape(-1)


def _ladder(n_max: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)


def build_hamiltonian(p: SystemParams, n_max: int) -> np.ndarray:
    """Dense Hermitian generator on the truncated basis.

    Diagonal: chi * nu (nu - 1) with nu = n1 - n2.  Off-diagonal: the pair
    term couples |n1, n2> to |n1-1, n2-1> with element -i k sqrt(n1 n2) and
    its conjugate.
    """
    dim = n_max + 1
    a = _ladder(n_max)
    eye = np.eye(dim)
    a1 = np.kron(a, eye)
    a2 = np.kron(eye, a)
    n1 = np.arange(dim).repeat(dim)
    n2 = np.tile(np.arange(dim), dim)
    nu = (n1 - n2).astype(float)
    h = np.diag(p.chi_bar * nu * (nu - 1.0)).astype(complex)
    pair = a1 @ a2
    h += -1j * p.k * (pair - pair.conj().T)
    return h


def coherent_state(
    alpha1: float, alpha2: float, n_max: int, tau_trunc: float = 1e-12
) -> FockState:
    """Truncated product coherent state |alpha1, alpha2>; not renormalized.

    The norm deficit 1 - sum|amp|^2 is the truncation diagnostic; it must not
    exceed tau_trunc.
    """
    if alpha1 < 0 or alpha2 < 0:
        raise ValueError("coherent amplitudes must be >= 0")
    ns = np.arange(n_max + 1)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1.0, n_max + 1)))))

    def coeffs(alpha):
        if alpha == 0.0:
            c = np.zeros(n_max + 1)
            c[0] = 1.0
            return c
        return np.exp(-0.5 * alpha * alpha + ns * math.log(alpha) - 0.5 * log_fact)

    amp = np.outer(coeffs(alpha1), coeffs(alpha2)).astype(complex)
    deficit = 1.0 - float(np.sum(np.abs(amp) ** 2))
    if deficit > tau_trunc:
        raise TruncationTooSevere(
            f"norm deficit {deficit:.3e} > {tau_trunc:.3e} at n_max={n_max}"
        )
    return FockState(amp=amp, n_max=n_max)


@functools.lru_cache(maxsize=_SPECTRA)
def _spectrum(n_max: int, chi: float, k: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the generator at (chi, k) on the n_max grid."""
    with np.errstate(over="ignore"):  # an overflowing entry is reported below
        h = build_hamiltonian(SystemParams(chi, k, 0.0, 0.0), n_max)
    if not np.isfinite(h).all():
        raise NumericOverflow(f"generator entries overflow at chi={chi}, k={k}, n_max={n_max}")
    return np.linalg.eigh(h)


def evolve_seed(
    p: SystemParams, ts: Iterable[float], cfg: OracleConfig | None = None
) -> Iterator[FockState]:
    """Yield the coherent seed of `p` evolved by exp(-i H t) to each t of `ts`, in order.

    The seed is projected onto the generator's eigenbasis once; each state is
    then one product evecs @ (exp(-i lambda t) c), checked before it is
    yielded: NormDrift past cfg.tau_norm, TailOverflow when the cutoff is too
    small for its time.  States are produced one at a time, so memory does not
    grow with the number of times.
    """
    cfg = cfg if cfg is not None else OracleConfig()
    seed = coherent_state(p.alpha1, p.alpha2, cfg.n_max, cfg.tau_trunc)
    norm0 = math.sqrt(seed.norm_sq())
    evals, evecs = _spectrum(cfg.n_max, p.chi_bar, p.k)
    # evecs^H psi0 as a row product, without a conjugated copy of evecs
    c = (seed.vector().conj() @ evecs).conj()
    reach = float(np.abs(evals).max())
    for t in ts:
        if not t >= 0:
            raise ValueError(f"t must be >= 0, got {t}")
        if not reach * t < math.inf:
            raise NumericOverflow(f"phase lambda t overflows at t={t} (|lambda| <= {reach:.3e})")
        amp = evecs @ (np.exp(-1j * evals * t) * c)
        state = FockState(amp=amp.reshape(seed.amp.shape), n_max=cfg.n_max)
        drift = abs(math.sqrt(state.norm_sq()) - norm0)
        if drift > cfg.tau_norm:
            raise NormDrift(f"norm drift {drift:.3e} > {cfg.tau_norm:.3e}")
        tail = state.tail_population()
        if tail > cfg.tau_tail:
            raise TailOverflow(
                f"top-shell population {tail:.3e} > {cfg.tau_tail:.3e}; "
                f"raise n_max for this time span"
            )
        yield state


@functools.cache
def _sqrt_fact(n_max: int) -> np.ndarray:
    return np.sqrt(np.array([math.factorial(n) for n in range(n_max + 1)], dtype=float))


def expect(state: FockState, powers: tuple[int, int, int, int]) -> complex:
    """Normally ordered moment <a1+^p a1^q a2+^r a2^s>, norm-squared normalized.

    Exact contraction over the amplitude tensor with the ladder factors
    sqrt(n!/(n-q)!) etc.
    """
    pw_p, pw_q, pw_r, pw_s = powers
    n_max = state.n_max
    if min(powers) < 0:
        raise ValueError(f"powers must be >= 0, got {powers}")
    if pw_p + pw_q > n_max or pw_r + pw_s > n_max:
        raise ValueError(f"powers {powers} exceed the cutoff {n_max}")
    sf = _sqrt_fact(n_max)

    def weights(q, p_):
        # rows n where both a^q and the a+^p image stay on the grid
        lo, hi = q, min(n_max, n_max + q - p_)
        n = np.arange(lo, hi + 1)
        w = (sf[n] / sf[n - q]) * (sf[n - q + p_] / sf[n - q])
        return lo, hi, w

    lo1, hi1, w1 = weights(pw_q, pw_p)
    lo2, hi2, w2 = weights(pw_s, pw_r)
    ket = state.amp[lo1 : hi1 + 1, lo2 : hi2 + 1]
    bra = state.amp[
        lo1 - pw_q + pw_p : hi1 - pw_q + pw_p + 1,
        lo2 - pw_s + pw_r : hi2 - pw_s + pw_r + 1,
    ]
    val = np.einsum("ij,ij,i,j->", bra.conj(), ket, w1, w2)
    return complex(val) / state.norm_sq()


def _real(z: complex, what: str) -> float:
    if abs(z.imag) > 1e-9 * max(1.0, abs(z)):
        raise ValueError(f"{what} should be real, got {z}")
    return z.real


def moment_sets(
    state: FockState,
    p: SystemParams,
    t: float,
    cells: Sequence[tuple[SqueezeKind, DConvention]],
) -> list[QuadratureMoments]:
    """Moment sets of each (kind, d_convention) cell, read from the state at time t.

    Schrodinger expectations in the co-rotating frame equal the dressed-mode
    moments directly for mode 1; mode-2 moments carry the carrier phase
    e^{2i chi t} once per net power of the mode-2 amplitude.  The cells share
    one read-out: each distinct normally ordered moment is contracted once.
    """
    ex = functools.cache(functools.partial(expect, state))
    ph = cmath.exp(2j * p.chi_bar * t)
    sets = []
    for kind, d_convention in cells:
        if kind is SqueezeKind.SINGLE1:
            mean_b = ex((0, 1, 0, 0))
            mean_b_sq = ex((0, 2, 0, 0))
            mean_n = _real(ex((1, 1, 0, 0)), "<n1>")
            d = 1.0
        elif kind is SqueezeKind.SINGLE2:
            mean_b = ph * ex((0, 0, 0, 1))
            mean_b_sq = ph * ph * ex((0, 0, 0, 2))
            mean_n = _real(ex((0, 0, 1, 1)), "<n2>")
            d = 1.0
        elif kind is SqueezeKind.TWO_MODE:
            mean_b = ex((0, 1, 0, 0)) + ph * ex((0, 0, 0, 1))
            mean_b_sq = (
                ex((0, 2, 0, 0))
                + ph * ph * ex((0, 0, 0, 2))
                + 2.0 * ph * ex((0, 1, 0, 1))
            )
            mean_n = (
                _real(ex((1, 1, 0, 0)), "<n1>")
                + _real(ex((0, 0, 1, 1)), "<n2>")
                + 2.0 * (ph * ex((1, 0, 0, 1))).real
            )
            d = 2.0
        elif kind is SqueezeKind.SUM:
            mean_b = ph * ex((0, 1, 0, 1))
            mean_b_sq = ph * ph * ex((0, 2, 0, 2))
            mean_n = _real(ex((1, 1, 1, 1)), "<n1 n2>")
            n_total = _real(ex((1, 1, 0, 0)), "<n1>") + _real(ex((0, 0, 1, 1)), "<n2>")
            d = n_total if d_convention is DConvention.NUMBER_SUM else n_total + 1.0
        else:
            raise ValueError(f"unknown kind {kind!r}")
        sets.append(
            QuadratureMoments(mean_b=mean_b, mean_b_sq=mean_b_sq, mean_bdag_b=mean_n, mean_d=d)
        )
    return sets


def moment_set_numeric(
    p: SystemParams,
    t: float,
    kind: SqueezeKind,
    cfg: OracleConfig | None = None,
    d_convention: DConvention = DConvention.NUMBER_SUM,
) -> QuadratureMoments:
    """Oracle moment set at one time, drop-in replacement for the `moments_engine` output."""
    state = next(evolve_seed(p, (t,), cfg))
    return moment_sets(state, p, t, [(kind, d_convention)])[0]
