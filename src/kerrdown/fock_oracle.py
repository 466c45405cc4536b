"""Independent numerical ground truth on a truncated two-mode Fock basis.

Evolves the coherent seed exactly under the co-rotating-frame generator of the
Kerr + pair-production system (spectral decomposition, sector by sector) and
reads out arbitrary normally ordered moments.  Every closed form in
`moments_engine` / `squeezing_analytic` is validated against this module; it
is also the arbiter between the circulated formula variants.

Basis and frame
---------------
States live on the product grid 0 <= n1, n2 <= n_max, flattened row-major
(index = n1 * (n_max + 1) + n2).  The generator is

    H = chi * N(N - 1) - i k (a1 a2 - a1+ a2+),      N = n1 - n2,

i.e. the self-phase couplings locked to the cross coupling with the resulting
single-mode frequency shifts absorbed into the frame (see `moments_engine` for
the dressing).  In this frame the Schrodinger expectations of a1 are exactly
the dressed-mode moments <A1(t)...>; mode-2 moments additionally carry the
2*chi carrier once per net power of a2.  `moment_sets` applies it itself and
never uses `SystemParams.mirrored`, so it checks the closed forms' mirror.

The seed state is kept truncated-unnormalized: its norm deficit is the
truncation diagnostic, and every moment divides by the norm squared so the
deficit cannot bias moments.

Sector propagator
-----------------
N commutes with H, so H splits into 2 n_max + 1 sectors, one per N, each the
chain |m + N+, m + N-> (m = 0 .. n_max - |N|, N+ = max(N, 0), N- = max(-N, 0)).
Within a sector the Kerr term is the scalar chi N(N - 1) and the pair term is
tridiagonal with -i k sqrt((n1 + 1)(n2 + 1)) above the diagonal; the gauge
diag(i^m) turns it into the real symmetric chain k sqrt((m + 1)(m + 1 + |N|)),
which depends on neither chi nor the sign of N.  The n_max + 1 chains
nu = |N|, zero-padded to n_max + 1, are diagonalized in one stacked `eigh`
per (n_max, k); the sectors +nu and -nu read the same eigenvectors.  Times
are propagated in blocks of `_BLOCK`.  A block's coefficients, laid out
(nu, j, sign, t), take the pair phase exp(-i lambda t) of chain nu, computed
once for both signs; one batched product with the eigenvectors gives every
pair amplitude of the block, and padded slots are never scattered back onto
the grid.  The scalar Kerr term commutes with the pair term, so a block is
checked and read out through `_contract` for every chi at its (k, alpha1,
alpha2): moments that keep N read the pair amplitudes, those that change N
read them times each sector's Kerr phase exp(-i chi N(N - 1) t).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NormDrift, NumericOverflow, TailOverflow, TruncationTooSevere
from .moments_engine import DConvention, SqueezeKind, SystemParams
from .quad_core import QuadratureMoments

__all__ = [
    "OracleConfig",
    "coherent_state",
    "moment_set_numeric",
    "moment_sets",
    "motion_constants",
]

# Spectra kept warm.  Callers walk one (n_max, k) at a time, or alternate two
# cutoffs of one parameter set (the cutoff-doubling check); an entry at cutoff
# 32 holds 33 complex 33^2 chain eigenvector matrices (33^3 x 16 B = 0.57 MB).
_SPECTRA = 2
# Times propagated and read out together; bounds the memory of one call at
# about _BLOCK amplitude tensors whatever the length of the time axis.
_BLOCK = 64
# Largest cutoff: the stacked spectrum of n_max + 1 complex (n_max + 1)^2
# eigenvector matrices is 257^3 x 16 B = 272 MB at 256, built from real
# chain and eigenvector stacks of 136 MB each.
_N_MAX_LIMIT = 256
_TAU_NORM = 1e-10  # allowed drift of the state norm under evolution
# Allowed population of the top two number shells (relative to the norm);
# past it TailOverflow is raised instead of silently degrading.
_TAU_TAIL = 1e-10
_TAU_TRUNC = 1e-12  # allowed norm deficit of the truncated coherent seed


@dataclass(frozen=True)
class OracleConfig:
    """Fock cutoff n_max per mode of the numerical oracle (4 <= n_max <= 256)."""

    n_max: int = 24

    def __post_init__(self):
        if not 4 <= self.n_max <= _N_MAX_LIMIT:
            raise ValueError(f"n_max must be in [4, {_N_MAX_LIMIT}], got {self.n_max}")


def coherent_state(alpha1: float, alpha2: float, n_max: int) -> np.ndarray:
    """Amplitudes (n1, n2) of the truncated product coherent state |alpha1, alpha2>; not renormalized.

    The norm deficit 1 - sum|amp|^2 is the truncation diagnostic; it must not
    exceed _TAU_TRUNC.
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
    if deficit > _TAU_TRUNC:
        raise TruncationTooSevere(
            f"norm deficit {deficit:.3e} > {_TAU_TRUNC:.3e} at n_max={n_max}"
        )
    return amp


@functools.cache
def _slots(n_max: int) -> np.ndarray:
    """Flat slot (|N| (n_max + 1) + min(n1, n2)) * 2 + (N < 0) of each grid point, row-major.

    The slots index the (nu, m, sign) layout of the chain stack: chain nu =
    |N|, chain state m, and sign 0 for the sector +nu, 1 for -nu.  The N = 0
    sector sits at sign 0; its sign-1 column stays empty.
    """
    n1, n2 = np.indices((n_max + 1, n_max + 1)).reshape(2, -1)
    return (np.abs(n1 - n2) * (n_max + 1) + np.minimum(n1, n2)) * 2 + (n1 < n2)


@functools.lru_cache(maxsize=_SPECTRA)
def _spectrum(n_max: int, k: float) -> tuple[np.ndarray, np.ndarray]:
    """Pair-term eigenvalues (nu, j) and gauged eigenvectors (nu, m, j) of the chains nu = 0 .. n_max.

    Chain nu serves both sectors N = +nu and N = -nu.
    """
    dim = n_max + 1
    nu = np.arange(dim)[:, None]
    m = np.arange(n_max)
    with np.errstate(over="ignore"):  # an overflowing entry is reported below
        off = k * np.sqrt((m + 1.0) * (m + 1.0 + nu))
    off[m >= n_max - nu] = 0.0  # beyond the chain's last state: padding
    if not np.isfinite(off).all():
        raise NumericOverflow(f"generator entries overflow at k={k}, n_max={n_max}")
    chain = np.zeros((dim, dim, dim))
    chain[:, m, m + 1] = off
    chain[:, m + 1, m] = off
    evals, evecs = np.linalg.eigh(chain)
    gauge = np.array([1.0, 1j, -1.0, -1j])[np.arange(dim) % 4]  # i^m, exact
    return evals, gauge[:, None] * evecs


def _phases(energy: np.ndarray, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write exp(-i energy t) into out, with t along its last axis; returns out.

    Built from cos and sin of the real phase, about twice as fast as a
    complex exp of the same arguments.
    """
    arg = np.multiply.outer(energy, -t)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    return out


def _propagate(
    p: SystemParams, ts: Iterable[float], cfg: OracleConfig
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (times, pair amplitudes (times, n1, n2), norms squared, Kerr phases) per block of ts.

    p is one parameter set, or several that differ in a 1-D chi_bar alone; the
    Kerr phases are laid out (*chi_bar's shape, N + n_max, t).  The whole axis
    is validated before the first block; every block is checked for norm drift
    and tail population before it is yielded.  An empty axis gives one empty block.
    """
    ts = np.fromiter(ts, dtype=float)
    bad = ~(ts >= 0)
    if bad.any():
        raise ValueError(f"t must be >= 0, got {ts[bad][0]}")
    n_max = cfg.n_max
    dim = n_max + 1
    seed = coherent_state(p.alpha1, p.alpha2, n_max)
    norm0 = math.sqrt(np.sum(np.abs(seed) ** 2))
    evals, evecs = _spectrum(n_max, p.k)
    n = np.arange(-n_max, dim, dtype=float)  # N of each sector
    with np.errstate(over="ignore"):  # reported below
        kerr = np.multiply.outer(p.chi_bar, n * (n - 1.0))
    t_end = float(ts.max(initial=0.0))
    for what, energy in (("pair phase lambda t", evals), ("Kerr phase chi N(N-1) t", kerr)):
        reach = float(np.abs(energy).max())
        if not reach * t_end < math.inf:
            raise NumericOverflow(f"{what} overflows at t={t_end} (|energy| <= {reach:.3e})")
    slots = _slots(n_max)
    seed_x = np.zeros(2 * dim * dim, dtype=complex)
    seed_x[slots] = seed.reshape(-1)
    # evecs^H psi0, (nu, j, sign); the seed is real, so (evecs^T psi0)* is the
    # same projection without a conjugate copy of the eigenvector stack
    c = (evecs.transpose(0, 2, 1) @ seed_x.reshape(dim, dim, 2)).conj()
    for lo in range(0, max(ts.size, 1), _BLOCK):
        tb = ts[lo : lo + _BLOCK]
        # the coefficient block (nu, j, sign, t): the pair phase of chain nu,
        # shared by both signs, then the seed, in place
        x = np.empty((dim, dim, 2, tb.size), dtype=complex)
        _phases(evals, tb, x[:, :, 0])
        x[:, :, 1] = x[:, :, 0]
        x *= c[..., None]
        x = evecs @ x.reshape(dim, dim, 2 * tb.size)  # (nu, m, sign, t)
        amp = x.reshape(2 * dim * dim, tb.size).T[:, slots].reshape(tb.size, dim, dim)
        del x  # only amp is held while the block is checked and read out
        w = np.abs(amp) ** 2
        norm_sq = w.sum(axis=(1, 2))
        drift = np.abs(np.sqrt(norm_sq) - norm0)
        bad = drift > _TAU_NORM
        if bad.any():
            raise NormDrift(f"norm drift {drift[bad][0]:.3e} > {_TAU_NORM:.3e}")
        # weight in the top two shells of either mode, relative to the norm
        tail = (w[:, -2:, :].sum(axis=(1, 2)) + w[:, :-2, -2:].sum(axis=(1, 2))) / norm_sq
        bad = tail > _TAU_TAIL
        if bad.any():
            raise TailOverflow(
                f"top-shell population {tail[bad][0]:.3e} > {_TAU_TAIL:.3e}; "
                f"raise n_max for this time span"
            )
        del w
        yield tb, amp, norm_sq, _phases(kerr, tb, np.empty(kerr.shape + tb.shape, dtype=complex))
        del amp  # released before the next block is built


def _with_kerr(pair: np.ndarray, phase: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = pair (times, n1, n2) times the Kerr phase (N + n_max, times) of N = n1 - n2."""
    n = np.arange(pair.shape[-1])
    np.take(phase.T, np.subtract.outer(n, n) + n[-1], axis=1, out=out, mode="clip")  # unbuffered
    return np.multiply(out, pair, out=out)


@functools.cache
def _weights(n_max: int, q: int, p: int) -> tuple[int, int, np.ndarray]:
    """Rows lo..hi of a^q then a+^p on one mode of the cutoff, and their ladder factors.

    Only rows n where both a^q and the a+^p image stay on the grid.  The
    factor sqrt(n!/(n-q)!) sqrt((n-q+p)!/(n-q)!) is a product of sqrt(n - j)
    terms: no n! is ever formed, so every cutoff stays in float range.
    """
    lo, hi = q, min(n_max, n_max + q - p)
    n = np.arange(lo, hi + 1, dtype=float)
    w = np.ones_like(n)
    for j in range(q):
        w *= np.sqrt(n - j)
    for j in range(1, p + 1):
        w *= np.sqrt(n - q + j)
    return lo, hi, w


def _contract(amp: np.ndarray, powers: tuple[int, int, int, int]) -> np.ndarray:
    """Unnormalized <a1+^p a1^q a2+^r a2^s> over the trailing (n1, n2) axes of amp.

    Exact contraction with the ladder factors of `_weights`; leading axes (a
    block of times) are kept.
    """
    pw_p, pw_q, pw_r, pw_s = powers
    n_max = amp.shape[-1] - 1
    if min(powers) < 0:
        raise ValueError(f"powers must be >= 0, got {powers}")
    if pw_p + pw_q > n_max or pw_r + pw_s > n_max:
        raise ValueError(f"powers {powers} exceed the cutoff {n_max}")
    lo1, hi1, w1 = _weights(n_max, pw_q, pw_p)
    lo2, hi2, w2 = _weights(n_max, pw_s, pw_r)
    ket = amp[..., lo1 : hi1 + 1, lo2 : hi2 + 1]
    bra = amp[
        ...,
        lo1 - pw_q + pw_p : hi1 - pw_q + pw_p + 1,
        lo2 - pw_s + pw_r : hi2 - pw_s + pw_r + 1,
    ]
    prod = bra.conj()
    prod *= ket
    return prod @ w2 @ w1


def _real(z: np.ndarray, what: str) -> np.ndarray:
    bad = np.abs(z.imag) > 1e-9 * np.maximum(1.0, np.abs(z))
    if bad.any():
        raise ValueError(f"{what} should be real, got {z[bad][0]}")
    return z.real


# B of each kind as a sum of monomials a1^q a2^s, given as (q, s); <B>, <B^2>
# and <B+ B> are then sums of normally ordered moments over terms and pairs
_TERMS = {
    SqueezeKind.SINGLE1: ((1, 0),),
    SqueezeKind.SINGLE2: ((0, 1),),
    SqueezeKind.TWO_MODE: ((1, 0), (0, 1)),
    SqueezeKind.SUM: ((1, 1),),
}


def moment_sets(
    p: SystemParams,
    t,
    cells: Sequence[tuple[SqueezeKind, DConvention]],
    cfg: OracleConfig = OracleConfig(),
) -> list[QuadratureMoments]:
    """Moment sets of each (kind, d_convention) cell at the times t.

    p is one parameter set (sets shaped like t) or a column batch (P, 1) with
    a float or 1-D t ((P, T) sets).  Entries sharing (k, alpha1, alpha2), k
    first, share one propagation of the pair term; each distinct normally
    ordered moment is contracted once per block over all its times, per group
    if it keeps N = n1 - n2, else per entry on its Kerr-phased state.  Mode-1
    moments are the Schrodinger expectations in the co-rotating frame; mode-2
    moments carry the carrier e^{2i chi t} once per net power of a2.
    """
    if p.shape and p.shape[1:] != (1,):
        raise TypeError(f"the Fock oracle takes one parameter set or a (P, 1) batch, not {p.shape}")
    if p.shape and np.ndim(t) > 1:
        raise TypeError(f"a (P, 1) batch takes a float or a 1-D t, not one of shape {np.shape(t)}")
    chis, *keys = (c.ravel().tolist() for c in np.broadcast_arrays(p.chi_bar, p.k, p.alpha1, p.alpha2))
    groups = {}  # batch positions of each (k, alpha1, alpha2)
    for i, key in enumerate(zip(*keys)):
        groups.setdefault(key, []).append(i)
    parts = [[[] for _ in chis] for _ in cells]  # per cell and entry, (<B>, <B^2>, <B+ B>, d) per block
    for key, entries in sorted(groups.items()):  # k first: one spectrum at a time
        group = SystemParams(np.take(chis, entries), *key)
        for tb, pair, norm_sq, kerr in _propagate(group, np.ravel(t), cfg):
            kept = functools.cache(lambda *powers: _contract(pair, powers) / norm_sq)
            amp = np.empty_like(pair)  # one entry's state at a time
            for i, phase in zip(entries, kerr):
                _with_kerr(pair, phase, amp)
                ph = np.exp(2j * chis[i] * tb)

                @functools.cache
                def ex(pw_p, pw_q, pw_r, pw_s):  # <a1+^p a1^q a2+^r a2^s>, carrier ph^(s - r)
                    if (pw_r, pw_p) > (pw_s, pw_q):  # contracted as its adjoint: <X+> = <X>*
                        return ex(pw_q, pw_p, pw_s, pw_r).conj()
                    if pw_q - pw_p == pw_s - pw_r:  # keeps N: blind to the Kerr phase
                        return ph ** (pw_s - pw_r) * kept(pw_p, pw_q, pw_r, pw_s)
                    return ph ** (pw_s - pw_r) * (_contract(amp, (pw_p, pw_q, pw_r, pw_s)) / norm_sq)

                for part, (kind, d_convention) in zip(parts, cells):
                    terms = _TERMS[kind]
                    pairs = [(q, s, q2, s2) for q, s in terms for q2, s2 in terms]
                    mean_b = sum(ex(0, q, 0, s) for q, s in terms)
                    mean_b_sq = sum(ex(0, q + q2, 0, s + s2) for q, s, q2, s2 in pairs)
                    mean_n = _real(sum(ex(q, q2, s, s2) for q, s, q2, s2 in pairs), "<B+ B>")
                    d = np.full(tb.size, float(len(terms)))  # <[B, B+]> of a1, a2 and a1 + a2
                    if kind is SqueezeKind.SUM:
                        n_total = _real(ex(1, 1, 0, 0), "<n1>") + _real(ex(0, 0, 1, 1), "<n2>")
                        d = n_total if d_convention is DConvention.NUMBER_SUM else n_total + 1.0
                    part[i].append((mean_b, mean_b_sq, mean_n, d))
            del pair, kerr, phase, kept, amp, ex  # released before the next block is built
    shape = np.broadcast_shapes(p.shape, np.shape(t))  # (P, T) for a batch
    return [
        QuadratureMoments(*(np.concatenate(column).reshape(shape) for column in zip(*sum(part, []))))
        for part in parts
    ]


def moment_set_numeric(
    p: SystemParams,
    t: float,
    kind: SqueezeKind,
    cfg: OracleConfig = OracleConfig(),
    d_convention: DConvention = DConvention.NUMBER_SUM,
) -> QuadratureMoments:
    """Oracle moment set at one time, drop-in replacement for the `moments_engine` output."""
    return moment_sets(p, t, [(kind, d_convention)], cfg)[0]


def motion_constants(
    p: SystemParams, t, cfg: OracleConfig = OracleConfig()
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """<N>, <N^2>, frame energy <H> and norm of the evolved seed along the 1-D time axis t.

    N = n1 - n2 and H itself commute with the generator H, and the evolution
    is unitary, so all four are flat.  They keep N, so they are read from the
    pair amplitudes of the same propagated blocks as `moment_sets`:
        <N^2> = <a1+^2 a1^2> + <n1> - 2<n1 n2> + <a2+^2 a2^2> + <n2>,
        <H>   = chi (<N^2> - <N>) + 2k Im<a1 a2>.
    """
    p.require_one("the Fock oracle")
    parts = []
    for _, amp, norm_sq, _ in _propagate(p, np.ravel(t), cfg):
        n1, n2, aa1, aa2, n1n2 = (  # aa: <a+^2 a^2> of one mode
            _contract(amp, powers).real / norm_sq
            for powers in ((1, 1, 0, 0), (0, 0, 1, 1), (2, 2, 0, 0), (0, 0, 2, 2), (1, 1, 1, 1))
        )
        n, n_sq = n1 - n2, aa1 + n1 - 2.0 * n1n2 + aa2 + n2
        pair = _contract(amp, (0, 1, 0, 1)).imag / norm_sq
        parts.append((n, n_sq, p.chi_bar * (n_sq - n) + 2.0 * p.k * pair, np.sqrt(norm_sq)))
        del amp  # released before the next block is built
    return tuple(np.concatenate(column) for column in zip(*parts))
