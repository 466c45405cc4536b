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
2*chi carrier once per net power of a2.  `_read_out` applies it itself and
never uses `SystemParams.mirrored`, so it checks the closed forms' mirror.

The grid is that of mode 1 and of the quarter-turned mode 2, b = -i a2, in
which the pair term is real: a2 = i b gives k (a1 b + a1+ b+).  b's number
states are i^n2 |n2>, so the seed is |alpha1, -i alpha2>, the coherent grid
seed times (-i)^n2, and a moment <a1+^p a1^q a2+^r a2^s> is the frame's
<a1+^p a1^q b+^r b^s> times the exact i^(s - r), which `_read_out` applies
with the carrier.

The seed state is kept truncated-unnormalized: its norm deficit is the
truncation diagnostic, and every moment divides by the norm squared so the
deficit cannot bias moments.

Sector propagator
-----------------
N commutes with H, so H splits into 2 n_max + 1 sectors, one per N, each the
chain |m + N+, m + N-> (m = 0 .. n_max - |N|, N+ = max(N, 0), N- = max(-N, 0)).
Within a sector the Kerr term is the scalar chi N(N - 1) and the pair term is
the real symmetric chain k sqrt((m + 1)(m + 1 + |N|)), which depends on
neither chi nor the sign of N, and k only scales it.  The n_max + 1 chains
nu = |N| of k = 1, zero-padded to n_max + 1, are diagonalized in one stacked
`eigh` per n_max: a k's pair energies are k times their eigenvalues on the
same real eigenvectors, which the sectors +nu and -nu share.  The spectrum
and the grid's places in the chains are one entry of a cache of `_SPECTRA`
cutoffs, the only one that holds arrays of a cutoff's grid size.
`_propagate` groups a batch by seed (k, alpha1, alpha2) once and walks it by
k, in blocks of `_BLOCK` times with one table of pair phases exp(-i lambda t)
per chain nu for all seeds of the k.  A state is built one sign of N at a
time in one workspace: that table times the seed's projection onto the sign,
one real product with the eigenvectors gives the sign's chain amplitudes
(nu, m, t), and one scatter lays them onto the sign's grid points as they are;
padded rows land in a spare column, never on the grid.
The scalar Kerr term commutes with the pair term, so one state serves every
chi of its seed, and a seed of k = 0 (no pair energies) one time per block.
`_read_out` is the one reader: it contracts each moment of a state once over
the norm check's sum (`_contract`: number moments on its |amp|^2, which it then
drops, the others as contiguous products with a shifted window of the flat
conjugate, and each chi's relative Kerr phase for a moment that moves N) into
one (P, T) array per call.
`moment_sets` (squeezing moments, each kind cell assembled once per call) and
`motion_constants` (conserved quantities) read every moment through it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
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

# Spectra kept warm, one per cutoff and whatever the k.  Callers use one cutoff,
# or alternate two (the cutoff-doubling check); an entry at cutoff 32 holds 33
# real 33^2 chain eigenvector matrices (33^3 x 8 B = 0.29 MB), eigenvalues and places.
_SPECTRA = 2
# Times propagated and read out together, bounding a call's memory whatever the
# axis: a block's state takes (n_max + 1)^2 x 32 x 16 B = 0.3 MB at cutoff 24,
# and a call holds about four such at once: the pair phases, the state, and the
# workspace of a sign's product with its chain amplitudes, or the padded
# conjugate with a product.
_BLOCK = 32
# Largest cutoff: the stacked spectrum of n_max + 1 real (n_max + 1)^2
# eigenvector matrices is 257^3 x 8 B = 136 MB at 256; building it peaks at
# 272 MB, the chain stack and the eigenvectors together.
_N_MAX_LIMIT = 256
_TAU_NORM = 1e-10  # allowed drift of the state norm under evolution
# Allowed population of the top two number shells (relative to the norm);
# past it TailOverflow is raised instead of silently degrading.
_TAU_TAIL = 1e-10
_TAU_TRUNC = 1e-12  # allowed norm deficit of the truncated coherent seed
_I_POWERS = np.array([1.0, 1j, -1.0, -1j])  # i^n at n % 4, exact: the quarter turns between a2 and b


@dataclass(frozen=True)
class OracleConfig:
    """Fock cutoff n_max per mode of the numerical oracle (4 <= n_max <= 256)."""

    n_max: int = 24

    def __post_init__(self):
        if not isinstance(self.n_max, (int, np.integer)):
            raise TypeError(f"n_max must be an integer, got {self.n_max!r}")
        if not 4 <= self.n_max <= _N_MAX_LIMIT:
            raise ValueError(f"n_max must be in [4, {_N_MAX_LIMIT}], got {self.n_max}")


def coherent_state(alpha1: float, alpha2: float, n_max: int) -> np.ndarray:
    """Amplitudes (n1, n2) of the truncated product coherent state |alpha1, alpha2>; not renormalized.

    Its norm deficit 1 - sum|amp|^2 must not exceed _TAU_TRUNC.
    """
    if not (0 <= alpha1 < math.inf and 0 <= alpha2 < math.inf):  # also fails for a nan
        raise ValueError(f"coherent amplitudes must be finite and >= 0, got {alpha1}, {alpha2}")
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


@functools.lru_cache(maxsize=_SPECTRA)
def _spectrum(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues (nu, j) of the k = 1 chains nu = 0 .. n_max, which k scales, real eigenvectors (nu, m, j), grid places.

    The places (row, sign) hold, for each flat row nu (n_max + 1) + m of the
    chains' (nu, m) layout and each sign of N = n1 - n2, its flat grid point
    n1 (n_max + 1) + n2: chain nu = |N|, chain state m = min(n1, n2), sign 0
    for N >= 0 (the N = 0 sector is its alone), sign 1 for N < 0.  A padded
    row, and sign 1 of the N = 0 chain, holds (n_max + 1)^2, one past the grid.
    """
    dim = n_max + 1
    nu, m = np.indices((dim, dim))
    real = m < dim - nu  # padded rows lie past a chain's last state
    places = np.stack(  # 4 B indices: a row's two places take one 8 B word
        [np.where(real, (nu + m) * dim + m, dim * dim), np.where(real & (nu > 0), m * dim + nu + m, dim * dim)],
        axis=-1,
    ).reshape(dim * dim, 2).astype(np.int32)
    nu = np.arange(dim)[:, None]
    m = np.arange(n_max)
    off = np.sqrt((m + 1.0) * (m + 1.0 + nu))
    off[m >= n_max - nu] = 0.0  # beyond the chain's last state: padding
    chain = np.zeros((dim, dim, dim))
    chain[:, m, m + 1] = off
    chain[:, m + 1, m] = off
    return *np.linalg.eigh(chain), places


def _phases(energy: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(-i energy t), t along a new last axis; from cos and sin, twice as fast as a complex exp."""
    arg = np.multiply.outer(energy, -t)
    out = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    return out


def _propagate(
    p: SystemParams, ts: Iterable[float], cfg: OracleConfig
) -> Iterator[tuple[slice, list[int], np.ndarray, list[np.ndarray], np.ndarray]]:
    """Yield (block, entries, pair amplitudes (times, n1, n2), [their |amp|^2], its sum) per k, block and seed.

    Entries are the flat batch positions of a seed (k, alpha1, alpha2); a
    seed of k = 0 has one time per block, the state of every time.  The
    state is built one sign of N at a time in one workspace, each sign's
    chain amplitudes scattered straight onto its grid points; the amplitudes
    are a view whose rows, one per time, are contiguous.  |amp|^2 comes in a
    one-item list that the walk keeps no other reference to, so a reader that
    pops it can drop it.  The axis and the largest |chi|'s Kerr phase are checked before
    any seed is projected, a k's pair energies and phase before its first
    seed, and every state for norm drift and tail population before it is
    yielded; an empty axis gives empty blocks.
    """
    ts = np.fromiter(ts, dtype=float)
    bad = ~(ts >= 0)
    if bad.any():
        raise ValueError(f"t must be >= 0, got {ts[bad][0]}")
    n_max, dim = cfg.n_max, cfg.n_max + 1
    chis, *fields = map(np.ravel, np.broadcast_arrays(p.chi_bar, p.k, p.alpha1, p.alpha2))
    groups = {}  # flat batch positions of each seed (alpha1, alpha2), by k
    for i, (k, *seed) in enumerate(zip(*(a.tolist() for a in fields))):
        groups.setdefault(k, {}).setdefault(tuple(seed), []).append(i)
    t_end, chi_max = float(ts.max(initial=0.0)), float(np.abs(chis).max())
    # the Kerr reach also bounds the read-out's relative Kerr phases 2 chi t m, |m| <= 2 n_max + 2
    if not chi_max * (n_max * (n_max + 1)) * t_end < math.inf:
        raise NumericOverflow(
            f"Kerr phase chi N(N-1) t overflows at t={t_end} (|chi| <= {chi_max:.3e}, n_max={n_max})"
        )
    evals, evecs, places = _spectrum(n_max)
    places = places.astype(np.intp)  # once per call: numpy casts any other fancy index at every use
    for k, seeds in sorted(groups.items()):
        reach = k * float(np.abs(evals).max())  # a float product: an overflow is inf, not a warning
        if not reach < math.inf:
            raise NumericOverflow(f"generator entries overflow at k={k}, n_max={n_max}")
        if not reach * t_end < math.inf:
            raise NumericOverflow(f"pair phase lambda t overflows at t={t_end} (|energy| <= {reach:.3e})")
        energy = k * evals  # (nu, j), on the k-free eigenvectors
        projected = []  # (entries, evecs^T psi0 laid out (nu, j, sign), seed norm) per seed
        for alphas, entries in sorted(seeds.items()):
            seed = coherent_state(*alphas, n_max)
            turned = np.zeros(dim * dim + 1, dtype=complex)  # a place past the grid reads the trailing 0
            # |alpha1, -i alpha2>: (-i)^n2
            np.multiply(seed, _I_POWERS[-np.arange(dim) % 4], out=turned[:-1].reshape(dim, dim))
            # real eigenvectors: one real product over the float view (nu, m, sign and part)
            c = (evecs.transpose(0, 2, 1) @ turned[places].reshape(dim, dim, 2).view(float)).view(complex)
            projected.append((entries, c, math.sqrt(np.sum(np.abs(seed) ** 2))))
        for block in (slice(lo, lo + _BLOCK) for lo in range(0, max(ts.size, 1), _BLOCK)):
            # without pair energies every time of the block has one state: the read-out broadcasts it
            phase = _phases(energy, ts[block][: 1 if reach == 0.0 else None])  # (nu, j, t), all seeds
            for entries, c, norm0 in projected:
                # contiguous rows (t, n1 n2), so the read-out's products and matrix products run over
                # whole rows, and a spare last column for the places past the grid
                amp = np.empty((phase.shape[-1], dim * dim + 1), dtype=complex)
                # one workspace per state: a sign's product y, then its chain amplitudes x (nu, m, t)
                y, x = work = np.empty((2, *phase.shape), dtype=complex)
                for sign in (0, 1):
                    np.matmul(evecs, np.multiply(phase, c[:, :, sign, None], out=y).view(float), out=x.view(float))
                    amp.T[places[:, sign]] = x.reshape(dim * dim, -1)
                del y, x, work  # released before the state is checked and read out
                amp = amp[:, :-1].reshape(-1, dim, dim)
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
                w = [w]  # the walk's only reference: the reader drops |amp|^2 before it builds the conjugate
                yield block, entries, amp, w, norm_sq
                del amp, w  # released before the next state is built


# The kind cells and the motion constants read 6 rows (q, p) per cutoff, so
# the two cutoffs of the cutoff-doubling check never evict one
@functools.lru_cache(maxsize=6 * _SPECTRA)
def _weights(n_max: int, q: int, p: int) -> np.ndarray:
    """Ladder factors of a^q then a+^p on the rows n = 0 .. n_max of one mode.

    A row where a^q or the a+^p image leaves the grid weighs 0.  The factor
    sqrt(n!/(n-q)!) sqrt((n-q+p)!/(n-q)!) is a product of sqrt(n - j) terms:
    no n! is ever formed, so every cutoff stays in float range.
    """
    n = np.arange(n_max + 1.0)
    w = (n >= q) * (n <= n_max + q - p) * 1.0
    for j in range(q):
        w[q:] *= np.sqrt(n[q:] - j)
    for j in range(1, p + 1):
        w[q:] *= np.sqrt(n[q:] - q + j)
    return w


def _contract(
    amp: np.ndarray, bra: np.ndarray | None, powers: tuple[int, int, int, int], kerr: np.ndarray | None = None
) -> np.ndarray:
    """Unnormalized <a1+^p a1^q a2+^r a2^s> over the trailing (n1, n2) axes of amp.

    bra is amp's flat conjugate, zero-padded at both ends by at least the
    shift; None says that amp holds |amp|^2 (p = q, r = s).  The whole ket
    meets the window of the bra shifted by (p - q, r - s); the ladder factors
    of `_weights` are 0 where the shift leaves the grid.  Leading axes (a
    block of times) are kept.  kerr, exp(2i chi t m) laid out (entries,
    times, m + 2 n_max + 2), reads each entry's state, amp times
    exp(-i chi N(N - 1) t) on N = n1 - n2, as (entries, times): a moment
    that moves N by delta = p - q - r + s, |delta| <= 2, takes
    exp(i chi t delta (2N + delta - 1)) on its ket as
    z^n1 z^-n2 exp(i chi t delta (delta - 1)), z = exp(2i chi t delta).
    """
    pw_p, pw_q, pw_r, pw_s = powers
    n_max = amp.shape[-1] - 1
    w1, w2 = _weights(n_max, pw_q, pw_p), _weights(n_max, pw_s, pw_r)
    d1, d2 = pw_p - pw_q, pw_r - pw_s  # the bra's shift in n1 and n2
    prod = amp
    if bra is not None:
        start = (bra.size - amp.size) // 2 + d1 * (n_max + 1) + d2  # the shift in the flat index
        prod = amp * bra[start : start + amp.size].reshape(amp.shape)
    delta = d1 - d2
    if kerr is None or delta == 0:
        return prod @ w2 @ w1
    mid = kerr.shape[-1] // 2  # column m = 0; u = w1 z^n1 (entry, t, 1, n1), v = w2 z^-n2 (.., n2, 1)
    u = w1 * kerr[..., None, mid : mid + delta * (n_max + 1) : delta]
    v = w2[:, None] * kerr[..., mid : mid - delta * (n_max + 1) : -delta, None]
    # one vector-matrix-vector product per entry and time: an entry's value is blind to the others
    return kerr[..., mid + delta * (delta - 1) // 2] * (u @ prod @ v)[..., 0, 0]


# B of each kind as a sum of monomials a1^q a2^s, given as (q, s); <B>, <B^2>
# and <B+ B> are then sums of normally ordered moments over terms and pairs,
# which _SUMS lists with the <n1> and <n2> of the d of `sum`; <B+ B> over the
# term pairs i <= j only, `moment_sets` adding twice the real part of i < j
_TERMS = {
    SqueezeKind.SINGLE1: ((1, 0),),
    SqueezeKind.SINGLE2: ((0, 1),),
    SqueezeKind.TWO_MODE: ((1, 0), (0, 1)),
    SqueezeKind.SUM: ((1, 1),),
}
_SUMS = {
    kind: (
        [(0, q, 0, s) for q, s in terms],
        [(0, q + q2, 0, s + s2) for q, s in terms for q2, s2 in terms],
        [(q, q2, s, s2) for i, (q, s) in enumerate(terms) for q2, s2 in terms[i:]],
        [(1, 1, 0, 0), (0, 0, 1, 1)] if kind is SqueezeKind.SUM else [],
    )
    for kind, terms in _TERMS.items()
}


def _read_out(
    p: SystemParams, ts: np.ndarray, cfg: OracleConfig, powers: Iterable[tuple[int, int, int, int]]
) -> tuple[dict[tuple[int, int, int, int], np.ndarray], np.ndarray]:
    """<a1+^p a1^q a2+^r a2^s> of each of powers, carrier included, and the norms squared, as (entries, times).

    Each distinct moment is contracted once per state, as asked (so `_SUMS`
    lists <B+ B> over term pairs i <= j), over `_propagate`'s norm squared:
    first the number moments on its |amp|^2, which is then released, and only
    then the others on the state's conjugate, flat and zero-padded by the
    widest shift, with each chi's Kerr table, which spans |delta N| <= 2.  A
    negative power, one past the cutoff or a wider moment is refused before a
    seed is projected.  A seed of k = 0 is one state per block, broadcast
    against the block's times.
    """
    chis = np.ravel(np.broadcast_to(p.chi_bar, p.shape))
    norm_sq = np.empty((chis.size, ts.size))
    powers = sorted(set(powers))
    numbers = {pw: np.empty_like(norm_sq) for pw in powers if pw[::2] == pw[1::2]}  # read on |amp|^2
    shifted = {pw: np.empty_like(norm_sq, complex) for pw in powers if pw not in numbers}  # on the conjugate
    for pw in powers:
        if min(pw) < 0 or max(pw[0] + pw[1], pw[2] + pw[3]) > cfg.n_max:
            raise ValueError(f"powers {pw} must be >= 0 and within the cutoff {cfg.n_max}")
        if abs(pw[0] - pw[1] - pw[2] + pw[3]) > 2:
            raise ValueError(f"moment {pw} moves N = n1 - n2 by more than the Kerr table's 2")
    mid = 2 * (cfg.n_max + 1)  # the Kerr table's column m = 0
    pad = max((abs((pw[0] - pw[1]) * (cfg.n_max + 1) + pw[2] - pw[3]) for pw in shifted), default=0)
    m = np.arange(-mid, mid + 1)
    last = None  # the (block, chi) of z, the table exp(2i chi t m) laid out (entry, t, m)
    for block, entries, amp, w, norm in _propagate(p, ts, cfg):
        if (block.start, chis[entries].tolist()) != last:  # seeds mostly share their chi
            last = (block.start, chis[entries].tolist())
            z = _phases(np.multiply.outer(last[1], -2.0 * m), ts[block]).transpose(0, 2, 1)
        norm_sq[entries, block] = norm
        w = w.pop()  # the walk holds |amp|^2 no more
        for pw, values in numbers.items():
            values[entries, block] = _contract(w, None, pw, z) / norm
        del w  # released before the conjugate is built
        bra = np.empty(amp.size + 2 * pad, dtype=complex)
        bra[:pad] = bra[pad + amp.size :] = 0.0
        np.conjugate(amp, out=bra[pad : pad + amp.size].reshape(amp.shape))
        for pw, values in shifted.items():
            turn = z[..., mid + pw[3] - pw[2]] * _I_POWERS[(pw[3] - pw[2]) % 4]  # carrier, a2 = i b
            values[entries, block] = turn / norm * _contract(amp, bra, pw, z)
        del amp, bra  # released before the next state is built
    return numbers | shifted, norm_sq


def moment_sets(
    p: SystemParams,
    t,
    cells: Sequence[tuple[SqueezeKind, DConvention]],
    cfg: OracleConfig = OracleConfig(),
) -> list[QuadratureMoments]:
    """Moment sets of each (kind, d_convention) cell at the times t, read from `_read_out`.

    p is one parameter set (sets shaped like t) or a column batch (P, 1) with
    a float or 1-D t ((P, T) sets).  Every cell is assembled once, over the
    whole call, from the moments it asks for.
    """
    shape = p.shape
    if shape and shape[1:] != (1,):
        raise TypeError(f"the Fock oracle takes one parameter set or a (P, 1) batch, not {shape}")
    if shape and np.ndim(t) > 1:
        raise TypeError(f"a (P, 1) batch takes a float or a 1-D t, not one of shape {np.shape(t)}")
    sums = [_SUMS[kind] for kind, _ in cells]
    ex, _ = _read_out(p, np.ravel(t), cfg, [pw for cell in sums for part in cell for pw in part])
    shape = np.broadcast_shapes(shape, np.shape(t))  # (P, T) for a batch
    sets = []
    for (_, d_convention), parts in zip(cells, sums):
        b, b_sq, n, numbers = ([ex[pw] for pw in part] for part in parts)
        mean_n = sum(x if x.dtype == float else 2.0 * x.real for x in n)  # 2 Re of each cross pair i < j
        d = np.full(mean_n.shape, float(len(b)))  # <[B, B+]> of a1, a2 and a1 + a2
        if numbers:
            d = sum(numbers) if d_convention is DConvention.NUMBER_SUM else sum(numbers) + 1.0
        fields = (sum(b), sum(b_sq), mean_n, d)
        sets.append(QuadratureMoments(*(field.reshape(shape) for field in fields)))
    return sets


def moment_set_numeric(
    p: SystemParams,
    t: float,
    kind: SqueezeKind,
    cfg: OracleConfig = OracleConfig(),
    d_convention: DConvention = DConvention.NUMBER_SUM,
) -> QuadratureMoments:
    """Oracle moment set at one time; stays as `benchmarks/worker.py`'s entry point until ROADMAP item 2."""
    return moment_sets(p, t, [(kind, d_convention)], cfg)[0]


def motion_constants(
    p: SystemParams, t, cfg: OracleConfig = OracleConfig()
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """<N>, <N^2>, frame energy <H> and norm of the evolved seed along the 1-D time axis t.

    N = n1 - n2 and H itself commute with the generator H, and the evolution
    is unitary, so all four are flat.  They are read from `_read_out`:
        <N^2> = <a1+^2 a1^2> + <n1> - 2<n1 n2> + <a2+^2 a2^2> + <n2>,
        <H>   = chi (<N^2> - <N>) + 2k Im<a1 a2>,
    <a1 a2> taken off its carrier here, so <H> also checks the Kerr table's.
    """
    p.require_one("the Fock oracle")
    ts, numbers = np.ravel(t), ((1, 0), (0, 1), (2, 0), (0, 2), (1, 1))  # aa: <a+^2 a^2> of one mode
    ex, norm_sq = _read_out(p, ts, cfg, [(q, q, s, s) for q, s in numbers] + [(0, 1, 0, 1)])
    n1, n2, aa1, aa2, n1n2 = (ex[q, q, s, s][0] for q, s in numbers)
    n, n_sq = n1 - n2, aa1 + n1 - 2.0 * n1n2 + aa2 + n2
    pair = (ex[0, 1, 0, 1][0] * np.exp(-2j * p.chi_bar * ts)).imag
    return n, n_sq, p.chi_bar * (n_sq - n) + 2.0 * p.k * pair, np.sqrt(norm_sq[0])
