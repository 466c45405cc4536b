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
per (n_max, k); the sectors +nu and -nu read the same eigenvectors.
`_propagate` groups a batch by seed (k, alpha1, alpha2) once and walks it by
k, in blocks of `_BLOCK` times with one table of pair phases exp(-i lambda t)
per chain nu for all seeds of the k; a seed's coefficients (nu, j, sign, t)
are that table times its projection, one batched product with the
eigenvectors gives its pair amplitudes, and padded slots never reach the grid.
The scalar Kerr term commutes with the pair term, so one state serves every
chi of its seed.  `_read_out` is the one reader: it contracts each moment of a
state once (`_contract`, which gives a moment that moves N each chi's relative
Kerr phase), and `moment_sets` (squeezing moments) and `motion_constants`
(conserved quantities) read every moment through it.
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

# Spectra kept warm.  Callers walk one (n_max, k) at a time, or alternate two
# cutoffs of one parameter set (the cutoff-doubling check); an entry at cutoff
# 32 holds 33 complex 33^2 chain eigenvector matrices (33^3 x 16 B = 0.57 MB).
_SPECTRA = 2
# Times propagated and read out together, bounding a call's memory whatever the
# axis: a block's state takes (n_max + 1)^2 x 32 x 16 B = 0.3 MB at cutoff 24.
_BLOCK = 32
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

    Its norm deficit 1 - sum|amp|^2 must not exceed _TAU_TRUNC.
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
    """Pair-term eigenvalues (nu, j) and gauged eigenvectors (nu, m, j) of the chains nu = 0 .. n_max."""
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


def _phases(energy: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(-i energy t), t along a new last axis; from cos and sin, twice as fast as a complex exp."""
    arg = np.multiply.outer(energy, -t)
    out = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    return out


def _propagate(
    p: SystemParams, ts: Iterable[float], cfg: OracleConfig
) -> Iterator[tuple[slice, list[int], np.ndarray, np.ndarray]]:
    """Yield (block, entries, pair amplitudes (times, n1, n2), norms squared) per k, block and seed.

    Entries are the flat batch positions of a seed (k, alpha1, alpha2).  The
    axis and the largest |chi|'s Kerr phase are checked before any seed is
    projected, a k's pair phase before its first seed, and every state for norm
    drift and tail population before it is yielded; an empty axis gives empty blocks.
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
    slots = _slots(n_max)
    for k, seeds in sorted(groups.items()):  # one spectrum at a time
        evals, evecs = _spectrum(n_max, k)
        reach = float(np.abs(evals).max())
        if not reach * t_end < math.inf:
            raise NumericOverflow(f"pair phase lambda t overflows at t={t_end} (|energy| <= {reach:.3e})")
        projected = []  # (entries, evecs^H psi0 laid out (nu, j, sign), seed norm) per seed
        for alphas, entries in sorted(seeds.items()):
            seed = coherent_state(*alphas, n_max)
            seed_x = np.zeros(2 * dim * dim, dtype=complex)
            seed_x[slots] = seed.reshape(-1)
            # the seed is real: (evecs^T psi0)* needs no conjugate copy of the eigenvector stack
            c = (evecs.transpose(0, 2, 1) @ seed_x.reshape(dim, dim, 2)).conj()
            projected.append((entries, c, math.sqrt(np.sum(np.abs(seed) ** 2))))
        for block in (slice(lo, lo + _BLOCK) for lo in range(0, max(ts.size, 1), _BLOCK)):
            phase = _phases(evals, ts[block])  # (nu, j, t), for both signs and every seed
            size = phase.shape[-1]
            for entries, c, norm0 in projected:
                x = np.empty((dim, dim, 2, size), dtype=complex)  # (nu, m, sign, t), one sign at a time
                for sign in (0, 1):
                    np.matmul(evecs, phase * c[:, :, sign, None], out=x[:, :, sign])
                amp = x.reshape(2 * dim * dim, size).T[:, slots].reshape(size, dim, dim)
                del x  # only amp is held while the state is checked and read out
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
                yield block, entries, amp, norm_sq
                del amp  # released before the next state is built


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


def _contract(
    amp: np.ndarray, bra: np.ndarray, powers: tuple[int, int, int, int], kerr: np.ndarray | None = None
) -> np.ndarray:
    """Unnormalized <a1+^p a1^q a2+^r a2^s> over the trailing (n1, n2) axes of amp; bra is amp.conj().

    Exact contraction with the ladder factors of `_weights`; leading axes (a
    block of times) are kept.  kerr, exp(2i chi t m) laid out (entries, times,
    m + 2 n_max + 2), reads each entry's state, amp times exp(-i chi N(N - 1) t)
    on N = n1 - n2, as (entries, times): a moment that moves N by delta = p -
    q - r + s, |delta| <= 2, takes exp(i chi t delta (2N + delta - 1)) on its
    ket as z^n1 z^-n2 exp(i chi t delta (delta - 1)), z = exp(2i chi t delta).
    """
    pw_p, pw_q, pw_r, pw_s = powers
    n_max = amp.shape[-1] - 1
    if min(powers) < 0:
        raise ValueError(f"powers must be >= 0, got {powers}")
    if pw_p + pw_q > n_max or pw_r + pw_s > n_max:
        raise ValueError(f"powers {powers} exceed the cutoff {n_max}")
    lo1, hi1, w1 = _weights(n_max, pw_q, pw_p)
    lo2, hi2, w2 = _weights(n_max, pw_s, pw_r)
    d1, d2 = pw_p - pw_q, pw_r - pw_s  # the bra's shift in n1 and n2
    ket = amp[..., lo1 : hi1 + 1, lo2 : hi2 + 1]
    prod = ket * bra[..., lo1 + d1 : hi1 + d1 + 1, lo2 + d2 : hi2 + d2 + 1]
    delta = d1 - d2
    if kerr is None or delta == 0:
        return prod @ w2 @ w1
    mid = kerr.shape[-1] // 2  # column m = 0; u = w1 z^n1 (entry, t, 1, n1), v = w2 z^-n2 (.., n2, 1)
    u = w1 * kerr[..., None, mid + delta * lo1 : mid + delta * (hi1 + 1) : delta]
    v = w2[:, None] * kerr[..., mid - delta * lo2 : mid - delta * (hi2 + 1) : -delta, None]
    # one vector-matrix-vector product per entry and time: an entry's value is blind to the others
    return kerr[..., mid + delta * (delta - 1) // 2] * (u @ prod @ v)[..., 0, 0]


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


def _read_out(
    p: SystemParams, ts: np.ndarray, cfg: OracleConfig
) -> Iterator[tuple[slice, list[int], Callable[..., np.ndarray], np.ndarray]]:
    """Yield (block, entries, ex, norms squared) per state of `_propagate`.

    ex(p, q, r, s) is <a1+^p a1^q a2+^r a2^s> (entries, times), carrier included.
    """
    chis = np.ravel(np.broadcast_to(p.chi_bar, p.shape))
    mid = 2 * (cfg.n_max + 1)  # the Kerr table's column m = 0
    m = np.arange(-mid, mid + 1)
    last = None  # the (block, chi) of z, the table exp(2i chi t m) laid out (entry, t, m)
    for block, entries, amp, norm_sq in _propagate(p, ts, cfg):
        if (block.start, chis[entries].tolist()) != last:  # seeds mostly share their chi
            last = (block.start, chis[entries].tolist())
            z = _phases(np.multiply.outer(chis[entries], -2.0 * m), ts[block]).transpose(0, 2, 1)
        bra = amp.conj()

        @functools.cache
        def ex(pw_p, pw_q, pw_r, pw_s):
            if (pw_r, pw_p) > (pw_s, pw_q):  # contracted as its adjoint: <X+> = <X>*
                return ex(pw_q, pw_p, pw_s, pw_r).conj()
            carrier = z[..., mid + pw_s - pw_r] / norm_sq
            return carrier * _contract(amp, bra, (pw_p, pw_q, pw_r, pw_s), z)

        yield block, entries, ex, norm_sq
        del amp, bra  # released before the next state is built; ex reads them no more


def moment_sets(
    p: SystemParams,
    t,
    cells: Sequence[tuple[SqueezeKind, DConvention]],
    cfg: OracleConfig = OracleConfig(),
) -> list[QuadratureMoments]:
    """Moment sets of each (kind, d_convention) cell at the times t, read from `_read_out`.

    p is one parameter set (sets shaped like t) or a column batch (P, 1) with
    a float or 1-D t ((P, T) sets).
    """
    shape = p.shape
    if shape and shape[1:] != (1,):
        raise TypeError(f"the Fock oracle takes one parameter set or a (P, 1) batch, not {shape}")
    if shape and np.ndim(t) > 1:
        raise TypeError(f"a (P, 1) batch takes a float or a 1-D t, not one of shape {np.shape(t)}")
    ts, size = np.ravel(t), (math.prod(shape), np.size(t))
    sets = [[np.empty(size, d) for d in (complex, complex, float, float)] for _ in cells]
    for block, entries, ex, _ in _read_out(p, ts, cfg):
        for fields, (kind, d_convention) in zip(sets, cells):
            terms = _TERMS[kind]
            pairs = [(q, s, q2, s2) for q, s in terms for q2, s2 in terms]
            mean_b = sum(ex(0, q, 0, s) for q, s in terms)
            mean_b_sq = sum(ex(0, q + q2, 0, s + s2) for q, s, q2, s2 in pairs)
            mean_n = _real(sum(ex(q, q2, s, s2) for q, s, q2, s2 in pairs), "<B+ B>")
            d = float(len(terms))  # <[B, B+]> of a1, a2 and a1 + a2
            if kind is SqueezeKind.SUM:
                n_total = _real(ex(1, 1, 0, 0), "<n1>") + _real(ex(0, 0, 1, 1), "<n2>")
                d = n_total if d_convention is DConvention.NUMBER_SUM else n_total + 1.0
            for field, value in zip(fields, (mean_b, mean_b_sq, mean_n, d)):
                field[entries, block] = value
    shape = np.broadcast_shapes(shape, np.shape(t))  # (P, T) for a batch
    return [QuadratureMoments(*(field.reshape(shape) for field in fields)) for fields in sets]


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
    ts, parts = np.ravel(t), []
    for block, _, ex, norm_sq in _read_out(p, ts, cfg):
        # aa: <a+^2 a^2> of one mode
        n1, n2, aa1, aa2, n1n2 = (ex(q, q, s, s)[0].real for q, s in ((1, 0), (0, 1), (2, 0), (0, 2), (1, 1)))
        n, n_sq = n1 - n2, aa1 + n1 - 2.0 * n1n2 + aa2 + n2
        pair = (ex(0, 1, 0, 1)[0] * np.exp(-2j * p.chi_bar * ts[block])).imag
        parts.append((n, n_sq, p.chi_bar * (n_sq - n) + 2.0 * p.k * pair, np.sqrt(norm_sq)))
    return tuple(np.concatenate(column) for column in zip(*parts))
