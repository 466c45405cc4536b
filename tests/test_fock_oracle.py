"""Tests of the truncated Fock-space oracle."""

import ast
import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from kerrdown import (
    DConvention,
    NormDrift,
    NumericOverflow,
    SqueezeKind,
    SystemParams,
    TailOverflow,
    TruncationTooSevere,
    factors,
    moments_for,
)
from kerrdown import fock_oracle
from kerrdown.fock_oracle import (
    OracleConfig,
    coherent_state,
    moment_sets,
)
from kerrdown.verify import GRID_KS, GRID_STEPS, KIND_CELLS, conservation_checks, run_verification


def _idx(n1, n2, n_max):
    return n1 * (n_max + 1) + n2


def build_hamiltonian(p, n_max):
    """Dense Hermitian generator on the truncated basis, the reference for the sector split.

    Diagonal: chi * nu (nu - 1) with nu = n1 - n2.  Off-diagonal: the pair
    term couples |n1, n2> to |n1-1, n2-1> with element -i k sqrt(n1 n2) and
    its conjugate.
    """
    dim = n_max + 1
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
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


def _bra(amp, powers):
    """The bra `_contract` takes: amp's flat conjugate, zero-padded by exactly the shift of powers.

    The shift is |(p - q)(n_max + 1) + r - s| in the flat index, so the
    window of a shifted moment reaches an end of the bra.
    """
    pw_p, pw_q, pw_r, pw_s = powers
    return np.pad(amp.conj().ravel(), abs((pw_p - pw_q) * amp.shape[-1] + pw_r - pw_s))


def _expect(amp, powers):
    """Normally ordered moment <a1+^p a1^q a2+^r a2^s> of one state, norm-squared normalized."""
    return complex(fock_oracle._contract(amp, _bra(amp, powers), powers) / np.sum(np.abs(amp) ** 2))


def _quarter_turns(n_max):
    """i^n2 for n2 = 0 .. n_max, by repeated exact products: a frame amplitude of b = -i a2 times it is the a2 one."""
    return np.concatenate(([1.0 + 0j], np.cumprod(np.full(n_max, 1j))))


def _with_kerr(pair, phase, out):
    """out = pair (times, n1, n2), turned back to a2 by i^n2, times the Kerr phase (N + n_max, times) of N = n1 - n2."""
    n = np.arange(pair.shape[-1])
    np.take(phase.T, np.subtract.outer(n, n) + n[-1], axis=1, out=out, mode="clip")  # unbuffered
    return np.multiply(out, pair * _quarter_turns(n[-1]), out=out)


def _evolve(p, ts, cfg):
    """Amplitudes (times, n1, n2) of the seed of p evolved to every time of ts.

    The pair amplitudes of the oracle's propagation, which are those of the
    frame b = -i a2, turned back to a2 by i^n2, times the Kerr phase
    exp(-i chi N(N - 1) t) of each sector N = n1 - n2.
    """
    ts = np.asarray(ts, dtype=float)
    n = np.arange(-cfg.n_max, cfg.n_max + 1.0)
    kerr = np.exp(-1j * np.multiply.outer(p.chi_bar * n * (n - 1.0), ts))  # (N + n_max, times)
    return np.concatenate([
        _with_kerr(pair, kerr[:, block], np.empty((ts[block].size, *pair.shape[1:]), dtype=complex))
        for block, _, pair, _ in fock_oracle._propagate(p, ts, cfg)
    ])


def _dense_evolve(p, ts, n_max):
    """Amplitudes (times, n1, n2) of the seed of p under exp(-iHt) of the dense generator, diagonalized here."""
    evals, evecs = np.linalg.eigh(build_hamiltonian(p, n_max))
    psi0 = evecs.conj().T @ coherent_state(p.alpha1, p.alpha2, n_max).reshape(-1)
    return np.stack([evecs @ (np.exp(-1j * evals * t) * psi0) for t in ts]).reshape(len(ts), n_max + 1, n_max + 1)


def _per_entry_sets(p, ts, cells, amp):
    """(<B>, <B^2>, <B+ B>, d) of each cell for one parameter set, read out on its state amp (times, n1, n2).

    The reference for `moment_sets`: every moment is contracted on the
    Kerr-phased state of `_evolve` or `_dense_evolve`, and a mode-2 moment
    carries exp(2i chi t) per net power of a2.
    """
    norm_sq = np.sum(np.abs(amp) ** 2, axis=(1, 2))
    carrier = np.exp(2j * p.chi_bar * ts)

    def ex(*powers):
        return carrier ** (powers[3] - powers[2]) * fock_oracle._contract(amp, _bra(amp, powers), powers) / norm_sq

    sets = []
    for kind, conv in cells:
        terms = fock_oracle._TERMS[kind]
        pairs = [(q, s, q2, s2) for q, s in terms for q2, s2 in terms]
        mean_b = sum(ex(0, q, 0, s) for q, s in terms)
        mean_b_sq = sum(ex(0, q + q2, 0, s + s2) for q, s, q2, s2 in pairs)
        mean_n = sum(ex(q, q2, s, s2) for q, s, q2, s2 in pairs).real
        d = np.full(ts.size, float(len(terms)))
        if kind is SqueezeKind.SUM:
            n_total = ex(1, 1, 0, 0).real + ex(0, 0, 1, 1).real
            d = n_total if conv is DConvention.NUMBER_SUM else n_total + 1.0
        sets.append((mean_b, mean_b_sq, mean_n, d))
    return sets


class TestHamiltonian:
    def test_free_system_is_zero(self):
        h = build_hamiltonian(SystemParams(0.0, 0.0, 0.0, 0.0), 6)
        assert np.all(h == 0.0)

    def test_pair_coupling_element(self):
        k = 0.1
        h = build_hamiltonian(SystemParams(0.0, k, 0.0, 0.0), 6)
        assert abs(h[_idx(0, 0, 6), _idx(1, 1, 6)]) == pytest.approx(k, abs=1e-15)
        assert h[_idx(0, 0, 6), _idx(1, 1, 6)] == pytest.approx(-1j * k, abs=1e-15)

    def test_kerr_diagonal(self):
        h = build_hamiltonian(SystemParams(0.5, 0.0, 0.0, 0.0), 6)
        # nu = n1 - n2: diagonal is chi nu (nu - 1)
        assert h[_idx(2, 1, 6), _idx(2, 1, 6)] == pytest.approx(0.0, abs=1e-15)
        assert h[_idx(3, 1, 6), _idx(3, 1, 6)] == pytest.approx(1.0, abs=1e-15)
        assert h[_idx(0, 2, 6), _idx(0, 2, 6)] == pytest.approx(3.0, abs=1e-15)

    def test_hermitian(self):
        h = build_hamiltonian(SystemParams(0.5, 0.1, 0.0, 0.0), 8)
        assert np.allclose(h, h.conj().T, atol=1e-15)

    def test_independent_operator_construction(self):
        # rebuild from explicit ladder matrices and compare elementwise
        n_max = 5
        dim = n_max + 1
        a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
        a1 = np.kron(a, np.eye(dim))
        a2 = np.kron(np.eye(dim), a)
        n1 = a1.conj().T @ a1
        n2 = a2.conj().T @ a2
        nn = n1 - n2
        chi, k = 0.5, 0.1
        want = chi * (nn @ nn - nn) - 1j * k * (a1 @ a2 - (a1 @ a2).conj().T)
        got = build_hamiltonian(SystemParams(chi, k, 0.0, 0.0), n_max)
        assert np.allclose(got, want, atol=1e-14)


class TestCoherentState:
    def test_vacuum(self):
        st = coherent_state(0.0, 0.0, 8)
        assert st[0, 0] == 1.0
        assert np.sum(np.abs(st)) == 1.0

    def test_amplitudes(self):
        st = coherent_state(0.4, 0.0, 10)
        assert st[0, 0] == pytest.approx(math.exp(-0.08), abs=1e-12)
        assert st[1, 0] == pytest.approx(0.4 * math.exp(-0.08), abs=1e-12)

    def test_norm_deficit_tiny_at_default_cutoff(self):
        st = coherent_state(0.4, 0.4, 24)
        assert 1.0 - np.sum(np.abs(st) ** 2) < 1e-12

    def test_truncation_guard(self):
        # the default seed budget, 1e-12
        with pytest.raises(TruncationTooSevere):
            coherent_state(2.0, 0.0, 4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
    def test_amplitude_must_be_finite_and_non_negative(self, bad):
        # a nan or inf amplitude is refused, not turned into nan amplitudes
        for alphas in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError, match="finite and >= 0"):
                coherent_state(*alphas, 8)


class TestExpect:
    def test_vacuum_moments_vanish(self):
        st = coherent_state(0.0, 0.0, 8)
        for powers in ((0, 1, 0, 0), (1, 1, 0, 0), (0, 2, 0, 2), (1, 0, 0, 1)):
            assert _expect(st, powers) == 0.0

    def test_coherent_mode_number(self):
        st = coherent_state(0.4, 0.0, 20)
        assert _expect(st, (1, 1, 0, 0)) == pytest.approx(0.16, abs=1e-12)

    def test_coherent_factorization(self):
        st = coherent_state(0.4, 0.4, 24)
        assert _expect(st, (1, 1, 1, 1)) == pytest.approx(0.0256, abs=1e-12)

    def test_general_moment(self):
        st = coherent_state(0.3, 0.2, 20)
        want = 0.3**3 * 0.2  # <a1+ a1^2 a2> on the coherent state
        assert _expect(st, (1, 2, 0, 1)) == pytest.approx(want, abs=1e-12)

    def test_power_bound(self, monkeypatch):
        # a power past the cutoff is refused with the request, before any
        # seed is projected or any block propagated
        seeds = _count_calls(monkeypatch, fock_oracle, "coherent_state")
        p, ts = SystemParams(0.5, 0.1, 0.001, 0.001), np.array([0.0, 0.01])
        for powers in ((3, 3, 0, 0), (3, 2, 0, 0), (0, 0, 2, 3)):
            with pytest.raises(ValueError, match=r"must be >= 0 and within the cutoff 4$"):
                fock_oracle._read_out(p, ts, OracleConfig(4), [powers])
        assert seeds == []

    def test_deep_cutoff_moments(self):
        # past n = 170, n! is beyond float range; the ladder factors must not
        # go through it.  <a1+^p a1^q a2+^r a2^s> = a1^(p+q) a2^(r+s) here
        a1, a2 = 0.4, 0.3
        st = coherent_state(a1, a2, 200)
        for powers in ((1, 1, 0, 0), (1, 2, 0, 1), (2, 2, 2, 2), (0, 3, 2, 1)):
            want = a1 ** (powers[0] + powers[1]) * a2 ** (powers[2] + powers[3])
            assert _expect(st, powers) == pytest.approx(want, abs=1e-12)


def _explicit_moment(state, powers):
    """<a1+^p a1^q a2+^r a2^s> of one unnormalized state (n1, n2), summed term by term.

    a1+^p a1^q |n1> = sqrt(n1! / (n1 - q)!) sqrt(m1! / (n1 - q)!) |m1>, m1 =
    n1 - q + p, and likewise for mode 2; terms whose |m1, m2> leaves the
    grid are dropped.
    """
    p, q, r, s = powers
    n_max = state.shape[-1] - 1
    total = 0j
    for n1 in range(q, n_max + 1):
        for n2 in range(s, n_max + 1):
            m1, m2 = n1 - q + p, n2 - s + r
            if m1 <= n_max and m2 <= n_max:
                f1 = math.sqrt(math.factorial(n1) * math.factorial(m1)) / math.factorial(n1 - q)
                f2 = math.sqrt(math.factorial(n2) * math.factorial(m2)) / math.factorial(n2 - s)
                total += state[m1, m2].conjugate() * f1 * f2 * state[n1, n2]
    return total


def _random_states(seed, times, n_max):
    """Random complex states (times, n1, n2) of unit norm."""
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=(times, n_max + 1, n_max + 1)) + 1j * rng.normal(size=(times, n_max + 1, n_max + 1))
    return amp / np.sqrt(np.sum(np.abs(amp) ** 2, axis=(1, 2)))[:, None, None]


# every (p, q, r, s) with p + q <= 3 and r + s <= 3, the grid edges included
_POWERS_TO_3 = [
    (p, q, r, s)
    for p in range(4) for q in range(4 - p) for r in range(4) for s in range(4 - r)
]


class TestContract:
    def test_contraction_matches_explicit_sums(self):
        # random unit states of three times at n_max = 6, against a flat
        # conjugate padded by exactly the moment's shift (the window reaches
        # one end) and one padded wider than any shift; number moments also
        # from |amp|^2
        n_max = 6
        amp = _random_states(11, 3, n_max)
        wide = np.pad(amp.conj().ravel(), 5 * (n_max + 1))
        assert len(_POWERS_TO_3) == 100
        for powers in _POWERS_TO_3:
            want = np.array([_explicit_moment(state, powers) for state in amp])
            assert np.max(np.abs(fock_oracle._contract(amp, _bra(amp, powers), powers) - want)) <= 1e-14, powers
            assert np.max(np.abs(fock_oracle._contract(amp, wide, powers) - want)) <= 1e-14, powers
            if powers[0] == powers[1] and powers[2] == powers[3]:
                got = fock_oracle._contract(np.abs(amp) ** 2, None, powers)
                assert np.max(np.abs(got - want)) <= 1e-14, powers

    def test_kerr_contraction_matches_explicit_sums(self):
        # each entry's state is amp times exp(-i chi N(N - 1) t), N = n1 - n2,
        # formed here; the table exp(2i chi t m) is widened to the |delta| <= 6
        # of these powers.  Dyadic chi and t make every phase argument exact
        # on both sides, so only the contraction's roundoff is left
        n_max = 6
        amp = _random_states(12, 3, n_max)
        chis, ts = np.array([0.25, -0.75]), np.array([0.0, 0.5, 2.0])
        m = np.arange(-6 * (n_max + 1), 6 * (n_max + 1) + 1)
        kerr = np.exp(2j * chis[:, None, None] * ts[:, None] * m)  # (entries, times, m)
        n1, n2 = np.indices(amp.shape[1:])
        energy = (n1 - n2) * (n1 - n2 - 1.0)
        states = amp * np.exp(-1j * chis[:, None, None, None] * ts[:, None, None] * energy)
        for powers in _POWERS_TO_3:
            want = np.array([[_explicit_moment(state, powers) for state in entry] for entry in states])
            got = fock_oracle._contract(amp, _bra(amp, powers), powers, kerr)
            assert np.max(np.abs(got - want)) <= 1e-14, powers


class TestEvolve:
    def test_time_zero_is_identity(self):
        p = SystemParams(0.5, 0.1, 0.4, 0.2)
        st = coherent_state(0.4, 0.2, 16)
        (out,) = _evolve(p, [0.0], OracleConfig(n_max=16))
        assert np.allclose(out, st, atol=1e-12)

    def test_two_mode_squeezed_vacuum_photon_number(self):
        p = SystemParams(0.0, 0.1, 0.0, 0.0)
        (out,) = _evolve(p, [1.0], OracleConfig(n_max=16))
        assert _expect(out, (1, 1, 0, 0)).real == pytest.approx(
            math.sinh(0.1) ** 2, abs=1e-10
        )

    def test_kerr_conserves_mode_numbers(self):
        p = SystemParams(0.5, 0.0, 0.4, 0.4)
        for out in _evolve(p, (0.7, 2.5), OracleConfig(n_max=20)):
            assert _expect(out, (1, 1, 0, 0)).real == pytest.approx(0.16, abs=1e-10)

    def test_tail_overflow_guards_cutoff(self):
        # kt = 4 wants hundreds of photons; must refuse, not degrade
        p = SystemParams(0.0, 1.0, 0.0, 0.0)
        with pytest.raises(TailOverflow):
            moment_sets(p, [4.0], KIND_CELLS, OracleConfig(n_max=12))

    def test_norm_drift_budget_enforced(self, monkeypatch):
        # a non-unitary leak in the spectrum (eigenvectors 1e-8 too long)
        # must trip the default budget; the exact spectrum must not
        p = SystemParams(0.5, 0.1, 0.4, 0.2)
        cfg = OracleConfig(n_max=12)
        moment_sets(p, [1.0], KIND_CELLS, cfg)
        spectrum = fock_oracle._spectrum

        def leaky(n_max):
            evals, evecs, slots = spectrum(n_max)
            return evals, evecs * (1.0 + 1e-8), slots

        monkeypatch.setattr(fock_oracle, "_spectrum", leaky)
        with pytest.raises(NormDrift):
            moment_sets(p, [1.0], KIND_CELLS, cfg)

    def test_negative_time_rejected(self):
        p = SystemParams(0.5, 0.1, 0.4, 0.2)
        with pytest.raises(ValueError):
            _evolve(p, [-1.0], OracleConfig(n_max=8))

    @pytest.mark.parametrize("bad_t, error", [
        (-1.0, ValueError),
        (math.nan, ValueError),
        (math.inf, NumericOverflow),
        (1e308, NumericOverflow),
    ])
    def test_whole_time_axis_checked_before_any_state(self, bad_t, error):
        # the bad time sits in the second block: the first block must not be
        # propagated either
        p = SystemParams(0.5, 0.1, 0.4, 0.2)
        ts = [*np.linspace(0.5, 1.0, fock_oracle._BLOCK), bad_t]
        blocks = fock_oracle._propagate(p, ts, OracleConfig(n_max=8))
        with pytest.raises(error):
            next(blocks)
        with pytest.raises(error):
            moment_sets(p, np.array([0.5, bad_t]), KIND_CELLS, OracleConfig(n_max=8))

    @pytest.mark.parametrize("chi, k", [(1e100, 0.0), (0.0, 1e100)])
    def test_each_phase_factor_checked_before_any_state(self, chi, k):
        # a Kerr-only (k = 0) and a pair-only (chi = 0) phase overflow at a
        # time in the second block, each raised before the first block
        p = SystemParams(chi, k, 0.4, 0.2)
        ts = [*np.linspace(0.5, 1.0, fock_oracle._BLOCK), 1e300]
        blocks = fock_oracle._propagate(p, ts, OracleConfig(n_max=8))
        with pytest.raises(NumericOverflow, match="Kerr" if k == 0.0 else "pair"):
            next(blocks)

    def test_pair_energy_overflow_is_typed(self):
        # k = 1e307 times the chains' largest eigenvalue is past float max:
        # refused with the k and cutoff named, and no RuntimeWarning
        p = SystemParams(0.5, 1e307, 0.4, 0.3)
        with pytest.raises(NumericOverflow, match=r"^generator entries overflow at k=1e\+307, n_max=24$"):
            moment_sets(p, np.array([0.0, 1.0]), KIND_CELLS)

    def test_batch_kerr_phase_checked_before_any_seed(self, monkeypatch):
        # the Kerr gate reads the largest |chi| of the whole batch: the k
        # walked first (0.05, chi 0.5) is not projected either
        p = SystemParams(np.array([[0.5], [1e306]]), np.array([[0.05], [0.1]]), 0.4, 0.2)
        seeds = _count_calls(monkeypatch, fock_oracle, "coherent_state")
        with pytest.raises(NumericOverflow, match="Kerr"):
            moment_sets(p, np.array([0.5, 1.0]), KIND_CELLS)
        assert seeds == []

    def test_mirrored_seed_evolves_to_the_transpose(self):
        # at chi = 0 the generator is symmetric under the mode swap, which
        # maps the sector N onto -N; both read the one chain |N|
        cfg = OracleConfig(n_max=16)
        ts = np.linspace(0.0, 3.0, fock_oracle._BLOCK + 5)
        amp = _evolve(SystemParams(0.0, 0.1, 0.4, 0.2), ts, cfg)
        mirrored = _evolve(SystemParams(0.0, 0.1, 0.2, 0.4), ts, cfg)
        assert np.max(np.abs(mirrored - amp.transpose(0, 2, 1))) <= 1e-14

    @pytest.mark.parametrize("n_max", [8, 9, 12])
    @pytest.mark.parametrize("chi, k", [(0.0, 0.1), (0.5, 0.0), (0.25, 0.05), (0.5, 0.1)])
    def test_sector_evolution_matches_dense_propagator(self, n_max, chi, k):
        # independent of the sector split: exp(-iHt) of the dense generator,
        # diagonalized here; both sides evolve the same truncated generator
        # (the propagation runs no tail check).  An even n_max + 1 folds the
        # chains with no padding row
        cfg = OracleConfig(n_max=n_max)
        ts = [0.0, 0.4, 1.3, 3.0, 7.5]
        for p in (SystemParams(chi, k, 0.4, 0.3), SystemParams(chi, k, 0.25, 0.4)):
            assert np.max(np.abs(_evolve(p, ts, cfg) - _dense_evolve(p, ts, n_max))) <= 1e-12


class TestSpectrum:
    @pytest.mark.parametrize("n_max", [8, 24, 25])
    def test_chain_eigenvectors_are_real_and_orthonormal(self, n_max):
        # the sector chains are real symmetric: their eigenvectors stay real,
        # one float64 (n_max + 2)^2 matrix per pair of chains, ceil((n_max + 1) / 2)
        # of them, orthonormal block by block
        evals, evecs, _ = fock_oracle._spectrum(n_max)
        blocks, rows = (n_max + 2) // 2, n_max + 2
        assert evals.dtype == evecs.dtype == np.float64
        assert evals.shape == (blocks, rows) and evecs.shape == (blocks, rows, rows)
        overlap = evecs.transpose(0, 2, 1) @ evecs
        assert np.max(np.abs(overlap - np.eye(rows))) <= 1e-13

    @pytest.mark.parametrize("n_max", [8, 9, 24, 25])
    def test_fold_is_a_permutation_of_uncoupled_chains(self, n_max):
        # block b holds chain b, then chain n_max - b (the middle one once),
        # so chain 0 fills the first n_max + 1 rows and padding ends the
        # stack.  The places of the rows of N >= 0, then of N < 0 (chain 0
        # excluded), cover the grid once, and the spectrum rebuilds each
        # chain's sqrt((m + 1)(m + 1 + nu)) tridiagonal, with nothing between
        # the two chains of a block or on a padding row
        evals, evecs, places = fock_oracle._spectrum(n_max)
        dim = n_max + 1
        layout = [
            (nu, m)
            for b in range((dim + 1) // 2)
            for nu in dict.fromkeys((b, n_max - b))
            for m in range(dim - nu)
        ]
        half = len(layout)
        assert half == dim * (dim + 1) // 2 and evals.size - half == (dim % 2) * (dim + 1) // 2
        assert np.array_equal(np.sort(places), np.arange(dim * dim))
        n1, n2 = np.divmod(places, dim)
        assert np.array_equal(n1[:half] - n2[:half], [nu for nu, _ in layout])
        assert np.array_equal(n2[:half], [m for _, m in layout])
        assert np.array_equal(n2[half:] - n1[half:], [nu for nu, _ in layout[dim:]])
        assert np.array_equal(n1[half:], [m for _, m in layout[dim:]])
        want = np.zeros(evecs.shape)
        for row, ((nu, m), after) in enumerate(zip(layout, layout[1:])):
            if after == (nu, m + 1):
                b, i = divmod(row, dim + 1)
                want[b, i, i + 1] = want[b, i + 1, i] = math.sqrt((m + 1) * (m + 1 + nu))
        assert np.count_nonzero(want) == 2 * sum(n_max - nu for nu in range(dim))
        rebuilt = evecs * evals[:, None, :] @ evecs.transpose(0, 2, 1)
        assert np.max(np.abs(rebuilt - want)) <= 1e-13

    def test_cold_spectrum_holds_one_real_stack(self):
        # the cached spectrum is the real eigenvector stack (plus its
        # eigenvalues and the grid's places), and building it peaks at the
        # chains and eigenvectors together: no complex copy is held or made
        n_max = 64
        size = (n_max + 2) // 2 * (n_max + 2) ** 2 * 8
        fock_oracle._spectrum.cache_clear()
        tracemalloc.start()
        try:
            fock_oracle._spectrum(n_max)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 1.1 * size
        assert peak <= 2.5 * size

    def test_grid_sized_arrays_are_held_for_two_cutoffs_at_most(self):
        # every array of a cutoff's grid size or more (the spectrum and the
        # grid's places) sits in the one spectrum cache: walking 97 cutoffs
        # holds the memory of the last two entries, ceil((n_max + 1) / 2) folded
        # blocks of (n_max + 2)^2 eigenvector and n_max + 2 eigenvalue words and
        # one 8 B place per grid point each, not of every cutoff visited.  The
        # ladder weights, n_max + 1 entries a row, are held for as many cutoffs
        cutoffs = range(4, 101)
        p = SystemParams(0.5, 0.1, 0.01, 0.01)  # within the tail budget at n_max = 4
        fock_oracle._spectrum.cache_clear()
        tracemalloc.start()
        try:
            for n_max in cutoffs:
                moment_sets(p, np.array([0.0, 0.01]), KIND_CELLS, OracleConfig(n_max))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert fock_oracle._spectrum.cache_info().currsize == fock_oracle._SPECTRA
        assert held <= 1.05 * sum(
            (n_max + 2) // 2 * (n_max + 2) * (n_max + 3) * 8 + (n_max + 1) ** 2 * 8
            for n_max in cutoffs[-fock_oracle._SPECTRA:]
        )

    def test_every_cache_is_bounded(self):
        # a cache keyed by the cutoff grows with every cutoff visited unless it
        # has a size
        caches = [fn for fn in vars(fock_oracle).values() if hasattr(fn, "cache_info")]
        assert {"_spectrum", "_weights"} <= {fn.__name__ for fn in caches}
        for fn in caches:
            assert fn.cache_info().maxsize is not None, fn.__name__

    @pytest.mark.parametrize("n_max", [12, 24])
    def test_frame_turns_mode_2_by_a_quarter(self, monkeypatch, n_max):
        # with identity eigenvectors and no pair energies every product is
        # exact: the propagated state is the seed of the frame b = -i a2,
        # |alpha1, -i alpha2>, the grid seed times (-i)^n2; and each moment
        # read out of it, the frame's times i^(s - r), is that of the real
        # seed |alpha1, alpha2> at chi = 0: exactly real, and
        # alpha1^(p + q) alpha2^(r + s)
        evals, evecs, places = fock_oracle._spectrum(n_max)
        identity = np.broadcast_to(np.eye(n_max + 2), evecs.shape)
        monkeypatch.setattr(fock_oracle, "_spectrum", lambda _: (np.zeros_like(evals), identity, places))
        p, ts, cfg = SystemParams(0.0, 0.1, 0.4, 0.3), np.array([0.5]), OracleConfig(n_max)
        seed = coherent_state(0.4, 0.3, n_max) * _quarter_turns(n_max).conj()
        (state,) = [amp for _, _, amp, _ in fock_oracle._propagate(p, ts, cfg)]
        assert np.array_equal(state, seed[None])
        # the read-out's Kerr table covers the moments that move N by at most 2
        powers = [pw for pw in _POWERS_TO_3 if abs(pw[0] - pw[1] - pw[2] + pw[3]) <= 2]
        ex, _ = fock_oracle._read_out(p, ts, cfg, powers)
        for pw, values in ex.items():
            assert np.all(np.imag(values) == 0.0), pw
            want = 0.4 ** (pw[0] + pw[1]) * 0.3 ** (pw[2] + pw[3])
            assert np.max(np.abs(values - want)) <= 1e-14, pw
        # every other moment is refused by name before a seed is projected,
        # as is a negative power or one past the cutoff
        seeds = []
        monkeypatch.setattr(fock_oracle, "coherent_state", lambda *args: seeds.append(args))
        for pw in set(_POWERS_TO_3) - set(powers):
            with pytest.raises(ValueError, match="moves N = n1 - n2 by more than the Kerr table's 2"):
                fock_oracle._read_out(p, ts, cfg, [pw])
        half = n_max // 2 + 1
        for pw in ((-1, 0, 0, 0), (0, 1, 0, -1), (half, half, 0, 0), (0, 0, half, half), (1, n_max, 0, n_max)):
            with pytest.raises(ValueError, match=f"must be >= 0 and within the cutoff {n_max}$"):
                fock_oracle._read_out(p, ts, cfg, [(1, 1, 0, 0), pw])
        assert seeds == [] and len(powers) < len(_POWERS_TO_3)


class TestMomentSets:
    @pytest.mark.parametrize("kind", list(SqueezeKind))
    def test_time_zero_matches_closed_form(self, kind):
        p = SystemParams(0.5, 0.1, 0.4, 0.4)
        a = moments_for(p, 0.0, kind)
        b = moment_sets(p, 0.0, [(kind, DConvention.NUMBER_SUM)], OracleConfig())[0]
        assert b.mean_b == pytest.approx(a.mean_b, abs=1e-12)
        assert b.mean_b_sq == pytest.approx(a.mean_b_sq, abs=1e-12)
        assert b.mean_bdag_b == pytest.approx(a.mean_bdag_b, abs=1e-12)
        assert b.mean_d == pytest.approx(a.mean_d, abs=1e-12)

    def test_kerr_dip_spot_value(self):
        # the seeded Kerr dip at chi t = pi/2: factor must equal the closed
        # form -4 a^2 exp(2 eps1) = -0.64 e^{-0.64}
        p = SystemParams(0.5, 0.0, 0.4, 0.0)
        m = moment_sets(p, math.pi, [(SqueezeKind.SINGLE1, DConvention.NUMBER_SUM)], OracleConfig())[0]
        assert factors(m)[0] == pytest.approx(-0.64 * math.exp(-0.64), abs=1e-6)

    def test_dressed_mode_mean_matches_closed_form(self):
        cfg = OracleConfig()
        for p in (SystemParams(0.5, 0.1, 0.4, 0.2), SystemParams(0.25, 0.05, 0.2, 0.3)):
            for t in (0.5, 1.7, 3.0):
                a = moments_for(p, t, SqueezeKind.SINGLE1)
                b = moment_sets(p, t, [(SqueezeKind.SINGLE1, DConvention.NUMBER_SUM)], cfg)[0]
                assert b.mean_b == pytest.approx(a.mean_b, abs=1e-6)

    def test_mode2_is_the_mirror_of_mode1(self, grid_times):
        # the closed forms take mode 2 as mode 1 of the mirrored params; the
        # oracle reads mode 2 out of the evolved state on its own, carrier
        # included, and must agree
        cells = [(kind, DConvention.NUMBER_SUM) for kind in SqueezeKind]
        for p in (SystemParams(0.5, 0.1, 0.4, 0.2), SystemParams(0.25, 0.05, 0.0, 0.4)):
            single1, single2, two, pair = moment_sets(p, grid_times, cells)
            m_single1, m_single2, m_two, m_pair = moment_sets(p.mirrored, grid_times, cells)
            for a, b in ((single2, m_single1), (single1, m_single2), (two, m_two), (pair, m_pair)):
                for field in dataclasses.fields(a):
                    diff = np.abs(getattr(a, field.name) - getattr(b, field.name))
                    assert np.max(diff) <= 1e-14, field.name

    @pytest.mark.parametrize("n_max", [8, 24])
    def test_scaled_spectrum_matches_per_k_diagonalization(self, monkeypatch, n_max):
        # one k-free spectrum, its eigenvalues scaled by each k of the batch,
        # against the dense generator of each k diagonalized on its own; k = 0
        # also goes through the shared eigenvectors.  Both sides evolve the
        # same truncated generator, so the tail guard is off
        monkeypatch.setattr(fock_oracle, "_TAU_TAIL", 1.0)
        ks, ts = (0.0, 1e-3, 0.05, 0.1, 0.3), np.array([0.0, 0.4, 1.3, 3.0])
        batch = SystemParams(0.5, np.array([[k] for k in ks]), 0.4, 0.3)
        sets = moment_sets(batch, ts, KIND_CELLS, OracleConfig(n_max))
        for i, k in enumerate(ks):
            p = SystemParams(0.5, k, 0.4, 0.3)
            for m, ref in zip(sets, _per_entry_sets(p, ts, KIND_CELLS, _dense_evolve(p, ts, n_max))):
                for field, want in zip(dataclasses.fields(m), ref):
                    assert np.max(np.abs(getattr(m, field.name)[i] - want)) <= 1e-12, (k, field.name)

    def test_batch_takes_a_float_or_a_1d_time_axis(self, monkeypatch):
        # one parameter set gives sets shaped like t, whatever its shape; a
        # (P, 1) batch broadcasts against a float or a 1-D t only, and any
        # other t is refused before anything is propagated
        cells = KIND_CELLS[:1]
        one = SystemParams(0.5, 0.1, 0.4, 0.3)
        batch = SystemParams(np.array([[0.5], [0.25]]), 0.1, 0.4, 0.3)
        for p, t, shape in (
            (one, np.zeros((2, 2)), (2, 2)),
            (batch, 0.5, (2, 1)),
            (batch, np.zeros(3), (2, 3)),
        ):
            assert moment_sets(p, t, cells)[0].mean_b.shape == shape
        seeds = []
        monkeypatch.setattr(fock_oracle, "coherent_state", lambda *args: seeds.append(args))
        for t in (np.zeros((2, 2)), np.zeros((1, 3))):
            with pytest.raises(TypeError, match="1-D t"):
                moment_sets(batch, t, cells)
        assert seeds == []


def _count_calls(monkeypatch, module, name):
    """Record the arguments of every call of module.name from now on."""
    calls = []
    fn = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def _assert_sets_match_per_point_sets(ts):
    # one propagation read for every kind cell, gathered over the time axis,
    # == one propagation per (cell, t)
    cfg = OracleConfig()
    for p in (SystemParams(0.5, 0.1, 0.4, 0.3), SystemParams(0.25, 0.05, 0.2, 0.0)):
        for (kind, conv), m in zip(KIND_CELLS, moment_sets(p, ts, KIND_CELLS, cfg)):
            for i, t in enumerate(ts.tolist()):
                ref = moment_sets(p, t, [(kind, conv)], cfg)[0]
                assert abs(m.mean_b[i] - ref.mean_b) <= 1e-14
                assert abs(m.mean_b_sq[i] - ref.mean_b_sq) <= 1e-14
                assert abs(m.mean_bdag_b[i] - ref.mean_bdag_b) <= 1e-14
                assert abs(m.mean_d[i] - ref.mean_d) <= 1e-14


class TestStream:
    def test_streamed_sets_match_per_point_sets(self, grid_times):
        _assert_sets_match_per_point_sets(grid_times[::5])

    def test_sets_across_time_blocks_match_per_point_sets(self):
        ts = np.linspace(0.0, 3.0, fock_oracle._BLOCK + 13)
        assert len(ts) > fock_oracle._BLOCK and len(ts) % fock_oracle._BLOCK
        _assert_sets_match_per_point_sets(ts)

    def test_empty_time_axis_gives_empty_sets(self):
        p = SystemParams(0.5, 0.1, 0.4, 0.3)
        sets = moment_sets(p, np.array([]), KIND_CELLS)
        assert len(sets) == len(KIND_CELLS)
        for (kind, conv), m in zip(KIND_CELLS, sets):
            ref = moments_for(p, np.array([]), kind, conv)
            for name in ("mean_b", "mean_b_sq", "mean_bdag_b", "mean_d"):
                assert getattr(m, name).shape == getattr(ref, name).shape == (0,)

    def test_no_cells_give_no_sets(self):
        # the layout and the time axis are still checked
        p = SystemParams(0.5, 0.1, 0.4, 0.3)
        assert moment_sets(p, np.linspace(0.0, 1.0, 5), []) == []
        with pytest.raises(TypeError):
            moment_sets(SystemParams(np.zeros((2, 2)), 0.1, 0.4, 0.3), 0.5, [])
        with pytest.raises(ValueError):
            moment_sets(p, np.array([0.5, -1.0]), [])

    def test_norms_are_the_sums_of_the_propagated_states(self):
        # the read-out's norms squared are |amp|^2 summed over each state that
        # `_propagate` yields, bit for bit: the norm is summed once per state
        p = SystemParams(np.array([[0.5], [0.25], [0.5]]), np.array([[0.1], [0.0], [0.0]]), 0.4, 0.3)
        ts = np.linspace(0.0, 3.0, fock_oracle._BLOCK + 13)
        cfg = OracleConfig(n_max=16)
        want = np.full((3, ts.size), np.nan)
        for block, entries, amp, _ in fock_oracle._propagate(p, ts, cfg):
            want[entries, block] = np.sum(np.abs(amp) ** 2, axis=(1, 2))
        _, norm_sq = fock_oracle._read_out(p, ts, cfg, [(1, 1, 0, 0), (0, 1, 0, 1)])
        assert np.array_equal(norm_sq, want)

    def test_each_distinct_moment_contracted_once_per_block(self, monkeypatch):
        # the five kind cells share ten distinct normally ordered moments: the
        # two-mode <B+ B> asks for <a1+ a2> and not for its adjoint <a1 a2+>
        calls = _count_calls(monkeypatch, fock_oracle, "_contract")
        p = SystemParams(0.5, 0.1, 0.4, 0.3)
        moment_sets(p, np.linspace(0.0, 3.0, fock_oracle._BLOCK + 13), KIND_CELLS)
        powers = [pw for _, _, pw, _ in calls]
        assert len(powers) == 2 * len(set(powers)) == 20

    def test_a_moment_and_its_adjoint_are_each_contracted_as_asked(self, monkeypatch):
        # no moment is read as the conjugate of another: <a1+ a2> and <a1 a2+>
        # are two contractions per state (one seed, so one state per block),
        # and they come out complex conjugates to roundoff
        calls = _count_calls(monkeypatch, fock_oracle, "_contract")
        p = SystemParams(np.array([[0.0], [0.5], [2.0]]), 0.1, 0.4, 0.3)
        ts = np.linspace(0.0, 3.0, fock_oracle._BLOCK + 13)
        ex, _ = fock_oracle._read_out(p, ts, OracleConfig(), [(1, 0, 0, 1), (0, 1, 1, 0)])
        assert [pw for _, _, pw, _ in calls] == [(0, 1, 1, 0), (1, 0, 0, 1)] * 2
        assert np.max(np.abs(ex[1, 0, 0, 1] - ex[0, 1, 1, 0].conj())) <= 1e-14

    def test_entries_differing_in_chi_share_one_pair_evolution(self, monkeypatch):
        # the Kerr phase is applied to the moments of the pair evolution, for
        # every chi at once: the contractions per block do not grow with the
        # number of chi
        ts = np.linspace(0.0, 3.0, fock_oracle._BLOCK + 13)
        counts = []
        for chis in ([[0.25]], [[0.0], [0.25], [0.5]]):
            calls = _count_calls(monkeypatch, fock_oracle, "_contract")
            moment_sets(SystemParams(np.array(chis), 0.1, 0.4, 0.3), ts, KIND_CELLS)
            counts.append(len(calls))
            monkeypatch.undo()
        assert counts == [2 * 10, 2 * 10]

    @pytest.mark.parametrize("n_max", [8, 24])
    def test_sets_match_the_per_entry_read_out(self, monkeypatch, n_max):
        # several seeds of a pair-free k = 0 (one state per block) and of k =
        # 0.1, each under four chi, across two blocks of times: every field
        # matches the reference read-out on each entry's Kerr-phased state.
        # Both sides evolve the same truncated generator, so the tail guard is off
        monkeypatch.setattr(fock_oracle, "_TAU_TAIL", 1.0)
        cfg = OracleConfig(n_max=n_max)
        ts = np.linspace(0.0, 3.0, fock_oracle._BLOCK + 13)
        params = [
            SystemParams(chi, k, a1, a2)
            for k in (0.0, 0.1)
            for a1, a2 in ((0.4, 0.3), (0.2, 0.0), (0.0, 0.35))
            for chi in (0.0, 0.25, 0.5, 2.0)
        ]
        names = [f.name for f in dataclasses.fields(SystemParams)]
        batch = SystemParams(*(np.array([[getattr(p, name)] for p in params]) for name in names))
        sets = moment_sets(batch, ts, KIND_CELLS, cfg)
        for i, p in enumerate(params):
            for m, ref in zip(sets, _per_entry_sets(p, ts, KIND_CELLS, _evolve(p, ts, cfg))):
                for field, want in zip(dataclasses.fields(m), ref):
                    assert np.max(np.abs(getattr(m, field.name)[i] - want)) <= 1e-13, (p, field.name)

    def test_pair_free_seed_is_propagated_at_one_time_per_block(self, monkeypatch):
        # without pair energies every time of a block has the same amplitudes:
        # a k = 0 seed is one state per block, a k = 0.1 seed one per time
        ts = np.linspace(0.0, 3.0, fock_oracle._BLOCK + 13)
        p = SystemParams(0.5, np.array([[0.0], [0.1]]), 0.4, 0.3)
        phases = _count_calls(monkeypatch, fock_oracle, "_phases")
        states = [(entries, amp.shape[0]) for _, entries, amp, _ in fock_oracle._propagate(p, ts, OracleConfig())]
        assert states == [([0], 1), ([0], 1), ([1], fock_oracle._BLOCK), ([1], 13)]
        n_max = OracleConfig().n_max
        folded = ((n_max + 2) // 2, n_max + 2)  # the (b, j) pair energies
        assert [t.size for energy, t in phases if energy.shape == folded] == [1, 1, fock_oracle._BLOCK, 13]

    def test_large_kerr_phase_matches_the_per_entry_read_out(self):
        # at chi t = 1e4 (neither factor exact) the two read-outs round their
        # Kerr phases apart, the reference's chi N(N - 1) t and the oracle's
        # 2 chi t m; over the few sectors the seed populates that stays below
        # eps chi t (measured 0.05 eps chi t)
        cfg = OracleConfig(n_max=24)
        p = SystemParams(1e4 / 2.9, 0.1, 0.4, 0.3)
        ts = np.array([2.9])
        bound = np.finfo(float).eps * p.chi_bar * ts[0]
        ref_sets = _per_entry_sets(p, ts, KIND_CELLS, _evolve(p, ts, cfg))
        for m, ref in zip(moment_sets(p, ts, KIND_CELLS, cfg), ref_sets):
            for field, want in zip(dataclasses.fields(m), ref):
                assert np.max(np.abs(getattr(m, field.name) - want)) <= bound, field.name

    def test_interleaved_batch_equals_per_parameter_sets(self, monkeypatch):
        # chi outermost and shuffled: the entries of one (k, alpha1, alpha2)
        # are scattered over the batch, yet the cutoff is diagonalized once and
        # every entry's sets come back in batch order, bit for bit
        params = [
            SystemParams(chi, k, a1, a2)
            for chi in (0.5, 0.0, 0.25)
            for k in (0.1, 0.0, 0.05)
            for a1, a2 in ((0.2, 0.3), (0.4, 0.0))
        ]
        params = [params[i] for i in np.random.default_rng(5).permutation(len(params))]
        names = [f.name for f in dataclasses.fields(SystemParams)]
        batch = SystemParams(*(np.array([[getattr(p, name)] for p in params]) for name in names))
        ts = np.linspace(0.0, 3.0, 20)
        ref = [moment_sets(p, ts, KIND_CELLS) for p in params]
        fock_oracle._spectrum.cache_clear()
        eighs = _count_calls(monkeypatch, np.linalg, "eigh")
        sets = moment_sets(batch, ts, KIND_CELLS)
        assert len(eighs) == 1
        for m, cell in zip(sets, zip(*ref)):
            for field in dataclasses.fields(m):
                for row, r in zip(getattr(m, field.name), cell):
                    assert np.array_equal(row, getattr(r, field.name)), field.name

    def test_one_reader_walks_and_contracts(self):
        # the squeezing moments and the motion constants read through one
        # function, the only one that walks `_propagate`, calls `_contract`
        # or checks a propagated state for norm drift and tail population
        callers, raisers = {}, {}
        for node in ast.parse(inspect.getsource(fock_oracle)).body:
            if isinstance(node, ast.FunctionDef):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
                        callers.setdefault(sub.func.id, set()).add(node.name)
                    if isinstance(sub, ast.Raise) and isinstance(sub.exc, ast.Call):
                        raisers.setdefault(ast.unparse(sub.exc.func), set()).add(node.name)
        (reader,) = callers["_propagate"]
        assert callers["_contract"] == {reader}
        assert raisers["NormDrift"] == raisers["TailOverflow"] == {reader}
        assert {"moment_sets", "motion_constants"} <= callers[reader]

    def test_memory_does_not_grow_with_the_time_axis(self):
        # blocks are propagated and read out one at a time: ten blocks of
        # times peak at about the memory of one
        p = SystemParams(0.5, 0.1, 0.4, 0.3)
        axes = [np.linspace(0.0, 3.0, n * fock_oracle._BLOCK) for n in (1, 10)]
        moment_sets(p, axes[0], KIND_CELLS)  # the spectrum and weights are cached
        peaks = []
        for ts in axes:
            tracemalloc.start()
            try:
                moment_sets(p, ts, KIND_CELLS)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    def test_a_block_holds_few_copies_of_its_state(self):
        # a state unit is one block's state, (n_max + 1)^2 x _BLOCK x 16 B.  A
        # warm call holds about four at once: the pair phases of the folded
        # chains (about half a unit), the state, and either one sign's product
        # with its chain amplitudes (about a unit), or the padded conjugate
        # with one shifted product, |amp|^2 already dropped
        n_max = 48
        unit = (n_max + 1) ** 2 * fock_oracle._BLOCK * 16
        args = (SystemParams(0.5, 0.1, 0.4, 0.4), np.linspace(0.0, 3.0, 2 * fock_oracle._BLOCK), KIND_CELLS)
        moment_sets(*args, OracleConfig(n_max))  # the spectrum and weights are cached
        tracemalloc.start()
        try:
            moment_sets(*args, OracleConfig(n_max))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.2 * unit

    def test_verification_diagonalizes_each_generator_once(self, monkeypatch):
        shapes = []
        eigh = np.linalg.eigh

        def counting_eigh(h):
            shapes.append(h.shape)
            return eigh(h)

        fock_oracle._spectrum.cache_clear()
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        run_verification()
        # one stacked call for the cutoff, whose spectrum every k of the grid,
        # the probe and the conservation run scale; every block is a pair of
        # chains |N|, each shared by the sectors +N and -N
        n_max = OracleConfig().n_max
        assert shapes == [((n_max + 2) // 2, n_max + 2, n_max + 2)]

    def test_cutoff_doubling_diagonalizes_each_cutoff_once(self, monkeypatch):
        # the cutoff-doubling check alternates two cutoffs over fresh k: the
        # two cached spectra serve every k
        fock_oracle._spectrum.cache_clear()
        eighs = _count_calls(monkeypatch, np.linalg, "eigh")
        ts = np.linspace(0.0, 1.0, 5)
        for k in (0.05, 0.1, 0.2):
            for n_max in (24, 32):
                moment_sets(SystemParams(0.5, k, 0.4, 0.3), ts, KIND_CELLS, OracleConfig(n_max=n_max))
        assert [h.shape for (h,) in eighs] == [(13, 26, 26), (17, 34, 34)]

    def test_verification_builds_one_pair_phase_table_per_k_and_block(self, monkeypatch):
        # the ten seeds of the grid share one table per k and block of times;
        # the conservation run builds its own.  Pair tables are the folded
        # (b, j) spectra, Kerr tables the (chi, m) rows.  The seeds of k = 0,
        # walked first, have one state per block: their tables hold one time
        calls = _count_calls(monkeypatch, fock_oracle, "_phases")
        run_verification()
        n_max = OracleConfig().n_max
        pair = [t.size for energy, t in calls if energy.shape == ((n_max + 2) // 2, n_max + 2)]
        size = fock_oracle._BLOCK
        blocks = [min(size, GRID_STEPS - lo) for lo in range(0, GRID_STEPS, size)]
        assert GRID_KS[0] == 0.0
        assert pair == [1] * len(blocks) + blocks * (len(GRID_KS) - 1) + [16]

    def test_verification_evolves_each_pair_term_once(self, monkeypatch):
        # one seed projection per (k, alpha1, alpha2): the nine of the grid
        # and the probe's, whatever their chi, and one for the conservation run
        seeds = _count_calls(monkeypatch, fock_oracle, "coherent_state")
        run_verification()
        assert len(seeds) == 11


class TestConservation:
    def test_motion_constants(self):
        checks = conservation_checks(OracleConfig())
        for c in checks:
            assert c.passed, c.render()

    def test_motion_constants_of_a_pair_free_seed(self):
        # k = 0: one state serves every time of a block, so each column is as
        # long as the time axis and exactly flat
        ts = np.linspace(0.0, 3.0, fock_oracle._BLOCK + 13)
        for column in fock_oracle.motion_constants(SystemParams(0.5, 0.0, 0.4, 0.4), ts):
            assert column.shape == ts.shape
            assert np.all(column == column[0])

    def test_frame_energy_check_fails_on_the_wrong_pair_term(self, monkeypatch):
        # without the quarter turn b = -i a2 the chain evolves k(a1 a2 + a1+ a2+)
        # in place of -ik(a1 a2 - a1+ a2+): still unitary and N-conserving, so
        # only the frame energy moves.  A wrong k or chi alone cannot be caught
        # this way: the Kerr and pair terms commute, so <H> stays conserved
        # (and for the same reason neither can a wrong weight between the two
        # terms of the <H> read-out)
        monkeypatch.setattr(fock_oracle, "_I_POWERS", np.ones(4, dtype=complex))
        failed = [c.name for c in conservation_checks(OracleConfig()) if not c.passed]
        assert failed == ["frame energy drift"]


class TestConfig:
    def test_cutoff_floor(self):
        with pytest.raises(ValueError):
            OracleConfig(n_max=3)

    @pytest.mark.parametrize("n_max", [24.0, 24.5, "24", None])
    def test_cutoff_must_be_an_integer(self, n_max):
        with pytest.raises(TypeError, match="n_max"):
            OracleConfig(n_max=n_max)

    def test_numpy_integer_cutoff_accepted(self):
        assert OracleConfig(n_max=np.int64(8)).n_max == 8
        with pytest.raises(ValueError):
            OracleConfig(n_max=np.int64(3))

    def test_cutoff_ceiling(self):
        # rejected before anything is allocated
        assert OracleConfig(n_max=256).n_max == 256
        for n_max in (257, 100_000):
            with pytest.raises(ValueError):
                OracleConfig(n_max=n_max)

    def test_shared_default_is_frozen(self):
        # one default instance is shared by every signature that takes a config
        with pytest.raises(dataclasses.FrozenInstanceError):
            OracleConfig().n_max = 8


def test_uncertainty_product_on_oracle_sets():
    # with the true commutator in mean_d, (F+1)(G+1) >= 1 for every kind
    cfg = OracleConfig()
    for p in (SystemParams(0.5, 0.1, 0.4, 0.4), SystemParams(0.25, 0.05, 0.2, 0.3)):
        for kind in SqueezeKind:
            for t in (0.0, 0.9, 2.7):
                m = moment_sets(p, t, [(kind, DConvention.COMMUTATOR)], cfg)[0]
                f, g, _ = factors(m)
                assert (f + 1.0) * (g + 1.0) >= 1.0 - 1e-10


def test_cutoff_convergence(grid_times):
    # doubling the cutoff 24 -> 32 must not move any reported moment by > 1e-8
    kinds = list(SqueezeKind)
    params = [
        SystemParams(chi, k, a1, a2)
        for chi in (0.0, 0.25, 0.5)
        for k in (0.0, 0.05, 0.1)
        for a1, a2 in ((0.4, 0.0), (0.4, 0.4), (0.2, 0.3))
    ]
    cells = [(kind, DConvention.NUMBER_SUM) for kind in kinds]
    ts = grid_times[::7]
    worst = 0.0
    for p in params:
        lo_sets = moment_sets(p, ts, cells, OracleConfig(n_max=24))
        hi_sets = moment_sets(p, ts, cells, OracleConfig(n_max=32))
        for lo, hi in zip(lo_sets, hi_sets):
            worst = max(
                worst,
                np.max(abs(lo.mean_b - hi.mean_b)),
                np.max(abs(lo.mean_b_sq - hi.mean_b_sq)),
                np.max(abs(lo.mean_bdag_b - hi.mean_bdag_b)),
                np.max(abs(lo.mean_d - hi.mean_d)),
            )
    assert worst <= 1e-8
