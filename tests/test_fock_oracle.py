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
    moment_set_numeric,
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


def _expect(amp, powers):
    """Normally ordered moment <a1+^p a1^q a2+^r a2^s> of one state, norm-squared normalized."""
    return complex(fock_oracle._contract(amp, amp.conj(), powers) / np.sum(np.abs(amp) ** 2))


def _with_kerr(pair, phase, out):
    """out = pair (times, n1, n2) times the Kerr phase (N + n_max, times) of N = n1 - n2."""
    n = np.arange(pair.shape[-1])
    np.take(phase.T, np.subtract.outer(n, n) + n[-1], axis=1, out=out, mode="clip")  # unbuffered
    return np.multiply(out, pair, out=out)


def _evolve(p, ts, cfg):
    """Amplitudes (times, n1, n2) of the seed of p evolved to every time of ts.

    The pair amplitudes of the oracle's propagation times the Kerr phase
    exp(-i chi N(N - 1) t) of each sector N = n1 - n2.
    """
    ts = np.asarray(ts, dtype=float)
    n = np.arange(-cfg.n_max, cfg.n_max + 1.0)
    kerr = np.exp(-1j * np.multiply.outer(p.chi_bar * n * (n - 1.0), ts))  # (N + n_max, times)
    return np.concatenate([
        _with_kerr(pair, kerr[:, block], np.empty_like(pair))
        for block, _, pair, _ in fock_oracle._propagate(p, ts, cfg)
    ])


def _per_entry_sets(p, ts, cells, cfg):
    """(<B>, <B^2>, <B+ B>, d) of each cell for one parameter set, read out on its Kerr-phased state.

    The reference for `moment_sets`: every moment is contracted on the
    state of `_evolve`, and a mode-2 moment carries exp(2i chi t) per net
    power of a2.
    """
    amp = _evolve(p, ts, cfg)
    bra, norm_sq = amp.conj(), np.sum(np.abs(amp) ** 2, axis=(1, 2))
    carrier = np.exp(2j * p.chi_bar * ts)

    def ex(*powers):
        return carrier ** (powers[3] - powers[2]) * fock_oracle._contract(amp, bra, powers) / norm_sq

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

    def test_power_bound(self):
        st = coherent_state(0.0, 0.0, 4)
        with pytest.raises(ValueError):
            _expect(st, (3, 2, 0, 0))

    def test_deep_cutoff_moments(self):
        # past n = 170, n! is beyond float range; the ladder factors must not
        # go through it.  <a1+^p a1^q a2+^r a2^s> = a1^(p+q) a2^(r+s) here
        a1, a2 = 0.4, 0.3
        st = coherent_state(a1, a2, 200)
        for powers in ((1, 1, 0, 0), (1, 2, 0, 1), (2, 2, 2, 2), (0, 3, 2, 1)):
            want = a1 ** (powers[0] + powers[1]) * a2 ** (powers[2] + powers[3])
            assert _expect(st, powers) == pytest.approx(want, abs=1e-12)


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
            _evolve(p, [4.0], OracleConfig(n_max=12))

    def test_norm_drift_budget_enforced(self, monkeypatch):
        # a non-unitary leak in the spectrum (eigenvectors 1e-8 too long)
        # must trip the default budget; the exact spectrum must not
        p = SystemParams(0.5, 0.1, 0.4, 0.2)
        cfg = OracleConfig(n_max=12)
        _evolve(p, [1.0], cfg)
        spectrum = fock_oracle._spectrum

        def leaky(n_max, k):
            evals, evecs = spectrum(n_max, k)
            return evals, evecs * (1.0 + 1e-8)

        monkeypatch.setattr(fock_oracle, "_spectrum", leaky)
        with pytest.raises(NormDrift):
            _evolve(p, [1.0], cfg)

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

    @pytest.mark.parametrize("n_max", [8, 12])
    @pytest.mark.parametrize("chi, k", [(0.0, 0.1), (0.5, 0.0), (0.25, 0.05), (0.5, 0.1)])
    def test_sector_evolution_matches_dense_propagator(self, monkeypatch, n_max, chi, k):
        # independent of the sector split: exp(-iHt) of the dense generator,
        # diagonalized here; both sides evolve the same truncated generator,
        # so the tail guard is off
        monkeypatch.setattr(fock_oracle, "_TAU_TAIL", 1.0)
        cfg = OracleConfig(n_max=n_max)
        ts = [0.0, 0.4, 1.3, 3.0, 7.5]
        for p in (SystemParams(chi, k, 0.4, 0.3), SystemParams(chi, k, 0.25, 0.4)):
            evals, evecs = np.linalg.eigh(build_hamiltonian(p, n_max))
            psi0 = coherent_state(p.alpha1, p.alpha2, n_max).reshape(-1)
            for t, state in zip(ts, _evolve(p, ts, cfg)):
                dense = evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ psi0))
                assert np.max(np.abs(state.reshape(-1) - dense)) <= 1e-12


class TestMomentSets:
    @pytest.mark.parametrize("kind", list(SqueezeKind))
    def test_time_zero_matches_closed_form(self, kind):
        p = SystemParams(0.5, 0.1, 0.4, 0.4)
        a = moments_for(p, 0.0, kind)
        b = moment_set_numeric(p, 0.0, kind, OracleConfig())
        assert b.mean_b == pytest.approx(a.mean_b, abs=1e-12)
        assert b.mean_b_sq == pytest.approx(a.mean_b_sq, abs=1e-12)
        assert b.mean_bdag_b == pytest.approx(a.mean_bdag_b, abs=1e-12)
        assert b.mean_d == pytest.approx(a.mean_d, abs=1e-12)

    def test_kerr_dip_spot_value(self):
        # the seeded Kerr dip at chi t = pi/2: factor must equal the closed
        # form -4 a^2 exp(2 eps1) = -0.64 e^{-0.64}
        p = SystemParams(0.5, 0.0, 0.4, 0.0)
        m = moment_set_numeric(p, math.pi, SqueezeKind.SINGLE1, OracleConfig())
        assert factors(m)[0] == pytest.approx(-0.64 * math.exp(-0.64), abs=1e-6)

    def test_dressed_mode_mean_matches_closed_form(self):
        cfg = OracleConfig()
        for p in (SystemParams(0.5, 0.1, 0.4, 0.2), SystemParams(0.25, 0.05, 0.2, 0.3)):
            for t in (0.5, 1.7, 3.0):
                a = moments_for(p, t, SqueezeKind.SINGLE1)
                b = moment_set_numeric(p, t, SqueezeKind.SINGLE1, cfg)
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
                ref = moment_set_numeric(p, t, kind, cfg, conv)
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

    def test_each_distinct_moment_contracted_once_per_block(self, monkeypatch):
        # the five kind cells share ten normally ordered moments; a moment and
        # its adjoint (<a1 a2+> of the two-mode <B+ B>) are one contraction
        calls = _count_calls(monkeypatch, fock_oracle, "_contract")
        p = SystemParams(0.5, 0.1, 0.4, 0.3)
        moment_sets(p, np.linspace(0.0, 3.0, fock_oracle._BLOCK + 13), KIND_CELLS)
        powers = [pw for _, _, pw, _ in calls]
        assert len(powers) == 2 * len(set(powers)) == 20

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
        # several seeds of one k, each under four chi, across two blocks of
        # times: every field matches the reference read-out on each entry's
        # Kerr-phased state.  Both sides evolve the same truncated generator,
        # so the tail guard is off
        monkeypatch.setattr(fock_oracle, "_TAU_TAIL", 1.0)
        cfg = OracleConfig(n_max=n_max)
        ts = np.linspace(0.0, 3.0, fock_oracle._BLOCK + 13)
        params = [
            SystemParams(chi, 0.1, a1, a2)
            for a1, a2 in ((0.4, 0.3), (0.2, 0.0), (0.0, 0.35))
            for chi in (0.0, 0.25, 0.5, 2.0)
        ]
        names = [f.name for f in dataclasses.fields(SystemParams)]
        batch = SystemParams(*(np.array([[getattr(p, name)] for p in params]) for name in names))
        sets = moment_sets(batch, ts, KIND_CELLS, cfg)
        for i, p in enumerate(params):
            for m, ref in zip(sets, _per_entry_sets(p, ts, KIND_CELLS, cfg)):
                for field, want in zip(dataclasses.fields(m), ref):
                    assert np.max(np.abs(getattr(m, field.name)[i] - want)) <= 1e-13, (p, field.name)

    def test_large_kerr_phase_matches_the_per_entry_read_out(self):
        # at chi t = 1e4 (neither factor exact) the two read-outs round their
        # Kerr phases apart, the reference's chi N(N - 1) t and the oracle's
        # 2 chi t m; over the few sectors the seed populates that stays below
        # eps chi t (measured 0.05 eps chi t)
        cfg = OracleConfig(n_max=24)
        p = SystemParams(1e4 / 2.9, 0.1, 0.4, 0.3)
        ts = np.array([2.9])
        bound = np.finfo(float).eps * p.chi_bar * ts[0]
        for m, ref in zip(moment_sets(p, ts, KIND_CELLS, cfg), _per_entry_sets(p, ts, KIND_CELLS, cfg)):
            for field, want in zip(dataclasses.fields(m), ref):
                assert np.max(np.abs(getattr(m, field.name) - want)) <= bound, field.name

    def test_interleaved_batch_equals_per_parameter_sets(self, monkeypatch):
        # chi outermost and shuffled: the entries of one (k, alpha1, alpha2)
        # are scattered over the batch, yet each k is diagonalized once and
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
        assert len(eighs) == 3
        for m, cell in zip(sets, zip(*ref)):
            for field in dataclasses.fields(m):
                for row, r in zip(getattr(m, field.name), cell):
                    assert np.array_equal(row, getattr(r, field.name)), field.name

    def test_one_reader_walks_and_contracts(self):
        # the squeezing moments and the motion constants read through one
        # function, the only one that walks `_propagate` or calls `_contract`
        callers = {}
        for node in ast.parse(inspect.getsource(fock_oracle)).body:
            if isinstance(node, ast.FunctionDef):
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
                        callers.setdefault(call.func.id, set()).add(node.name)
        (reader,) = callers["_propagate"]
        assert callers["_contract"] == {reader}
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

    def test_verification_diagonalizes_each_generator_once(self, monkeypatch):
        shapes = []
        eigh = np.linalg.eigh

        def counting_eigh(h):
            shapes.append(h.shape)
            return eigh(h)

        fock_oracle._spectrum.cache_clear()
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        run_verification()
        # one stacked call per (n_max, k) of the grid; the probe and the
        # conservation run reuse the last; every block is one chain |N|,
        # shared by the sectors +N and -N
        dim = OracleConfig().n_max + 1
        assert shapes == [(dim, dim, dim)] * len(GRID_KS)

    def test_verification_builds_one_pair_phase_table_per_k_and_block(self, monkeypatch):
        # the ten seeds of the grid share one table per k and block of times;
        # the conservation run builds its own.  Pair tables are the (nu, j)
        # spectra, Kerr tables the (chi, m) rows
        calls = _count_calls(monkeypatch, fock_oracle, "_phases")
        run_verification()
        dim = OracleConfig().n_max + 1
        pair = [t.size for energy, t in calls if energy.shape == (dim, dim)]
        size = fock_oracle._BLOCK
        blocks = [min(size, GRID_STEPS - lo) for lo in range(0, GRID_STEPS, size)]
        assert pair == blocks * len(GRID_KS) + [16]

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

    def test_frame_energy_check_fails_on_the_wrong_pair_term(self, monkeypatch):
        # without the i^m gauge the chain evolves k(a1 a2 + a1+ a2+) in place
        # of -ik(a1 a2 - a1+ a2+): still unitary and N-conserving, so only
        # the frame energy moves.  A wrong k or chi alone cannot be caught
        # this way: the Kerr and pair terms commute, so <H> stays conserved
        # (and for the same reason neither can a wrong weight between the two
        # terms of the <H> read-out)
        spectrum = fock_oracle._spectrum

        def ungauged(n_max, k):
            evals, evecs = spectrum(n_max, k)
            gauge = np.array([1.0, 1j, -1.0, -1j])[np.arange(n_max + 1) % 4]
            return evals, gauge.conj()[:, None] * evecs

        monkeypatch.setattr(fock_oracle, "_spectrum", ungauged)
        failed = [c.name for c in conservation_checks(OracleConfig()) if not c.passed]
        assert failed == ["frame energy drift"]


class TestConfig:
    def test_cutoff_floor(self):
        with pytest.raises(ValueError):
            OracleConfig(n_max=3)

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
                m = moment_set_numeric(p, t, kind, cfg, DConvention.COMMUTATOR)
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
