"""Tests of the truncated Fock-space oracle."""

import math

import numpy as np
import pytest

from kerrdown import (
    NormDrift,
    SqueezeKind,
    SystemParams,
    TailOverflow,
    TruncationTooSevere,
    factor_x,
    moments_for,
)
from kerrdown import fock_oracle
from kerrdown.fock_oracle import (
    OracleConfig,
    build_hamiltonian,
    coherent_state,
    evolve_seed,
    expect,
    moment_set_numeric,
    moment_sets,
)
from kerrdown.verify import KIND_CELLS, conservation_checks, run_verification


def _idx(n1, n2, n_max):
    return n1 * (n_max + 1) + n2


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
        assert st.amp[0, 0] == 1.0
        assert np.sum(np.abs(st.amp)) == 1.0

    def test_amplitudes(self):
        st = coherent_state(0.4, 0.0, 10)
        assert st.amp[0, 0] == pytest.approx(math.exp(-0.08), abs=1e-12)
        assert st.amp[1, 0] == pytest.approx(0.4 * math.exp(-0.08), abs=1e-12)

    def test_norm_deficit_tiny_at_default_cutoff(self):
        st = coherent_state(0.4, 0.4, 24)
        assert 1.0 - st.norm_sq() < 1e-12

    def test_truncation_guard(self):
        with pytest.raises(TruncationTooSevere):
            coherent_state(2.0, 0.0, 4, tau_trunc=1e-12)


class TestExpect:
    def test_vacuum_moments_vanish(self):
        st = coherent_state(0.0, 0.0, 8)
        for powers in ((0, 1, 0, 0), (1, 1, 0, 0), (0, 2, 0, 2), (1, 0, 0, 1)):
            assert expect(st, powers) == 0.0

    def test_coherent_mode_number(self):
        st = coherent_state(0.4, 0.0, 20)
        assert expect(st, (1, 1, 0, 0)) == pytest.approx(0.16, abs=1e-12)

    def test_coherent_factorization(self):
        st = coherent_state(0.4, 0.4, 24)
        assert expect(st, (1, 1, 1, 1)) == pytest.approx(0.0256, abs=1e-12)

    def test_general_moment(self):
        st = coherent_state(0.3, 0.2, 20)
        want = 0.3**3 * 0.2  # <a1+ a1^2 a2> on the coherent state
        assert expect(st, (1, 2, 0, 1)) == pytest.approx(want, abs=1e-12)

    def test_power_bound(self):
        st = coherent_state(0.0, 0.0, 4)
        with pytest.raises(ValueError):
            expect(st, (3, 2, 0, 0))


class TestEvolve:
    def test_time_zero_is_identity(self):
        p = SystemParams(0.5, 0.1, 0.4, 0.2)
        st = coherent_state(0.4, 0.2, 16)
        (out,) = evolve_seed(p, [0.0], OracleConfig(n_max=16))
        assert np.allclose(out.amp, st.amp, atol=1e-12)

    def test_two_mode_squeezed_vacuum_photon_number(self):
        p = SystemParams(0.0, 0.1, 0.0, 0.0)
        (out,) = evolve_seed(p, [1.0], OracleConfig(n_max=16))
        assert expect(out, (1, 1, 0, 0)).real == pytest.approx(
            math.sinh(0.1) ** 2, abs=1e-10
        )

    def test_kerr_conserves_mode_numbers(self):
        p = SystemParams(0.5, 0.0, 0.4, 0.4)
        for out in evolve_seed(p, (0.7, 2.5), OracleConfig(n_max=20)):
            assert expect(out, (1, 1, 0, 0)).real == pytest.approx(0.16, abs=1e-10)

    def test_tail_overflow_guards_cutoff(self):
        # kt = 4 wants hundreds of photons; must refuse, not degrade
        p = SystemParams(0.0, 1.0, 0.0, 0.0)
        with pytest.raises(TailOverflow):
            list(evolve_seed(p, [4.0], OracleConfig(n_max=12)))

    def test_norm_drift_budget_enforced(self):
        p = SystemParams(0.5, 0.1, 0.4, 0.2)
        with pytest.raises(NormDrift):
            list(evolve_seed(p, [1.0], OracleConfig(n_max=12, tau_norm=0.0)))

    def test_negative_time_rejected(self):
        p = SystemParams(0.5, 0.1, 0.4, 0.2)
        with pytest.raises(ValueError):
            list(evolve_seed(p, [-1.0], OracleConfig(n_max=8)))


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
        assert factor_x(m) == pytest.approx(-0.64 * math.exp(-0.64), abs=1e-6)

    def test_dressed_mode_mean_matches_closed_form(self):
        cfg = OracleConfig()
        for p in (SystemParams(0.5, 0.1, 0.4, 0.2), SystemParams(0.25, 0.05, 0.2, 0.3)):
            for t in (0.5, 1.7, 3.0):
                a = moments_for(p, t, SqueezeKind.SINGLE1)
                b = moment_set_numeric(p, t, SqueezeKind.SINGLE1, cfg)
                assert b.mean_b == pytest.approx(a.mean_b, abs=1e-6)


class TestStream:
    def test_streamed_sets_match_per_point_sets(self, grid_times):
        # one evolution read for every kind cell, gathered over the time axis,
        # == one evolution per (cell, t)
        cfg = OracleConfig()
        ts = grid_times[::5]
        for p in (SystemParams(0.5, 0.1, 0.4, 0.3), SystemParams(0.25, 0.05, 0.2, 0.0)):
            for (kind, conv), m in zip(KIND_CELLS, moment_sets(p, ts, KIND_CELLS, cfg)):
                for i, t in enumerate(ts.tolist()):
                    ref = moment_set_numeric(p, t, kind, cfg, conv)
                    assert abs(m.mean_b[i] - ref.mean_b) <= 1e-14
                    assert abs(m.mean_b_sq[i] - ref.mean_b_sq) <= 1e-14
                    assert abs(m.mean_bdag_b[i] - ref.mean_bdag_b) <= 1e-14
                    assert abs(m.mean_d[i] - ref.mean_d) <= 1e-14

    def test_verification_diagonalizes_each_generator_once(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(h):
            calls.append(h.shape[0])
            return eigh(h)

        fock_oracle._spectrum.cache_clear()
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        run_verification()
        # 3 chi x 3 k grid generators; the probe and the conservation run reuse one
        assert len(calls) == 9


class TestConservation:
    def test_motion_constants(self):
        checks = conservation_checks(OracleConfig())
        for c in checks:
            assert c.passed, c.render()


class TestConfig:
    def test_cutoff_floor(self):
        with pytest.raises(ValueError):
            OracleConfig(n_max=3)


def test_uncertainty_product_on_oracle_sets():
    # with the true commutator in mean_d, (F+1)(G+1) >= 1 for every kind
    from kerrdown import DConvention, factor_y

    cfg = OracleConfig()
    for p in (SystemParams(0.5, 0.1, 0.4, 0.4), SystemParams(0.25, 0.05, 0.2, 0.3)):
        for kind in SqueezeKind:
            for t in (0.0, 0.9, 2.7):
                m = moment_set_numeric(p, t, kind, cfg, DConvention.COMMUTATOR)
                assert (factor_x(m) + 1.0) * (factor_y(m) + 1.0) >= 1.0 - 1e-10


@pytest.mark.slow
def test_cutoff_convergence(grid_times):
    # doubling the cutoff 24 -> 32 must not move any reported moment by > 1e-8
    kinds = list(SqueezeKind)
    params = [
        SystemParams(chi, k, a1, a2)
        for chi in (0.0, 0.25, 0.5)
        for k in (0.0, 0.05, 0.1)
        for a1, a2 in ((0.4, 0.0), (0.4, 0.4), (0.2, 0.3))
    ]
    worst = 0.0
    for p in params:
        for kind in kinds:
            for t in grid_times[::7]:
                lo = moment_set_numeric(p, float(t), kind, OracleConfig(n_max=24))
                hi = moment_set_numeric(p, float(t), kind, OracleConfig(n_max=32))
                worst = max(
                    worst,
                    abs(lo.mean_b - hi.mean_b),
                    abs(lo.mean_b_sq - hi.mean_b_sq),
                    abs(lo.mean_bdag_b - hi.mean_bdag_b),
                    abs(lo.mean_d - hi.mean_d),
                )
    assert worst <= 1e-8
