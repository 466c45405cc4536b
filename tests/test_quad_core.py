"""Tests of the generic moment -> squeezing-factor framework."""

import cmath
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kerrdown import (
    DConvention,
    DegenerateDenominator,
    NumericOverflow,
    QuadratureMoments,
    SqueezeKind,
    SystemParams,
    cli,
    factor_phase,
    factors,
    moments_for,
    quad_core,
    squeezing_analytic,
    verify,
)
from kerrdown.fock_oracle import moment_sets

VACUUM = QuadratureMoments(0.0, 0.0, 0.0, 1.0)
COHERENT_04 = QuadratureMoments(0.4, 0.16, 0.16, 1.0)
# degenerate-amplifier squeezed vacuum at kt = ln 2: C = 1.25, S = 0.75,
# <B^2> = -CS, <B+B> = S^2
SQUEEZED = QuadratureMoments(0.0, -0.9375, 0.5625, 1.0)


def _squeezer_moments(kt, n_max=80):
    """Independent oracle: evolve vacuum under the one-mode squeezer i k (a^2 - a+^2)/2."""
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)
    h = 0.5j * (a @ a - a.T @ a.T)  # k = 1; time carries kt
    evals, evecs = np.linalg.eigh(h)
    psi0 = np.zeros(n_max + 1, dtype=complex)
    psi0[0] = 1.0
    psi = evecs @ (np.exp(-1j * evals * kt) * (evecs.conj().T @ psi0))

    def ev(op):
        return complex(psi.conj() @ (op @ psi))

    return QuadratureMoments(
        mean_b=ev(a),
        mean_b_sq=ev(a @ a),
        mean_bdag_b=ev(a.T @ a).real,
        mean_d=1.0,
    )


class TestFactorValues:
    def test_vacuum_is_flat(self):
        assert factors(VACUUM) == (0.0, 0.0, 0.0)

    def test_coherent_cancels(self):
        f, g, _ = factors(COHERENT_04)
        assert f == pytest.approx(0.0, abs=1e-15)
        assert g == pytest.approx(0.0, abs=1e-15)

    def test_squeezed_vacuum_hand_values(self):
        f, g, v = factors(SQUEEZED)
        assert f == pytest.approx(-0.75, abs=1e-15)
        assert g == pytest.approx(3.0, abs=1e-14)
        # equals min(F, G) here since the moments are real
        assert v == pytest.approx(-0.75, abs=1e-14)

    def test_squeezed_vacuum_against_independent_squeezer(self):
        m = _squeezer_moments(math.log(2.0))
        assert m.mean_b_sq == pytest.approx(-0.9375, abs=1e-10)
        assert m.mean_bdag_b == pytest.approx(0.5625, abs=1e-10)
        f, g, _ = factors(m)
        assert f == pytest.approx(-0.75, abs=1e-9)
        assert g == pytest.approx(3.0, abs=1e-9)

    def test_phase_quarter_turn(self):
        # e^{-i pi/2} turns <B^2> imaginary: only the isotropic part remains
        assert factor_phase(SQUEEZED, math.pi / 4) == pytest.approx(1.125, abs=1e-14)

    def test_imaginary_mean_coherent(self):
        m = QuadratureMoments(0.3j, -0.09, 0.09, 1.0)
        f, g, _ = factors(m)
        assert g == pytest.approx(0.0, abs=1e-15)
        assert f == pytest.approx(0.0, abs=1e-15)

    def test_principal_direct_evaluation(self):
        m = QuadratureMoments(0.0, 0.2j, 0.3, 1.0)
        assert factors(m)[2] == pytest.approx(0.2, abs=1e-15)


class TestDefinitionalIdentities:
    def test_phi_zero_is_factor_x(self):
        for m in (VACUUM, COHERENT_04, SQUEEZED):
            assert factor_phase(m, 0.0) == factors(m)[0]

    def test_phi_half_pi_is_factor_y(self):
        for m in (VACUUM, COHERENT_04, SQUEEZED):
            assert factor_phase(m, math.pi / 2) == factors(m)[1]

    @given(phi=st.floats(-1e300, 1e300))
    @example(phi=0.0)
    @example(phi=-0.0)
    @example(phi=math.pi / 2)
    @example(phi=1e3)
    def test_rotation_is_the_complex_exponential_bit_for_bit(self, phi):
        for m in (VACUUM, COHERENT_04, SQUEEZED):
            u, w, d_abs = quad_core._variances(m)
            expected = (u + 2.0 * (w * cmath.exp(-2j * phi)).real) / d_abs
            assert np.float64(factor_phase(m, phi)).tobytes() == np.float64(expected).tobytes()

    def test_degenerate_denominator(self):
        m = QuadratureMoments(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(DegenerateDenominator):
            factor_phase(m, 0.0)
        with pytest.raises(DegenerateDenominator):
            factors(m)

    def test_coherent_beyond_precision_raises(self):
        # the factors of a coherent state are 0, but the numerators cancel
        # moments of 1e16, whose roundoff alone is of order 1
        m = QuadratureMoments(1e8, 1e16, 1e16, 1.0)
        with pytest.raises(NumericOverflow, match="lost its precision"):
            factors(m)
        with pytest.raises(NumericOverflow, match="lost its precision"):
            factor_phase(m, 0.0)


class TestMomentValidation:
    def test_negative_number_rejected(self):
        with pytest.raises(ValueError):
            QuadratureMoments(0.0, 0.0, -1e-3, 1.0)

    def test_cauchy_schwarz_rejected(self):
        with pytest.raises(ValueError):
            QuadratureMoments(1.0, 0.0, 0.5, 1.0)

    def test_second_moment_bound_rejected(self):
        with pytest.raises(ValueError):
            QuadratureMoments(0.0, 5.0, 1.0, 1.0)

    @pytest.mark.parametrize("field", ["mean_bdag_b", "mean_d"])
    def test_imaginary_part_of_a_real_field_rejected(self, field):
        # refused, not dropped: <B+ B> and d are real by contract
        values = {"mean_b": 0.0, "mean_b_sq": 0.0, "mean_bdag_b": 0.5, "mean_d": 1.0}
        values[field] += 1e-3j
        with pytest.raises(TypeError, match=f"^{field} must be real"):
            QuadratureMoments(**values)

    def test_unphysical_beyond_roundoff_rejected(self):
        # large moments widen the slack only by their own roundoff, eps * 1.5e8
        with pytest.raises(ValueError, match="unphysical"):
            QuadratureMoments(1e4, 0.0, 0.5e8, 1.0)


@pytest.mark.parametrize("conv", list(DConvention))
def test_large_sum_set_within_its_roundoff_is_accepted(conv):
    # at alpha = 50, <B+ B> = |<B>|^2 = 6.25e6 at t = 0 and the closed forms
    # miss Cauchy-Schwarz by 2 ulp there
    p, ts = SystemParams(0.25, 0.0, 50.0, 50.0), np.linspace(0.0, 3.0, 301)
    m = moments_for(p, ts, SqueezeKind.SUM, conv)
    for analytic, projected in zip(squeezing_analytic.factors(p, ts, SqueezeKind.SUM, conv), factors(m)):
        assert np.max(np.abs(projected - analytic)) <= 1e-10


def test_principal_is_exactly_the_envelope_on_the_verify_grid():
    # V and F_phi share u and w, so V <= F, G holds without any slack
    ts, params = verify.grid_times(), verify.grid_params()
    grid = SystemParams(
        *(np.array([getattr(p, f.name) for p in params])[:, None] for f in fields(SystemParams))
    )
    oracle = moment_sets(grid, ts, verify.KIND_CELLS)
    for (kind, conv), mo in zip(verify.KIND_CELLS, oracle):
        for m in (moments_for(grid, ts, kind, conv), mo):
            f, g, v = factors(m)
            assert np.all(v <= f)
            assert np.all(v <= g)


def _count_variances(monkeypatch):
    calls = []
    variances = quad_core._variances
    monkeypatch.setattr(quad_core, "_variances", lambda m: calls.append(m) or variances(m))
    return calls


def test_verification_reads_each_variance_pair_once(monkeypatch):
    # one factors call per route and kind cell: 2 x 5
    calls = _count_variances(monkeypatch)
    verify.run_verification()
    assert len(calls) == 10


@pytest.mark.parametrize("engine", ["analytic", "moments", "oracle"])
def test_sweep_reads_its_variance_pair_once(monkeypatch, engine):
    # the analytic engine reads F, G and V from its own closed forms: no variance pair
    calls = _count_variances(monkeypatch)
    req = cli.SweepRequest(SqueezeKind.TWO_MODE, engine, SystemParams(0.5, 0.1, 0.4, 0.3), 3.0, 150)
    cli.run_sweep(req)
    assert len(calls) == (0 if engine == "analytic" else 1)


# strategy: physically valid moment sets, generated by the closed-form engine
_params = st.builds(
    SystemParams,
    st.sampled_from([0.0, 0.1, 0.25, 0.5]),
    st.sampled_from([0.0, 0.05, 0.1]),
    st.floats(0.0, 0.5),
    st.floats(0.0, 0.5),
)
_kinds = st.sampled_from(list(SqueezeKind))
_times = st.floats(0.0, 3.0)


def _commutator_consistent(p, t, kind):
    from kerrdown import DConvention

    return moments_for(p, t, kind, DConvention.COMMUTATOR)


@given(p=_params, t=_times, kind=_kinds)
def test_principal_lower_bounds_phase_grid(p, t, kind):
    m = _commutator_consistent(p, t, kind)
    v = factors(m)[2]
    phis = np.linspace(0.0, 2.0 * np.pi, 3600, endpoint=False)
    rot = np.exp(-1j * phis)
    curve = (
        2.0 * (m.mean_b_sq * rot * rot).real
        + 2.0 * m.mean_bdag_b
        + m.mean_d
        - abs(m.mean_d)
        - 4.0 * (m.mean_b * rot).real ** 2
    ) / abs(m.mean_d)
    # pointwise envelope, and the grid minimum only misses by O(grid step^2)
    assert np.all(v <= curve + 1e-10)
    step_sq = (2.0 * np.pi / 3600) ** 2
    scale = max(1.0, 8.0 * abs(m.mean_b_sq - m.mean_b**2) / abs(m.mean_d))
    assert curve.min() - v <= step_sq * scale + 1e-10


@given(p=_params, t=_times, kind=_kinds, phi=st.floats(0.0, 2.0 * math.pi))
def test_phase_factor_pi_periodic(p, t, kind, phi):
    m = _commutator_consistent(p, t, kind)
    assert factor_phase(m, phi) == pytest.approx(
        factor_phase(m, phi + math.pi), abs=1e-14
    )


@given(p=_params, t=_times, kind=_kinds)
def test_uncertainty_product(p, t, kind):
    # with the true commutator expectation in mean_d the quadrature pair obeys
    # (F+1)(G+1) >= 1
    m = _commutator_consistent(p, t, kind)
    f, g, _ = factors(m)
    assert (f + 1.0) * (g + 1.0) >= 1.0 - 1e-10


@given(p=_params, t=_times, kind=_kinds, psi=st.floats(0.0, 2.0 * math.pi))
def test_principal_phase_covariant(p, t, kind, psi):
    m = _commutator_consistent(p, t, kind)
    rotated = QuadratureMoments(
        mean_b=m.mean_b * complex(math.cos(psi), math.sin(psi)),
        mean_b_sq=m.mean_b_sq * complex(math.cos(2 * psi), math.sin(2 * psi)),
        mean_bdag_b=m.mean_bdag_b,
        mean_d=m.mean_d,
    )
    assert factors(rotated)[2] == pytest.approx(factors(m)[2], abs=1e-12)


@given(p=_params, t=_times, kind=_kinds)
def test_principal_is_envelope(p, t, kind):
    m = _commutator_consistent(p, t, kind)
    f, g, v = factors(m)
    assert v <= f + 1e-12
    assert v <= g + 1e-12
