"""Tests of the generic moment -> squeezing-factor framework."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kerrdown import (
    DegenerateDenominator,
    NumericOverflow,
    QuadratureMoments,
    SqueezeKind,
    SystemParams,
    factor_phase,
    factor_x,
    factor_y,
    moments_for,
    principal,
)

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
        assert factor_x(VACUUM) == 0.0
        assert factor_y(VACUUM) == 0.0
        assert principal(VACUUM) == 0.0

    def test_coherent_cancels(self):
        assert factor_x(COHERENT_04) == pytest.approx(0.0, abs=1e-15)
        assert factor_y(COHERENT_04) == pytest.approx(0.0, abs=1e-15)

    def test_squeezed_vacuum_hand_values(self):
        assert factor_x(SQUEEZED) == pytest.approx(-0.75, abs=1e-15)
        assert factor_y(SQUEEZED) == pytest.approx(3.0, abs=1e-14)
        # equals min(F, G) here since the moments are real
        assert principal(SQUEEZED) == pytest.approx(-0.75, abs=1e-14)

    def test_squeezed_vacuum_against_independent_squeezer(self):
        m = _squeezer_moments(math.log(2.0))
        assert m.mean_b_sq == pytest.approx(-0.9375, abs=1e-10)
        assert m.mean_bdag_b == pytest.approx(0.5625, abs=1e-10)
        assert factor_x(m) == pytest.approx(-0.75, abs=1e-9)
        assert factor_y(m) == pytest.approx(3.0, abs=1e-9)

    def test_phase_quarter_turn(self):
        # e^{-i pi/2} turns <B^2> imaginary: only the isotropic part remains
        assert factor_phase(SQUEEZED, math.pi / 4) == pytest.approx(1.125, abs=1e-14)

    def test_imaginary_mean_coherent(self):
        m = QuadratureMoments(0.3j, -0.09, 0.09, 1.0)
        assert factor_y(m) == pytest.approx(0.0, abs=1e-15)
        assert factor_x(m) == pytest.approx(0.0, abs=1e-15)

    def test_principal_direct_evaluation(self):
        m = QuadratureMoments(0.0, 0.2j, 0.3, 1.0)
        assert principal(m) == pytest.approx(0.2, abs=1e-15)


class TestDefinitionalIdentities:
    def test_phi_zero_is_factor_x(self):
        for m in (VACUUM, COHERENT_04, SQUEEZED):
            assert factor_phase(m, 0.0) == factor_x(m)

    def test_phi_half_pi_is_factor_y(self):
        for m in (VACUUM, COHERENT_04, SQUEEZED):
            assert factor_phase(m, math.pi / 2) == factor_y(m)

    def test_degenerate_denominator(self):
        m = QuadratureMoments(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(DegenerateDenominator):
            factor_x(m)
        with pytest.raises(DegenerateDenominator):
            principal(m)

    def test_coherent_beyond_precision_raises(self):
        # the factors of a coherent state are 0, but the numerators cancel
        # moments of 1e16, whose roundoff alone is of order 1
        m = QuadratureMoments(1e8, 1e16, 1e16, 1.0)
        for factor in (factor_x, factor_y, principal):
            with pytest.raises(NumericOverflow, match="lost its precision"):
                factor(m)


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
    v = principal(m)
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
    assert (factor_x(m) + 1.0) * (factor_y(m) + 1.0) >= 1.0 - 1e-10


@given(p=_params, t=_times, kind=_kinds, psi=st.floats(0.0, 2.0 * math.pi))
def test_principal_phase_covariant(p, t, kind, psi):
    m = _commutator_consistent(p, t, kind)
    rotated = QuadratureMoments(
        mean_b=m.mean_b * complex(math.cos(psi), math.sin(psi)),
        mean_b_sq=m.mean_b_sq * complex(math.cos(2 * psi), math.sin(2 * psi)),
        mean_bdag_b=m.mean_bdag_b,
        mean_d=m.mean_d,
    )
    assert principal(rotated) == pytest.approx(principal(m), abs=1e-12)


@given(p=_params, t=_times, kind=_kinds)
def test_principal_is_envelope(p, t, kind):
    m = _commutator_consistent(p, t, kind)
    v = principal(m)
    assert v <= factor_x(m) + 1e-12
    assert v <= factor_y(m) + 1e-12
