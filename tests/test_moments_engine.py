"""Tests of the closed-form coherent-state moments."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kerrdown import (
    DConvention,
    SqueezeKind,
    SystemParams,
    factors,
    kernel,
    mode_moments,
    moments_for,
    sum_moments,
)
from kerrdown import fock_oracle, moments_engine, quad_core, squeezing_analytic


class TestSystemParams:
    def test_rejects_negative_amplitudes(self):
        with pytest.raises(ValueError):
            SystemParams(0.5, 0.1, -0.1, 0.0)

    def test_rejects_negative_gain(self):
        with pytest.raises(ValueError):
            SystemParams(0.5, -0.1, 0.4, 0.0)

    def test_rejects_complex_amplitudes(self):
        with pytest.raises(TypeError):
            SystemParams(0.5, 0.1, 0.4 + 0.1j, 0.0)

    def test_mirrored_swaps_the_amplitudes(self):
        p = SystemParams(0.5, 0.1, 0.4, 0.2)
        assert p.mirrored == SystemParams(0.5, 0.1, 0.2, 0.4)
        assert p.mirrored.mirrored == p


class TestKernel:
    def test_identity_rotation(self):
        for alpha in (0.0, 0.3, 1.2):
            assert kernel(alpha, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_half_turn(self):
        assert kernel(0.4, math.pi) == pytest.approx(math.exp(-0.32), abs=1e-15)

    def test_quarter_turn(self):
        want = math.exp(-0.16) * complex(math.cos(0.16), math.sin(0.16))
        assert kernel(0.4, math.pi / 2) == pytest.approx(want, abs=1e-15)

    @given(alpha=st.floats(0.0, 1.0), lam=st.floats(0.0, 2 * math.pi))
    def test_against_number_basis_sum(self, alpha, lam):
        # brute-force sum of the Poisson number distribution, 30 terms
        weights = [
            math.exp(-alpha**2) * alpha ** (2 * n) / math.factorial(n)
            for n in range(30)
        ]
        want = sum(w * complex(math.cos(lam * n), math.sin(lam * n))
                   for n, w in enumerate(weights))
        assert kernel(alpha, lam) == pytest.approx(want, abs=1e-12)

    @given(alpha=st.floats(0.0, 1.5), lam=st.floats(-10.0, 10.0))
    def test_magnitude_bounded(self, alpha, lam):
        assert abs(kernel(alpha, lam)) <= 1.0 + 1e-15


class TestCoherentStart:
    """At t = 0 every kind reduces to bare coherent-state moments."""

    def test_single_mode(self):
        p = SystemParams(0.5, 0.1, 0.4, 0.2)
        for mode1, a in ((p, 0.4), (p.mirrored, 0.2)):
            m = mode_moments(mode1, 0.0)
            assert m.mean_b == pytest.approx(a, abs=1e-15)
            assert m.mean_b_sq == pytest.approx(a**2, abs=1e-15)
            assert m.mean_bdag_b == pytest.approx(a**2, abs=1e-15)
            assert m.mean_d == 1.0

    def test_pair(self):
        p = SystemParams(0.5, 0.1, 0.4, 0.2)
        m = moments_for(p, 0.0, SqueezeKind.TWO_MODE)
        assert m.mean_b == pytest.approx(0.6, abs=1e-15)
        assert m.mean_b_sq == pytest.approx(0.36, abs=1e-15)
        assert m.mean_bdag_b == pytest.approx(0.36, abs=1e-15)
        assert m.mean_d == 2.0
        assert factors(m)[0] == pytest.approx(0.0, abs=1e-14)

    def test_sum(self):
        p = SystemParams(0.5, 0.1, 0.4, 0.4)
        m = sum_moments(p, 0.0)
        assert m.mean_b == pytest.approx(0.16, abs=1e-15)
        assert m.mean_b_sq == pytest.approx(0.0256, abs=1e-15)
        assert m.mean_bdag_b == pytest.approx(0.0256, abs=1e-15)
        assert m.mean_d == pytest.approx(0.32, abs=1e-15)
        assert factors(m)[0] == pytest.approx(0.0, abs=1e-14)


class TestPureDownConversion:
    """chi = 0 collapses everything to the hyperbolic mode mixing."""

    def test_mode_mean(self):
        p = SystemParams(0.0, 0.1, 0.4, 0.2)
        for t in (0.5, 2.0):
            c, s = math.cosh(0.1 * t), math.sinh(0.1 * t)
            assert mode_moments(p, t).mean_b == pytest.approx(0.4 * c + 0.2 * s, abs=1e-14)
            assert mode_moments(p.mirrored, t).mean_b == pytest.approx(
                0.2 * c + 0.4 * s, abs=1e-14
            )

    def test_single_mode_factors_flat(self):
        p = SystemParams(0.0, 0.1, 0.4, 0.2)
        for t in (0.5, 2.0):
            want = 2.0 * math.sinh(0.1 * t) ** 2
            for m in (mode_moments(p, t), mode_moments(p.mirrored, t)):
                f, g, _ = factors(m)
                assert f == pytest.approx(want, abs=1e-12)
                assert g == pytest.approx(want, abs=1e-12)

    def test_two_mode_textbook_factors(self):
        # the standard two-mode squeezer: F = e^{2kt} - 1, G = e^{-2kt} - 1,
        # independent of the seed amplitudes
        for a1, a2 in ((0.4, 0.0), (0.3, 0.2)):
            p = SystemParams(0.0, 0.1, a1, a2)
            for t in (0.7, 3.0):
                f, g, _ = factors(moments_for(p, t, SqueezeKind.TWO_MODE))
                assert f == pytest.approx(math.exp(0.2 * t) - 1, abs=1e-12)
                assert g == pytest.approx(math.exp(-0.2 * t) - 1, abs=1e-12)

    def test_sum_y_quadrature_form(self):
        # chi = 0: G * <n1+n2> = -2 S^2 (a1^2 + a2^2 + 1) - 4 a1 a2 S C
        p = SystemParams(0.0, 0.1, 0.4, 0.0)
        for t in (0.5, 1.5, 3.0):
            c, s = math.cosh(0.1 * t), math.sinh(0.1 * t)
            m = sum_moments(p, t)
            want = -(2 * s * s * (0.16 + 1.0)) / m.mean_d
            assert factors(m)[1] == pytest.approx(want, abs=1e-12)


class TestStructure:
    def test_photon_number_closed_form(self):
        # <B+B> of a single mode is chi-independent: a^2 C^2 + 2 a1 a2 CS + S^2(other^2+1)
        for chi in (0.0, 0.5):
            p = SystemParams(chi, 0.1, 0.4, 0.2)
            for t in (0.9, 2.4):
                c, s = math.cosh(0.1 * t), math.sinh(0.1 * t)
                m = mode_moments(p, t)
                want = 0.16 * c * c + 2 * 0.4 * 0.2 * c * s + s * s * (0.04 + 1)
                assert m.mean_bdag_b == pytest.approx(want, abs=1e-14)

    def test_kind_must_be_a_squeeze_kind(self):
        # the kind's value is not a kind
        with pytest.raises(ValueError, match="^unknown kind 'single1'$"):
            moments_for(SystemParams(0.5, 0.1, 0.4, 0.2), 1.3, "single1")

    def test_sum_conventions_differ_by_one(self):
        p = SystemParams(0.5, 0.1, 0.4, 0.2)
        a = moments_for(p, 1.3, SqueezeKind.SUM, DConvention.NUMBER_SUM)
        b = moments_for(p, 1.3, SqueezeKind.SUM, DConvention.COMMUTATOR)
        assert b.mean_d - a.mean_d == pytest.approx(1.0, abs=1e-15)
        assert b.mean_b == a.mean_b

    @pytest.mark.parametrize("route", ["analytic", "moments", "oracle"])
    def test_sum_convention_is_read_as_a_dconvention(self, route):
        # a string is the convention of its value on every route: "paper" is the number sum,
        # not the commutator reading, and any other value is refused
        p = SystemParams(0.5, 0.1, 0.4, 0.3)

        def sum_f(conv):
            if route == "analytic":
                return squeezing_analytic.factor_sets(p, 1.0, [(SqueezeKind.SUM, conv)])[0][0]
            if route == "moments":
                return quad_core.factors(moments_for(p, 1.0, SqueezeKind.SUM, conv))[0]
            return quad_core.factors(fock_oracle.moment_sets(p, 1.0, [(SqueezeKind.SUM, conv)])[0])[0]

        assert sum_f("paper") == sum_f(DConvention.NUMBER_SUM) == pytest.approx(-0.08310, abs=1e-5)
        assert sum_f("commutator") == sum_f(DConvention.COMMUTATOR) == pytest.approx(-0.02031, abs=1e-5)
        with pytest.raises(ValueError, match="^'bogus' is not a valid DConvention$"):
            sum_f("bogus")

    @pytest.mark.parametrize("route", ["analytic", "moments", "oracle"])
    def test_a_bad_convention_is_refused_before_any_work(self, monkeypatch, route):
        # every cell's convention is read before the first term is formed, whatever its kind
        # and wherever it stands; the closed forms start at their (p, t) gate, the oracle at its seed
        started = []
        for module, name in (
            (squeezing_analytic, "_hyperbolic"), (moments_engine, "_hyperbolic"), (fock_oracle, "coherent_state"),
        ):
            def record(*args, _fn=getattr(module, name)):
                started.append(args)
                return _fn(*args)

            monkeypatch.setattr(module, name, record)
        cell_sets = {
            "analytic": squeezing_analytic.factor_sets,
            "moments": moments_engine.moment_sets,
            "oracle": fock_oracle.moment_sets,
        }[route]
        p, paper = SystemParams(0.5, 0.1, 0.4, 0.3), DConvention.NUMBER_SUM
        for cells in ([(SqueezeKind.SINGLE1, "bogus")], [(SqueezeKind.SUM, "bogus")],
                      [(SqueezeKind.TWO_MODE, paper), (SqueezeKind.SUM, "bogus")]):
            with pytest.raises(ValueError, match="^'bogus' is not a valid DConvention$"):
                cell_sets(p, 0.5, cells)
        with pytest.raises(ValueError, match="^unknown kind 'sum'$"):
            cell_sets(p, 0.5, [(SqueezeKind.SINGLE1, paper), ("sum", paper)])
        assert started == []
        cell_sets(p, 0.5, [(SqueezeKind.SUM, "paper")])
        assert started  # the recorders see the work that does start

    def test_one_cell_entry_points_read_the_convention_of_every_kind(self):
        p = SystemParams(0.5, 0.1, 0.4, 0.3)
        with pytest.raises(ValueError, match="^'bogus' is not a valid DConvention$"):
            moments_for(p, 0.5, SqueezeKind.SINGLE1, "bogus")
        with pytest.raises(ValueError, match="^'bogus' is not a valid DConvention$"):
            squeezing_analytic.factor_sets(p, 0.5, [(SqueezeKind.SINGLE1, "bogus")])[0]

    def test_sum_kerr_free_magnitudes(self):
        # Kerr phases cancel in every N-commuting product: only the carrier
        # rotation distinguishes chi from 0
        p0 = SystemParams(0.0, 0.1, 0.4, 0.2)
        p1 = SystemParams(0.5, 0.1, 0.4, 0.2)
        for t in (0.8, 2.2):
            m0, m1 = sum_moments(p0, t), sum_moments(p1, t)
            assert abs(m1.mean_b) == pytest.approx(abs(m0.mean_b), abs=1e-14)
            assert abs(m1.mean_b_sq) == pytest.approx(abs(m0.mean_b_sq), abs=1e-14)
            assert m1.mean_bdag_b == pytest.approx(m0.mean_bdag_b, abs=1e-14)
            assert m1.mean_d == pytest.approx(m0.mean_d, abs=1e-14)


@given(
    chi=st.sampled_from([0.25, 0.5]),
    a1=st.floats(0.0, 0.5),
    a2=st.floats(0.0, 0.5),
    t=st.floats(0.0, 3.0),
    kind=st.sampled_from(list(SqueezeKind)),
)
def test_kerr_periodicity_without_gain(chi, a1, a2, t, kind):
    # k = 0: every moment is periodic with period pi/chi
    p = SystemParams(chi, 0.0, a1, a2)
    m1 = moments_for(p, t, kind)
    m2 = moments_for(p, t + math.pi / chi, kind)
    assert m1.mean_b == pytest.approx(m2.mean_b, abs=1e-12)
    assert m1.mean_b_sq == pytest.approx(m2.mean_b_sq, abs=1e-12)
    assert m1.mean_bdag_b == pytest.approx(m2.mean_bdag_b, abs=1e-12)
    assert m1.mean_d == pytest.approx(m2.mean_d, abs=1e-12)


def test_agrees_with_fock_oracle_sample(grid_times):
    # the full grid runs in the acceptance suite; here a spot sample per kind
    cfg = fock_oracle.OracleConfig()
    p = SystemParams(0.5, 0.1, 0.4, 0.4)
    for kind in SqueezeKind:
        for t in grid_times[::16]:
            a = moments_for(p, float(t), kind)
            b = fock_oracle.moment_sets(p, float(t), [(kind, DConvention.NUMBER_SUM)], cfg)[0]
            assert a.mean_b == pytest.approx(b.mean_b, abs=1e-6)
            assert a.mean_b_sq == pytest.approx(b.mean_b_sq, abs=1e-6)
            assert a.mean_bdag_b == pytest.approx(b.mean_bdag_b, abs=1e-6)
            assert a.mean_d == pytest.approx(b.mean_d, abs=1e-6)
