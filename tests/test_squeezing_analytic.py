"""Tests of the expanded closed-form factors and their variant arbitration."""

import cmath
import inspect
import math

import numpy as np
import pytest

from kerrdown import (
    AsymmetricAmplitudes,
    DConvention,
    DegenerateDenominator,
    NotAnExtremumTime,
    NumericOverflow,
    QuadratureMoments,
    SqueezeKind,
    SystemParams,
    fock_oracle,
    moments_for,
    quad_core,
    squeezing_analytic,
)
from kerrdown.squeezing_analytic import Variant, factor_sets, single_mode_extremum, single_mode_variants

GRID = [
    SystemParams(chi, k, a1, a2)
    for chi in (0.0, 0.25, 0.5)
    for k in (0.0, 0.1)
    for a1, a2 in ((0.4, 0.0), (0.4, 0.4), (0.2, 0.3))
]
TIMES = np.linspace(0.0, 3.0, 13)


class TestCrossRoute:
    """The expanded forms, V included, must match the moment route at roundoff level."""

    @pytest.mark.parametrize("kind", list(SqueezeKind))
    def test_matches_moment_route(self, kind):
        for p in GRID:
            for t in TIMES:
                m = moments_for(p, float(t), kind)
                if abs(m.mean_d) < 1e-12:
                    continue
                f, g, v = factor_sets(p, float(t), [(kind, DConvention.NUMBER_SUM)])[0]
                f_m, g_m, v_m = quad_core.factors(m)
                assert f == pytest.approx(f_m, abs=1e-12)
                assert g == pytest.approx(g_m, abs=1e-12)
                assert v == pytest.approx(v_m, abs=1e-12)

    @staticmethod
    def _taken(module):
        """(home module, name, object) of each function and class `module` takes from kerrdown."""
        assert not [m for m in vars(module).values()
                    if inspect.ismodule(m) and m.__name__.startswith("kerrdown")]
        return [
            (obj.__module__, name, obj)
            for name, obj in vars(module).items()
            if (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__.startswith("kerrdown.")
            and obj.__module__ != module.__name__
        ]

    def test_routes_stay_independent(self):
        # the analytic route shares only the (p, t) domain gate with the moments route
        taken = self._taken(squeezing_analytic)
        assert {home for home, _, _ in taken} <= {
            "kerrdown.errors", "kerrdown.moments_engine", "kerrdown.quad_core"
        }
        functions = {name for _, name, obj in taken if inspect.isfunction(obj)}
        assert functions == {"_hyperbolic"}
        # the oracle shares only value types and errors with the closed forms
        types = {"SystemParams", "SqueezeKind", "DConvention", "QuadratureMoments"}
        for home, name, _ in self._taken(fock_oracle):
            assert home == "kerrdown.errors" or name in types, (home, name)


class TestSingleModeSpots:
    def test_kerr_dip_seed_only_in_mode1(self):
        # (chi, k) = (0.5, 0), seeds (0.4, 0), t = pi: the dephasing weight is
        # exp(2 eps1) = e^{-0.64}
        p = SystemParams(0.5, 0.0, 0.4, 0.0)
        f, g = factor_sets(p, math.pi, [(SqueezeKind.SINGLE1, DConvention.NUMBER_SUM)])[0][:2]
        assert f == pytest.approx(-0.64 * math.exp(-0.64), abs=1e-14)
        assert f == pytest.approx(-0.337467, abs=1e-6)
        assert g == pytest.approx(0.64, abs=1e-13)

    def test_kerr_dip_unarbitrated_value(self):
        # the circulated single-dephasing form quotes -0.64 e^{-0.32} here
        p = SystemParams(0.5, 0.0, 0.4, 0.0)
        f, _ = single_mode_variants(p, math.pi)[Variant.UNARBITRATED]
        assert f == pytest.approx(-0.64 * math.exp(-0.32), abs=1e-14)
        assert f == pytest.approx(-0.4647, abs=5e-5)

    def test_kerr_dip_equal_seeds(self):
        p = SystemParams(0.5, 0.0, 0.4, 0.4)
        f, _ = factor_sets(p, math.pi, [(SqueezeKind.SINGLE1, DConvention.NUMBER_SUM)])[0][:2]
        assert f == pytest.approx(-0.64 * math.exp(-1.28), abs=1e-14)
        f_u, _ = single_mode_variants(p, math.pi)[Variant.UNARBITRATED]
        assert f_u == pytest.approx(-0.64 * math.exp(-0.64), abs=1e-14)
        assert f_u == pytest.approx(-0.3375, abs=5e-5)

    def test_deeper_dip_for_smaller_second_seed(self):
        # raising the second seed shallows the squeezing dip
        cells = [(SqueezeKind.SINGLE1, DConvention.NUMBER_SUM)]
        shallow = min(factor_sets(SystemParams(0.5, 0.0, 0.4, 0.4), t, cells)[0][0] for t in TIMES)
        deep = min(factor_sets(SystemParams(0.5, 0.0, 0.4, 0.0), t, cells)[0][0] for t in TIMES)
        assert deep < shallow < 0.0

    def test_pure_kerr_reduction(self):
        # (k, alpha2) = (0, 0): compare against the one-mode Kerr moments
        # assembled on the complex route in this test
        alpha, chi = 0.4, 0.5
        p = SystemParams(chi, 0.0, alpha, 0.0)
        for t in (0.3, 1.1, 2.9):
            mean_b = alpha * cmath.exp(alpha**2 * (cmath.exp(-2j * chi * t) - 1))
            mean_b_sq = (
                alpha**2
                * cmath.exp(-2j * chi * t)
                * cmath.exp(alpha**2 * (cmath.exp(-4j * chi * t) - 1))
            )
            m = QuadratureMoments(mean_b, mean_b_sq, alpha**2, 1.0)
            f, g = factor_sets(p, t, [(SqueezeKind.SINGLE1, DConvention.NUMBER_SUM)])[0][:2]
            f_m, g_m, _ = quad_core.factors(m)
            assert f == pytest.approx(f_m, abs=1e-13)
            assert g == pytest.approx(g_m, abs=1e-13)

    def test_no_single_mode_squeezing_from_pure_gain(self):
        # chi = 0 leaves only the amplifier: F = G = 2 sinh^2(kt)
        p = SystemParams(0.0, 0.1, 0.4, 0.4)
        for t in TIMES:
            f, g = factor_sets(p, float(t), [(SqueezeKind.SINGLE1, DConvention.NUMBER_SUM)])[0][:2]
            want = 2.0 * math.sinh(0.1 * t) ** 2
            assert f == pytest.approx(want, abs=1e-10)
            assert g == pytest.approx(want, abs=1e-10)


class TestExtremumReduction:
    def test_matches_full_form_at_odd_quarter_periods(self):
        for k in (0.0, 0.05):
            p = SystemParams(0.5, k, 0.4, 0.4)
            for m in (1, 3, 5):
                t = m * math.pi / 2 / 0.5
                f_full, g_full = factor_sets(p, t, [(SqueezeKind.SINGLE1, DConvention.NUMBER_SUM)])[0][:2]
                f_red, g_red = single_mode_extremum(p, t)
                assert f_red == pytest.approx(f_full, abs=1e-12)
                assert g_red == pytest.approx(g_full, abs=1e-12)

    def test_vacuum(self):
        p = SystemParams(0.5, 0.0, 0.0, 0.0)
        assert single_mode_extremum(p, math.pi) == pytest.approx((0.0, 0.0))

    def test_small_gain_value(self):
        # k = 0.01, t = pi: the circulated form quotes about -0.314
        p = SystemParams(0.5, 0.01, 0.4, 0.4)
        f_u, _ = single_mode_extremum(p, math.pi, variant="unarbitrated")
        want = 2 * math.sinh(0.01 * math.pi) ** 2 - 0.64 * math.exp(
            -0.64 - 0.02 * math.pi
        )
        assert f_u == pytest.approx(want, abs=1e-14)
        assert f_u == pytest.approx(-0.314, abs=1e-3)
        f, _ = single_mode_extremum(p, math.pi)
        assert f == pytest.approx(
            2 * math.sinh(0.01 * math.pi) ** 2
            - 0.64 * math.exp(-1.28 - 0.02 * math.pi),
            abs=1e-14,
        )

    def test_rejects_generic_time(self):
        p = SystemParams(0.5, 0.0, 0.4, 0.4)
        with pytest.raises(NotAnExtremumTime):
            single_mode_extremum(p, 1.0)

    def test_rejects_full_revival_time(self):
        # even multiples of pi/2 rewind the dephasing; the reduction is wrong there
        p = SystemParams(0.5, 0.0, 0.4, 0.4)
        with pytest.raises(NotAnExtremumTime):
            single_mode_extremum(p, 2 * math.pi)
        with pytest.raises(NotAnExtremumTime):
            single_mode_extremum(p, 0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time(self, t):
        # refused before chi*t is rounded to a multiple of pi/2, which cannot take it
        with pytest.raises(NotAnExtremumTime):
            single_mode_extremum(SystemParams(0.5, 0.1, 0.4, 0.4), t)

    def test_rejects_unequal_seeds(self):
        p = SystemParams(0.5, 0.0, 0.4, 0.3)
        with pytest.raises(AsymmetricAmplitudes):
            single_mode_extremum(p, math.pi)


class TestTwoMode:
    def test_head_identity_at_kerr_revivals(self):
        # k = 0, chi t = m pi: the cross terms cancel and the two-mode factors
        # are the single-mode average (everything revives to zero here)
        p = SystemParams(0.5, 0.0, 0.4, 0.2)
        for m in (1, 2, 3):
            t = m * math.pi / 0.5
            f2, g2, _ = factor_sets(p, t, [(SqueezeKind.TWO_MODE, DConvention.NUMBER_SUM)])[0]
            f1a, g1a = factor_sets(p, t, [(SqueezeKind.SINGLE1, DConvention.NUMBER_SUM)])[0][:2]
            f1b, g1b = factor_sets(p.mirrored, t, [(SqueezeKind.SINGLE1, DConvention.NUMBER_SUM)])[0][:2]
            assert f2 == pytest.approx(0.5 * (f1a + f1b), abs=1e-12)
            assert g2 == pytest.approx(0.5 * (g1a + g1b), abs=1e-12)
            assert abs(f2) < 1e-12 and abs(g2) < 1e-12

    def test_pure_gain_squeezes_y_only(self):
        p = SystemParams(0.0, 0.1, 0.4, 0.0)
        for t in TIMES[1:]:
            f, g, _ = factor_sets(p, float(t), [(SqueezeKind.TWO_MODE, DConvention.NUMBER_SUM)])[0]
            assert f == pytest.approx(math.exp(0.2 * t) - 1.0, abs=1e-12)
            assert g == pytest.approx(math.exp(-0.2 * t) - 1.0, abs=1e-12)
            assert g < 0.0 < f


class TestSum:
    def test_kerr_only_is_minimum_uncertainty(self):
        for chi in (0.25, 0.5):
            p = SystemParams(chi, 0.0, 0.4, 0.4)
            for t in TIMES:
                f, g, _ = factor_sets(p, float(t), [(SqueezeKind.SUM, DConvention.NUMBER_SUM)])[0]
                assert abs(f) <= 1e-12
                assert abs(g) <= 1e-12

    def test_pure_gain_y_form(self):
        # chi = 0 reduction: G <n1+n2> = -2 S^2 (a1^2+a2^2+1) - 4 a1 a2 S C
        for a1, a2 in ((0.4, 0.0), (0.3, 0.2)):
            p = SystemParams(0.0, 0.1, a1, a2)
            for t in TIMES[1:]:
                c, s = math.cosh(0.1 * t), math.sinh(0.1 * t)
                b1, b2 = a1 * c + a2 * s, a2 * c + a1 * s
                den = b1 * b1 + b2 * b2 + 2 * s * s
                want_g = -(2 * s * s * (a1**2 + a2**2 + 1) + 4 * a1 * a2 * s * c) / den
                f, g, _ = factor_sets(p, float(t), [(SqueezeKind.SUM, DConvention.NUMBER_SUM)])[0]
                assert g == pytest.approx(want_g, abs=1e-12)
                assert g < 0.0

    def test_pure_gain_squeezing_monotone(self):
        p = SystemParams(0.0, 0.1, 0.4, 0.0)
        gs = [factor_sets(p, float(t), [(SqueezeKind.SUM, DConvention.NUMBER_SUM)])[0][1] for t in TIMES[1:]]
        assert all(b < a for a, b in zip(gs, gs[1:]))

    def test_kerr_alternates_quadratures(self):
        # sign(F - G) follows cos(4 chi t): squeezing hops between quadratures
        p = SystemParams(0.5, 0.1, 0.4, 0.0)
        for t in np.linspace(0.2, 3.0, 29):
            c4 = math.cos(4 * 0.5 * t)
            if abs(c4) < 0.05:
                continue
            f, g, _ = factor_sets(p, float(t), [(SqueezeKind.SUM, DConvention.NUMBER_SUM)])[0]
            assert (f - g) * c4 > 0.0

    def test_degenerate_seed_rejected(self):
        p = SystemParams(0.5, 0.0, 0.0, 0.0)
        with pytest.raises(DegenerateDenominator):
            factor_sets(p, 1.0, [(SqueezeKind.SUM, DConvention.NUMBER_SUM)])[0]

    def test_commutator_convention_never_degenerate(self):
        p = SystemParams(0.5, 0.0, 0.0, 0.0)
        f, g, _ = factor_sets(p, 1.0, [(SqueezeKind.SUM, DConvention.COMMUTATOR)])[0]
        assert f == pytest.approx(0.0, abs=1e-12)
        assert g == pytest.approx(0.0, abs=1e-12)


# (kind, params, t) on each side of the precision guard: the mode's seed
# for the single and two-mode forms, k t for the sum's variance form
_PRECISION = [
    (SqueezeKind.SINGLE1, SystemParams(0.5, 0.0, 300.0, 300.0), 0.0, False),
    (SqueezeKind.SINGLE1, SystemParams(0.5, 0.0, 3000.0, 3000.0), 0.0, True),
    (SqueezeKind.SINGLE2, SystemParams(0.5, 0.0, 30.0, 300.0), 0.0, False),
    (SqueezeKind.SINGLE2, SystemParams(0.5, 0.0, 30.0, 3000.0), 0.0, True),
    (SqueezeKind.TWO_MODE, SystemParams(0.5, 0.0, 300.0, 300.0), 0.0, False),
    (SqueezeKind.TWO_MODE, SystemParams(0.5, 0.0, 3000.0, 3000.0), 0.0, True),
    (SqueezeKind.SUM, SystemParams(0.5, 1.0, 0.4, 0.3), 6.0, False),
    (SqueezeKind.SUM, SystemParams(0.5, 1.0, 0.4, 0.3), 10.0, True),
]


class TestPrecisionGuard:
    """The closed forms refuse where the roundoff of their own cancelled terms
    exceeds quad_core's slack; at these points the moments route's guard, on
    its own moments, falls on the same side."""

    @pytest.mark.parametrize("kind, p, t, refused", _PRECISION)
    def test_each_side_of_the_guard(self, kind, p, t, refused):
        for route in (lambda: factor_sets(p, t, [(kind, DConvention.NUMBER_SUM)])[0],
                      lambda: quad_core.factors(moments_for(p, t, kind))):
            if refused:
                with pytest.raises(NumericOverflow, match="lost its precision"):
                    route()
            else:
                assert np.all(np.isfinite(route()))

    def test_the_sum_never_refuses_a_seed_alone(self):
        # the variance form cancels the mean field before any arithmetic: at
        # k = 0 its terms are 0 whatever the seed, while the moments route
        # cancels moments of 3e24 here
        p = SystemParams(0.5, 0.0, 1e6, 1e6)
        assert factor_sets(p, 1.0, [(SqueezeKind.SUM, DConvention.NUMBER_SUM)])[0] == (0.0, 0.0, 0.0)
        with pytest.raises(NumericOverflow, match="lost its precision"):
            quad_core.factors(moments_for(p, 1.0, SqueezeKind.SUM))

    def test_variants_are_guarded_too(self):
        # the arbitrated terms sit at 0.88 of the guard's threshold here, the
        # single-dephasing ones at 1.14: only a rejected variant's own guard refuses
        p, t = SystemParams(0.5, 0.0, 1100.0, 1100.0), 7.29e-4
        assert np.all(np.isfinite(factor_sets(p, t, [(SqueezeKind.SINGLE1, DConvention.NUMBER_SUM)])[0]))
        with pytest.raises(NumericOverflow, match="lost its precision"):
            single_mode_variants(p, t)


class TestInvariants:
    @pytest.mark.parametrize("kind", list(SqueezeKind))
    def test_lower_bound(self, kind):
        for p in GRID:
            for t in TIMES:
                try:
                    f, g, v = factor_sets(p, float(t), [(kind, DConvention.COMMUTATOR)])[0]
                except DegenerateDenominator:
                    continue
                assert f >= -1.0 - 1e-10
                assert g >= -1.0 - 1e-10
                assert v >= -1.0 - 1e-10

    @pytest.mark.parametrize("kind", [SqueezeKind.SINGLE1, SqueezeKind.SINGLE2,
                                      SqueezeKind.TWO_MODE])
    def test_kerr_periodicity_without_gain(self, kind):
        for chi in (0.25, 0.5):
            p = SystemParams(chi, 0.0, 0.4, 0.2)
            for t in TIMES:
                a = factor_sets(p, float(t), [(kind, DConvention.NUMBER_SUM)])[0]
                b = factor_sets(p, float(t) + math.pi / chi, [(kind, DConvention.NUMBER_SUM)])[0]
                assert a[0] == pytest.approx(b[0], abs=1e-12)
                assert a[1] == pytest.approx(b[1], abs=1e-12)

    def test_kind_validation(self):
        # the kind's value is not a kind
        with pytest.raises(ValueError, match="^unknown kind 'two'$"):
            factor_sets(SystemParams(0.5, 0.1, 0.4, 0.2), 1.0, [("two", DConvention.NUMBER_SUM)])[0]

    def test_variant_validation(self):
        p = SystemParams(0.5, 0.0, 0.4, 0.0)
        with pytest.raises(ValueError):
            single_mode_extremum(p, math.pi, variant="bogus")
