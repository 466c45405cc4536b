"""The closed forms along a time axis: an array t against the per-point reference.

Every closed-form function takes t as a float or as a 1-D array through the
same code.  The per-t loops below are the reference: the array results must
equal them within 1e-13 * max(1, |x|), a float t must give scalars, and the
physical bounds must hold over whole time axes of the benchmark's domain.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from kerrdown import (
    DConvention,
    DegenerateDenominator,
    NumericOverflow,
    QuadratureMoments,
    SqueezeKind,
    SystemParams,
    moments_for,
    quad_core,
)
from kerrdown.fock_oracle import moment_sets
from kerrdown.quad_core import EPS_DEN
from kerrdown.squeezing_analytic import Variant, factor_sets, single_mode_extremum, single_mode_variants
from kerrdown.verify import KIND_CELLS

TS = np.linspace(0.0, 12.56, 157)
PARAMS = [
    SystemParams(0.5, 0.1, 0.4, 0.3),
    SystemParams(0.25, 0.0, 0.2, 0.0),
    SystemParams(0.0, 0.05, 0.0, 0.4),
    SystemParams(0.3, 0.05, 0.0, 0.0),
]
FIELDS = ("mean_b", "mean_b_sq", "mean_bdag_b", "mean_d")


def _assert_matches(column, reference):
    reference = np.array(reference)
    assert np.shape(column) == reference.shape
    assert np.all(np.abs(column - reference) <= 1e-13 * np.maximum(1.0, np.abs(reference)))


def _live(p, kind, conv):
    """TS without the points where the cell's commutator expectation is degenerate."""
    return TS[np.abs(moments_for(p, TS, kind, conv).mean_d) > EPS_DEN]


@pytest.mark.parametrize("kind, conv", KIND_CELLS)
def test_moments_and_projections_match_per_point(kind, conv):
    for p in PARAMS:
        ts = _live(p, kind, conv)
        m = moments_for(p, ts, kind, conv)
        ref = [moments_for(p, t, kind, conv) for t in ts.tolist()]
        for name in FIELDS:
            _assert_matches(getattr(m, name), [getattr(r, name) for r in ref])
        for column, reference in zip(quad_core.factors(m), zip(*map(quad_core.factors, ref))):
            _assert_matches(column, reference)


@pytest.mark.parametrize("kind, conv", KIND_CELLS)
def test_analytic_factors_match_per_point(kind, conv):
    for p in PARAMS:
        ts = _live(p, kind, conv)
        for column, reference in zip(factor_sets(p, ts, [(kind, conv)])[0],
                                     zip(*(factor_sets(p, t, [(kind, conv)])[0] for t in ts.tolist()))):
            _assert_matches(column, reference)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("mode1", [lambda p: p, lambda p: p.mirrored], ids=["1", "2"])
def test_single_mode_variants_match_per_point(variant, mode1):
    for p in map(mode1, PARAMS):
        f, g = single_mode_variants(p, TS)[variant]
        ref = [single_mode_variants(p, t)[variant] for t in TS.tolist()]
        _assert_matches(f, [r[0] for r in ref])
        _assert_matches(g, [r[1] for r in ref])


def test_float_time_gives_scalars():
    p = PARAMS[0]
    for kind, conv in KIND_CELLS:
        m = moments_for(p, 1.3, kind, conv)
        for value in [getattr(m, name) for name in FIELDS] + [
            *quad_core.factors(m), *factor_sets(p, 1.3, [(kind, conv)])[0]
        ]:
            assert np.ndim(value) == 0
        mo = moment_sets(p, 1.3, [(kind, conv)])[0]
        assert all(np.ndim(getattr(mo, name)) == 0 for name in FIELDS)


def test_variant_strings_and_members_agree():
    # only the extremum reduction takes a variant
    p = SystemParams(0.5, 0.0, 0.4, 0.4)
    for variant in (Variant.ARBITRATED, Variant.UNARBITRATED):
        assert single_mode_extremum(p, math.pi, variant.value) == single_mode_extremum(p, math.pi, variant)
    with pytest.raises(ValueError):
        single_mode_extremum(SystemParams(0.5, 0.0, 0.4, 0.4), math.pi, variant="sin-theta")


def test_one_degenerate_point_fails_the_whole_axis():
    vacuum = PARAMS[3]
    with pytest.raises(DegenerateDenominator):
        quad_core.factors(moments_for(vacuum, TS, SqueezeKind.SUM))
    with pytest.raises(DegenerateDenominator):
        factor_sets(vacuum, TS, [(SqueezeKind.SUM, DConvention.NUMBER_SUM)])[0]
    # the commutator convention is never degenerate
    m = moments_for(vacuum, TS, SqueezeKind.SUM, DConvention.COMMUTATOR)
    assert np.all(np.isfinite(quad_core.factors(m)))


def test_one_unphysical_point_fails_the_whole_axis():
    n = np.array([0.16, 0.16, 0.01])
    with pytest.raises(ValueError, match="unphysical"):
        QuadratureMoments(np.full(3, 0.4), np.full(3, 0.16), n, 1.0)
    m = QuadratureMoments(np.full(3, 0.4), np.full(3, 0.16), np.full(3, 0.16), 1.0)
    assert m.mean_d.shape == (3,)  # the scalar is broadcast along the axis


@pytest.mark.parametrize("kind, conv", KIND_CELLS)
@pytest.mark.parametrize("t_last, match", [(4.0, None), (8.0, "cosh")])
def test_overflow_on_the_axis_is_typed(kind, conv, t_last, match):
    # only the last point overflows: at kt = 400 the squares of cosh(kt), at
    # kt = 800 cosh(kt) itself
    p = SystemParams(0.5, 100.0, 0.4, 0.3)
    ts = np.array([0.0, 0.01, t_last])
    with pytest.raises(NumericOverflow, match=match):
        moments_for(p, ts, kind, conv)
    with pytest.raises(NumericOverflow, match=match):
        factor_sets(p, ts, [(kind, conv)])[0]


@pytest.mark.parametrize("kind, conv", KIND_CELLS)
def test_kerr_phase_overflow_is_typed(kind, conv):
    # chi t = 1e310 at the last point: every kind raises, none returns nan
    p = SystemParams(1e300, 0.0, 0.4, 0.4)
    ts = np.array([0.0, 1e10])
    with pytest.raises(NumericOverflow, match="Kerr phase"):
        moments_for(p, ts, kind, conv)
    with pytest.raises(NumericOverflow, match="Kerr phase"):
        factor_sets(p, ts, [(kind, conv)])[0]


# the benchmark's closed-form domain, with time axes up to two Kerr periods
_domain = st.builds(
    SystemParams,
    st.floats(0.0, 0.5),
    st.floats(0.0, 0.1),
    st.floats(0.0, 0.4),
    st.floats(0.0, 0.4),
)
_axes = st.lists(st.floats(0.0, 12.56), min_size=1, max_size=40).map(np.array)


@given(p=_domain, ts=_axes, cell=st.sampled_from(KIND_CELLS))
def test_principal_is_below_both_quadratures_on_both_routes(p, ts, cell):
    kind, conv = cell
    m = moments_for(p, ts, kind, conv)
    assume(np.all(np.abs(m.mean_d) > EPS_DEN))  # the seedless sum at t = 0
    f, g, v = quad_core.factors(m)
    fa, ga, va = factor_sets(p, ts, [(kind, conv)])[0]
    assert np.all(v <= np.minimum(f, g) + 1e-10)
    assert np.all(v <= np.minimum(fa, ga) + 1e-10)
    assert np.all(va <= np.minimum(fa, ga))  # without slack, as quad_core's V


# the oracle's truncation-safe part of that domain: kt <= 0.3, as on the verify grid
_oracle_axes = st.lists(st.floats(0.0, 3.0), min_size=1, max_size=40).map(np.array)


@given(p=_domain, ts=_oracle_axes, cell=st.sampled_from(KIND_CELLS))
def test_principal_is_below_both_quadratures_on_the_oracle(p, ts, cell):
    (m,) = moment_sets(p, ts, [cell])
    assume(np.all(np.abs(m.mean_d) > EPS_DEN))  # the seedless sum at t = 0
    f, g, v = quad_core.factors(m)
    assert np.all(v <= np.minimum(f, g) + 1e-10)


# d is the true commutator expectation in these cells, so the quadratures obey
# (F + 1)(G + 1) >= 1 (Hillery, Phys. Rev. A 40, 3147 (1989)); the sum's
# number-sum normalization does not
_COMMUTATOR_CELLS = [
    (SqueezeKind.SINGLE1, DConvention.NUMBER_SUM),
    (SqueezeKind.SINGLE2, DConvention.NUMBER_SUM),
    (SqueezeKind.TWO_MODE, DConvention.NUMBER_SUM),
    (SqueezeKind.SUM, DConvention.COMMUTATOR),
]


@given(p=_domain, ts=_axes, cell=st.sampled_from(_COMMUTATOR_CELLS))
def test_uncertainty_product_on_both_routes(p, ts, cell):
    kind, conv = cell
    m = moments_for(p, ts, kind, conv)
    for f, g in (quad_core.factors(m)[:2], factor_sets(p, ts, [(kind, conv)])[0][:2]):
        assert np.all((f + 1.0) * (g + 1.0) >= 1.0 - 1e-9)
