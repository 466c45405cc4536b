"""Batched parameter sets: a batch of SystemParams against one parameter set at a time.

The closed forms broadcast a batch's fields against t through the same code
as one parameter set, and the oracle groups the entries of a column batch
(P, 1) by (k, alpha1, alpha2), evolves each group's pair term once and gives
each entry its chi as a sector phase, in the same arithmetic as a lone entry,
so every batched result must equal the per-parameter ones bit for bit.
`_per_parameter_verification` is the grid walked one parameter set at a time,
as `verify` did before it batched the routes; the batched report must
reproduce its check values and skipped cells exactly.
"""

import math
from collections import defaultdict
from dataclasses import fields

import numpy as np
import pytest

from kerrdown import QuadratureMoments, SystemParams, moments_for
from kerrdown import fock_oracle, moments_engine, quad_core, squeezing_analytic, verify
from kerrdown.fock_oracle import OracleConfig
from kerrdown.moments_engine import DConvention, SqueezeKind
from kerrdown.quad_core import EPS_DEN
from kerrdown.squeezing_analytic import Variant, factors, single_mode_fg
from kerrdown.verify import KIND_CELLS

PARAMS = verify.grid_params() + [SystemParams(0.5, 0.1, 0.0, 0.0)]  # with verify's probe
TS = verify.grid_times()
# one row per parameter set, broadcast against TS to (params, times)
BATCH = SystemParams(
    *(np.array([getattr(p, f.name) for p in PARAMS])[:, None] for f in fields(SystemParams))
)
SHAPE = (len(PARAMS), TS.size)
# the same parameter sets as one pointwise batch (P,), which the oracle refuses
POINTWISE = SystemParams(*(getattr(BATCH, f.name).ravel() for f in fields(SystemParams)))


def _assert_rows_equal(batched, per_parameter):
    """The batched value, broadcast to (params, times), row by row against per-parameter values."""
    batched = np.broadcast_to(batched, SHAPE)
    for row, value in zip(batched, per_parameter):
        assert np.array_equal(row, np.broadcast_to(value, TS.shape))


@pytest.mark.parametrize("kind, conv", KIND_CELLS)
def test_moments_for(kind, conv):
    m = moments_for(BATCH, TS, kind, conv)
    ref = [moments_for(p, TS, kind, conv) for p in PARAMS]
    for f in fields(m):
        _assert_rows_equal(getattr(m, f.name), [getattr(r, f.name) for r in ref])


def test_moment_sets():
    sets = fock_oracle.moment_sets(BATCH, TS, KIND_CELLS)
    ref = [fock_oracle.moment_sets(p, TS, KIND_CELLS) for p in PARAMS]
    for m, cell in zip(sets, zip(*ref)):
        assert m.mean_b.shape == SHAPE
        for f in fields(m):
            _assert_rows_equal(getattr(m, f.name), [getattr(r, f.name) for r in cell])


@pytest.mark.parametrize("kind, conv", KIND_CELLS)
def test_factors_on_the_kept_points(kind, conv):
    keep = [np.abs(moments_for(p, TS, kind, conv).mean_d) > EPS_DEN for p in PARAMS]
    mask = np.array(keep)  # (params, times), verify's layout
    # only the sum's number-sum cell has a degenerate point: the probe at t = 0
    assert mask.all() == ((kind, conv) != (SqueezeKind.SUM, DConvention.NUMBER_SUM))
    kept = SystemParams(
        *(np.broadcast_to(getattr(BATCH, f.name), SHAPE)[mask] for f in fields(BATCH))
    )
    batched = factors(kept, np.broadcast_to(TS, SHAPE)[mask], kind, conv)
    ref = [factors(p, TS[ok], kind, conv) for p, ok in zip(PARAMS, keep)]
    for i, column in enumerate(batched):  # f, g and v
        assert np.array_equal(column, np.concatenate([r[i] for r in ref]))


@pytest.mark.parametrize("variant", list(Variant))
def test_single_mode_fg(variant):
    for mode1, rows in ((BATCH, PARAMS), (BATCH.mirrored, [p.mirrored for p in PARAMS])):
        f, g = single_mode_fg(mode1, TS, variant)
        ref = [single_mode_fg(p, TS, variant) for p in rows]
        _assert_rows_equal(f, [r[0] for r in ref])
        _assert_rows_equal(g, [r[1] for r in ref])


def test_two_mode_factors():
    batched = factors(BATCH, TS, SqueezeKind.TWO_MODE)
    ref = [factors(p, TS, SqueezeKind.TWO_MODE) for p in PARAMS]
    for i, column in enumerate(batched):  # f, g and v
        _assert_rows_equal(column, [r[i] for r in ref])


def test_mirrored_batch():
    mirrored = BATCH.mirrored
    assert mirrored is BATCH.mirrored  # built and validated once
    assert np.array_equal(mirrored.alpha1, BATCH.alpha2)
    assert np.array_equal(mirrored.alpha2, BATCH.alpha1)
    assert np.array_equal(mirrored.chi_bar, BATCH.chi_bar)
    assert mirrored.shape == BATCH.shape == (len(PARAMS), 1)
    m = moments_engine.mode_moments(mirrored, TS)
    ref = [moments_engine.mode_moments(p.mirrored, TS) for p in PARAMS]
    for f in fields(m):
        _assert_rows_equal(getattr(m, f.name), [getattr(r, f.name) for r in ref])


# -- the verification grid, one parameter set at a time ----------------------


def _reference_deviations(p, ts, kind, conv, mm, mo) -> dict:
    fm, gm, vm = quad_core.factors(mm)
    fa, ga, va = factors(p, ts, kind, conv)
    fo, go, vo = quad_core.factors(mo)
    dev = {
        "analytic-moments": np.maximum.reduce([abs(fa - fm), abs(ga - gm), abs(va - vm)]),
        "analytic-oracle": np.maximum.reduce([abs(fa - fo), abs(ga - go), abs(va - vo)]),
        "moments-oracle": np.maximum.reduce([abs(fm - fo), abs(gm - go), abs(vm - vo)]),
        "envelope": np.maximum.reduce(
            [vm - np.minimum(fm, gm), vo - np.minimum(fo, go), va - np.minimum(fa, ga)]
        ),
    }
    if kind in (SqueezeKind.SINGLE1, SqueezeKind.SINGLE2):
        mode1 = p if kind is SqueezeKind.SINGLE1 else p.mirrored
        for variant in Variant:  # every variant evaluated here, the arbitrated one too
            fv, gv = single_mode_fg(mode1, ts, variant)
            dev[variant] = np.maximum(abs(fv - fo), abs(gv - go))
    return {name: float(np.max(d)) for name, d in dev.items()}


def _per_parameter_verification(cfg=OracleConfig()):
    """(largest deviation of each check, skipped-cell lines) of the grid, per parameter set."""
    skipped = []
    worst = defaultdict(float)
    for p in PARAMS:
        oracle = fock_oracle.moment_sets(p, TS, KIND_CELLS, cfg)
        for (kind, conv), mo in zip(KIND_CELLS, oracle):
            mm = moments_for(p, TS, kind, conv)
            d_abs = np.minimum(abs(mm.mean_d), abs(mo.mean_d))
            keep = d_abs > EPS_DEN
            if not keep.all():
                skipped.append(
                    f"kind={kind.value} d={conv.value} chi={p.chi_bar} k={p.k} "
                    f"alpha=({p.alpha1},{p.alpha2}): DegenerateDenominator: "
                    f"|<D>| = {d_abs[~keep][0]} <= {EPS_DEN}; squeezing factor undefined"
                )
                mm, mo = (
                    QuadratureMoments(*(getattr(m, f.name)[keep] for f in fields(m)))
                    for m in (mm, mo)
                )
            for name, value in _reference_deviations(p, TS[keep], kind, conv, mm, mo).items():
                worst[name] = max(worst[name], value)
    return worst, skipped


def test_batched_verification_equals_the_per_parameter_reference():
    report = verify.run_verification()
    worst, skipped = _per_parameter_verification()
    order = ["analytic-moments", "analytic-oracle", "moments-oracle", "envelope", *Variant]
    want = [worst[name] for name in order] + [c.value for c in verify.conservation_checks()]
    assert [c.value for c in report.checks] == want
    assert list(report.skipped) == skipped == [
        "kind=sum d=paper chi=0.5 k=0.1 alpha=(0.0,0.0): DegenerateDenominator: "
        "|<D>| = 0.0 <= 1e-12; squeezing factor undefined"
    ]


def test_verification_calls_the_closed_forms_once_per_kind_cell(monkeypatch):
    # each route takes every kind cell in one call and forms the terms they share once
    calls = defaultdict(list)  # function -> (params shape, times shape) of each call
    for module, name in (
        (fock_oracle, "moment_sets"),
        (moments_engine, "moment_sets"),
        (moments_engine, "mode_moments"),
        (moments_engine, "sum_moments"),
        (squeezing_analytic, "factor_sets"),
        (squeezing_analytic, "_single_mode"),
        (squeezing_analytic, "_sum"),
    ):
        def spy(p, t, *args, _fn=getattr(module, name), _name=f"{module.__name__}.{name}", **kwargs):
            calls[_name].append((p.shape, np.shape(t)))
            return _fn(p, t, *args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    built = []
    post_init = SystemParams.__post_init__
    monkeypatch.setattr(SystemParams, "__post_init__", lambda self: built.append(post_init(self)))
    verify.run_verification()
    grid = ((len(PARAMS), 1), TS.shape)  # the whole grid as one column batch
    assert calls["kerrdown.fock_oracle.moment_sets"] == [grid]
    assert calls["kerrdown.moments_engine.moment_sets"] == [grid]
    # the whole grid for the cells every route defines there, then sum/paper's kept points
    point_sets = calls["kerrdown.squeezing_analytic.factor_sets"]
    assert point_sets[0] == grid and len(set(point_sets)) == len(point_sets) == 2
    # mode 1 of p and of p.mirrored, once for the kind cells and once for the variants
    assert len(calls["kerrdown.squeezing_analytic._single_mode"]) <= 4
    assert len(calls["kerrdown.moments_engine.mode_moments"]) == 2
    assert len(calls["kerrdown.moments_engine.sum_moments"]) == 1
    assert len(calls["kerrdown.squeezing_analytic._sum"]) == len(point_sets)  # once per call
    # the grid's entries, the probe, the grid, its mirror, sum/paper's kept points, conservation
    assert len(built) <= len(PARAMS) + 4


def test_factor_sets():
    # the cells of one call share their terms and give the bits of one cell at a time
    whole = [cell for cell in KIND_CELLS if cell != (SqueezeKind.SUM, DConvention.NUMBER_SUM)]
    for cell, fgv in zip(whole, squeezing_analytic.factor_sets(BATCH, TS, whole)):
        for column, ref in zip(fgv, factors(BATCH, TS, *cell)):
            assert np.array_equal(column, ref)
    keep = np.broadcast_to(TS > 0.0, SHAPE)  # off the probe's degenerate t = 0, every cell
    kept = SystemParams(*(np.broadcast_to(getattr(BATCH, f.name), SHAPE)[keep] for f in fields(BATCH)))
    kept_ts = np.broadcast_to(TS, SHAPE)[keep]
    for cell, fgv in zip(KIND_CELLS, squeezing_analytic.factor_sets(kept, kept_ts, KIND_CELLS)):
        for column, ref in zip(fgv, factors(kept, kept_ts, *cell)):
            assert np.array_equal(column, ref)


def test_moments_engine_moment_sets():
    for m, cell in zip(moments_engine.moment_sets(BATCH, TS, KIND_CELLS), KIND_CELLS):
        ref = moments_for(BATCH, TS, *cell)
        assert m.mean_b.shape == SHAPE
        for f in fields(m):
            assert np.array_equal(getattr(m, f.name), getattr(ref, f.name))


def test_single_mode_variants():
    for mode1 in (BATCH, BATCH.mirrored):
        variants = squeezing_analytic.single_mode_variants(mode1, TS)
        assert list(variants) == list(Variant)
        for variant in Variant:
            for column, ref in zip(variants[variant], single_mode_fg(mode1, TS, variant)):
                assert np.array_equal(column, ref)


# -- validation --------------------------------------------------------------

VALID = {
    "chi_bar": [0.0, 0.25, 0.5, 0.1],
    "k": [0.0, 0.05, 0.1, 0.02],
    "alpha1": [0.4, 0.4, 0.2, 0.0],
    "alpha2": [0.0, 0.4, 0.3, 0.0],
}


def _batch(**entries):
    """The VALID batch with entry 2 of each named field replaced."""
    columns = {name: np.array(values) for name, values in VALID.items()}
    for name, value in entries.items():
        columns[name] = columns[name].astype(type(value))
        columns[name][2] = value
    return SystemParams(**columns)


@pytest.mark.parametrize(
    "name, value, error",
    [
        ("k", -0.1, ValueError),
        ("alpha1", -0.1, ValueError),
        ("alpha2", -0.1, ValueError),
        ("chi_bar", math.nan, ValueError),
        ("k", math.inf, ValueError),
        ("alpha2", -math.inf, ValueError),
        ("alpha1", 0.4 + 0.1j, TypeError),
        ("alpha1", 1e200, ValueError),  # alpha1^2 + alpha2^2 overflows
    ],
)
def test_one_bad_entry_fails_the_batch_as_the_scalar_does(name, value, error):
    scalar = {field: values[2] for field, values in VALID.items()} | {name: value}
    with pytest.raises(error):
        SystemParams(**scalar)
    with pytest.raises(error):
        _batch(**{name: value})


@pytest.mark.parametrize("k", [np.zeros(3), np.zeros((4, 1))])
def test_batched_fields_share_one_shape(k):
    with pytest.raises(ValueError, match="one shape"):
        SystemParams(np.zeros(4), k, np.zeros(4), np.zeros(4))


def test_scalar_fields_stay_floats():
    p = SystemParams(np.float64(0.5), 1, np.float32(0.25), True)
    assert [type(getattr(p, f.name)) for f in fields(p)] == [float] * 4
    assert p.shape == ()
    mixed = SystemParams(0.0, np.array(VALID["k"]), np.array(VALID["alpha1"]), 0.2)
    assert type(mixed.chi_bar) is float and type(mixed.alpha2) is float
    assert mixed.shape == (4,)


def test_shape_is_computed_once():
    # one tuple per instance, however often a batch's shape is read;
    # equality and hashing stay on the four fields
    p = _batch()
    assert p.shape is p.shape == (4,)
    one = SystemParams(0.5, 0.1, 0.4, 0.2)
    key = hash(one)
    assert one.shape == ()
    assert hash(one) == key and one == SystemParams(0.5, 0.1, 0.4, 0.2)


def test_batch_holds_its_own_copy():
    k = np.array(VALID["k"])
    p = _batch()
    p2 = SystemParams(p.chi_bar, k, p.alpha1, p.alpha2)
    k[0] = -1.0
    assert p2.k[0] == 0.0
    with pytest.raises(ValueError):
        p2.k[0] = -1.0  # read-only


@pytest.mark.parametrize(
    "call, batch",
    [
        # moment_sets takes a column batch (P, 1), never a pointwise one
        (lambda p: fock_oracle.moment_sets(p, TS, KIND_CELLS), POINTWISE),
        (lambda p: fock_oracle.motion_constants(p, TS), BATCH),
        (lambda p: squeezing_analytic.single_mode_extremum(p, math.pi), BATCH),
    ],
    ids=["moment_sets", "motion_constants", "single_mode_extremum"],
)
def test_one_parameter_set_entry_points_refuse_a_batch(call, batch):
    with pytest.raises(TypeError, match="one parameter set"):
        call(batch)
    with pytest.raises(TypeError, match="one parameter set"):
        call(SystemParams(0.5, 0.0, np.array([0.4]), np.array([0.4])))
