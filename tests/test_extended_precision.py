"""Each route's true error on verify's regular grid, against an extended-precision reference.

Three routes that agree can still share one error, so agreement alone does
not bound any of them.  `squeezing_analytic.factor_sets` runs unmodified on
`np.longdouble` inputs; fed verify's float64 parameter sets and times cast
up (the times are not rebuilt in longdouble, which would move them by up to
half an ulp), it gives the factors with the roundoff of float64 removed.
`SystemParams` casts its fields to float64, so the reference gets a plain
namespace with the same fields and a mirrored twin.  This checks roundoff,
not formulas: the formulas are held against the oracle elsewhere.
"""

import types
from dataclasses import fields

import numpy as np
import pytest

from kerrdown import SystemParams, cli, squeezing_analytic
from kerrdown.fock_oracle import OracleConfig
from kerrdown.verify import KIND_CELLS, grid_params, grid_times

pytestmark = pytest.mark.skipif(
    not np.finfo(np.longdouble).eps < 1e-18,
    reason=f"np.longdouble is no wider than float64 here (eps {np.finfo(np.longdouble).eps}): "
    "the reference would measure nothing",
)

# the largest F/G/V error of each route over the five kind cells, measured at
# this reference on an x86-64 host (80-bit longdouble, oracle at cutoff 24)
_MEASURED = {"analytic": 1.02e-15, "moments": 1.12e-15, "oracle": 9.01e-15}


def _wide(chi_bar, k, alpha1, alpha2):
    """The fields of SystemParams, kept in longdouble, with the mode-swapped twin `mirrored`."""
    mirrored = types.SimpleNamespace(chi_bar=chi_bar, k=k, alpha1=alpha2, alpha2=alpha1)
    return types.SimpleNamespace(chi_bar=chi_bar, k=k, alpha1=alpha1, alpha2=alpha2, mirrored=mirrored)


@pytest.fixture(scope="module")
def worst():
    """(error, kind cell, factor, parameter set, t) of each route's largest error over the grid."""
    params, ts = grid_params(), grid_times()
    columns = [np.array([getattr(p, f.name) for p in params])[:, None] for f in fields(SystemParams)]
    grid = SystemParams(*columns)
    wide = _wide(*(column.astype(np.longdouble) for column in columns))
    refs = squeezing_analytic.factor_sets(wide, ts.astype(np.longdouble), KIND_CELLS)
    assert all(x.dtype == np.longdouble for ref in refs for x in ref)
    found = {}
    for route in _MEASURED:
        sets = cli.ENGINES[route](grid, ts, KIND_CELLS, OracleConfig(24))
        for (kind, conv), got, ref in zip(KIND_CELLS, sets, refs):
            for name, x, want in zip("FGV", got, ref):
                err = np.abs(x - want)
                i, j = np.unravel_index(np.argmax(err), err.shape)
                if err[i, j] >= found.get(route, (0.0,))[0]:
                    found[route] = (float(err[i, j]), f"{kind.value}/{conv.value}", name, params[i], ts[j])
    return found


@pytest.mark.parametrize("route", sorted(_MEASURED))
def test_route_error_within_four_times_the_measured(worst, route):
    err, *where = worst[route]
    assert err <= 4.0 * _MEASURED[route], (route, err, *where)


def test_reference_sees_the_float64_roundoff(worst):
    # the reference is not the float64 evaluation again: the analytic route,
    # the same formulas in float64, is measurably off it
    assert worst["analytic"][0] > 0.0
