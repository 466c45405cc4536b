"""Every check of `kerrdown verify` can fail: a mutation table over the three routes.

Each row wraps one function of one route so that one of its outputs is off by
a relative 1e-3 (the principal factor by an absolute 1e-3), and asserts that
the verification fails on the check that reads that output.  A mutation that
makes the oracle's moments unphysical must be refused where the moment set is
built instead.
"""

from dataclasses import replace

import pytest

from kerrdown import fock_oracle, moments_engine, quad_core, squeezing_analytic, verify
from kerrdown.squeezing_analytic import Variant

SCALE = 1.0 + 1e-3


def _output(change):
    """A mutation that applies `change` to the result of the wrapped function."""
    return lambda orig: lambda *args, **kwargs: change(orig(*args, **kwargs))


def _field(name):
    """Scale one field of a returned QuadratureMoments."""
    return _output(lambda m: replace(m, **{name: getattr(m, name) * SCALE}))


# scale F of a returned (F, G, ...)
_first = _output(lambda fg: (fg[0] * SCALE, *fg[1:]))


def _contraction(powers):
    """Scale the oracle's normally ordered moment of these powers only."""

    def mutate(orig):
        def contract(amp, pw):
            value = orig(amp, pw)
            return value * SCALE if pw == powers else value

        return contract

    return mutate


def _any_variant(orig):
    return lambda p, t, variant: orig(p, t, Variant.ARBITRATED)


MOMENTS = "analytic vs moments route"
ORACLE = "analytic vs oracle"
VARIANT_FLOORS = tuple(
    f"single-mode {v.value} variant vs oracle" for v in Variant if v is not Variant.ARBITRATED
)

MUTATIONS = [
    (moments_engine, "sum_moments", _field("mean_bdag_b"), (MOMENTS,)),
    (moments_engine, "mode_moments", _field("mean_b_sq"), (MOMENTS,)),
    (moments_engine, "pair_moments", _field("mean_bdag_b"), (MOMENTS,)),
    (squeezing_analytic, "_single_mode", _first, ("single-mode arbitrated variant vs oracle",)),
    (squeezing_analytic, "two_mode_fg", _first, (ORACLE,)),
    (squeezing_analytic, "sum_fg", _first, (ORACLE,)),
    (quad_core, "factor_phase", _output(lambda f: f * SCALE), (MOMENTS,)),
    (quad_core, "principal", _output(lambda v: v + 1e-3), ("principal envelope v - min(f,g)",)),
    (fock_oracle, "_contract", _contraction((1, 1, 0, 0)),
     ("moments route vs oracle", "conservation <n1 - n2> drift")),
    (fock_oracle, "_contract", _contraction((2, 2, 0, 0)), ("frame energy drift",)),
    (squeezing_analytic, "_single_mode", _any_variant, VARIANT_FLOORS),
    (fock_oracle, "_contract", _contraction((0, 1, 0, 1)), ValueError),
]


@pytest.mark.parametrize(
    "module, name, mutate, failed",
    MUTATIONS,
    ids=[f"{name}-{i}" for i, (_, name, _, _) in enumerate(MUTATIONS)],
)
def test_each_mutation_fails_its_check(monkeypatch, module, name, mutate, failed):
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    if failed is ValueError:
        with pytest.raises(ValueError, match="unphysical"):
            verify.run_verification()
        return
    report = verify.run_verification()
    assert not report.passed
    names = {c.name for c in report.checks if not c.passed}
    assert set(failed) <= names, report.render()
