"""Every check of `kerrdown verify` can fail: a mutation table over the three routes.

Each row wraps one function of one route so that one of its outputs, or one
of its arguments, is off by a relative 1e-3 (the principal factor V by an
absolute 1e-3, the oracle's relative Kerr phase by the phase of a wrong Kerr
energy, its quarter-turned frame by the conjugate one), and asserts that the verification
fails on the check that reads that output.  V is read on all three routes, so a V that is too small fails too.  A mutation that
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


def _item(i, change):
    """Apply `change` to item i of a returned tuple, such as (F, G) or (F, G, V)."""
    return _output(lambda out: (*out[:i], change(out[i]), *out[i + 1:]))


_first = _item(0, lambda f: f * SCALE)


def _argument(i):
    """A mutation that scales positional argument i of the wrapped function."""
    return lambda orig: lambda *args: orig(*args[:i], args[i] * SCALE, *args[i + 1:])


def _contraction(powers):
    """Scale the oracle's normally ordered moment of these powers only."""

    def mutate(orig):
        def contract(amp, bra, pw, *kerr):
            value = orig(amp, bra, pw, *kerr)
            return value * SCALE if pw == powers else value

        return contract

    return mutate


def _kerr_n_plus_one(orig):
    """Read the relative Kerr phase's delta (delta - 1) as delta (delta + 1): E(N) = N(N + 1).

    The extra factor is exp(2i chi t delta), column m = delta of the table
    exp(2i chi t m), whose middle column is m = 0.
    """

    def contract(amp, bra, pw, kerr=None):
        value = orig(amp, bra, pw, kerr)
        delta = pw[0] - pw[1] - pw[2] + pw[3]
        if kerr is None or delta == 0:
            return value
        return value * kerr[..., kerr.shape[-1] // 2 + delta]

    return contract


def _any_variant(orig):
    """Every rejected single-mode variant evaluated as the arbitrated form."""

    def single_mode(p, t):
        *out, variant_fg = orig(p, t)
        return (*out, lambda variant: variant_fg(Variant.ARBITRATED))

    return single_mode


MOMENTS = "analytic vs moments route"
ORACLE = "analytic vs oracle"
VARIANT_FLOORS = tuple(
    f"single-mode {v.value} variant vs oracle" for v in Variant if v is not Variant.ARBITRATED
)

MUTATIONS = [
    (moments_engine, "sum_moments", _field("mean_bdag_b"), (MOMENTS,)),
    (moments_engine, "mode_moments", _field("mean_b_sq"), (MOMENTS,)),
    (moments_engine, "_pair_moments", _field("mean_bdag_b"), (MOMENTS,)),
    (squeezing_analytic, "_single_mode", _first, ("single-mode arbitrated variant vs oracle",)),
    (squeezing_analytic, "_two_mode", _first, (ORACLE,)),
    (squeezing_analytic, "_sum", _first, (ORACLE,)),
    (quad_core, "factors", _first, (MOMENTS,)),
    (quad_core, "factors", _item(2, lambda v: v + 1e-3), ("principal envelope v - min(f,g)",)),
    (fock_oracle, "_contract", _contraction((1, 1, 0, 0)),
     ("moments route vs oracle", "conservation <n1 - n2> drift")),
    (fock_oracle, "_contract", _contraction((2, 2, 0, 0)), ("frame energy drift",)),
    (squeezing_analytic, "_single_mode", _any_variant, VARIANT_FLOORS),
    (fock_oracle, "_contract", _contraction((0, 1, 0, 1)), ValueError),
    # G alone, which no row above changes on its own (appended, so their ids keep their index)
    (quad_core, "factors", _item(1, lambda g: g * SCALE), (MOMENTS,)),
    # the relative Kerr phase, which only the moments that move n1 - n2 take (appended too)
    (fock_oracle, "_contract", _kerr_n_plus_one, ("moments route vs oracle",)),
    # the propagation: the spectrum's energies, the seed's alpha1 and the phases' t (appended too)
    (fock_oracle, "_spectrum", _item(0, lambda evals: evals * SCALE), ("moments route vs oracle",)),
    (fock_oracle, "coherent_state", _argument(0), ("moments route vs oracle",)),
    # the frame energy takes <a1 a2> off the carrier of the Kerr table with a t of its own
    (fock_oracle, "_phases", _argument(1), ("moments route vs oracle", "frame energy drift")),
    # a too-small V, which the envelope cannot see: the analytic route's own V can (appended too)
    (quad_core, "factors", _item(2, lambda v: v - 1e-3), (MOMENTS,)),
    # the analytic V, read by both analytic rows and the envelope (appended too)
    (squeezing_analytic, "factors", _item(2, lambda v: v + 1e-3),
     (MOMENTS, ORACLE, "principal envelope v - min(f,g)")),
    # the frame of the real chains conjugated, b = +i a2 for -i a2: the pair term's sign flips (appended too)
    (fock_oracle, "_I_POWERS", lambda powers: powers.conj(), (ORACLE, "moments route vs oracle")),
    # the analytic V of the cells verify takes on the whole grid in one call (appended too); the
    # "factors" row above reaches only the sum/paper cell, masked to its kept points
    (squeezing_analytic, "factor_sets", _output(lambda sets: [(f, g, v + 1e-3) for f, g, v in sets]),
     (MOMENTS, ORACLE, "principal envelope v - min(f,g)")),
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
