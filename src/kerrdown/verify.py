"""Cross-engine verification: closed forms vs the Fock oracle on a fixed grid.

Drives three independent routes to the squeezing factors over a parameter grid
(couplings x seeds x 50 times), checks them against each other, runs the
formula-variant arbitration, and checks the oracle's conservation laws.  All
three routes take the grid as one column batch of `SystemParams` (P, 1)
against the 1-D time axis, and give (P, T) values; each route takes the kind
cells together and forms the terms they share once per call, and a cell with
a degenerate point is masked and takes one call of its own.  The CLI `verify`
subcommand renders the resulting report; the acceptance tests call the same
functions.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from . import fock_oracle, moments_engine, quad_core, squeezing_analytic
from .fock_oracle import OracleConfig
from .moments_engine import DConvention, SqueezeKind, SystemParams
from .squeezing_analytic import Variant

GRID_CHIS = (0.0, 0.25, 0.5)
GRID_KS = (0.0, 0.05, 0.1)
GRID_ALPHAS = ((0.4, 0.0), (0.4, 0.4), (0.2, 0.3))
GRID_STEPS = 50
GRID_T_MAX = 3.0

TOL_ANALYTIC_MOMENTS = 1e-10
TOL_ORACLE = 1e-6
TOL_ENVELOPE = 1e-10  # slack of the principal envelope v <= min(f, g)
ARBITRATION_FLOOR = 1e-3  # the rejected trig variant must deviate at least this much
TOL_CONSERVATION = 1e-9
TOL_NORM = 1e-10


@dataclass
class Check:
    name: str
    value: float
    bound: float
    # "le": value must stay below bound; "ge": value must exceed it (the
    # rejected-variant floor)
    mode: str = "le"

    @property
    def passed(self) -> bool:
        if self.mode == "le":
            return self.value <= self.bound
        return self.value >= self.bound

    def render(self, width: int = 0) -> str:
        """One report row, the name padded to width characters."""
        tag = "PASS" if self.passed else "FAIL"
        rel = "<=" if self.mode == "le" else ">="
        return f"[{tag}] {self.name:<{width}s} {self.value:12.5e} {rel} {self.bound:.1e}"


@dataclass
class VerificationReport:
    checks: list[Check]
    skipped: Sequence[str] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [
            f"verification grid: chi in {GRID_CHIS}, k in {GRID_KS}, "
            f"alpha in {GRID_ALPHAS}, {GRID_STEPS} times in [0, {GRID_T_MAX}]"
        ]
        width = max((len(c.name) for c in self.checks), default=0)
        lines += [c.render(width) for c in self.checks]
        if self.skipped:
            lines.append("skipped cells:")
            lines += [f"  {s}" for s in self.skipped]
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def grid_times() -> np.ndarray:
    return np.linspace(0.0, GRID_T_MAX, GRID_STEPS)


def grid_params() -> list[SystemParams]:
    # the oracle groups its batch by (k, alpha1, alpha2) itself; this order
    # fixes only the batch order and so the order of the skipped cells
    return [
        SystemParams(chi, k, a1, a2)
        for k in GRID_KS
        for chi in GRID_CHIS
        for (a1, a2) in GRID_ALPHAS
    ]


KIND_CELLS = (
    (SqueezeKind.SINGLE1, DConvention.NUMBER_SUM),
    (SqueezeKind.SINGLE2, DConvention.NUMBER_SUM),
    (SqueezeKind.TWO_MODE, DConvention.NUMBER_SUM),
    (SqueezeKind.SUM, DConvention.NUMBER_SUM),
    (SqueezeKind.SUM, DConvention.COMMUTATOR),
)


def _deviations(analytic, moments, oracle, variants) -> dict:
    """Largest deviation of each check over the points of one kind cell.

    analytic, moments and oracle are each route's (F, G, V) there, and variants
    the (F, G) of each single-mode variant, empty for the other kinds.
    """
    (fa, ga, va), (fm, gm, vm), (fo, go, vo) = analytic, moments, oracle
    dev = {
        "analytic-moments": np.maximum.reduce([abs(fa - fm), abs(ga - gm), abs(va - vm)]),
        "analytic-oracle": np.maximum.reduce([abs(fa - fo), abs(ga - go), abs(va - vo)]),
        "moments-oracle": np.maximum.reduce([abs(fm - fo), abs(gm - go), abs(vm - vo)]),
        # v - min(f, g) of each route, should stay <= 0 up to roundoff
        "envelope": np.maximum.reduce(
            [vm - np.minimum(fm, gm), vo - np.minimum(fo, go), va - np.minimum(fa, ga)]
        ),
    }
    for variant, (fv, gv) in variants.items():
        dev[variant] = np.maximum(abs(fv - fo), abs(gv - go))
    return {name: float(np.max(d)) for name, d in dev.items()}


def run_verification(cfg: OracleConfig = OracleConfig()) -> VerificationReport:
    """Run the full cross-engine grid, the variant arbitration, and conservation."""
    ts = grid_times()
    params = grid_params() + [SystemParams(0.5, 0.1, 0.0, 0.0)]  # degenerate probe
    columns = [np.array([getattr(p, f.name) for p in params])[:, None] for f in fields(SystemParams)]
    grid = SystemParams(*columns)  # one column batch (P, 1), broadcast against ts to (P, T)
    # one pair evolution per (k, alpha1, alpha2); every kind cell reads its moments from it
    oracle = fock_oracle.moment_sets(grid, ts, KIND_CELLS, cfg)
    moments = moments_engine.moment_sets(grid, ts, KIND_CELLS)
    # compare each cell on the points where every route is defined
    d_abs = [np.minimum(abs(mm.mean_d), abs(mo.mean_d)) for mm, mo in zip(moments, oracle)]
    whole = [cell for cell, d in zip(KIND_CELLS, d_abs) if np.all(d > quad_core.EPS_DEN)]
    analytic = dict(zip(whole, squeezing_analytic.factor_sets(grid, ts, whole)))
    variants = {kind: squeezing_analytic.single_mode_variants(mode1, ts)
                for kind, mode1 in ((SqueezeKind.SINGLE1, grid), (SqueezeKind.SINGLE2, grid.mirrored))}
    skipped = []
    worst = defaultdict(float)  # largest deviation of each check over the grid
    for (kind, conv), mm, mo, d in zip(KIND_CELLS, moments, oracle, d_abs):
        fa, fv, keep = analytic.get((kind, conv)), variants.get(kind, {}), d > quad_core.EPS_DEN
        if fa is None:
            # one line per degenerate (params, kind cell); only the sum's number-sum cell
            # has a d that can vanish (a single-mode cell's is 1, so its variants stay
            # whole), so they come out in params order
            skipped += [
                f"kind={kind.value} d={conv.value} chi={p.chi_bar} k={p.k} "
                f"alpha=({p.alpha1},{p.alpha2}): DegenerateDenominator: "
                f"|<D>| = {row[~ok][0]} <= {quad_core.EPS_DEN}; squeezing factor undefined"
                for p, row, ok in zip(params, d, keep)
                if not ok.all()
            ]
            *kept, kept_ts = (x[keep] for x in np.broadcast_arrays(*columns, ts))
            (fa,) = squeezing_analytic.factor_sets(SystemParams(*kept), kept_ts, [(kind, conv)])
            mm, mo = (
                quad_core.QuadratureMoments(*(getattr(m, f.name)[keep] for f in fields(m)))
                for m in (mm, mo)
            )
        for name, value in _deviations(fa, quad_core.factors(mm), quad_core.factors(mo), fv).items():
            worst[name] = max(worst[name], value)

    checks = [
        Check("analytic vs moments route", worst["analytic-moments"], TOL_ANALYTIC_MOMENTS),
        Check("analytic vs oracle", worst["analytic-oracle"], TOL_ORACLE),
        Check("moments route vs oracle", worst["moments-oracle"], TOL_ORACLE),
        Check("principal envelope v - min(f,g)", worst["envelope"], TOL_ENVELOPE),
        Check("single-mode arbitrated variant vs oracle", worst[Variant.ARBITRATED], TOL_ORACLE),
    ]
    # the rejected variants must stay measurably off the oracle
    checks += [
        Check(f"single-mode {v.value} variant vs oracle", worst[v], ARBITRATION_FLOOR, mode="ge")
        for v in Variant
        if v is not Variant.ARBITRATED
    ]

    checks += conservation_checks(cfg)
    return VerificationReport(checks, skipped)


def conservation_checks(cfg: OracleConfig = OracleConfig()) -> list[Check]:
    """Drift of the motion constants along the (chi, k) = (0.5, 0.1) evolution.

    n1 - n2 commutes with the generator, so <n1 - n2> and its square are flat;
    the frame energy and the norm are flat by unitarity.  The t = 0 row is the
    reference.
    """
    p = SystemParams(0.5, 0.1, 0.4, 0.4)
    ts = np.linspace(0.0, GRID_T_MAX, 16)
    drifts = [
        float(np.max(np.abs(c[1:] - c[0])))
        for c in fock_oracle.motion_constants(p, ts, cfg)
    ]
    return [
        Check("conservation <n1 - n2> drift", drifts[0], TOL_CONSERVATION),
        Check("conservation <(n1 - n2)^2> drift", drifts[1], TOL_CONSERVATION),
        Check("frame energy drift", drifts[2], TOL_CONSERVATION),
        Check("norm drift", drifts[3], TOL_NORM),
    ]
