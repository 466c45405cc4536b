"""Command-line front end: parameter sweeps, figure datasets, verification.

Subcommands
-----------
sweep   -- evaluate one (kind, engine, params) cell on a uniform time grid and
           emit a deterministic CSV (stdout or --out)
figure  -- emit the curve datasets of the four standard figures as one CSV per
           curve plus a plain-text gnuplot script
verify  -- run the full cross-engine grid, variant arbitration and
           conservation checks; exit 0 only if everything passes

Exit codes: 0 success, 1 verification/physics failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, fock_oracle, moments_engine, quad_core, squeezing_analytic
from .errors import KerrdownError
from .fock_oracle import OracleConfig
from .moments_engine import DConvention, SqueezeKind, SystemParams
from .quad_core import SqueezingFactors
from .verify import run_verification

_KINDS = {k.value: k for k in SqueezeKind}
_CONVENTIONS = {c.value: c for c in DConvention}
_ENGINES = ("analytic", "moments", "oracle")

# figure time ranges default to two Kerr periods (k = 0) or to the
# truncation-safe window kt <= 0.3 (k > 0); --tmax overrides
_FIGURE_STEPS = 241


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class SweepRequest:
    kind: SqueezeKind
    engine: str
    params: SystemParams
    t_max: float
    steps: int
    d_convention: DConvention = DConvention.NUMBER_SUM
    cfg: OracleConfig = field(default_factory=OracleConfig)

    def __post_init__(self):
        if self.engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}")
        if self.steps < 2:
            raise ValueError("steps must be >= 2")
        if not 0 < self.t_max < math.inf:
            raise ValueError(f"tmax must be finite and > 0, got {self.t_max}")


@dataclass
class SweepResult:
    rows: list[SqueezingFactors]
    metadata: dict

    def to_csv(self) -> str:
        meta1 = ", ".join(
            f"{k}={self.metadata[k]}"
            for k in ("engine", "kind", "chi", "k", "alpha1", "alpha2", "d_convention")
        )
        meta2 = ", ".join(
            f"{k}={self.metadata[k]}" for k in ("package", "numpy", "variant", "cutoff")
        )
        lines = [f"# {meta1}", f"# {meta2}", "t,f,g,v"]
        for r in self.rows:
            lines.append(f"{_fmt(r.t)},{_fmt(r.f)},{_fmt(r.g)},{_fmt(r.v)}")
        return "\n".join(lines) + "\n"


def _factor_rows(req: SweepRequest, ts: list[float]) -> Iterator[SqueezingFactors]:
    p, kind, conv = req.params, req.kind, req.d_convention
    if req.engine == "oracle":
        for t, state in zip(ts, fock_oracle.evolve_seed(p, ts, req.cfg)):
            (m,) = fock_oracle.moment_sets(state, p, t, [(kind, conv)])
            yield quad_core.factors_at(m, t)
        return
    for t in ts:
        m = moments_engine.moments_for(p, t, kind, conv)
        if req.engine == "moments":
            yield quad_core.factors_at(m, t)
        else:
            # analytic: closed-form f, g; the envelope has no expanded closed
            # form and is taken from the moment route
            f, g = squeezing_analytic.factors(p, t, kind, conv)
            yield SqueezingFactors(f=f, g=g, v=quad_core.principal(m), t=t)


def run_sweep(req: SweepRequest) -> SweepResult:
    ts = [i * req.t_max / (req.steps - 1) for i in range(req.steps)]
    rows = []
    for row in _factor_rows(req, ts):
        if row.v > min(row.f, row.g) + 1e-10:
            raise KerrdownError(
                f"envelope violation at t={row.t}: v={row.v} > min(f,g)={min(row.f, row.g)}"
            )
        rows.append(row)
    p = req.params
    metadata = {
        "engine": req.engine,
        "kind": req.kind.value,
        "chi": repr(p.chi_bar),
        "k": repr(p.k),
        "alpha1": repr(p.alpha1),
        "alpha2": repr(p.alpha2),
        "d_convention": req.d_convention.value,
        "package": f"kerrdown {__version__}",
        "numpy": np.__version__,
        "variant": "arbitrated",
        "cutoff": req.cfg.n_max,
    }
    return SweepResult(rows=rows, metadata=metadata)


# ---------------------------------------------------------------------------
# figure datasets


@dataclass(frozen=True)
class _Curve:
    name: str
    kind: SqueezeKind
    quantity: str  # f | g | v
    params: SystemParams
    t_max: float
    title: str


def _figure_curves(fig_id: str, t_max: float | None) -> list[_Curve]:
    two_periods = 2.0 * np.pi / 0.5  # k = 0 figures use chi = 0.5
    curves: list[_Curve] = []

    def add(kind, quantity, p, tm, tag):
        name = (
            f"fig{fig_id}_{quantity}_chi{p.chi_bar:g}_k{p.k:g}"
            f"_a{p.alpha1:g}_{p.alpha2:g}.csv"
        )
        curves.append(_Curve(name, kind, quantity, p, t_max or tm, tag))

    if fig_id == "1":
        for a1, a2 in ((0.4, 0.0), (0.4, 0.4)):
            p = SystemParams(0.5, 0.0, a1, a2)
            for q in ("v", "f"):
                add(SqueezeKind.SINGLE1, q, p, two_periods, f"{q.upper()} ({a1},{a2})")
    elif fig_id == "2a":
        for a1, a2 in ((0.4, 0.0), (0.4, 0.4)):
            p = SystemParams(0.5, 0.0, a1, a2)
            for q in ("v", "f", "g"):
                add(SqueezeKind.TWO_MODE, q, p, two_periods, f"{q.upper()} ({a1},{a2})")
    elif fig_id == "2b":
        for chi, k in ((0.5, 0.1), (0.0, 0.1)):
            p = SystemParams(chi, k, 0.4, 0.0)
            for q in ("v", "f", "g"):
                add(SqueezeKind.TWO_MODE, q, p, 3.0, f"{q.upper()} chi={chi}")
    elif fig_id == "3":
        for chi in (0.0, 0.5):
            p = SystemParams(chi, 0.1, 0.4, 0.0)
            for q in ("v", "f", "g"):
                add(SqueezeKind.SUM, q, p, 3.0, f"{q.upper()} chi={chi}")
    else:
        raise ValueError(f"unknown figure id {fig_id!r}")
    return curves


def write_figure(fig_id: str, out_dir: Path, t_max: float | None = None,
                 steps: int = _FIGURE_STEPS) -> list[Path]:
    """Write one CSV per caption curve plus a gnuplot script; returns the paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    plot_terms = []
    for cv in _figure_curves(fig_id, t_max):
        req = SweepRequest(
            kind=cv.kind, engine="analytic", params=cv.params,
            t_max=cv.t_max, steps=steps,
        )
        result = run_sweep(req)
        lines = [
            f"# figure={fig_id}, curve={cv.quantity}, kind={cv.kind.value}, "
            f"engine=analytic, chi={cv.params.chi_bar!r}, k={cv.params.k!r}, "
            f"alpha1={cv.params.alpha1!r}, alpha2={cv.params.alpha2!r}, "
            f"d_convention={req.d_convention.value}",
            "t,value",
        ]
        for row in result.rows:
            lines.append(f"{_fmt(row.t)},{_fmt(getattr(row, cv.quantity))}")
        path = out_dir / cv.name
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
        plot_terms.append(f"    '{cv.name}' using 1:2 with lines title '{cv.title}'")
    script = out_dir / f"fig{fig_id}.gp"
    script.write_text(
        "# gnuplot script; run from this directory\n"
        "set datafile separator ','\n"
        "set xlabel 't'\n"
        "set ylabel 'squeezing factor'\n"
        "set key outside\n"
        "plot \\\n" + ", \\\n".join(plot_terms) + "\n"
    )
    written.append(script)
    return written


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrdown",
        description="Quadrature squeezing of the Kerr-down-conversion system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate factors on a uniform time grid")
    sweep.add_argument("--kind", choices=sorted(_KINDS), required=True)
    sweep.add_argument("--engine", choices=_ENGINES, default="analytic")
    sweep.add_argument("--chi", type=float, required=True)
    sweep.add_argument("--k", type=float, required=True)
    sweep.add_argument("--alpha1", type=float, required=True)
    sweep.add_argument("--alpha2", type=float, required=True)
    sweep.add_argument("--tmax", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--d-convention", choices=sorted(_CONVENTIONS), default="paper")
    sweep.add_argument("--cutoff", type=int, default=24)
    sweep.add_argument("--out", type=Path, default=None)

    figure = sub.add_parser("figure", help="emit the standard figure datasets")
    figure.add_argument("id", choices=("1", "2a", "2b", "3"))
    figure.add_argument("--out-dir", type=Path, default=Path("figures"))
    figure.add_argument("--tmax", type=float, default=None)
    figure.add_argument("--steps", type=int, default=_FIGURE_STEPS)

    verify = sub.add_parser("verify", help="cross-engine verification grid")
    verify.add_argument("--tol", type=float, default=1e-6)
    verify.add_argument("--cutoff", type=int, default=24)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            try:
                req = SweepRequest(
                    kind=_KINDS[args.kind],
                    engine=args.engine,
                    params=SystemParams(args.chi, args.k, args.alpha1, args.alpha2),
                    t_max=args.tmax,
                    steps=args.steps,
                    d_convention=_CONVENTIONS[args.d_convention],
                    cfg=OracleConfig(n_max=args.cutoff),
                )
            except (ValueError, TypeError) as exc:
                print(f"kerrdown sweep: {exc}", file=sys.stderr)
                return 2
            result = run_sweep(req)
            if args.out is None:
                sys.stdout.write(result.to_csv())
            else:
                args.out.write_text(result.to_csv())
            return 0
        if args.command == "figure":
            paths = write_figure(args.id, args.out_dir, args.tmax, args.steps)
            for path in paths:
                print(path)
            return 0
        if args.command == "verify":
            try:
                cfg = OracleConfig(n_max=args.cutoff)
            except ValueError as exc:
                print(f"kerrdown verify: {exc}", file=sys.stderr)
                return 2
            report = run_verification(cfg, args.tol)
            print(report.render())
            return 0 if report.passed else 1
    except KerrdownError as exc:
        print(f"kerrdown: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
