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

# figure id -> kind, quantities, default time range, curve title, and the
# params of each curve set.  Time ranges default to two Kerr periods of
# chi = 0.5 (k = 0) or to the truncation-safe window kt <= 0.3 (k > 0);
# --tmax overrides
_TWO_PERIODS = 2.0 * math.pi / 0.5
_FIGURES = {
    "1": (SqueezeKind.SINGLE1, "vf", _TWO_PERIODS, "({alpha1},{alpha2})",
          [(0.5, 0.0, 0.4, 0.0), (0.5, 0.0, 0.4, 0.4)]),
    "2a": (SqueezeKind.TWO_MODE, "vfg", _TWO_PERIODS, "({alpha1},{alpha2})",
           [(0.5, 0.0, 0.4, 0.0), (0.5, 0.0, 0.4, 0.4)]),
    "2b": (SqueezeKind.TWO_MODE, "vfg", 3.0, "chi={chi_bar}",
           [(0.5, 0.1, 0.4, 0.0), (0.0, 0.1, 0.4, 0.0)]),
    "3": (SqueezeKind.SUM, "vfg", 3.0, "chi={chi_bar}",
          [(0.0, 0.1, 0.4, 0.0), (0.5, 0.1, 0.4, 0.0)]),
}
_FIGURE_STEPS = 241


def _csv_rows(*columns: np.ndarray) -> list[str]:
    """One line per time: the columns' values to 17 significant digits, comma-separated."""
    rows = zip(*(column.tolist() for column in columns))
    return [",".join(format(x, ".17g") for x in row) for row in rows]


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
    factors: SqueezingFactors  # (f, g, v, t) columns
    metadata: dict

    def to_csv(self) -> str:
        meta1 = ", ".join(
            f"{k}={self.metadata[k]}"
            for k in ("engine", "kind", "chi", "k", "alpha1", "alpha2", "d_convention")
        )
        meta2 = ", ".join(
            f"{k}={self.metadata[k]}" for k in ("package", "numpy", "variant", "cutoff")
        )
        sf = self.factors
        lines = [f"# {meta1}", f"# {meta2}", "t,f,g,v", *_csv_rows(sf.t, sf.f, sf.g, sf.v)]
        return "\n".join(lines) + "\n"


def _factors(req: SweepRequest, ts: np.ndarray) -> SqueezingFactors:
    p, kind, conv = req.params, req.kind, req.d_convention
    if req.engine == "oracle":
        (m,) = fock_oracle.moment_sets(p, ts, [(kind, conv)], req.cfg)
    else:
        m = moments_engine.moments_for(p, ts, kind, conv)
    if req.engine == "analytic":
        # closed-form f, g; the envelope has no expanded closed form and is
        # taken from the moment route
        f, g = squeezing_analytic.factors(p, ts, kind, conv)
    else:
        f, g = quad_core.factor_x(m), quad_core.factor_y(m)
    return SqueezingFactors(f=f, g=g, v=quad_core.principal(m), t=ts)


def run_sweep(req: SweepRequest) -> SweepResult:
    with np.errstate(over="ignore"):  # the engines report an infinite time
        ts = np.arange(req.steps) * req.t_max / (req.steps - 1)
    sf = _factors(req, ts)
    low = np.minimum(sf.f, sf.g)
    violated = sf.v > low + 1e-10
    if violated.any():
        i = int(np.argmax(violated))
        raise KerrdownError(
            f"envelope violation at t={ts[i]}: v={sf.v[i]} > min(f,g)={low[i]}"
        )
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
    return SweepResult(factors=sf, metadata=metadata)


# ---------------------------------------------------------------------------
# figure datasets


def _figure_sets(
    fig_id: str, t_max: float | None, steps: int
) -> list[tuple[SweepRequest, str, str]]:
    """(request, quantities, title) of each curve set of a figure; bad input raises ValueError."""
    if fig_id not in _FIGURES:
        raise ValueError(f"unknown figure id {fig_id!r}")
    kind, quantities, default_t_max, title, sets = _FIGURES[fig_id]
    requests = [
        SweepRequest(kind=kind, engine="analytic", params=SystemParams(*params),
                     t_max=t_max or default_t_max, steps=steps)
        for params in sets
    ]
    return [(req, quantities, title.format(**vars(req.params))) for req in requests]


def _write_curve_sets(
    fig_id: str, curve_sets: list[tuple[SweepRequest, str, str]], out_dir: Path
) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    plot_terms = []
    for req, quantities, title in curve_sets:
        p = req.params
        sf = run_sweep(req).factors
        for q in quantities:
            name = (
                f"fig{fig_id}_{q}_chi{p.chi_bar:g}_k{p.k:g}"
                f"_a{p.alpha1:g}_{p.alpha2:g}.csv"
            )
            lines = [
                f"# figure={fig_id}, curve={q}, kind={req.kind.value}, "
                f"engine=analytic, chi={p.chi_bar!r}, k={p.k!r}, "
                f"alpha1={p.alpha1!r}, alpha2={p.alpha2!r}, "
                f"d_convention={req.d_convention.value}",
                "t,value",
            ]
            lines += _csv_rows(sf.t, getattr(sf, q))
            path = out_dir / name
            path.write_text("\n".join(lines) + "\n")
            written.append(path)
            plot_terms.append(f"    '{name}' using 1:2 with lines title '{q.upper()} {title}'")
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


def write_figure(fig_id: str, out_dir: Path, t_max: float | None = None,
                 steps: int = _FIGURE_STEPS) -> list[Path]:
    """Write one CSV per caption curve plus a gnuplot script; returns the paths.

    Each (kind, params) curve set is evaluated once and its f/g/v curves are
    written from the same columns.  A bad t_max or steps raises ValueError
    before anything is written.
    """
    return _write_curve_sets(fig_id, _figure_sets(fig_id, t_max, steps), out_dir)


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
    figure.add_argument("id", choices=sorted(_FIGURES))
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
            try:
                curve_sets = _figure_sets(args.id, args.tmax, args.steps)
            except ValueError as exc:
                print(f"kerrdown figure: {exc}", file=sys.stderr)
                return 2
            for path in _write_curve_sets(args.id, curve_sets, args.out_dir):
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
