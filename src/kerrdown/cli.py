"""Command-line front end: parameter sweeps, figure datasets, verification.

Subcommands
-----------
sweep   -- evaluate one (kind, engine, params) cell on a uniform time grid and
           emit a deterministic CSV (stdout or --out)
figure  -- emit the curve datasets of the four standard figures as one CSV per
           curve plus a plain-text gnuplot script
verify  -- run the full cross-engine grid, variant arbitration and
           conservation checks; exit 0 only if everything passes

Exit codes: 0 success, 1 verification/physics failure or unwritable output,
2 usage error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, fock_oracle, moments_engine, quad_core, squeezing_analytic
from .errors import KerrdownError
from .fock_oracle import OracleConfig
from .moments_engine import DConvention, SqueezeKind, SystemParams
from .verify import run_verification

_ENGINES = ("analytic", "moments", "oracle")
# Largest sweep; its columns are allocated whole (README *Limits* gives the memory this takes)
MAX_STEPS = 10**6

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
# Rows formatted per block: bounds the tuple of values one block builds
_CSV_CHUNK = 4096


def _csv(header: str, *columns: np.ndarray) -> str:
    """The header, then one line per row: the columns' values as %.17g, comma-separated."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    blocks = [header]
    for start in range(0, len(columns[0]), _CSV_CHUNK):
        values = np.column_stack([column[start:start + _CSV_CHUNK] for column in columns])
        blocks.append(line * len(values) % tuple(values.ravel().tolist()))
    return "".join(blocks)


@dataclass(frozen=True)
class SweepRequest:
    kind: SqueezeKind
    engine: str
    params: SystemParams
    t_max: float
    steps: int
    d_convention: DConvention = DConvention.NUMBER_SUM
    cfg: OracleConfig = OracleConfig()

    def __post_init__(self):
        object.__setattr__(self, "d_convention", DConvention(self.d_convention))
        if self.engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}")
        self.params.require_one("a sweep")
        if not isinstance(self.steps, (int, np.integer)):
            raise TypeError(f"steps must be an integer, got {self.steps!r}")
        if not 2 <= self.steps <= MAX_STEPS:
            raise ValueError(f"steps must be in [2, {MAX_STEPS}], got {self.steps}")
        if not 0 < self.t_max < math.inf:
            raise ValueError(f"tmax must be finite and > 0, got {self.t_max}")


@dataclass
class SweepResult:
    """The (F, G, V) columns of a sweep over its times t."""

    request: SweepRequest
    t: np.ndarray
    f: np.ndarray
    g: np.ndarray
    v: np.ndarray

    def to_csv(self) -> str:
        req, p = self.request, self.request.params
        header = (
            f"# engine={req.engine}, kind={req.kind.value}, chi={p.chi_bar!r}, k={p.k!r}, "
            f"alpha1={p.alpha1!r}, alpha2={p.alpha2!r}, d_convention={req.d_convention.value}\n"
            f"# package=kerrdown {__version__}, numpy={np.__version__}, "
            f"variant=arbitrated, cutoff={req.cfg.n_max}\n"
            "t,f,g,v\n"
        )
        return _csv(header, self.t, self.f, self.g, self.v)


def run_sweep(req: SweepRequest) -> SweepResult:
    p, kind, conv = req.params, req.kind, req.d_convention
    with np.errstate(over="ignore"):  # the engines report an infinite time
        ts = np.arange(req.steps) * req.t_max / (req.steps - 1)
    if req.engine == "analytic":
        f, g, v = squeezing_analytic.factors(p, ts, kind, conv)
    elif req.engine == "moments":
        f, g, v = quad_core.factors(moments_engine.moments_for(p, ts, kind, conv))
    else:
        (m,) = fock_oracle.moment_sets(p, ts, [(kind, conv)], req.cfg)
        f, g, v = quad_core.factors(m)
    return SweepResult(req, ts, f, g, v)


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
        result = run_sweep(req)
        for q in quantities:
            name = (
                f"fig{fig_id}_{q}_chi{p.chi_bar:g}_k{p.k:g}"
                f"_a{p.alpha1:g}_{p.alpha2:g}.csv"
            )
            header = (
                f"# figure={fig_id}, curve={q}, kind={req.kind.value}, "
                f"engine=analytic, chi={p.chi_bar!r}, k={p.k!r}, "
                f"alpha1={p.alpha1!r}, alpha2={p.alpha2!r}, "
                f"d_convention={req.d_convention.value}\n"
                "t,value\n"
            )
            path = out_dir / name
            path.write_text(_csv(header, result.t, getattr(result, q)))
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
    (TypeError for a non-integral steps) before anything is written.
    """
    return _write_curve_sets(fig_id, _figure_sets(fig_id, t_max, steps), out_dir)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    import argparse  # only `main` parses; the programmatic entry points import without it

    parser = argparse.ArgumentParser(
        prog="kerrdown",
        description="Quadrature squeezing of the Kerr-down-conversion system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate factors on a uniform time grid")
    sweep.add_argument("--kind", choices=sorted(k.value for k in SqueezeKind), required=True)
    sweep.add_argument("--engine", choices=_ENGINES, default="analytic")
    sweep.add_argument("--chi", type=float, required=True)
    sweep.add_argument("--k", type=float, required=True)
    sweep.add_argument("--alpha1", type=float, required=True)
    sweep.add_argument("--alpha2", type=float, required=True)
    sweep.add_argument("--tmax", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--d-convention", choices=sorted(c.value for c in DConvention),
                       default="paper")
    sweep.add_argument("--cutoff", type=int, default=OracleConfig.n_max)
    sweep.add_argument("--out", type=Path, default=None)

    figure = sub.add_parser("figure", help="emit the standard figure datasets")
    figure.add_argument("id", choices=sorted(_FIGURES))
    figure.add_argument("--out-dir", type=Path, default=Path("figures"))
    figure.add_argument("--tmax", type=float, default=None)
    figure.add_argument("--steps", type=int, default=_FIGURE_STEPS)

    verify = sub.add_parser("verify", help="cross-engine verification grid")
    verify.add_argument("--cutoff", type=int, default=OracleConfig.n_max)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:  # every input is checked before any work starts
        if args.command == "sweep":
            req = SweepRequest(
                kind=SqueezeKind(args.kind),
                engine=args.engine,
                params=SystemParams(args.chi, args.k, args.alpha1, args.alpha2),
                t_max=args.tmax,
                steps=args.steps,
                d_convention=args.d_convention,
                cfg=OracleConfig(n_max=args.cutoff),
            )
        elif args.command == "figure":
            curve_sets = _figure_sets(args.id, args.tmax, args.steps)
        else:
            cfg = OracleConfig(n_max=args.cutoff)
    except (ValueError, TypeError) as exc:
        print(f"kerrdown {args.command}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "sweep":
            csv = run_sweep(req).to_csv()
            if args.out is None:
                sys.stdout.write(csv)
            else:
                args.out.write_text(csv)
            return 0
        if args.command == "figure":
            for path in _write_curve_sets(args.id, curve_sets, args.out_dir):
                print(path)
            return 0
        report = run_verification(cfg)
        print(report.render())
        return 0 if report.passed else 1
    except (KerrdownError, OSError) as exc:  # OSError: the output could not be written
        print(f"kerrdown: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
