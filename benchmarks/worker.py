"""One benchmark job in a fresh process, as a command-line user would run it.

Reads a job spec (JSON) on stdin, runs its ops through kerrdown's public entry
points, times each op, applies the correctness gates to the outputs, and
writes one JSON result line on stdout.  `run.py` starts one of these per job:
`fock_oracle._EIG_CACHE` is module-global, so a second job in the same process
would skip the eigendecompositions every `kerrdown verify` invocation pays.

The gates use the repository's tolerances unchanged.  They are plain
functions of the outputs, each returning a list of problems, so the tests can
feed them corrupted results.
"""

from __future__ import annotations

import hashlib
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import kerrdown
from kerrdown import cli, fock_oracle, moments_engine, verify
from kerrdown.errors import DegenerateDenominator
from kerrdown.fock_oracle import OracleConfig
from kerrdown.moments_engine import DConvention, SqueezeKind, SystemParams

from tracer import Tracer

TOL_ANALYTIC_MOMENTS = verify.TOL_ANALYTIC_MOMENTS  # 1e-10
TOL_ORACLE = verify.TOL_ORACLE  # 1e-6
TOL_ENVELOPE = 1e-10  # v <= min(f, g) slack of run_sweep and run_verification
TOL_CUTOFF = 1e-8  # cutoff-doubling bound of tests/test_fock_oracle.py

# 27 grid parameter sets + the degenerate probe, x 5 kind cells x 50 times
VERIFY_POINTS = 28 * 5 * 50


# ---------------------------------------------------------------------------
# correctness gates


def gate_verify(report) -> list[str]:
    if report.passed:
        return []
    return [f"verify check failed: {c.render()}" for c in report.checks if not c.passed]


def parse_csv(text: str) -> list[tuple[float, ...]]:
    """Data rows of a sweep or figure CSV (comment and header lines skipped)."""
    rows = []
    for line in text.splitlines():
        if line.startswith("#") or not line or line[0].isalpha():
            continue
        rows.append(tuple(float(x) for x in line.split(",")))
    return rows


def gate_envelope(rows) -> list[str]:
    """Principal squeezing is the envelope: v <= min(f, g) on every (t, f, g, v) row."""
    return [
        f"envelope violated at t={t!r}: v={v!r} > min(f,g)={min(f, g)!r}"
        for t, f, g, v in rows
        if not v <= min(f, g) + TOL_ENVELOPE
    ]


def gate_sweep_pair(analytic_csv: str, moments_csv: str) -> list[str]:
    """The analytic and moments engines agree row by row on the same sweep."""
    a, m = parse_csv(analytic_csv), parse_csv(moments_csv)
    if len(a) != len(m) or not a:
        return [f"sweep pair row counts differ: {len(a)} vs {len(m)}"]
    problems = []
    worst = 0.0
    for ra, rm in zip(a, m):
        if ra[0] != rm[0]:
            problems.append(f"sweep pair time grids differ: {ra[0]!r} vs {rm[0]!r}")
            break
        worst = max(worst, *(abs(x - y) for x, y in zip(ra[1:], rm[1:])))
    if not worst <= TOL_ANALYTIC_MOMENTS:
        problems.append(f"analytic vs moments {worst:.3e} > {TOL_ANALYTIC_MOMENTS:.0e}")
    return problems + gate_envelope(a) + gate_envelope(m)


def gate_figure(paths: list[Path]) -> list[str]:
    """Each figure parameter set's v curve lies below its f and g curves."""
    curves: dict[str, dict[str, list]] = {}
    for path in paths:
        if path.suffix != ".csv":
            continue
        _, quantity, rest = path.stem.split("_", 2)
        curves.setdefault(rest, {})[quantity] = parse_csv(path.read_text())
    if not curves:
        return ["figure wrote no curve files"]
    problems = []
    for rest, by_q in curves.items():
        if "v" not in by_q:
            continue
        for q in ("f", "g"):
            if q not in by_q:
                continue
            if len(by_q[q]) != len(by_q["v"]):
                problems.append(f"figure curves {rest}: {q} and v lengths differ")
                continue
            problems += [
                f"figure {rest}: v={v!r} > {q}={x!r} at t={t!r}"
                for (t, v), (_, x) in zip(by_q["v"], by_q[q])
                if not v <= x + TOL_ENVELOPE
            ]
    return problems


def _moment_diff(a, b) -> float:
    return max(abs(x - y) for x, y in zip(a, b))


def gate_cutoff(low: list, high: list) -> list[str]:
    """Doubling the cutoff moves no moment by more than TOL_CUTOFF."""
    worst = max(_moment_diff(a, b) for a, b in zip(low, high))
    if worst <= TOL_CUTOFF:
        return []
    return [f"cutoff doubling moved a moment by {worst:.3e} > {TOL_CUTOFF:.0e}"]


def gate_oracle_vs_moments(oracle: list, reference: list) -> list[str]:
    worst = max(_moment_diff(a, b) for a, b in zip(oracle, reference))
    if worst <= TOL_ORACLE:
        return []
    return [f"oracle vs moments_engine {worst:.3e} > {TOL_ORACLE:.0e}"]


# ---------------------------------------------------------------------------
# ops: each takes its spec and an output path stem, and returns
# (points evaluated, output for the gates, files written)


def _moment_tuple(m) -> tuple:
    return (m.mean_b, m.mean_b_sq, m.mean_bdag_b, m.mean_d)


def op_verify(op, out: Path):
    return VERIFY_POINTS, verify.run_verification(), []


def op_sweep(op, out: Path):
    req = cli.SweepRequest(
        kind=SqueezeKind(op["kind"]),
        engine=op["engine"],
        params=SystemParams(*op["params"]),
        t_max=op["t_max"],
        steps=op["steps"],
        d_convention=DConvention(op["conv"]),
    )
    path = out.with_suffix(".csv")
    path.write_text(cli.run_sweep(req).to_csv())
    return op["steps"], path, [path]


def op_figure(op, out: Path):
    paths = cli.write_figure(op["id"], out, steps=op["steps"])
    return op["steps"] * sum(p.suffix == ".csv" for p in paths), paths, paths


def op_cutoff(op, out: Path):
    p = SystemParams(*op["params"])
    sets = {}
    for n_max in op["cutoffs"]:
        cfg = OracleConfig(n_max=n_max)
        sets[n_max] = [
            _moment_tuple(fock_oracle.moment_set_numeric(p, t, kind, cfg))
            for kind in SqueezeKind
            for t in op["times"]
        ]
    return len(op["cutoffs"]) * len(SqueezeKind) * len(op["times"]), sets, []


OPS = {"verify": op_verify, "sweep": op_sweep, "figure": op_figure, "cutoff": op_cutoff}


def _gates(ops: list[dict], outputs: dict) -> dict[int, list[str]]:
    """Problems per op index, from the outputs of the ops that completed."""
    problems = {i: [] for i in outputs}
    pairs: dict[int, dict[str, int]] = {}
    for i, out in outputs.items():
        op = ops[i]
        if op["op"] == "verify":
            problems[i] += gate_verify(out)
        elif op["op"] == "sweep":
            pairs.setdefault(op["cell"], {})[op["engine"]] = i
        elif op["op"] == "figure":
            problems[i] += gate_figure(out)
        elif op["op"] == "cutoff":
            p = SystemParams(*op["params"])
            reference = [
                _moment_tuple(moments_engine.moments_for(p, t, kind))
                for kind in SqueezeKind
                for t in op["times"]
            ]
            lo, hi = (out[n] for n in op["cutoffs"])
            problems[i] += gate_cutoff(lo, hi)
            problems[i] += gate_oracle_vs_moments(lo, reference)
            problems[i] += gate_oracle_vs_moments(hi, reference)
    for members in pairs.values():
        if len(members) == 2:
            a, m = members["analytic"], members["moments"]
            found = gate_sweep_pair(outputs[a].read_text(), outputs[m].read_text())
            problems[a] += found
            problems[m] += found
        else:  # partner skipped or failed, or a lone repeat of one sweep
            for i in members.values():
                problems[i] += gate_envelope(parse_csv(outputs[i].read_text()))
    return problems


# ---------------------------------------------------------------------------
# the job


def _relative(path: Path) -> Path:
    root = Path(__file__).resolve().parent.parent
    return path.relative_to(root) if path.is_relative_to(root) else path


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "kerrdown": f"{kerrdown.__version__} from {_relative(Path(kerrdown.__file__).parent)}",
    }


def run_job(spec: dict) -> dict:
    ops = spec["ops"]
    out_dir = Path(spec["work_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(spec["job"]) if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    records, outputs, files = [], {}, []
    try:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            rec = {"op": op["op"], "points": 0, "status": "ok", "problems": []}
            start, start_cpu = time.perf_counter(), time.process_time()
            try:
                rec["points"], outputs[i], written = OPS[op["op"]](op, out_dir / f"op{i}")
                files += written
            except DegenerateDenominator as exc:
                rec["status"] = "skipped"
                rec["problems"].append(f"DegenerateDenominator: {exc}")
            except Exception as exc:  # one broken op must not hide the others
                rec["status"] = "failed"
                rec["problems"].append(f"{type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
            rec["wall_s"] = time.perf_counter() - start
            rec["cpu_s"] = time.process_time() - start_cpu
            records.append(rec)
    finally:
        if tracer is not None:
            tracer.uninstall()
    for i, found in _gates(ops, outputs).items():
        if found:
            records[i]["status"] = "failed"
            records[i]["problems"] += found
    result = {
        "ops": records,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "files_written": len(files),
        "bytes_written": sum(p.stat().st_size for p in files),
        "sha256": {
            str(i): hashlib.sha256(out.read_bytes()).hexdigest()
            for i, out in outputs.items()
            if ops[i]["op"] == "sweep"
        },
    }
    if spec.get("env"):
        result["env"] = environment()
    if tracer is not None:
        result["trace"] = tracer.summary()
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
    return result


def main() -> int:
    ready = time.monotonic()
    result = run_job(json.load(sys.stdin))
    result["ready"] = ready
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
