"""Layered benchmark of kerrdown: end-to-end metrics per workload, per-layer when traced.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

NAME is one of the WORKLOADS below, or ``all`` to run each in turn.  A run
keeps starting jobs until S seconds have passed (always at least one).  Each
job is a fresh worker process (`worker.py`) with the BLAS/OpenMP thread count
pinned in its environment; it drives kerrdown only through public entry points
and checks every output.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
runs every job twice, untraced then traced, so the difference of the two
``op_s_p50`` is the tracing overhead; end-to-end numbers come only from
untraced jobs.  Exit code 0 when every correctness gate passed, 1 when one
failed, 2 when the kerrdown sources are missing.

Workloads, why each was chosen, the seeded parameter domains and the
per-layer -> end-to-end mapping are documented in README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

from tracer import EIGH, LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"  # scratch output of runs: temporary CSVs and span dumps

# One BLAS thread: on a shared 2-core box the 1089^2 eigh took 1.45-1.53 s on
# one thread against 0.87-1.28 s on two, so one thread is the steadier setting.
THREADS = 1
THREAD_ENV = {v: str(THREADS) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

SETUP_PROBES = 21  # extra fresh processes per run that only start and import kerrdown
RUN_BUDGET_S = 150.0  # a run starts no job it is not expected to finish within this
WORKER_TIMEOUT_S = 170.0
# Time per traced op that may lie outside every span.  The worker's own work
# around an op (its loop, the sweep's CSV write) took 0.06-0.8 ms per op; an
# entry point the tracer fails to wrap leaves its whole self time outside
# (verify's grid loop: 420 ms per op, cli's sweep loop: 18 ms).
UNATTRIBUTED_PER_OP_S = 0.005

# seeded draw domains, (low, high, step): the verify-grid box, with sweep
# lengths up to two Kerr periods at chi = 0.5 (the k = 0 figures' range)
CHI = (0.0, 0.5, 0.01)
K = (0.0, 0.1, 0.005)
# k = 0 makes the oracle's generator diagonal, which halves the 1089^2 eigh
# and would make the op time depend on how often the seed draws it
ORACLE_K = (0.005, 0.1, 0.005)
ALPHA = (0.0, 0.4, 0.01)
SWEEP_T_MAX = (1.0, 12.56, 0.01)
ORACLE_T = (0.0, 3.0, 0.01)

KIND_CELLS = (
    ("single1", "paper"),
    ("single2", "paper"),
    ("two", "paper"),
    ("sum", "paper"),
    ("sum", "commutator"),
)
ENGINES = ("analytic", "moments")
FIGURE_IDS = ("1", "2a", "2b", "3")
CUTOFFS = (24, 32)

SIZES = {
    "full": {"sweep_steps": 1000, "figure_steps": 241, "oracle_times": 4, "oracle_ops": 3},
    "tiny": {"sweep_steps": 40, "figure_steps": 20, "oracle_times": 1, "oracle_ops": 1},
}

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_s_p50", "s", "lower"),
    ("points_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

KINDS = ("single1", "single2", "two", "sum")
PER_LAYER = (
    ("fock_oracle.eigh.calls", "count", "lower"),
    ("fock_oracle.eigh.busy_s", "s", "lower"),
    ("fock_oracle.moment_set.calls", "count", "lower"),
    ("fock_oracle.moment_set.self_s", "s", "lower"),
    ("fock_oracle.expect.calls", "count", "lower"),
    ("fock_oracle.expect.busy_s", "s", "lower"),
    ("fock_oracle.evolve.busy_s", "s", "lower"),
    ("fock_oracle.build_hamiltonian.busy_s", "s", "lower"),
    ("fock_oracle.evolutions", "count", "lower"),
    ("fock_oracle.distinct_states", "count", "lower"),
    ("fock_oracle.state_reuse", "ratio", "higher"),
    ("fock_oracle.eig_hit_ratio", "ratio", "higher"),
    ("fock_oracle.errors", "count", "lower"),
    *((f"moments_engine.{k}.{f}", u, "lower") for k in KINDS for f, u in (("calls", "count"), ("busy_s", "s"))),
    *((f"squeezing_analytic.{k}.{f}", u, "lower") for k in KINDS for f, u in (("calls", "count"), ("busy_s", "s"))),
    ("squeezing_analytic.single_mode_fg.busy_s", "s", "lower"),
    ("quad_core.calls", "count", "lower"),
    ("quad_core.busy_s", "s", "lower"),
    ("quad_core.degenerate", "count", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("fock_oracle.eigh.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.files_written", "count", "lower"),
    ("unattributed_s", "s", "lower"),
    ("traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)
ORACLE_ERRORS = ("TailOverflow", "NormDrift", "TruncationTooSevere")


# ---------------------------------------------------------------------------
# seeded inputs


def _draw(rng: random.Random, low: float, high: float, step: float) -> float:
    return round(low + step * rng.randint(0, round((high - low) / step)), 10)


def verify_jobs(seed: int, size: dict):
    """The full verification grid; it is fixed by the program, so the seed does not apply."""
    while True:
        yield [{"op": "verify"}]


def sweep_jobs(seed: int, size: dict):
    """Blocks of every kind cell under both engines plus every figure id, in seeded order.

    Each block holds the same mix of ops, so the op-time distribution does not
    depend on the seed; the parameters of each kind cell are drawn per block
    and shared by its analytic and moments sweeps, whose outputs are compared.
    """
    rng = random.Random(f"closed-form-sweep/{seed}")
    while True:
        ops = []
        for cell, (kind, conv) in enumerate(KIND_CELLS):
            params = [_draw(rng, *CHI), _draw(rng, *K), _draw(rng, *ALPHA), _draw(rng, *ALPHA)]
            t_max = _draw(rng, *SWEEP_T_MAX)
            ops += [
                {"op": "sweep", "cell": cell, "kind": kind, "conv": conv, "engine": engine,
                 "params": params, "t_max": t_max, "steps": size["sweep_steps"]}
                for engine in ENGINES
            ]
        ops += [{"op": "figure", "id": fid, "steps": size["figure_steps"]} for fid in FIGURE_IDS]
        rng.shuffle(ops)
        yield ops


def oracle_jobs(seed: int, size: dict):
    """Cutoff-doubling comparisons, one fresh parameter set and time set per op."""
    rng = random.Random(f"oracle-cold-cutoff/{seed}")
    low, high, step = ORACLE_T
    while True:
        yield [
            {
                "op": "cutoff",
                "params": [_draw(rng, *CHI), _draw(rng, *ORACLE_K), _draw(rng, *ALPHA), _draw(rng, *ALPHA)],
                "times": [
                    round(low + step * i, 10)
                    for i in sorted(rng.sample(range(round((high - low) / step) + 1), size["oracle_times"]))
                ],
                "cutoffs": list(CUTOFFS),
            }
            for _ in range(size["oracle_ops"])
        ]


WORKLOADS = {
    "verify-grid": verify_jobs,
    "closed-form-sweep": sweep_jobs,
    "oracle-cold-cutoff": oracle_jobs,
}


# ---------------------------------------------------------------------------
# workers


def run_worker(spec: dict, timeout: float) -> dict:
    """Run one job in a fresh process; a worker that dies fails all its ops."""
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env, cwd=ROOT,
    )
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        return _broken(spec, f"worker timed out after {timeout:.0f} s", err)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if err:
        sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return _broken(spec, f"worker exited with code {proc.returncode}", "")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def _broken(spec: dict, why: str, err: str) -> dict:
    sys.stderr.write(err)
    return {"ops": [{"op": o["op"], "points": 0, "status": "failed", "problems": [why], "wall_s": 0.0}
                    for o in spec["ops"]]}


def gate_repeat(first_sha: str, again_sha: str | None) -> list[str]:
    """A repeated identical sweep, in a fresh process, writes a byte-identical CSV."""
    if first_sha == again_sha:
        return []
    return [f"repeated identical sweep wrote different bytes: {first_sha} vs {again_sha}"]


# ---------------------------------------------------------------------------
# a run


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    jobs = WORKLOADS[workload](seed, SIZES[size])
    WORK.mkdir(exist_ok=True)
    spans_dir = WORK / "spans" / f"{workload}-seed{seed}"
    if trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
    started = time.monotonic()

    def spec(job: int, ops: list, tmp: str, traced: bool = False, env: bool = False) -> dict:
        return {
            "job": job, "ops": ops, "trace": traced, "env": env,
            "work_dir": str(Path(tmp) / f"job{job}{'t' if traced else ''}"),
            "spans_path": str(spans_dir / f"job{job}.tsv") if traced else None,
        }

    def timeout() -> float:
        return max(10.0, WORKER_TIMEOUT_S - (time.monotonic() - started))

    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        probes = [run_worker(spec(-1 - i, [], tmp, env=i == 0), timeout()) for i in range(SETUP_PROBES)]
        measuring = time.monotonic()
        plain, traced, specs = [], [], []
        last_job_s = 0.0
        while not specs or (
            time.monotonic() - measuring < seconds
            and time.monotonic() - started + last_job_s < RUN_BUDGET_S
        ):
            ops = next(jobs)
            job = len(specs)
            job_start = time.monotonic()
            specs.append(ops)
            plain.append(run_worker(spec(job, ops, tmp), timeout()))
            if trace:
                traced.append(run_worker(spec(job, ops, tmp, traced=True), timeout()))
            last_job_s = time.monotonic() - job_start
        repeat = _repeat_first_sweep(specs[0], plain[0], len(specs), tmp, spec, timeout())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "env": environment(seed, probes[0].get("env", {})),
        "probes": probes, "plain": plain, "traced": traced, "repeat": repeat,
        "run_s": time.monotonic() - started,
    }


def _repeat_first_sweep(ops: list, result: dict, job: int, tmp: str, spec, timeout: float):
    """Re-run the first completed sweep of the first job in a fresh process and compare bytes."""
    done = [i for i, op in enumerate(ops) if op["op"] == "sweep" and str(i) in result.get("sha256", {})]
    if not done:
        return None
    again = run_worker(spec(job, [ops[done[0]]], tmp), timeout)
    problems = gate_repeat(result["sha256"][str(done[0])], again.get("sha256", {}).get("0"))
    if problems:
        for rec in again["ops"]:
            rec["status"] = "failed"
            rec["problems"] += problems
    return again


def environment(seed: int, worker_env: dict) -> dict:
    return {
        "python": worker_env.get("python", platform.python_version()),
        "numpy": worker_env.get("numpy"),
        "blas": worker_env.get("blas"),
        "kerrdown": worker_env.get("kerrdown"),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# metrics


def _ops(jobs: list[dict]) -> list[dict]:
    return [rec for job in jobs for rec in job["ops"]]


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def summarize(r: dict) -> dict:
    everything = _ops(r["plain"]) + _ops(r["traced"]) + (_ops([r["repeat"]]) if r["repeat"] else [])
    status = Counter(rec["status"] for rec in everything)
    problems = [p for rec in everything if rec["status"] == "failed" for p in rec["problems"]]
    ok = [rec for rec in _ops(r["plain"]) if rec["status"] == "ok"]
    walls = sorted(rec["wall_s"] for rec in ok)
    cpu = sum(rec.get("cpu_s", 0.0) for rec in ok)  # wall well above cpu: the worker waited for a core
    setups = [w["setup_s"] for w in r["probes"] + r["plain"] if "setup_s" in w]
    rss = [j["rss_mb"] for j in r["plain"] if "rss_mb" in j]
    e2e = {
        "setup_s": (_p50(setups), "s", f"median of {len(setups)} fresh processes"),
        "op_s_p50": (_p50(walls), "s", f"n={len(walls)}" + (f"; wall/cpu {sum(walls) / cpu:.3f}" if cpu else "")),
        "points_per_s": (
            sum(rec["points"] for rec in ok) / sum(walls) if walls else float("nan"), "1/s",
            f"{sum(rec['points'] for rec in ok)} points in {sum(walls):.3f} s of op time",
        ),
        "peak_rss_mb": (_p50(rss), "MB", f"median of {len(rss)} job workers"),
    }
    n = len(walls)
    rank = math.ceil(0.9 * n)
    p90 = (walls[rank - 1], f"n={n}, {n - rank} samples beyond") if n - rank >= 10 else (
        None, f"not reported: n={n} leaves {max(n - rank, 0)} < 10 samples beyond p90")
    attempted = sum(status.values())
    out = {
        "attempted": attempted,
        "failed": status["failed"],
        "skipped": status["skipped"],
        "failed_frac": (status["failed"] / attempted if attempted else 1.0, f"{status['failed']}/{attempted}"),
        "problems": problems,
        "e2e": e2e,
        "op_s_p90": p90,
        "checks_ok": not status["failed"] and attempted > 0 and bool(walls),
    }
    if r["trace"]:
        out["layers"], out["shares"], sum_problem = layer_metrics(r, e2e["op_s_p50"][0])
        if sum_problem:
            out["problems"].append(sum_problem)
            out["checks_ok"] = False
    return out


def _merge(summaries: list[dict]) -> dict:
    names = defaultdict(lambda: defaultdict(float))
    layers = defaultdict(lambda: defaultdict(float))
    errors: Counter = Counter()
    totals: Counter = Counter()
    for s in summaries:
        for n, d in s["names"].items():
            for f, v in d.items():
                names[n][f] += v
        for n, d in s["layers"].items():
            for f, v in d.items():
                layers[n][f] += v
        errors.update(s["layer_errors"])
        for f in ("root_s", "evolutions", "distinct_states", "spans_recorded", "spans_dropped"):
            totals[f] += s[f]
    return {"names": names, "layers": layers, "errors": errors, **totals}


def layer_metrics(r: dict, plain_p50: float):
    """Per-layer values with their bases, layer shares of the traced wall, and the sum check."""
    jobs = [j for j in r["traced"] if "trace" in j]
    t = _merge([j["trace"] for j in jobs])
    names, layers, errors = t["names"], t["layers"], t["errors"]
    traced_ok = [rec for rec in _ops(jobs) if rec["status"] == "ok"]
    traced_p50 = _p50([rec["wall_s"] for rec in traced_ok])
    traced_wall = sum(rec["wall_s"] for rec in _ops(jobs))
    evol, distinct = int(t["evolutions"]), int(t["distinct_states"])
    eigh_calls = int(names[EIGH]["calls"])
    v: dict[str, tuple] = {
        "fock_oracle.eigh.calls": (eigh_calls, ""),
        "fock_oracle.eigh.busy_s": (names[EIGH]["busy_s"], ""),
        "fock_oracle.moment_set.calls": (int(names["fock_oracle.moment_set"]["calls"]), ""),
        "fock_oracle.moment_set.self_s": (names["fock_oracle.moment_set"]["self_s"], ""),
        "fock_oracle.expect.calls": (int(names["fock_oracle.expect"]["calls"]), ""),
        "fock_oracle.expect.busy_s": (names["fock_oracle.expect"]["busy_s"], ""),
        "fock_oracle.evolve.busy_s": (names["fock_oracle.evolve"]["busy_s"], ""),
        "fock_oracle.build_hamiltonian.busy_s": (names["fock_oracle.build_hamiltonian"]["busy_s"], ""),
        "fock_oracle.evolutions": (evol, "moment_set + evolve calls"),
        "fock_oracle.distinct_states": (distinct, "distinct (params, t, n_max) per job"),
        "fock_oracle.state_reuse": (distinct / evol if evol else 0.0, f"{distinct}/{evol}"),
        "fock_oracle.eig_hit_ratio": (1.0 - eigh_calls / evol if evol else 0.0, f"1 - {eigh_calls}/{evol}"),
        "fock_oracle.errors": (sum(errors[f"fock_oracle:{e}"] for e in ORACLE_ERRORS), "/".join(ORACLE_ERRORS)),
        "squeezing_analytic.single_mode_fg.busy_s": (names["squeezing_analytic.single_mode_fg"]["busy_s"], ""),
        "quad_core.calls": (int(layers["quad_core"]["calls"]), "entries from other layers"),
        "quad_core.busy_s": (layers["quad_core"]["busy_s"], ""),
        "quad_core.degenerate": (errors["quad_core:DegenerateDenominator"], "DegenerateDenominator raised"),
        "fock_oracle.eigh.self_s": (layers[EIGH]["self_s"], ""),
        "cli.bytes_written": (sum(j.get("bytes_written", 0) for j in jobs), ""),
        "cli.files_written": (sum(j.get("files_written", 0) for j in jobs), ""),
    }
    for prefix in ("moments_engine", "squeezing_analytic"):
        for kind in KINDS:
            d = names[f"{prefix}.{kind}"]
            v[f"{prefix}.{kind}.calls"] = (int(d["calls"]), "")
            v[f"{prefix}.{kind}.busy_s"] = (d["busy_s"], "")
    for layer in LAYERS:
        v[f"{layer}.self_s"] = (layers[layer]["self_s"], "")
    unattributed = traced_wall - t["root_s"]
    overhead = traced_p50 - plain_p50
    v["unattributed_s"] = (unattributed, "traced op wall outside every span")
    v["traced_wall_s"] = (traced_wall, f"{len(_ops(jobs))} traced ops, {int(t['spans_recorded'])} spans "
                                       f"kept, {int(t['spans_dropped'])} past the cap")
    v["trace.overhead_s"] = (overhead, f"traced op_s_p50 {traced_p50:.6g} - untraced {plain_p50:.6g}")
    v["trace.overhead_frac"] = (overhead / plain_p50 if plain_p50 else 0.0, f"{overhead:.6g}/{plain_p50:.6g}")

    shares = {
        layer: (layers[layer]["self_s"], layers[layer]["self_s"] / traced_wall if traced_wall else 0.0)
        for layer in (*LAYERS, EIGH)
    }
    shares["unattributed"] = (unattributed, unattributed / traced_wall if traced_wall else 0.0)
    self_total = sum(layers[layer]["self_s"] for layer in (*LAYERS, EIGH))
    return v, shares, attribution_problem(self_total, t["root_s"], traced_wall, len(_ops(jobs)))


def attribution_problem(self_total: float, root_s: float, traced_wall: float, ops: int) -> str | None:
    """Check that the spans account for the traced ops' wall time.

    The layer self times must add up to the time of the root spans, and what
    the ops spent outside every span (`unattributed_s`) must lie between 0 and
    UNATTRIBUTED_PER_OP_S per op.
    """
    unattributed = traced_wall - root_s
    if not math.isclose(self_total, root_s, rel_tol=1e-9, abs_tol=1e-9):
        return f"layer self times {self_total:.6f} s do not add up to the root spans' {root_s:.6f} s"
    allowed = UNATTRIBUTED_PER_OP_S * ops
    if not -1e-9 <= unattributed <= allowed:
        return (f"unattributed {unattributed:.6f} s of traced wall {traced_wall:.6f} s is outside "
                f"[0, {allowed:.6f} s] for {ops} ops: some work ran outside every traced function")
    return None


# ---------------------------------------------------------------------------
# output


def report(r: dict, s: dict) -> tuple[list[str], dict]:
    """Human-readable lines and the result object for one run."""
    jobs = len(r["plain"])
    lines = [
        f"# kerrdown benchmark: workload={r['workload']} seed={r['seed']} seconds={r['seconds']:g} "
        f"trace={int(r['trace'])} size={r['size']}",
        "# env " + json.dumps(r["env"], sort_keys=True),
        f"# {jobs} jobs, {s['attempted']} ops attempted ({s['skipped']} skipped as refused by design, "
        f"{s['failed']} failed), run wall {r['run_s']:.2f} s",
    ]
    for name, (value, unit, note) in s["e2e"].items():
        lines.append(f"# {name:<13s}= {value:.6g} {unit}  ({note})")
    p90, note = s["op_s_p90"]
    lines.append(f"# {'op_s_p90':<13s}= {p90:.6g} s  ({note})" if p90 is not None else f"# op_s_p90     : {note}")
    frac, base = s["failed_frac"]
    lines.append(f"# {'failed_frac':<13s}= {frac:.6g}  ({base})")
    if r["trace"]:
        lines.append("# per-layer (traced run):")
        units = {n: u for n, u, _ in PER_LAYER}
        for name, (value, base) in s["layers"].items():
            lines.append(f"#   {name:<44s} {value:.6g} {units[name]}" + (f"  ({base})" if base else ""))
        lines.append("# layer self-time shares of the traced wall:")
        for layer, (secs, share) in sorted(s["shares"].items(), key=lambda kv: -kv[1][0]):
            lines.append(f"#   {layer:<22s} {secs:10.4f} s  {100 * share:6.2f} %")
    for p in s["problems"][:20]:
        lines.append(f"# FAILED: {p}")
    if r["trace"]:
        metrics = {n: {"value": s["layers"][n][0], "unit": u} for n, u, _ in PER_LAYER}
    else:
        metrics = {n: {"value": s["e2e"][n][0], "unit": u} for n, u, _ in END_TO_END}
    result = {
        "correct": s["checks_ok"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: m for k, m in metrics.items() if math.isfinite(m["value"])},
    }
    return lines, result


def record(r: dict, s: dict, result: dict) -> dict:
    """The full machine-readable record of a run, for --out."""
    return {
        "workload": r["workload"], "seed": r["seed"], "seconds": r["seconds"], "trace": r["trace"],
        "env": r["env"], "result": result,
        "end_to_end": {n: {"value": v, "unit": u, "base": b} for n, (v, u, b) in s["e2e"].items()},
        "op_s_p90": {"value": s["op_s_p90"][0], "base": s["op_s_p90"][1]},
        "failed_frac": {"value": s["failed_frac"][0], "base": s["failed_frac"][1]},
        "per_layer": {n: {"value": v, "base": b} for n, (v, b) in s.get("layers", {}).items()},
        "shares": {n: {"self_s": a, "share": b} for n, (a, b) in s.get("shares", {}).items()},
        "problems": s["problems"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="write the full run record(s) as JSON")
    args = parser.parse_args(argv)
    if not (SRC / "kerrdown" / "__init__.py").is_file():
        print(f"benchmark: kerrdown sources not found under {SRC}", file=sys.stderr)
        return 2
    records, correct = [], True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        r = run(workload, args.seed, args.seconds, bool(args.trace))
        s = summarize(r)
        lines, result = report(r, s)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        records.append(record(r, s, result))
        correct = correct and result["correct"]
    if args.out is not None:
        args.out.write_text(json.dumps(records if len(records) > 1 else records[0], indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
