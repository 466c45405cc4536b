"""Smoke tests of the benchmark itself.

    python3 -m pytest benchmarks/tests -q

Every correctness gate is fed a corrupted result and must fail; every
workload runs at a tiny size and must report every named metric with its
unit; the seeded inputs repeat for one seed and differ between two.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
from kerrdown import cli, moments_engine, quad_core, verify  # noqa: E402
from kerrdown.moments_engine import SqueezeKind, SystemParams  # noqa: E402
from tracer import Tracer  # noqa: E402


def _contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_contract_matches_what_the_runner_reports():
    c = _contract()
    assert c["command"] == ["python3", "benchmarks/run.py"]
    assert c["paths"] == ["benchmarks"]
    assert [w["name"] for w in c["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in c["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in c["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in c["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


# ---------------------------------------------------------------------------
# seeded inputs


def _first_jobs(workload: str, seed: int, n: int = 3) -> list:
    jobs = run.WORKLOADS[workload](seed, run.SIZES["full"])
    return [next(jobs) for _ in range(n)]


@pytest.mark.parametrize("workload", ["closed-form-sweep", "oracle-cold-cutoff"])
def test_one_seed_repeats_its_inputs_and_two_seeds_differ(workload):
    assert _first_jobs(workload, 7) == _first_jobs(workload, 7)
    assert _first_jobs(workload, 7) != _first_jobs(workload, 8)


def test_verify_grid_is_fixed_by_the_program():
    assert _first_jobs("verify-grid", 7) == _first_jobs("verify-grid", 8) == [[{"op": "verify"}]] * 3


def _inside(x: float, domain: tuple) -> bool:
    low, high, step = domain
    return low <= x <= high and math.isclose((x - low) / step, round((x - low) / step), abs_tol=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_draws_stay_in_the_documented_domains(seed):
    for job in _first_jobs("closed-form-sweep", seed, 5):
        sweeps = [op for op in job if op["op"] == "sweep"]
        assert len(sweeps) == 2 * len(run.KIND_CELLS)
        assert sorted(op["id"] for op in job if op["op"] == "figure") == sorted(run.FIGURE_IDS)
        for op in sweeps:
            chi, k, a1, a2 = op["params"]
            assert _inside(chi, run.CHI) and _inside(k, run.K)
            assert _inside(a1, run.ALPHA) and _inside(a2, run.ALPHA)
            assert _inside(op["t_max"], run.SWEEP_T_MAX)
    for job in _first_jobs("oracle-cold-cutoff", seed, 5):
        for op in job:
            chi, k, a1, a2 = op["params"]
            assert _inside(chi, run.CHI) and _inside(k, run.ORACLE_K)
            assert _inside(a1, run.ALPHA) and _inside(a2, run.ALPHA)
            assert all(_inside(t, run.ORACLE_T) for t in op["times"])
            assert len(set(op["times"])) == len(op["times"])


# ---------------------------------------------------------------------------
# every gate can fail


def test_verify_gate_fails_on_a_failed_report():
    passing = verify.VerificationReport(checks=[verify.Check("x", 0.1, 1.0)])
    failing = verify.VerificationReport(checks=[verify.Check("x", 2.0, 1.0)])
    assert worker.gate_verify(passing) == []
    assert worker.gate_verify(failing)


def _sweep_csv(engine: str, steps: int = 30) -> str:
    req = cli.SweepRequest(
        kind=SqueezeKind.TWO_MODE, engine=engine, params=SystemParams(0.3, 0.05, 0.3, 0.2),
        t_max=4.0, steps=steps,
    )
    return cli.run_sweep(req).to_csv()


def _corrupt_cell(csv: str, row: int, col: int, delta: float) -> str:
    lines = csv.splitlines()
    data = [i for i, line in enumerate(lines) if line[0].isdigit() or line[0] == "-"]
    cells = lines[data[row]].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[data[row]] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_sweep_pair_gate_fails_when_engines_disagree():
    analytic, moments = _sweep_csv("analytic"), _sweep_csv("moments")
    assert worker.gate_sweep_pair(analytic, moments) == []
    assert worker.gate_sweep_pair(analytic, _corrupt_cell(moments, 5, 1, 1e-9))


def test_envelope_gate_fails_when_v_exceeds_min_f_g():
    rows = worker.parse_csv(_sweep_csv("moments"))
    assert worker.gate_envelope(rows) == []
    t, f, g, v = rows[3]
    rows[3] = (t, f, g, min(f, g) + 1e-9)
    assert worker.gate_envelope(rows)


def test_figure_gate_fails_when_v_exceeds_a_curve(tmp_path):
    paths = cli.write_figure("2a", tmp_path, steps=15)
    assert worker.gate_figure(paths) == []
    v_curve = next(p for p in paths if p.name.startswith("fig2a_v_"))
    lines = v_curve.read_text().splitlines()
    t, _ = lines[5].split(",")
    lines[5] = f"{t},1e3"
    v_curve.write_text("\n".join(lines) + "\n")
    assert worker.gate_figure(paths)


def test_repeat_gate_fails_on_different_bytes():
    assert run.gate_repeat("ab" * 32, "ab" * 32) == []
    assert run.gate_repeat("ab" * 32, "ac" * 32)
    assert run.gate_repeat("ab" * 32, None)


def _reference_sets(p: SystemParams, times: list[float]) -> list[tuple]:
    return [
        worker._moment_tuple(moments_engine.moments_for(p, t, kind)) for kind in SqueezeKind for t in times
    ]


def _shifted(sets: list[tuple], delta: float) -> list[tuple]:
    return [sets[0][:2] + (sets[0][2] + delta,) + sets[0][3:]] + sets[1:]


def test_cutoff_gate_fails_when_doubling_moves_a_moment():
    ref = _reference_sets(SystemParams(0.2, 0.07, 0.3, 0.1), [0.5, 2.5])
    assert worker.gate_cutoff(ref, ref) == []
    assert worker.gate_cutoff(ref, _shifted(ref, 2e-8))


def test_oracle_gate_fails_when_oracle_and_moments_disagree():
    ref = _reference_sets(SystemParams(0.2, 0.07, 0.3, 0.1), [0.5, 2.5])
    assert worker.gate_oracle_vs_moments(ref, ref) == []
    assert worker.gate_oracle_vs_moments(_shifted(ref, 2e-6), ref)


def test_a_failed_gate_makes_the_command_exit_nonzero(monkeypatch, capsys):
    def failing_worker(spec, timeout):
        ops = [{"op": o["op"], "points": 1, "status": "failed", "problems": ["corrupted"], "wall_s": 0.1}
               for o in spec["ops"]]
        return {"ops": ops, "rss_mb": 30.0, "setup_s": 0.1, "sha256": {}}

    monkeypatch.setattr(run, "run_worker", failing_worker)
    code = run.main(["--workload", "oracle-cold-cutoff", "--seed", "1", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"] > 0


def test_exits_nonzero_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "closed-form-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# ---------------------------------------------------------------------------
# the tracer


def test_tracer_self_times_add_up_and_uninstall_restores():
    original = (quad_core.factor_phase, moments_engine.moments_for, cli.SweepResult.to_csv)
    tracer = Tracer(job=0)
    tracer.install()
    try:
        start = time.perf_counter()
        _sweep_csv("analytic", steps=50)
        _sweep_csv("moments", steps=50)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert (quad_core.factor_phase, moments_engine.moments_for, cli.SweepResult.to_csv) == original
    s = tracer.summary()
    assert s["names"]["moments_engine.two"]["calls"] == 100
    assert s["names"]["squeezing_analytic.two"]["calls"] == 50
    assert "fock_oracle.eigh" not in s["names"]
    self_total = sum(d["self_s"] for d in s["layers"].values())
    assert 0.0 < s["root_s"] <= wall
    assert run.attribution_problem(self_total, s["root_s"], wall, ops=2) is None


def test_attribution_check_fails_when_op_work_runs_outside_every_span(monkeypatch, tmp_path):
    op = {"op": "sweep", "cell": 0, "kind": "two", "conv": "paper", "engine": "moments",
          "params": [0.3, 0.05, 0.3, 0.2], "t_max": 4.0, "steps": 400}

    def attribution_problem():
        spec = {"job": 0, "ops": [op], "trace": True, "work_dir": str(tmp_path), "spans_path": None}
        _, _, problem = run.layer_metrics({"traced": [worker.run_job(spec)]}, plain_p50=1.0)
        return problem

    assert attribution_problem() is None

    def sweep_with_untraced_work(op, out):
        time.sleep(0.2)
        return worker.op_sweep(op, out)

    monkeypatch.setitem(worker.OPS, "sweep", sweep_with_untraced_work)
    assert "unattributed" in attribution_problem()


# ---------------------------------------------------------------------------
# every workload at a tiny size


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_reports_every_named_metric_with_its_unit(workload):
    r = run.run(workload, seed=3, seconds=0, trace=True, size="tiny")
    s = run.summarize(r)
    assert s["problems"] == []
    c = _contract()
    for trace, listed in ((False, c["end_to_end"]), (True, c["per_layer"])):
        _, result = run.report({**r, "trace": trace}, s)
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert all(value > 0 for value, _, _ in s["e2e"].values())
    env = r["env"]
    assert env["seed"] == 3 and env["nproc"] >= 1 and env["thread_env"] == run.THREAD_ENV
    assert env["numpy"] and env["blas"] and env["python"]
