"""The benchmark harness's entry points still run against the package.

`benchmarks/worker.py` drives kerrdown only through public names
(`verify.run_verification`, `cli.SweepRequest`, `cli.write_figure`,
`fock_oracle.moment_set_numeric`, `moments_engine.moments_for`).  One tiny
job with one op of each kind runs in-process, untraced and traced, and every
op must pass the worker's own correctness gates.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
PARAMS = [0.5, 0.1, 0.4, 0.3]

OPS = [
    {"op": "verify"},
    *(
        {"op": "sweep", "cell": 0, "kind": "two", "conv": "paper", "engine": engine,
         "params": PARAMS, "t_max": 3.0, "steps": 50}
        for engine in ("analytic", "moments")
    ),
    {"op": "figure", "id": "2b", "steps": 20},
    {"op": "cutoff", "params": PARAMS, "times": [0.5, 1.5], "cutoffs": [24, 32]},
]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_op_of_a_tiny_job_passes_its_gates(monkeypatch, tmp_path, trace):
    monkeypatch.syspath_prepend(str(BENCH))
    import worker

    result = worker.run_job({"job": 0, "ops": OPS, "trace": trace, "work_dir": str(tmp_path)})
    assert [op["op"] for op in result["ops"]] == [op["op"] for op in OPS]
    for rec in result["ops"]:
        assert (rec["status"], rec["problems"]) == ("ok", []), rec
    assert ("trace" in result) == bool(trace)
