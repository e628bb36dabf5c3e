"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q

Every workload runs once untraced and once traced; each must pass its gate
and print every metric ``BENCHMARK.json`` names, with its unit. A job whose
result is deliberately wrong must be counted as failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, trace: int) -> tuple[str, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
           "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return proc.stdout, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_workload_prints_every_metric(workload, trace):
    text, res = _run(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    specs = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        for m in specs:
            assert f"{m['name']}=" in text
    else:
        assert res["metrics"]["job_rel"]["value"] > 0.0
        assert "samples=" in text and "fail_frac=" in text


def test_metric_lists_match_benchmark_json():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    import workloads

    assert ([(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]]
            == [spec[:3] for spec in tracing.METRICS])
    assert NAMES == list(workloads.WORKLOADS)


def test_wrong_result_counts_as_failure(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    w = workloads.SolveDrk1Slow(seed=3, workdir=str(tmp_path), tiny=True)
    w.setup()
    w.reference()
    good = workloads.Tally()
    workloads.run_job(w, good)
    assert good.failed == 0

    solve = w.job

    def wrong():
        res = solve()
        res.lambda_hat += 1e-6 * w.frob
        return res

    w.job = wrong
    bad = workloads.Tally()
    workloads.run_job(w, bad)
    assert (bad.attempted, bad.failed) == (1, 1)
    assert "lambda error" in bad.problems[0]


def test_missing_sources_exit_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", NAMES[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
