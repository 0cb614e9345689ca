"""Smoke test of the benchmark itself, at tiny scale (about a minute).

    python3 -m pytest -q perfbench/test_smoke.py

It runs every workload of BENCHMARK.json untraced and traced and checks
that each metric named there is printed with its unit, that the output
checks pass, and that traced and untraced iterations wrote checkpoint
payloads with identical digests.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# The tiny scale barely trains; seed 1 makes a corpus the toy model learns
# quickly, which keeps the perplexity check far from its limit.
SEED = 1


def run_bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json_line(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out = last_json_line(run_bench(workload, 0))
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    out = last_json_line(run_bench(workload, 1))
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == expected

    report = json.loads((HERE / "results" / f"{workload}-seed{SEED}-trace1.json").read_text())
    assert report["problems"] == []
    assert {it["traced"] for it in report["iterations"]} == {False, True}
    # run.py fails the run when digests differ between iterations, so a
    # correct traced run means traced and untraced payloads are identical
    if workload != "plan-io":
        assert report["payload_sha256"]
    executed = out["metrics"]["trainer.steps_executed"]["value"]
    unique = out["metrics"]["trainer.steps_unique"]["value"]
    if workload == "lifecycle-ps":
        assert executed == unique > 0  # no phase of the lifecycle repeats another
    elif workload == "probe-grid":
        assert executed >= unique > 0
    assert abs(out["metrics"]["bench.span_coverage"]["value"] - 1.0) < 0.03


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
