"""scripts/bench_record.py and the BENCH_*.json files it wrote: the keys
each record holds, never its timings."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from lrpath.paradigm import plan_cost

ROOT = Path(__file__).resolve().parents[1]
_PATH = ROOT / "scripts" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

ENVIRONMENT = {"python", "numpy", "blas_name", "blas_version", "blas_threads", "cpu_model", "nproc", "workers"}
LAYERS = {"make_corpus", "sample_windows", "forward_loss", "backward", "_adam_apply", "evaluate_ppl"}
PLAN_ROWS = {"build_plan_s", "validate_plan_s", "plan_to_json_s", "plan_from_dict_s", "document_bytes"}
C6_PARADIGMS = {"ptfs", "cpt:reset_max", "cpt:rewarm_max", "cpt:keep_min", "path_switch:0.6"}


def _assert_record(doc: dict, scale: str) -> None:
    assert set(doc) == {
        "scale", "environment", "layers_s", "plan_io", "train_phase_us_per_step", "run_single_s", "c6_steps",
    }
    assert doc["scale"] == scale
    assert set(doc["environment"]) == ENVIRONMENT
    assert set(doc["layers_s"]) == {"float32", "float64"}
    for per_call in doc["layers_s"].values():
        assert set(per_call) == LAYERS
        assert all(type(s) is float for s in per_call.values())
    assert set(doc["plan_io"]) == {"path_switch:0.6", "ptfs", "cpt:reset_max"}
    for row in doc["plan_io"].values():
        assert set(row) == PLAN_ROWS
        assert type(row["document_bytes"]) is int
    assert type(doc["train_phase_us_per_step"]) is float
    assert set(doc["run_single_s"]) == C6_PARADIGMS
    assert doc["c6_steps"] == (316_800 if scale == "full" else 3_168)


def test_tiny_record_parses(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(_PATH), "--out", str(out), "--scale", "tiny"], check=True, cwd=tmp_path)
    _assert_record(json.loads(out.read_text(encoding="utf-8")), "tiny")


def test_c6_step_total():
    # five paradigms and ten two-stage probes, three seeds each
    plans = bench_record.c6_plans(2000)
    assert len(plans) == 15
    assert 3 * sum(plan_cost(plan) for plan in plans.values()) == 316_800


COMMITTED = sorted(ROOT.glob("BENCH_*.json"))


def test_a_record_is_committed():
    assert COMMITTED


@pytest.mark.parametrize("path", COMMITTED, ids=[p.name for p in COMMITTED])
def test_committed_record_keys(path):
    _assert_record(json.loads(path.read_text(encoding="utf-8")), "full")
