"""What a command loads: the commands that do not train load neither numpy
nor the process pool, and a run that spawns no helper loads no pool.

Each check runs in a fresh interpreter, since this one has loaded both.
`tests/test_helper.py` covers `run_all` with helpers.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import lrpath

SRC = Path(lrpath.__file__).resolve().parents[1]
POOL = ["multiprocessing", "concurrent.futures.process"]


def loaded_after(code: str, modules: list[str], cwd: Path) -> list[str]:
    """Those of `modules` that are loaded after `code` runs in a fresh interpreter."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps([m for m in {modules!r} if m in sys.modules]))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_that_do_not_train_load_no_numpy_and_no_pool(tmp_path):
    report = {"paradigm": "ptfs", "seeds": [0], "total_steps": 20,
              "versions": {"1": {"ppl": [9.0], "nll": [2.2], "mean_ppl": 9.0}}}
    (tmp_path / "report.json").write_text(json.dumps(report), encoding="utf-8")
    code = """
from lrpath.cli import main
for argv in (
    ["plan", "--paradigm", "path_switch:0.6", "--versions", "3", "--steps", "100", "--warmup", "10",
     "--out", "plan.json"],
    ["cost", "--versions", "3"],
    ["schedule", "--to", "50", "--out", "lr.csv"],
    ["compare", "report.json"],
):
    assert main(argv) == 0, argv
"""
    assert loaded_after(code, ["numpy", *POOL], tmp_path) == []
    assert (tmp_path / "plan.json").stat().st_size > 0


def test_run_single_loads_no_pool(tmp_path):
    code = """
from lrpath.paradigm import build_plan, parse_paradigm, uniform_spec
from lrpath.schedule import INFINITE, ScheduleConfig, ScheduleKind
from lrpath.trainer import RunConfig, ToyModelConfig, run_single

spec = uniform_spec(2, 10, ScheduleConfig(ScheduleKind.COSINE, 1e-3, 1e-4, 2, INFINITE))
model = ToyModelConfig(vocab_size=32, context_len=4, embed_dim=8, hidden_dim=16, batch_size=8)
cfg = RunConfig(model=model, tokens_per_step=20, heldout_tokens=500)
reports, _ = run_single(build_plan(parse_paradigm("path_switch:0.6"), spec), cfg, 0, None)
assert set(reports) == {1, 2}
"""
    assert loaded_after(code, ["numpy", *POOL], tmp_path) == ["numpy"]


def test_run_with_one_job_loads_no_pool(tmp_path):
    config = {
        "paradigms": ["path_switch:0.6"], "num_versions": 2, "steps_per_version": 10,
        "schedule": {"kind": "cosine", "eta_max": 1e-3, "eta_min": 1e-4, "warmup_steps": 2},
        "model": {"vocab_size": 32, "context_len": 4, "embed_dim": 8, "hidden_dim": 16, "batch_size": 8},
        "tokens_per_step": 20, "heldout_tokens": 500,
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    code = """
from lrpath.cli import main
assert main(["run", "config.json", "--out", "out", "--jobs", "1"]) == 0
"""
    assert loaded_after(code, POOL, tmp_path) == []
    assert (tmp_path / "out" / "report.json").exists()
