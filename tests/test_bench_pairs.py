"""scripts/bench_pairs.py's statistics, on synthetic readings (no benchmark runs)."""

import importlib.util
import re
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"wall_s": "lower", "plan_steps_per_s": "higher"}


def _run(wall_s, steps_per_s=1000.0, raw=None, calibration=0.02):
    return {
        "metrics": {"wall_s": wall_s, "plan_steps_per_s": steps_per_s},
        "raw_wall_s": wall_s if raw is None else raw,
        "calibration_s": calibration,
        "correct": True,
        "failed_ops": 0,
        "ops": 3,
        "payload_sha256": {"a": "0"},
    }


def _pairs(parent: list, change: list, metric="wall_s") -> list[dict]:
    def run(v):
        return _run(v) if metric == "wall_s" else _run(1.0, steps_per_s=v)

    return [{"name_length": 2, "parent": run(p), "change": run(c)} for p, c in zip(parent, change)]


def _row(lines: list[str], name: str) -> tuple[int, int, str]:
    """(pairs the change won, pairs, beyond/within) of the row `name`."""
    row = next(line for line in lines if line.split()[0] == name)
    won = re.search(r"change won (\d+)/(\d+)", row)
    return int(won[1]), int(won[2]), re.search(r"shift (beyond|within) parent", row)[1]


def test_spread():
    assert bench_pairs.spread([3.0]) == (3.0, 3.0, 3.0)
    assert bench_pairs.spread([5.0, 1.0, 4.0, 2.0, 3.0]) == (2.0, 3.0, 4.0)


def test_ties_count_for_neither_side():
    lines = bench_pairs.summarize("w", _pairs([1.0, 1.0, 1.0, 1.0], [1.0, 0.9, 1.0, 1.1]), BETTER)
    assert _row(lines, "wall_s")[:2] == (1, 4)


@pytest.mark.parametrize(
    "parent, change, verdict",
    [
        # a wide parent spread (0.2) hides a shift of 0.15, however tight the change
        ([1.0, 1.1, 1.2, 1.3, 1.4], [1.05] * 5, "within"),
        # a tight parent (spread 0) shows a shift of 0.01, however wide the change
        ([1.0] * 5, [0.5, 0.9, 0.99, 2.0, 3.0], "beyond"),
    ],
    ids=["wide_parent", "tight_parent"],
)
def test_verdict_uses_parent_quartile_spread(parent, change, verdict):
    lines = bench_pairs.summarize("w", _pairs(parent, change), BETTER)
    assert _row(lines, "wall_s")[2] == verdict


@pytest.mark.parametrize(
    "metric, parent, change, won",
    [
        ("wall_s", [1.0, 1.0, 1.0], [0.9, 0.8, 1.2], 2),  # lower is better
        ("plan_steps_per_s", [100.0, 100.0, 100.0], [90.0, 120.0, 130.0], 2),  # higher is better
    ],
)
def test_direction_of_better(metric, parent, change, won):
    lines = bench_pairs.summarize("w", _pairs(parent, change, metric), BETTER)
    assert _row(lines, metric)[:2] == (won, 3)


def test_raw_and_calibration_columns():
    pairs = [{"name_length": 2, "parent": _run(1.0, raw=0.8, calibration=0.021),
              "change": _run(1.2, raw=0.8, calibration=0.014)}]
    lines = bench_pairs.summarize("w", pairs, BETTER)
    assert "parent 0.8 " in next(line for line in lines if line.split()[0] == "raw_wall_s")
    row = next(line for line in lines if line.split()[0] == "calibration_s")
    assert "parent 0.021 " in row and "change 0.014 " in row
    assert lines[-1] == "  payload digests equal on both sides"


def test_raw_setup_column_sits_beside_setup_s():
    def run(setup_s, raw_setup_s):
        reading = _run(1.0)
        reading["metrics"]["setup_s"] = setup_s
        reading["raw_setup_s"] = raw_setup_s
        return reading

    better = {"setup_s": "lower", **BETTER}
    pairs = [{"name_length": 2, "parent": run(0.33, 0.30), "change": run(0.30, r)} for r in (0.27, 0.31)]
    lines = bench_pairs.summarize("w", pairs, better)
    rows = [line.split()[0] for line in lines[1:7]]
    assert rows == ["setup_s", "raw_setup_s", "wall_s", "raw_wall_s", "plan_steps_per_s", "calibration_s"]
    assert _row(lines, "raw_setup_s")[:2] == (1, 2)
    row = next(line for line in lines if line.split()[0] == "raw_setup_s")
    assert "parent 0.3 " in row and "change 0.29 " in row


def test_readings_take_medians_of_untraced_iterations():
    def iteration(traced, setup, wall, calibration):
        return {"traced": traced, "raw_setup_s": setup, "raw_wall_s": wall, "calibration_s": calibration}

    report = {
        "metrics": {"setup_s": {"value": 0.3}, "wall_s": {"value": 1.0}},
        "iterations": [
            iteration(False, 0.30, 1.0, [0.5, 0.020, 0.022]),
            iteration(False, 0.28, 1.2, [0.5, 0.021]),
            iteration(False, 0.35, 0.9, [0.5, 0.023]),
            iteration(True, 9.0, 9.0, [9.0, 9.0]),  # a traced iteration does not count
        ],
        "correct": True, "failed_ops": 0, "ops": 3, "payload_sha256": {},
    }
    got = bench_pairs.readings(report)
    assert got["metrics"] == {"setup_s": 0.3, "wall_s": 1.0}
    assert got["raw_setup_s"] == 0.30 and got["raw_wall_s"] == 1.0
    # an iteration's first calibration precedes its first op
    assert got["calibration_s"] == 0.0215


def test_per_op_raw_medians():
    # plan-io's first op also builds the CLI parser; its own row keeps it
    # apart from the ops after it
    def iteration(traced, ops):
        return {"traced": traced, "raw_setup_s": 0.3, "raw_wall_s": sum(ops), "calibration_s": [0.5, 0.02],
                "raw_op_s": ops}

    report = {
        "metrics": {"wall_s": {"value": 1.0}},
        "iterations": [
            iteration(False, [0.010, 0.002, 0.003]),
            iteration(False, [0.012, 0.004, 0.002]),
            iteration(False, [0.008, 0.003, 0.004]),
            iteration(True, [9.0, 9.0, 9.0]),  # a traced iteration does not count
        ],
        "correct": True, "failed_ops": 0, "ops": 3, "payload_sha256": {},
    }
    got = bench_pairs.readings(report)
    assert [got[f"raw_op_s[{k}]"] for k in (1, 2, 3)] == [0.010, 0.003, 0.003]

    def run(first_op):
        return {**_run(1.0), "raw_op_s[1]": first_op, "raw_op_s[2]": 0.003, "raw_op_s[3]": 0.003}

    pairs = [{"name_length": 2, "parent": run(0.010), "change": run(c)} for c in (0.009, 0.008, 0.011)]
    lines = bench_pairs.summarize("w", pairs, BETTER)
    rows = [line.split()[0] for line in lines[1:8]]
    assert rows == ["wall_s", "raw_wall_s", "plan_steps_per_s", "calibration_s",
                    "raw_op_s[1]", "raw_op_s[2]", "raw_op_s[3]"]
    assert _row(lines, "raw_op_s[1]")[:2] == (2, 3)
    row = next(line for line in lines if line.split()[0] == "raw_op_s[1]")
    assert "parent 0.01 " in row and "change 0.009 " in row
