"""perfbench: the lrpath benchmark.

    python3 perfbench/run.py --workload lifecycle-ps --seed 0 --seconds 30 --trace 0

Run from the root of a checkout of the repository. The benchmark runs the
lrpath sources under `src/` of that checkout. It repeats the workload,
each iteration in a fresh worker process (worker.py), until --seconds
have passed, checks every iteration's outputs and prints, as its last
line, one JSON object with the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1). Times are in reference seconds: each worker
converts its times by a calibration task it runs between ops, so that the
figures do not follow the machine's changes of speed. Workloads, metrics,
the calibration and the predictions they serve are described in
perfbench/README.md.

With --trace 1 the iterations alternate between untraced and traced, so
that the tracing overhead and the digest comparison come from one run.

Exit status: 0 when every check passed, 1 when a check failed (the JSON
line is still printed), 2 when the benchmark cannot run at all (no JSON).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.monotonic()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"
RESULTS = HERE / "results"
WORKLOADS = ("lifecycle-ps", "probe-grid", "plan-io")
# A run must end within 180 s; no iteration starts that cannot finish
# before this budget, judged by the slowest iteration so far.
BUDGET_S = 165.0
# Tolerance of the check that span self times add up to the traced wall.
COVERAGE_TOLERANCE = 0.03

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "plan_steps_per_s": "steps/s",
    "peak_rss_mb": "MB",
    "plan_json_mb": "MB",
}

# per-layer metric -> (source, key, unit). Sources: "self_s", "calls" and
# "counters" of the traced iterations' trace summaries; "traced" and
# "untraced" fields of the iteration results; "derived" from both.
PER_LAYER = {
    "trainer.forward.train_self_s": ("self_s", "trainer.forward.train", "s"),
    "trainer.forward.eval_self_s": ("self_s", "trainer.forward.eval", "s"),
    "trainer.backward.self_s": ("self_s", "trainer.backward", "s"),
    "trainer.optimizer.self_s": ("self_s", "trainer.optimizer", "s"),
    "trainer.sample.self_s": ("self_s", "trainer.sample", "s"),
    "trainer.step_loop.self_s": ("self_s", "trainer.step_loop", "s"),
    "trainer.steps_executed": ("counters", "trainer.steps_executed", "count"),
    "trainer.steps_unique": ("counters", "trainer.steps_unique", "count"),
    "trainer.eval.self_s": ("self_s", "trainer.eval", "s"),
    "trainer.eval.tokens": ("counters", "trainer.eval.tokens", "count"),
    "trainer.eval.final_ppl": ("traced", "final_ppl", "ppl"),
    "trainer.corpus.calls": ("calls", "trainer.corpus", "count"),
    "trainer.corpus.self_s": ("self_s", "trainer.corpus", "s"),
    "trainer.corpus.tokens": ("counters", "trainer.corpus.tokens", "count"),
    "trainer.run.self_s": ("self_s", "trainer.run", "s"),
    "lineage.save_payload.calls": ("calls", "lineage.save_payload", "count"),
    "lineage.save_payload.self_s": ("self_s", "lineage.save_payload", "s"),
    "lineage.save_payload.bytes": ("counters", "lineage.save_payload.bytes", "B"),
    "lineage.save_manifest.self_s": ("self_s", "lineage.save_manifest", "s"),
    "lineage.record_checkpoint.self_s": ("self_s", "lineage.record_checkpoint", "s"),
    "lineage.allocate_segments.self_s": ("self_s", "lineage.allocate_segments", "s"),
    "schedule.lr_at.calls": ("calls", "schedule.lr_at", "count"),
    "schedule.lr_at.self_s": ("self_s", "schedule.lr_at", "s"),
    "schedule.validate_config.calls": ("calls", "schedule.validate_config", "count"),
    "schedule.validate_config.self_s": ("self_s", "schedule.validate_config", "s"),
    "schedule.decay_segment.self_s": ("self_s", "schedule.decay_segment", "s"),
    "paradigm.build_plan.self_s": ("self_s", "paradigm.build_plan", "s"),
    "paradigm.build_probe.self_s": ("self_s", "paradigm.build_probe", "s"),
    "paradigm.validate_plan.self_s": ("self_s", "paradigm.validate_plan", "s"),
    "paradigm.plan_to_json.self_s": ("self_s", "paradigm.plan_to_json", "s"),
    "paradigm.plan_from_dict.self_s": ("self_s", "paradigm.plan_from_dict", "s"),
    "paradigm.plan_json_bytes": ("traced", "plan_json_bytes", "B"),
    "cost.paradigm_cost.self_s": ("self_s", "cost.paradigm_cost", "s"),
    "cli.run.self_s": ("self_s", "cli.run", "s"),
    "cli.plan.self_s": ("self_s", "cli.plan", "s"),
    "bench.plan_json_load.self_s": ("self_s", "bench.plan_json_load", "s"),
    "bench.trace_hooks.self_s": ("self_s", "bench.trace_hooks", "s"),
    "bench.harness.self_s": ("self_s", "bench.harness", "s"),
    "bench.traced_wall_s": ("traced", "wall_s", "s"),
    "bench.untraced_wall_s": ("untraced", "wall_s", "s"),
    "bench.trace_overhead_s": ("derived", None, "s"),
    "bench.span_coverage": ("derived", None, "ratio"),
    "bench.calibration_s": ("derived", None, "s"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: same shapes at smoke-test size")
    return parser.parse_args(argv)


def run_iteration(args, index: int, traced: bool, seed: int) -> dict:
    """Run one worker process; returns its result, or a failure record."""
    WORKDIR.mkdir(parents=True, exist_ok=True)
    result_path = WORKDIR / f"it{index}.json"
    result_path.unlink(missing_ok=True)
    remaining = BUDGET_S - (time.monotonic() - STARTED)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--root", str(ROOT), "--workload", args.workload, "--seed", str(seed),
        "--trace", "1" if traced else "0", "--scale", args.scale,
        "--workdir", str(WORKDIR / f"it{index}"), "--result", str(result_path),
        "--spawned-at", repr(time.time()),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(remaining, 1.0))
    except subprocess.TimeoutExpired:
        return {"crashed": f"iteration {index} exceeded the {BUDGET_S:.0f} s budget"}
    if proc.returncode != 0 or not result_path.exists():
        return {"crashed": f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(result_path.read_text(encoding="utf-8"))


def span_coverage(res: dict) -> float:
    """Sum of all span self times over the traced wall time."""
    return sum(res["trace"]["self_s"].values()) / res["wall_s"]


def per_layer_value(metric: str, traced: list[dict], untraced: list[dict]) -> float:
    source, key, _ = PER_LAYER[metric]
    median = statistics.median
    if metric == "bench.trace_overhead_s":
        return median(r["wall_s"] for r in traced) - median(r["wall_s"] for r in untraced)
    if metric == "bench.span_coverage":
        return median(span_coverage(r) for r in traced)
    if metric == "bench.calibration_s":
        return median(c for r in untraced for c in r["calibration_s"])
    if source in ("traced", "untraced"):
        return median(r.get(key) or 0 for r in (traced if source == "traced" else untraced))
    return median(r["trace"][source].get(key, 0) for r in traced)


def source_digest() -> str:
    """sha256 over the lrpath sources the benchmark ran, by relative path."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lrpath" / "__init__.py").is_file():
        print(f"perfbench: no lrpath sources at {ROOT / 'src' / 'lrpath'}; "
              "run from the root of a checkout of the repository", file=sys.stderr)
        return 2
    seed = args.seed % 2**32  # payload headers store the seed as unsigned 64-bit

    results: list[dict] = []
    problems: list[str] = []
    slowest = 0.0
    crashed = 0
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        enough = len(results) >= (2 if args.trace else 1)
        if enough and elapsed >= args.seconds:
            break
        if results and time.monotonic() - STARTED + 1.5 * slowest > BUDGET_S:
            if not enough:
                problems.append("time budget ran out before the minimum iterations")
            break
        traced = bool(args.trace) and len(results) % 2 == 1
        t_it = time.monotonic()
        res = run_iteration(args, len(results), traced, seed)
        slowest = max(slowest, time.monotonic() - t_it)
        if "crashed" in res:
            problems.append(res["crashed"])
            crashed = 1
            break
        results.append(res)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    traced_indices = [i for i, r in enumerate(results) if r["traced"]]
    if traced_indices:
        shutil.copyfile(WORKDIR / f"it{traced_indices[-1]}.spans.tsv", RESULTS / f"{stem}.spans.tsv")
    shutil.rmtree(WORKDIR, ignore_errors=True)

    # a crashed worker counts as an iteration whose ops all failed
    ops_each = results[0]["ops"] if results else 1
    attempted = sum(r["ops"] for r in results) + crashed * ops_each
    failed = sum(r["ops_failed"] for r in results) + crashed * ops_each
    for r in results:
        for err in r["errors"]:
            problems.append(f"iteration ({'traced' if r['traced'] else 'untraced'}): {err}")

    # every iteration ran the same inputs, so its payloads must be bit-identical
    mismatched = [r for r in results if r["payload_sha256"] != results[0]["payload_sha256"]]
    if mismatched:
        problems.append("checkpoint payload digests differ between iterations"
                        + (" (traced vs untraced)" if args.trace else ""))
        failed += sum(r["ops"] - r["ops_failed"] for r in mismatched)
    traced_runs = [r for r in results if r["traced"]]
    untraced_runs = [r for r in results if not r["traced"]]
    for r in traced_runs:
        coverage = span_coverage(r)
        if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
            problems.append(f"span self times sum to {coverage:.4f} of the traced wall time")

    metrics: dict[str, dict] = {}
    if untraced_runs and (traced_runs or not args.trace):
        if args.trace:
            for name, (_, _, unit) in PER_LAYER.items():
                metrics[name] = {"value": per_layer_value(name, traced_runs, untraced_runs), "unit": unit}
        else:
            values = {
                "setup_s": statistics.median(r["setup_s"] for r in untraced_runs),
                "wall_s": statistics.median(r["wall_s"] for r in untraced_runs),
                "plan_steps_per_s": statistics.median(r["plan_steps"] / r["wall_s"] for r in untraced_runs),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced_runs),
                "plan_json_mb": statistics.median(r["plan_json_bytes"] for r in untraced_runs) / 1e6,
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    correct = not problems and bool(metrics)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "correct": correct,
        "problems": problems,
        "ops": attempted,
        "failed_ops": failed,
        "iterations": [{k: r.get(k) for k in ("traced", "setup_s", "wall_s", "raw_setup_s", "raw_wall_s",
                                             "calibration_s", "raw_op_s", "peak_rss_mb", "final_ppl")}
                       for r in results],
        "final_ppl": results[0].get("final_ppl") if results else None,
        "payload_sha256": results[0]["payload_sha256"] if results else {},
        "absent": sorted({a for r in traced_runs for a in r["trace"]["absent"]}),
        "environment": dict(results[0]["environment"] if results else {},
                            git_commit=git_commit(), source_sha256=source_digest()),
        "metrics": metrics,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(results)} iterations, {attempted} ops, {failed} failed")
    for problem in problems:
        print(f"  FAILED: {problem}")
    if report["absent"]:
        print(f"  absent (time falls to the enclosing span): {', '.join(report['absent'])}")
    if metrics:
        print("  (times in reference seconds, except bench.calibration_s)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  results: {(RESULTS / f'{stem}.json').relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
