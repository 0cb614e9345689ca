"""Compare the benchmark of a parent revision with the working tree, in pairs.

    python3 scripts/bench_pairs.py --parent HEAD --dir /tmp/pairs --pairs 10

Run from anywhere inside a git checkout. Each side gets one checkout per
directory-name length (NAME_LENGTHS), all of them siblings under
`--dir`: the parent from `git archive`, the change from the working tree's
tracked files as they are now. A name of one length is the same for both
sides but for its first letter, so both run from paths of equal length
(the path moves the import-time heap, and with it the reported times).

For every workload, pair k runs `perfbench/run.py --trace 0` once on each
side at the k-th name length (cyclically), the parent first in even pairs
and the change first in odd ones. Per end-to-end metric of BENCHMARK.json
it then prints each side's median and quartiles, the pairs the change won
(ties count for neither side) and whether the medians differ by more than
the parent's quartile spread.  Beside `setup_s` and `wall_s` it prints the
medians of the iterations' raw (uncalibrated) `raw_setup_s` and
`raw_wall_s`, then the median of the calibrations taken after each op
(all but an iteration's first), then each op's median raw time
(`raw_op_s[1]` for the first op, ...); last whether the payload digests
agree.
A calibration that moves while raw time does not shows the heap regime
(see perfbench's Calibration), not the change, behind a move of `wall_s`
or `setup_s`.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
NAME_LENGTHS = (2, 10, 24)
# the iterations' uncalibrated times, each printed beside the metric it is
# the raw form of (`raw_setup_s` beside `setup_s`)
RAW = ("raw_setup_s", "raw_wall_s")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--dir", required=True, type=Path,
                        help="directory for the checkouts; made if missing, emptied of earlier checkouts")
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="default: every workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="perfbench's workload seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def git(root: Path, *cmd: str) -> bytes:
    return subprocess.run(["git", "-C", str(root), *cmd], check=True, capture_output=True).stdout


def make_checkouts(root: Path, parent: str, base: Path) -> dict:
    """{(side, length): checkout directory}, every one a fresh copy."""
    archive = git(root, "archive", "--format=tar", parent)
    tracked = [p for p in git(root, "ls-files", "-z").decode().split("\0") if p]
    base.mkdir(parents=True, exist_ok=True)
    checkouts = {}
    for length in NAME_LENGTHS:
        for side in SIDES:
            dest = base / (side[0] + "x" * (length - 1))
            shutil.rmtree(dest, ignore_errors=True)
            dest.mkdir()
            if side == "parent":
                subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
            else:
                for rel in tracked:
                    src = root / rel
                    if src.is_file():  # a tracked file deleted in the tree is left out
                        (dest / rel).parent.mkdir(parents=True, exist_ok=True)
                        shutil.copy2(src, dest / rel)
            checkouts[side, length] = dest
    return checkouts


def run_once(checkout: Path, workload: str, args) -> dict:
    """One `perfbench/run.py --trace 0` run; its metrics, raw times and digests."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--scale", args.scale]
    results = checkout / "perfbench" / "results" / f"{workload}-seed{args.seed}-trace0.json"
    results.unlink(missing_ok=True)  # each checkout serves every pair: no earlier pair's reading
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if not results.exists():
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited {proc.returncode}"
                         f" without results:\n{proc.stderr.strip()[-2000:]}")
    return readings(json.loads(results.read_text(encoding="utf-8")))


def readings(report: dict) -> dict:
    """A perfbench report's metrics and digests, with the medians of its
    untraced iterations' raw times, of their post-op calibrations and of
    each op's raw time."""
    untraced = [it for it in report["iterations"] if not it["traced"]]
    calibration = [c for it in untraced for c in it["calibration_s"][1:]]
    raw = {name: [it[name] for it in untraced] for name in RAW}
    op_s = [it["raw_op_s"] for it in untraced if it.get("raw_op_s")]
    return {
        "metrics": {name: m["value"] for name, m in report["metrics"].items()},
        **{name: statistics.median(values) if values else None for name, values in raw.items()},
        "calibration_s": statistics.median(calibration) if calibration else None,
        **{f"raw_op_s[{k + 1}]": statistics.median(ops[k] for ops in op_s)
           for k in range(min(map(len, op_s), default=0))},
        "correct": report["correct"],
        "failed_ops": report["failed_ops"],
        "ops": report["ops"],
        "payload_sha256": report["payload_sha256"],
    }


def spread(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _value(run: dict, name: str):
    """A run's reading `name`: a metric of BENCHMARK.json, a raw time or the calibration."""
    return run["metrics"][name] if name in run["metrics"] else run.get(name)


def summarize(workload: str, pairs: list[dict], better: dict) -> list[str]:
    lines = [f"{workload}: {len(pairs)} pairs"]
    runs = [p[s] for p in pairs for s in SIDES]
    names = [n for metric in better for n in (metric, f"raw_{metric}")] + ["calibration_s"]
    names += [n for n in runs[0] if n.startswith("raw_op_s[")]
    for name in [n for n in names if all(_value(r, n) is not None for r in runs)]:
        values = {s: [_value(p[s], name) for p in pairs] for s in SIDES}
        (p1, pm, p3), (c1, cm, c3) = spread(values["parent"]), spread(values["change"])
        lower = better.get(name, "lower") == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
        rel = (cm - pm) / pm if pm else float("nan")
        clear = "beyond" if abs(cm - pm) > p3 - p1 else "within"
        lines.append(
            f"  {name:17s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} [{c1:.6g}, {c3:.6g}]"
            f"  {rel:+.2%}  change won {wins}/{len(pairs)}  median shift {clear} parent quartile spread"
        )
    for side in SIDES:
        bad = [p[side] for p in pairs if not p[side]["correct"]]
        failed = sum(p[side]["failed_ops"] for p in pairs)
        ops = sum(p[side]["ops"] for p in pairs)
        lines.append(f"  {side}: {failed} of {ops} ops failed, {len(bad)} runs not correct")
    digests = {json.dumps(r["payload_sha256"], sort_keys=True) for r in runs}
    lines.append(f"  payload digests {'equal on both sides' if len(digests) == 1 else 'DIFFER'}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    checkouts = make_checkouts(root, args.parent, args.dir.resolve())
    readings: dict[str, list[dict]] = {}
    for workload in workloads:
        readings[workload] = []
        for k in range(args.pairs):
            length = NAME_LENGTHS[k % len(NAME_LENGTHS)]
            pair = {"name_length": length}
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                pair[side] = run_once(checkouts[side, length], workload, args)
            readings[workload].append(pair)
            print(f"{workload} pair {k + 1}/{args.pairs} (name length {length}): wall_s "
                  + " ".join(f"{s} {pair[s]['metrics'].get('wall_s', float('nan')):.4g}" for s in SIDES),
                  file=sys.stderr, flush=True)
    for workload in workloads:
        print("\n".join(summarize(workload, readings[workload], better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
