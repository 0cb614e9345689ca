"""Command-line entry point: schedule dumps, cost tables, plan compilation,
experiment runs, and report comparison.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import cost as cost_mod
from .documents import JsonObject, atomic_open, read_json, schema_error, write_json
from .errors import InvalidConfig, LrPathError, SchemaMismatch
from .paradigm import (
    Paradigm, UpdateSpec, build_plan, parse_paradigm, plan_cost, plan_to_json, uniform_spec,
)
from .schedule import INFINITE, ScheduleConfig, ScheduleKind, lr_at

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

def _parse_horizon(text: str) -> float:
    if text.lower() in ("inf", "infinite", "+inf"):
        return INFINITE
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or inf, got {text!r}") from None


def _parse_steps(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or a comma list of integers, got {text!r}"
        ) from None


def _parse_jobs(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _schedule_from_args(args) -> ScheduleConfig:
    return ScheduleConfig(
        kind=ScheduleKind(args.kind),
        eta_max=args.max_lr,
        eta_min=args.min_lr,
        warmup_steps=args.warmup,
        horizon=args.horizon,
    )


def _render_table(header: list[str], rows: list[list[str]], fmt: str) -> str:
    """Rows as CSV, or as a text table with left-aligned columns."""
    lines = [header, *rows]
    if fmt == "csv":
        return "".join(",".join(line) + "\n" for line in lines)
    widths = [max(map(len, column)) for column in zip(*lines)]
    text = ["  ".join(c.ljust(w) for c, w in zip(line, widths)) for line in lines]
    text.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(text) + "\n"


def _emit(text: str, out) -> None:
    """Write `text` to the file `out`, replacing it whole, or to stdout."""
    if out:
        with atomic_open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_schedule(args) -> int:
    cfg = _schedule_from_args(args)
    start, stop, stride = args.frm, args.to, args.stride
    if stop is None:
        if cfg.horizon == INFINITE:
            print("--to is required for an infinite horizon", file=sys.stderr)
            return EXIT_USAGE
        stop = int(cfg.horizon)
    if stride < 1:
        raise InvalidConfig(f"stride must be >= 1, got {stride}")
    if start > stop:
        raise InvalidConfig(f"start ({start}) must not exceed stop ({stop})")
    rows = [[str(s), f"{lr_at(cfg, s):.12g}"] for s in range(start, stop + 1, stride)]
    text = _render_table(["step", "lr"], rows, "csv")
    _emit(text, args.out)
    return EXIT_OK


def cmd_cost(args) -> int:
    n, t = args.versions, args.steps
    rows = [
        [
            kind.label,
            str(n),
            str(t),
            str(cost_mod.paradigm_cost(kind, n, t)),
            f"{cost_mod.relative_cost(kind, n, t):.2f}",
        ]
        for kind in (Paradigm.ptfs(), Paradigm.cpt(), Paradigm.path_switch(args.alpha))
    ]
    header = ["paradigm", "N_v", "T", "steps", "relative"]
    sys.stdout.write(_render_table(header, rows, args.format))
    return EXIT_OK


def cmd_plan(args) -> int:
    kind = parse_paradigm(args.paradigm)
    cfg = _schedule_from_args(args)
    if len(args.steps) == 1:
        spec = uniform_spec(args.versions, args.steps[0], cfg, args.seed)
    else:
        spec = UpdateSpec(args.versions, args.steps, cfg, args.seed)
    text = plan_to_json(build_plan(kind, spec))
    _emit(text, args.out)
    return EXIT_OK


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_report(plan, seeds: list[int], per_seed: list[dict], out_dir: Path) -> dict:
    """Write a paradigm's `report.json`, with per-seed perplexity and its
    mean for each version; returns the document."""
    versions: dict[str, dict] = {}
    for v in sorted(per_seed[0]):
        ppls = [r[v].ppl for r in per_seed]
        versions[str(v)] = {
            "ppl": ppls,
            "nll": [r[v].nll for r in per_seed],
            "mean_ppl": sum(ppls) / len(ppls),
        }
    report = {
        "paradigm": plan.paradigm.label,
        "seeds": seeds,
        "total_steps": plan_cost(plan),
        "versions": versions,
    }
    write_json(out_dir / "report.json", report)
    return report


def cmd_run(args) -> int:
    # the one command that trains: the others load neither numpy nor a pool
    from concurrent.futures import BrokenExecutor

    from .trainer import run_all, run_config_from_dict

    try:
        cfg = read_json(args.config, "run config")
    except (OSError, SchemaMismatch) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        paradigms, spec, run_cfg, seeds = run_config_from_dict(cfg)
        plans = [build_plan(p, spec) for p in paradigms]
    except LrPathError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out_dir = Path(args.out)
    dirs = [out_dir / plan.paradigm.label.replace(":", "-") for plan in plans]
    jobs = [(plan, seed, d / f"seed{seed}") for plan, d in zip(plans, dirs) for seed in seeds]
    workers = _available_cpus() if args.jobs is None else args.jobs
    try:
        results = [reports for reports, _ in run_all(jobs, run_cfg, workers)]
    except (LrPathError, BrokenExecutor) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    per_seed = [results[k * len(seeds) : (k + 1) * len(seeds)] for k in range(len(plans))]
    summary = {p.paradigm.label: _write_report(p, seeds, r, d) for p, r, d in zip(plans, per_seed, dirs)}
    write_json(out_dir / "report.json", summary)
    print(f"wrote {out_dir / 'report.json'}")
    return EXIT_OK


_REPORT_KEYS = frozenset({"paradigm", "seeds", "total_steps", "versions"})
_VERSION_KEYS = frozenset({"ppl", "nll", "mean_ppl"})


def _mean_ppls(d: dict, at: tuple, key) -> dict[int, float]:
    o = JsonObject(d, at, key)
    for v in d:
        if not v.isdecimal():
            raise schema_error(o.at, v, "expected a version number as key")
    return {int(v): JsonObject(d[v], o.at, v, _VERSION_KEYS).float("mean_ppl") for v in d}


def _report_from_dict(d: dict, at: tuple, key) -> tuple[str, int, dict[int, float]]:
    """One paradigm's report.json: its label, steps and mean ppl by version."""
    o = JsonObject(d, at, key, _REPORT_KEYS)
    return o.str("paradigm"), o.int("total_steps"), o.object("versions", _mean_ppls)


def cmd_compare(args) -> int:
    merged: dict[str, tuple[int, dict[int, float]]] = {}
    try:
        for path in args.reports:
            name = f"report {path}"
            o = JsonObject(read_json(path, name), (name,))
            # one paradigm's report, or a run summary of them by label
            if "versions" in o.fields:
                reports = [_report_from_dict(o.fields, o.at, None)]
            else:
                reports = [o.object(label, _report_from_dict) for label in o.fields]
            merged.update((label, (steps, ppls)) for label, steps, ppls in reports)
    except (OSError, SchemaMismatch) as exc:
        print(f"cannot read report: {exc}", file=sys.stderr)
        return EXIT_USAGE

    versions = sorted({v for _, ppls in merged.values() for v in ppls})
    rows = []
    for label in sorted(merged):
        steps, ppls = merged[label]
        row = [label, str(steps)]
        row.extend(f"{ppls[v]:.3f}" if v in ppls else "-" for v in versions)
        rows.append(row)
    header = ["paradigm", "steps"] + [f"V{v}" for v in versions]
    sys.stdout.write(_render_table(header, rows, args.format))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrpath",
        description="Learning-rate path-switching: schedules, plans, costs, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_schedule_flags(p):
        p.add_argument("--kind", default="cosine", choices=[k.value for k in ScheduleKind])
        p.add_argument("--max-lr", type=float, default=3e-4)
        p.add_argument("--min-lr", type=float, default=3e-5)
        p.add_argument("--warmup", type=int, default=2000)
        p.add_argument("--horizon", type=_parse_horizon, default="10000")

    p = sub.add_parser("schedule", help="dump an LR curve as CSV")
    add_schedule_flags(p)
    p.add_argument("--from", dest="frm", type=int, default=0)
    p.add_argument("--to", type=int, default=None)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--out", default=None)

    p = sub.add_parser("cost", help="print paradigm cost table")
    p.add_argument("--versions", type=int, required=True)
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--alpha", type=float, default=0.6)
    p.add_argument("--format", choices=["text", "csv"], default="text")

    p = sub.add_parser("plan", help="compile a training plan to JSON")
    p.add_argument("--paradigm", required=True)
    p.add_argument("--versions", type=int, required=True)
    p.add_argument(
        "--steps", type=_parse_steps, required=True, help="steps per version, or comma list"
    )
    p.add_argument("--seed", type=int, default=0)
    add_schedule_flags(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("run", help="execute experiments from a JSON config")
    p.add_argument("config")
    p.add_argument("--out", default=".", help="output directory (default: the current one)")
    p.add_argument("--jobs", type=_parse_jobs, default=None, help="training processes")

    p = sub.add_parser("compare", help="merge reports into a comparison table")
    p.add_argument("reports", nargs="+")
    p.add_argument("--format", choices=["text", "csv"], default="text")

    return parser


# The parser of this process, built by the first `main` call and reused:
# building it costs several times what parsing a command line does.  It
# holds nothing that varies between calls: `--jobs` defaults to None and
# `cmd_run` reads the CPU count when it runs.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # looked up per call, not bound into the cached parser, so that a
        # wrapper put on a command after the first call still runs
        return globals()[f"cmd_{args.command}"](args)
    except LrPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
