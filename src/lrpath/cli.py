"""Command-line entry point: schedule dumps, cost tables, plan compilation,
experiment runs, and report comparison.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import cost as cost_mod
from . import schedule as sched
from .errors import LrPathError
from .paradigm import (
    CptVariant,
    Paradigm,
    UpdateSpec,
    build_plan,
    plan_to_json,
    uniform_spec,
)
from .schedule import INFINITE, ScheduleConfig, ScheduleKind
from .trainer import RunConfig, ToyModelConfig, run_experiment

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _parse_horizon(text: str) -> float:
    if text.lower() in ("inf", "infinite", "+inf"):
        return INFINITE
    return int(text)


def parse_paradigm(text: str) -> Paradigm:
    """Parse CLI paradigm labels: ptfs, cpt:<variant>, path_switch:<alpha>."""
    name, _, arg = text.partition(":")
    name = name.replace("-", "_")
    if name == "ptfs":
        return Paradigm.ptfs()
    if name == "cpt":
        variant = CptVariant(arg.replace("-", "_")) if arg else CptVariant.RESET_MAX
        return Paradigm.cpt(variant)
    if name == "path_switch":
        if not arg:
            raise ValueError("path_switch requires an alpha, e.g. path_switch:0.6")
        return Paradigm.path_switch(float(arg))
    raise ValueError(f"unknown paradigm {text!r}")


def _default_out_dir() -> str:
    return os.environ.get("LRPATH_OUT", ".")


def _schedule_from_args(args) -> ScheduleConfig:
    return ScheduleConfig(
        kind=ScheduleKind(args.kind),
        eta_max=args.max_lr,
        eta_min=args.min_lr,
        warmup_steps=args.warmup,
        horizon=_parse_horizon(args.horizon),
    )


def cmd_schedule(args) -> int:
    cfg = _schedule_from_args(args)
    stop = args.to
    if stop is None:
        if cfg.horizon == INFINITE:
            print("--to is required for an infinite horizon", file=sys.stderr)
            return EXIT_USAGE
        stop = int(cfg.horizon)
    series = sched.dump_curve(cfg, args.frm, stop, args.stride)
    text = series.to_csv()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_cost(args) -> int:
    kinds = [
        Paradigm.ptfs(),
        Paradigm.cpt(),
        Paradigm.path_switch(args.alpha),
    ]
    reports = [cost_mod.cost_report(k, args.versions, args.steps) for k in kinds]
    sys.stdout.write(cost_mod.render_table(reports, fmt=args.format))
    return EXIT_OK


def cmd_plan(args) -> int:
    kind = parse_paradigm(args.paradigm)
    cfg = _schedule_from_args(args)
    steps = [int(s) for s in args.steps.split(",")]
    if len(steps) == 1:
        steps = steps * args.versions
    spec = UpdateSpec(
        num_versions=args.versions,
        increments=tuple(steps),
        base_schedule=cfg,
        seed=args.seed,
    )
    text = plan_to_json(build_plan(kind, spec))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _load_run_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _run_one(payload):
    # Top-level so a process pool can pickle it.
    label, plan, run_cfg, seeds, out_dir = payload
    report = run_experiment(plan, run_cfg, seeds, out_dir)
    return label, report


def cmd_run(args) -> int:
    try:
        cfg = _load_run_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        paradigms = [parse_paradigm(p) for p in cfg["paradigms"]]
        if not paradigms:
            raise ValueError("at least one paradigm is required")
        schedule_cfg = sched.config_from_dict(cfg["schedule"])
        steps = cfg["steps_per_version"]
        if isinstance(steps, int):
            steps = [steps] * cfg["num_versions"]
        spec = UpdateSpec(
            num_versions=int(cfg["num_versions"]),
            increments=tuple(int(s) for s in steps),
            base_schedule=schedule_cfg,
            seed=int(cfg.get("seed", 0)),
        )
        run_cfg = RunConfig(
            model=ToyModelConfig(**cfg.get("model", {})),
            tokens_per_step=int(cfg.get("tokens_per_step", 64)),
            heldout_tokens=int(cfg.get("heldout_tokens", 50_000)),
            corpus_file=cfg.get("corpus_file"),
            log_stride=int(cfg.get("log_stride", 100)),
        )
        seeds = [int(s) for s in cfg.get("seeds", [0])]
        out_dir = Path(args.out or cfg.get("out_dir") or _default_out_dir())
        if run_cfg.corpus_file and not Path(run_cfg.corpus_file).exists():
            raise ValueError(f"corpus file {run_cfg.corpus_file!r} does not exist")
        plans = [(p.label, build_plan(p, spec)) for p in paradigms]
    except (KeyError, ValueError, TypeError, LrPathError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_USAGE

    jobs = [
        (label, plan, run_cfg, seeds, out_dir / label.replace(":", "-"))
        for label, plan in plans
    ]
    try:
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                results = list(pool.map(_run_one, jobs))
        else:
            results = [_run_one(j) for j in jobs]
    except LrPathError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    summary = {label: report.to_dict() for label, report in results}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {out_dir / 'report.json'}")
    return EXIT_OK


def cmd_compare(args) -> int:
    merged: dict[str, dict] = {}
    try:
        for path in args.reports:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            # Accept both a single-experiment report and a run summary.
            if "versions" in doc:
                merged[doc["paradigm"]] = doc
            else:
                merged.update(doc)
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"cannot read report: {exc}", file=sys.stderr)
        return EXIT_USAGE

    versions = sorted(
        {int(v) for doc in merged.values() for v in doc["versions"]}
    )
    header = ["paradigm", "steps"] + [f"V{v}" for v in versions]
    rows = []
    for label in sorted(merged):
        doc = merged[label]
        row = [label, str(doc["total_steps"])]
        for v in versions:
            entry = doc["versions"].get(str(v))
            row.append(f"{entry['mean_ppl']:.3f}" if entry else "-")
        rows.append(row)
    if args.format == "csv":
        lines = [",".join(header)] + [",".join(r) for r in rows]
    else:
        widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(header)]
        lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
        lines.append("  ".join("-" * w for w in widths))
        lines.extend("  ".join(c.ljust(widths[i]) for i, c in enumerate(r)) for r in rows)
    sys.stdout.write("\n".join(lines) + "\n")
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
        p.add_argument("--horizon", default="10000")

    p = sub.add_parser("schedule", help="dump an LR curve as CSV")
    add_schedule_flags(p)
    p.add_argument("--from", dest="frm", type=int, default=0)
    p.add_argument("--to", type=int, default=None)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("cost", help="print paradigm cost table")
    p.add_argument("--versions", type=int, required=True)
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--alpha", type=float, default=0.6)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("plan", help="compile a training plan to JSON")
    p.add_argument("--paradigm", required=True)
    p.add_argument("--versions", type=int, required=True)
    p.add_argument("--steps", required=True, help="steps per version, or comma list")
    p.add_argument("--seed", type=int, default=0)
    add_schedule_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("run", help="execute experiments from a JSON config")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="output dir (default: config, then $LRPATH_OUT)")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="merge reports into a comparison table")
    p.add_argument("reports", nargs="+")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
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
