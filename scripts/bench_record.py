"""Record what each layer of lrpath costs, in raw seconds, as one JSON file.

    python3 scripts/bench_record.py --out BENCH_27.json
    python3 scripts/bench_record.py --out /tmp/bench.json --scale tiny

It measures the `src/` beside it with one BLAS thread
(`trainer.one_blas_thread`), and writes:

- `environment`: Python, numpy, the BLAS library, its threads during the
  record, the CPU and the CPUs this process may use;
- `layers_s`: per float32 and float64, the median seconds of one call of
  `make_corpus` (the c6 corpus), `sample_windows`, `forward_loss`,
  `backward` and `_adam_apply` (default model, batch 64) and of
  `evaluate_ppl` (50k held-out tokens);
- `plan_io`: per paradigm of the plan-io benchmark's shape (12 versions x
  25,000 steps), the median seconds of `build_plan`, `validate_plan`,
  `plan_to_json` and `plan_from_dict`, and the document's bytes.  Each
  row is timed in PLAN_IO_PROCESSES freshly spawned processes, one after
  another, and holds its median across them: in this process the rows
  read up to 1.8x apart depending on what it ran before them, and one
  fresh process in several runs them in a slower regime of its own;
- `train_phase_us_per_step`: the median over runs of a 500-step
  `train_phase`, in microseconds a step;
- `run_single_s`: seconds of `run_single` of each c6 paradigm at seed 0;
- `c6_steps`: the steps the c6 acceptance tier trains.

No calibration: the numbers are this machine's, read beside its
environment.  `--scale tiny` runs every measurement at a toy size, to
check the script, not the code.
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing
import os
import platform
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from lrpath import data, paradigm, trainer
from lrpath.paradigm import build_plan, build_two_stage_probe, parse_paradigm, plan_cost, uniform_spec
from lrpath.schedule import INFINITE, ScheduleConfig, ScheduleKind

C6_PARADIGMS = ("ptfs", "cpt:reset_max", "cpt:rewarm_max", "cpt:keep_min", "path_switch:0.6")
PLAN_IO_PARADIGMS = ("path_switch:0.6", "ptfs", "cpt:reset_max")
PLAN_IO_PROCESSES = 5
SCALES = {
    # c6: 4 versions x 2000 steps; the corpus, held-out set and plan-io
    # shape are the ones the acceptance tier and the benchmark use
    "full": {"T": 2000, "heldout": 50_000, "plan_versions": 12, "plan_steps": 25_000,
             "train_steps": 500, "reps": 1.0},
    "tiny": {"T": 20, "heldout": 2_000, "plan_versions": 3, "plan_steps": 1_000,
             "train_steps": 10, "reps": 0.02},
}


def median_s(call, reps: int) -> float:
    """The median seconds of `reps` calls of `call`, after one unmeasured."""
    call()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def c6_plans(t: int) -> dict:
    """The plans the c6 acceptance tier runs with each seed."""
    spec = uniform_spec(4, t, ScheduleConfig(ScheduleKind.COSINE, 3e-3, 3e-4, t // 10, t))
    plans = {label: build_plan(parse_paradigm(label), spec) for label in C6_PARADIGMS}
    cycles = [t, 2 * t, 3 * t, 4 * t, INFINITE]
    for c in cycles:
        plans[f"probe-first-{c}"] = build_two_stage_probe(c, t, t, t, spec)
        plans[f"probe-second-{c}"] = build_two_stage_probe(INFINITE, t, c, 2 * t, spec)
    return plans


def layers(scale: dict, reps: float) -> dict:
    corpus_tokens = data.corpus_size(scale["heldout"], 64, sum(c6_plans(scale["T"])["ptfs"].spec.increments))
    corpus = data.make_corpus(0, corpus_tokens)
    seeds = itertools.count(1)  # a new seed a call: `make_corpus` caches the last 8
    out = {}
    for dtype in ("float32", "float64"):
        model = trainer.init_model(trainer.ToyModelConfig(dtype=dtype), seed=0)
        cfg = model.config
        rng = np.random.default_rng(0)
        batch = data.sample_windows(corpus, rng, cfg.batch_size, cfg.context_len + 1)
        _, cache = trainer.forward_loss(model, batch)
        grads = np.empty_like(model.flat)
        trainer.backward(model, cache, grads)
        scratch = np.empty((2, model.flat.size), dtype=model.flat.dtype)
        p, m, v = model.flat.copy(), model.m.copy(), model.v.copy()
        heldout = corpus[: scale["heldout"]]
        out[dtype] = {
            "make_corpus": median_s(lambda: data.make_corpus(next(seeds), corpus_tokens), max(3, int(10 * reps))),
            "sample_windows": median_s(
                lambda: data.sample_windows(corpus, rng, cfg.batch_size, cfg.context_len + 1), int(2000 * reps)
            ),
            "forward_loss": median_s(lambda: trainer.forward_loss(model, batch), int(500 * reps)),
            "backward": median_s(lambda: trainer.backward(model, cache, grads), int(500 * reps)),
            "_adam_apply": median_s(lambda: trainer._adam_apply(p, m, v, 1, grads, 1e-12, scratch), int(500 * reps)),
            "evaluate_ppl": median_s(lambda: trainer.evaluate_ppl(model, heldout), max(3, int(20 * reps))),
        }
    return out


def plan_io(scale: dict, reps: float) -> dict:
    steps = scale["plan_steps"]
    base = ScheduleConfig(ScheduleKind.COSINE, 3e-3, 3e-4, steps // 10, INFINITE)
    spec = uniform_spec(scale["plan_versions"], steps, base, seed=1)
    n = max(3, int(200 * reps))
    out = {}
    for label in PLAN_IO_PARADIGMS:
        kind = parse_paradigm(label)
        plan = build_plan(kind, spec)
        text = paradigm.plan_to_json(plan)
        doc = json.loads(text)
        out[label] = {
            "build_plan_s": median_s(lambda: build_plan(kind, spec), n),
            "validate_plan_s": median_s(lambda: paradigm.validate_plan(plan), n),
            "plan_to_json_s": median_s(lambda: paradigm.plan_to_json(plan), n),
            "plan_from_dict_s": median_s(lambda: paradigm.plan_from_dict(doc), n),
            "document_bytes": len(text.encode()),
        }
    return out


def train_phase_us(scale: dict, reps: float) -> float:
    steps = scale["train_steps"]
    spec = uniform_spec(1, steps, ScheduleConfig(ScheduleKind.COSINE, 3e-3, 3e-4, steps // 10, steps))
    phase = build_plan(parse_paradigm("ptfs"), spec).phases[0]
    model = trainer.init_model(trainer.ToyModelConfig(), seed=0)
    corpus = data.make_corpus(0, 64 * steps)
    seconds = median_s(lambda: trainer.train_phase(model, phase, corpus, 0), max(3, int(5 * reps)))
    return seconds / steps * 1e6


def run_single_s(scale: dict) -> dict:
    plans = c6_plans(scale["T"])
    run_cfg = trainer.RunConfig(heldout_tokens=scale["heldout"])
    out = {}
    for label in C6_PARADIGMS:
        trainer._phase_store.clear()  # each paradigm trains all of its phases
        start = time.perf_counter()
        trainer.run_single(plans[label], run_cfg, 0)
        out[label] = time.perf_counter() - start
    return out


def environment() -> dict:
    blas = {}
    try:
        blas = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (TypeError, KeyError):  # numpy older than 1.25 has no mode="dicts"
        pass
    threads = trainer.openblas_threads()
    cpu = platform.processor() or "unknown"
    try:
        cpu = next(line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads[0]() if threads else None,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "workers": 1,
    }


def record(scale_name: str) -> dict:
    scale = SCALES[scale_name]
    reps = scale["reps"]
    with trainer.one_blas_thread():
        runs = []
        for _ in range(PLAN_IO_PROCESSES):
            with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
                runs.append(pool.submit(plan_io, scale, reps).result())
        plan_rows = {
            label: {key: statistics.median(run[label][key] for run in runs) for key in row}
            for label, row in runs[0].items()
        }
        return {
            "scale": scale_name,
            "environment": environment(),
            "layers_s": layers(scale, reps),
            "plan_io": plan_rows,
            "train_phase_us_per_step": train_phase_us(scale, reps),
            "run_single_s": run_single_s(scale),
            "c6_steps": 3 * sum(plan_cost(plan) for plan in c6_plans(scale["T"]).values()),
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)
    args.out.write_text(json.dumps(record(args.scale), indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
