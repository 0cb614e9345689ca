"""One iteration of one perfbench workload, in a fresh process.

run.py starts this script once per iteration, so every iteration pays for
interpreter start, imports and input generation the way an `lrpath`
invocation does, and no in-process cache survives from one iteration to
the next. The worker writes one JSON result file and exits 0, also when a
workload operation failed: failures are recorded in the result.

    python3 perfbench/worker.py --root . --workload probe-grid --seed 3 \
        --trace 0 --scale full --spawned-at <unix time> \
        --workdir perfbench/.work/it0 --result perfbench/.work/it0.json
"""

# BLAS is pinned to one thread before numpy can be imported, so that timings
# do not depend on the machine's core count. One thread gives the same bits
# as two.
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

# Workload sizes. `full` is what the benchmark measures; `tiny` keeps the
# same shapes at a size the smoke test can afford.
SCALES = {
    "full": {"lifecycle_T": 120, "probe_T": 100, "plan_versions": 12, "plan_steps": 25_000},
    "tiny": {"lifecycle_T": 60, "probe_T": 60, "plan_versions": 3, "plan_steps": 1_000},
}
ETA_MAX, ETA_MIN = 3e-3, 3e-4
PLAN_PARADIGMS = ("path_switch:0.6", "ptfs", "cpt:reset_max")
# Times are reported in reference seconds: seconds on a machine that runs
# the workload's calibration task (see Calibration) in CALIBRATION_REF_S.
CALIBRATION_REF_S = {"numpy": 0.022, "python": 0.024}
CALIBRATION_BURSTS = 3
CALIBRATION_REPS = 8


def warmup_for(t: int) -> int:
    # the c6 shape: warmup is a tenth of the per-version steps (200 of 2000)
    return max(1, t // 10)


class Calibration:
    """A fixed reference task, timed in this process.

    The shared VMs this benchmark was built on changed speed by a third
    within minutes, and a run's median moved with them. The time of a fixed
    task, measured between a workload's ops, tracks that speed, so that
    times can be given in reference seconds (see Clock).

    `numpy` is a training step of an MLP of the toy model's shape (gather,
    two matmuls, softmax, backward, one-hot scatter, Adam update of 74,112
    parameters); `python` is a JSON round trip of plan-like rows. Neither
    uses lrpath code, so no change to the program moves them. A measurement
    is the median of CALIBRATION_BURSTS timings, so that one stall does not
    count, made with the garbage collector off, so that the size of the
    program's heap does not count either.
    """

    def __init__(self, np, task: str):
        self.np = np
        self.step = {"numpy": self._numpy_step, "python": self._python_step}[task]
        rng = np.random.default_rng(0)
        self.tokens = rng.integers(0, 256, size=(64, 9))
        self.embed = rng.standard_normal((256, 32)) * 0.1
        self.w1 = rng.standard_normal((256, 128)) * 0.05
        self.w2 = rng.standard_normal((128, 256)) * 0.05
        self.flat = rng.standard_normal(74_112) * 0.05
        self.m, self.v = np.zeros_like(self.flat), np.zeros_like(self.flat)
        self.rows = [{"step": i, "lr": 3e-3 / (i + 1), "phase": f"v{i % 7}"} for i in range(600)]
        self.measure()  # the first calls in a process are slower

    def _numpy_step(self) -> None:
        np = self.np
        x, y = self.tokens[:, :8], self.tokens[:, 8]
        h0 = self.embed[x].reshape(64, 256)
        h1 = np.tanh(h0 @ self.w1)
        logits = h1 @ self.w2
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(64), y] -= 1.0
        g2 = h1.T @ probs
        dz1 = (probs @ self.w2.T) * (1.0 - h1 * h1)
        g1 = h0.T @ dz1
        onehot = np.zeros((512, 256))
        onehot[np.arange(512), x.ravel()] = 1.0
        ge = onehot.T @ (dz1 @ self.w1.T).reshape(512, 32)
        g = np.concatenate([ge.ravel(), g1.ravel(), g2.ravel(), np.zeros(384)])
        self.m *= 0.9
        self.m += 0.1 * g
        self.v *= 0.999
        self.v += 0.001 * (g * g)
        self.flat -= 1e-3 * self.m / (np.sqrt(self.v) + 1e-8)

    def _python_step(self) -> None:
        json.loads(json.dumps(self.rows))

    def measure(self) -> float:
        times = []
        gc.disable()
        try:
            for _ in range(CALIBRATION_BURSTS):
                t0 = time.perf_counter()
                for _ in range(CALIBRATION_REPS):
                    self.step()
                times.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        return sorted(times)[len(times) // 2]


def load_plan_json(path: Path) -> dict:
    """Read a plan file back the way a user of `lrpath plan --out` would."""
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# workloads: the constructor makes the inputs from the seed (set-up),
# run() does the ops, each one timed by the Clock, and check() verifies the
# outputs afterwards.


class LifecyclePS:
    """`lrpath run` of the paper's method: path_switch:0.6, one seed."""

    ops = 1
    calibration_task = "numpy"

    def __init__(self, lrpath, seed: int, scale: dict, work: Path):
        self.lrpath = lrpath
        t = scale["lifecycle_T"]
        self.config = {
            "paradigms": ["path_switch:0.6"],
            "num_versions": 4,
            "steps_per_version": t,
            "schedule": {"kind": "cosine", "eta_max": ETA_MAX, "eta_min": ETA_MIN,
                         "warmup_steps": warmup_for(t)},
            "seeds": [seed],
            "tokens_per_step": 64,
            "heldout_tokens": 50_000,
        }
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2), encoding="utf-8")
        self.out = work / "out"
        self.rc = None

    def run(self, clock: "Clock", errors: list) -> None:
        for argv in clock.ops([["run", str(self.config_path), "--out", str(self.out)]]):
            try:
                self.rc = self.lrpath.cli.main(argv)
            except Exception:
                errors.append(traceback.format_exc())

    def check(self, res: dict) -> None:
        lp = self.lrpath
        if self.rc != 0:
            res["errors"].append(f"lrpath run exited with {self.rc}")
            return
        label = self.config["paradigms"][0]
        report = json.loads((self.out / "report.json").read_text(encoding="utf-8"))[label]
        last = max(report["versions"], key=int)
        ppl = report["versions"][last]["mean_ppl"]
        check_ppl(res, label, ppl, lp.trainer.ToyModelConfig().vocab_size)
        kind = lp.cli.parse_paradigm(label)
        expected = lp.cost.paradigm_cost(kind, self.config["num_versions"],
                                         self.config["steps_per_version"])
        if report["total_steps"] != expected:
            res["errors"].append(f"{label}: plan_cost {report['total_steps']} != paradigm_cost {expected}")
        spec = lp.paradigm.uniform_spec(
            self.config["num_versions"], self.config["steps_per_version"],
            lp.schedule.config_from_dict(self.config["schedule"]),
        )
        res["plan_steps"] = report["total_steps"]
        res["plan_json_bytes"] = len(lp.paradigm.plan_to_json(lp.paradigm.build_plan(kind, spec)))
        res["final_ppl"] = ppl
        res["ops_failed"] = 1 if res["errors"] else 0


class ProbeGrid:
    """The ten two-stage probes of c6d, each through run_single."""

    ops = 10
    calibration_task = "numpy"

    def __init__(self, lrpath, seed: int, scale: dict, work: Path):
        self.lrpath, self.seed = lrpath, seed
        lp = lrpath
        t = scale["probe_T"]
        inf = lp.schedule.INFINITE
        base = lp.schedule.ScheduleConfig(lp.schedule.ScheduleKind.COSINE, ETA_MAX, ETA_MIN,
                                          warmup_for(t), t)
        self.spec = lp.paradigm.uniform_spec(4, t, base)
        cycles = [t, 2 * t, 3 * t, 4 * t, inf]
        self.probes = [(c, t, t, t) for c in cycles] + [(inf, t, c, 2 * t) for c in cycles]
        self.run_cfg = lp.trainer.RunConfig()
        self.out = work / "out"
        self.results = [None] * len(self.probes)

    def run(self, clock: "Clock", errors: list) -> None:
        lp = self.lrpath
        for i, probe in clock.ops(enumerate(self.probes)):
            try:
                plan = lp.paradigm.build_two_stage_probe(*probe, self.spec)
                reports, _ = lp.trainer.run_single(plan, self.run_cfg, self.seed,
                                                   self.out / f"probe{i}")
                self.results[i] = (plan, reports)
            except Exception:
                errors.append(f"probe {probe}: {traceback.format_exc()}")

    def check(self, res: dict) -> None:
        lp = self.lrpath
        vocab = self.run_cfg.model.vocab_size
        ppls, steps, json_bytes, failed = [], 0, 0, 0
        for probe, outcome in zip(self.probes, self.results):
            n_err = len(res["errors"])
            if outcome is None:
                failed += 1
                continue
            plan, reports = outcome
            ppl = reports[max(reports)].ppl
            check_ppl(res, f"probe {probe}", ppl, vocab)
            cost = lp.paradigm.plan_cost(plan)
            if cost != probe[1] + probe[3]:
                res["errors"].append(f"probe {probe}: plan_cost {cost} != {probe[1] + probe[3]}")
            if len(res["errors"]) > n_err:
                failed += 1
            ppls.append(ppl)
            steps += cost
            json_bytes += len(lp.paradigm.plan_to_json(plan))
        res["plan_steps"] = steps
        res["plan_json_bytes"] = json_bytes
        res["final_ppl"] = sum(ppls) / len(ppls) if ppls else None
        res["ops_failed"] = failed


class PlanIO:
    """`lrpath plan --out` for three paradigms, each file read back."""

    ops = len(PLAN_PARADIGMS)
    calibration_task = "python"

    def __init__(self, lrpath, seed: int, scale: dict, work: Path):
        self.lrpath, self.seed = lrpath, seed
        self.versions, self.steps = scale["plan_versions"], scale["plan_steps"]
        self.warmup = warmup_for(self.steps)
        self.jobs = []
        for label in PLAN_PARADIGMS:
            path = work / f"plan_{label.replace(':', '-')}.json"
            argv = [
                "plan", "--paradigm", label, "--versions", str(self.versions),
                "--steps", str(self.steps), "--seed", str(seed), "--kind", "cosine",
                "--max-lr", repr(ETA_MAX), "--min-lr", repr(ETA_MIN),
                "--warmup", str(self.warmup), "--horizon", "inf", "--out", str(path),
            ]
            self.jobs.append((label, path, argv))
        self.results: dict = {}

    def run(self, clock: "Clock", errors: list) -> None:
        lp = self.lrpath
        for label, path, argv in clock.ops(self.jobs):
            try:
                rc = lp.cli.main(argv)
                if rc != 0:
                    errors.append(f"{label}: lrpath plan exited with {rc}")
                    continue
                plan = lp.paradigm.plan_from_dict(load_plan_json(path))
                lp.paradigm.validate_plan(plan)
                steps = lp.paradigm.plan_cost(plan)
                expected = lp.cost.paradigm_cost(lp.cli.parse_paradigm(label),
                                                 self.versions, self.steps)
                self.results[label] = (plan, steps, expected)
            except Exception:
                errors.append(f"{label}: {traceback.format_exc()}")

    def check(self, res: dict) -> None:
        lp = self.lrpath
        base = lp.schedule.ScheduleConfig(lp.schedule.ScheduleKind.COSINE, ETA_MAX, ETA_MIN,
                                          self.warmup, lp.schedule.INFINITE)
        spec = lp.paradigm.uniform_spec(self.versions, self.steps, base, seed=self.seed)
        failed, total_steps, json_bytes = 0, 0, 0
        for label, path, _ in self.jobs:
            if label not in self.results:
                failed += 1
                continue
            n_err = len(res["errors"])
            plan, steps, expected = self.results.pop(label)
            if steps != expected:
                res["errors"].append(f"{label}: plan_cost {steps} != paradigm_cost {expected}")
            reference = lp.paradigm.build_plan(lp.cli.parse_paradigm(label), spec)
            if plan != reference:
                res["errors"].append(f"{label}: plan read back from {path.name} differs from the compiled plan")
            del plan, reference
            if len(res["errors"]) > n_err:
                failed += 1
            total_steps += steps
            json_bytes += path.stat().st_size
        res["plan_steps"] = total_steps
        res["plan_json_bytes"] = json_bytes
        res["ops_failed"] = failed


class Clock:
    """Times a workload's ops, with its calibration task between them.

    The calibration task runs before the first op, between two ops and after
    the last, outside the timed sections. An op's seconds become reference
    seconds by the ratio of CALIBRATION_REF_S to the mean of the two
    calibrations around it, so a change of machine speed within an
    iteration is followed op by op.
    """

    def __init__(self, np, tracer, task: str):
        self.tracer = tracer
        self.ref_s = CALIBRATION_REF_S[task]
        self.calibrate = Calibration(np, task).measure
        self.raw_wall_s = 0.0
        self.wall_s = 0.0
        self.calibration: list[float] = []
        self.raw_op_s: list[float] = []

    def ops(self, items):
        self.calibration.append(self.calibrate())
        for item in items:
            if self.tracer is not None:
                self.tracer.start()
            t0 = time.perf_counter()
            try:
                yield item
            finally:
                raw = time.perf_counter() - t0
                if self.tracer is not None:
                    self.tracer.stop()
            self.calibration.append(self.calibrate())
            self.raw_op_s.append(raw)
            self.raw_wall_s += raw
            self.wall_s += raw * 2 * self.ref_s / sum(self.calibration[-2:])

    def reference_s(self, raw_s: float) -> float:
        """`raw_s` seconds of this iteration, outside its ops, in reference seconds."""
        return raw_s * self.ref_s * len(self.calibration) / sum(self.calibration)


WORKLOADS = {"lifecycle-ps": LifecyclePS, "probe-grid": ProbeGrid, "plan-io": PlanIO}


def check_ppl(res: dict, what: str, ppl: float, vocab: int) -> None:
    if not (math.isfinite(ppl) and ppl < vocab):
        res["errors"].append(f"{what}: final ppl {ppl} is not finite or not below vocab size {vocab}")


# ---------------------------------------------------------------------------


def payload_digests(out: Path) -> dict:
    """sha256 of every checkpoint payload under `out`, by relative path."""
    digests = {}
    for path in sorted(out.rglob("ckpt/*.bin")):
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def environment(np) -> dict:
    blas = {}
    try:
        blas = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (TypeError, KeyError):  # numpy older than 1.25 has no mode="dicts"
        pass
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    import numpy as np

    import lrpath
    import lrpath.cli
    import lrpath.cost
    import lrpath.paradigm
    import lrpath.schedule
    import lrpath.trainer

    if not Path(lrpath.__file__).resolve().is_relative_to(src):
        print(f"lrpath was imported from {lrpath.__file__}, not from {src}", file=sys.stderr)
        return 2

    work = Path(args.workdir)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    tracer = None
    if args.trace:
        from tracer import Tracer, instrument

        tracer = Tracer()
        instrument(tracer, sys.modules[__name__])

    workload = WORKLOADS[args.workload](lrpath, args.seed, SCALES[args.scale], work)
    errors: list[str] = []

    raw_setup_s = time.time() - args.spawned_at
    clock = Clock(np, tracer, workload.calibration_task)
    workload.run(clock, errors)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    res = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": clock.reference_s(raw_setup_s),
        "wall_s": clock.wall_s,
        "raw_setup_s": raw_setup_s,
        "raw_wall_s": clock.raw_wall_s,
        "calibration_s": clock.calibration,
        "raw_op_s": clock.raw_op_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": workload.ops,
        "ops_failed": 0,
        "errors": errors,
        "plan_steps": 0,
        "plan_json_bytes": 0,
        "final_ppl": None,
    }
    try:
        workload.check(res)
    except Exception:
        res["errors"].append(f"output check raised: {traceback.format_exc()}")
        res["ops_failed"] = workload.ops
    res["payload_sha256"] = payload_digests(work)
    res["environment"] = environment(np)
    if tracer is not None:
        res["trace"] = tracer.summary()
        speed = clock.wall_s / clock.raw_wall_s
        res["trace"]["self_s"] = {k: v * speed for k, v in res["trace"]["self_s"].items()}
        res["trace"]["counters"] = tracer.counters
        res["trace"]["absent"] = tracer.absent
        tracer.write_spans(Path(args.result).with_suffix(".spans.tsv"))
    Path(args.result).write_text(json.dumps(res, indent=1), encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
