"""In-memory span tracer that times lrpath from outside.

Each traced function is replaced, in the namespace where its caller looks
it up, by a wrapper that records a span (name, start, end, parent). Spans
stay in memory until the worker writes them out. A function that a later
refactor renamed or removed is listed as absent instead of failing the
run; its time then lands in the self time of the enclosing span.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import os
import time

import numpy as np

HARNESS = "bench.harness"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self.active = False
        self._stack: list[int] = []
        self._unique_phases: set[str] = set()

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def start(self) -> None:
        """Open the root span that covers the timed region."""
        self.active = True
        self.begin(HARNESS)

    def stop(self) -> None:
        """Close the root span."""
        while self._stack:
            self.end(self._stack[-1])
        self.active = False

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrapping ------------------------------------------------------------

    def wrap(self, module, attr: str, name, before=None, after=None) -> None:
        """Replace module.attr by a traced wrapper.

        `name` is a span name or a function of the tracer giving one.
        `before(tracer, bound_args)` runs ahead of the call and
        `after(tracer, bound_args, result)` after it, both inside a
        `bench.trace_hooks` span so that their cost is not charged to a
        layer.
        """
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.append(f"{module.__name__}.{attr}")
            return
        sig = inspect.signature(fn) if (before or after) else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            bound = None
            if sig is not None:
                try:
                    bound = sig.bind(*args, **kwargs).arguments
                except TypeError:
                    bound = {}
            if before is not None:
                tracer._hook(before, bound)
            idx = tracer.begin(name(tracer) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                tracer._hook(after, bound, result)
            return result

        setattr(module, attr, traced)

    def _hook(self, hook, *args) -> None:
        idx = self.begin("bench.trace_hooks")
        try:
            hook(self, *args)
        finally:
            self.end(idx)

    # -- summaries -----------------------------------------------------------

    def summary(self) -> dict:
        """Self time and call count per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - children
            calls[name] = calls.get(name, 0) + 1
        return {"self_s": self_s, "calls": calls}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\n")


# ---------------------------------------------------------------------------
# content digests for the unique-step count


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            if f.init:
                h.update(f.name.encode())
                _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    else:
        h.update(repr(obj).encode())


def phase_content_key(bound: dict) -> str:
    """Digest of what determines a phase's result.

    Covers the initial model and optimizer state (the init chain), the
    phase id (which seeds the batch stream), the LR profile, the data
    (corpus identity plus segment offsets) and the run seed. The model
    config travels inside the model state.
    """
    h = hashlib.sha256()
    phase = bound.get("phase")
    for part in (
        bound.get("model"),
        bound.get("adam"),
        getattr(phase, "phase_id", None),
        getattr(phase, "num_steps", None),
        getattr(phase, "lr_profile", None),
        bound.get("data"),
        bound.get("run_seed"),
    ):
        _feed(h, part)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# what is traced


def _count_steps(tracer: Tracer, bound: dict) -> None:
    steps = getattr(bound.get("phase"), "num_steps", 0)
    tracer.count("trainer.steps_executed", steps)
    key = phase_content_key(bound)
    if key not in tracer._unique_phases:
        tracer._unique_phases.add(key)
        tracer.count("trainer.steps_unique", steps)


def _count_eval(tracer: Tracer, bound: dict, report) -> None:
    tokens = getattr(report, "tokens_evaluated", None)
    if tokens is None:
        tokens = len(bound.get("heldout", ()))
    tracer.count("trainer.eval.tokens", tokens)


def _count_corpus(tracer: Tracer, bound: dict, corpus) -> None:
    tracer.count("trainer.corpus.tokens", len(corpus))


def _count_payload(tracer: Tracer, bound: dict, result) -> None:
    path = bound.get("path")
    if path is not None and os.path.exists(path):
        tracer.count("lineage.save_payload.bytes", os.path.getsize(path))


def _forward_name(tracer: Tracer) -> str:
    if tracer.parent_name() == "trainer.eval":
        return "trainer.forward.eval"
    return "trainer.forward.train"


def instrument(tracer: Tracer, harness_module) -> None:
    """Wrap every traced function of lrpath and of the worker itself."""
    from lrpath import cli, cost, paradigm, schedule, trainer

    table = [
        # (module, attribute, span name, before hook, after hook)
        (cli, "cmd_run", "cli.run", None, None),
        (cli, "cmd_plan", "cli.plan", None, None),
        (cli, "build_plan", "paradigm.build_plan", None, None),
        (cli, "plan_to_json", "paradigm.plan_to_json", None, None),
        (trainer, "run_single", "trainer.run", None, None),
        (trainer, "validate_plan", "paradigm.validate_plan", None, None),
        (trainer, "make_corpus", "trainer.corpus", None, _count_corpus),
        (trainer, "allocate_segments", "lineage.allocate_segments", None, None),
        (trainer, "train_phase", "trainer.step_loop", _count_steps, None),
        (trainer, "sample_windows", "trainer.sample", None, None),
        (trainer, "forward_loss", _forward_name, None, None),
        (trainer, "backward", "trainer.backward", None, None),
        (trainer, "_adam_apply", "trainer.optimizer", None, None),
        (trainer, "evaluate_ppl", "trainer.eval", None, _count_eval),
        (trainer, "record_checkpoint", "lineage.record_checkpoint", None, None),
        (trainer, "save_payload", "lineage.save_payload", None, _count_payload),
        (trainer, "save_manifest", "lineage.save_manifest", None, None),
        (paradigm, "build_two_stage_probe", "paradigm.build_probe", None, None),
        (paradigm, "validate_plan", "paradigm.validate_plan", None, None),
        (paradigm, "plan_from_dict", "paradigm.plan_from_dict", None, None),
        (paradigm, "lr_at", "schedule.lr_at", None, None),
        (paradigm, "decay_segment", "schedule.decay_segment", None, None),
        (paradigm, "validate_config", "schedule.validate_config", None, None),
        (schedule, "validate_config", "schedule.validate_config", None, None),
        (cost, "paradigm_cost", "cost.paradigm_cost", None, None),
        (harness_module, "load_plan_json", "bench.plan_json_load", None, None),
    ]
    for module, attr, name, before, after in table:
        tracer.wrap(module, attr, name, before=before, after=after)
