"""Deterministic desk-scale next-token trainer.

A small MLP (embedding -> tanh hidden -> softmax) predicts the next byte
of a synthetic Markov corpus.  The math runs in the model config's dtype
(float32 by default, float64 on request) with explicit seeds; identical
(plan, seed, corpus, dtype) inputs give bitwise-identical parameters, which
the acceptance suite relies on.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import heapq
import math
import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .data import (
    GENERATED_BYTES_PER_TOKEN, allocate_segments, corpus_size, derive_seed, make_corpus, sample_windows,
)
from .documents import JsonObject, atomic_open, json_int, json_str
from .errors import DataExhausted, InvalidConfig, NonFiniteEval, NonFiniteUpdate, ShapeMismatch
from .lineage import CheckpointRecord, Manifest, save_manifest, save_payload
from .paradigm import (
    Paradigm, Phase, TrainingPlan, UpdateSpec, parse_paradigm, uniform_spec, validate_plan,
)
from .schedule import config_from_dict

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.95
ADAM_EPS = 1e-8
DTYPES = ("float32", "float64")
# Held-out evaluation runs the forward pass on EVAL_BLOCK windows at a time,
# so that a block's (windows x vocab) temporaries stay in L2 cache, and
# averages the per-window NLL over groups of EVAL_GROUP windows.  EVAL_GROUP
# fixes the reported nll/ppl bits; EVAL_BLOCK does not change them.
EVAL_BLOCK = 256
EVAL_GROUP = 4096


def _check_counts(config, *names: str) -> None:
    """Raise InvalidConfig naming the first field in `names` that is not a positive integer."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise InvalidConfig(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class ToyModelConfig:
    vocab_size: int = 256
    context_len: int = 8
    embed_dim: int = 32
    hidden_dim: int = 128
    batch_size: int = 64  # windows per step
    dtype: str = "float32"  # of parameters, optimizer state and all model math

    def __post_init__(self):
        _check_counts(self, "vocab_size", "context_len", "embed_dim", "hidden_dim", "batch_size")
        if self.dtype not in DTYPES:
            raise InvalidConfig(f"dtype must be one of {DTYPES}, got {self.dtype!r}")


def _param_shapes(cfg: ToyModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    k, d, h, v = cfg.context_len, cfg.embed_dim, cfg.hidden_dim, cfg.vocab_size
    return [
        ("embed", (v, d)),
        ("w1", (k * d, h)),
        ("b1", (h,)),
        ("w2", (h, v)),
        ("b2", (v,)),
    ]


def _param_count(cfg: ToyModelConfig) -> int:
    return sum(math.prod(shape) for _, shape in _param_shapes(cfg))


def _views(flat: np.ndarray, cfg: ToyModelConfig) -> dict[str, np.ndarray]:
    out = {}
    off = 0
    for name, shape in _param_shapes(cfg):
        size = math.prod(shape)
        out[name] = flat[off : off + size].reshape(shape)
        off += size
    return out


@dataclass
class ModelState:
    """A training checkpoint: parameters in one flat buffer (`params` are
    views), Adam's moments `m` and `v` (zeros when not given), and `t`, the
    optimizer steps since the fresh init, which is the global step."""

    # A state allocates, copies and frees its parameters before its moments
    # (`params` holds views of `flat`, so it is declared before them): the
    # glibc heap layout, and with it what later large numpy temporaries
    # cost, depends on that order.
    config: ToyModelConfig
    flat: np.ndarray
    params: dict[str, np.ndarray] = field(init=False, repr=False, default_factory=dict)
    m: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    t: int = 0

    def __post_init__(self):
        if self.flat.size != _param_count(self.config):
            raise ShapeMismatch(
                f"expected {_param_count(self.config)} parameters, got {self.flat.size}"
            )
        if self.flat.dtype != self.config.dtype:
            raise ShapeMismatch(
                f"expected {self.config.dtype} parameters, got {self.flat.dtype}"
            )
        if not np.all(np.isfinite(self.flat)):
            raise NonFiniteUpdate("model parameters contain NaN/Inf")
        if self.m is None:
            self.m = np.zeros_like(self.flat)
        if self.v is None:
            self.v = np.zeros_like(self.flat)
        self.params = _views(self.flat, self.config)

    def copy(self) -> "ModelState":
        state = ModelState(self.config, self.flat.copy(), self.m, self.v, self.t)
        state.m, state.v = self.m.copy(), self.v.copy()
        return state

    def __reduce__(self):
        # `params` are views of `flat`; pickled, they would be a fourth copy
        return ModelState, (self.config, self.flat, self.m, self.v, self.t)


@dataclass(frozen=True)
class EvalReport:
    ppl: float
    nll: float  # nats per predicted token
    tokens_evaluated: int


def init_model(cfg: ToyModelConfig, seed: int) -> ModelState:
    """A fresh state: float64 normal draws cast to the config's dtype, t = 0."""
    rng = np.random.default_rng(seed)
    chunks = []
    for name, shape in _param_shapes(cfg):
        if name.startswith("b"):
            chunks.append(np.zeros(math.prod(shape)))
        else:
            chunks.append(rng.normal(0.0, 0.02, size=math.prod(shape)))
    flat = np.concatenate(chunks).astype(cfg.dtype, copy=False)
    del chunks  # freed before ModelState allocates the moments
    return ModelState(cfg, flat)


# ---------------------------------------------------------------------------
# model math

def _check_batch(model: ModelState, batch: np.ndarray) -> None:
    cfg = model.config
    if batch.ndim != 2 or batch.shape[1] != cfg.context_len + 1:
        raise ShapeMismatch(
            f"batch must have shape (B, {cfg.context_len + 1}), got {batch.shape}"
        )
    if batch.min() < 0 or batch.max() >= cfg.vocab_size:
        raise ShapeMismatch("token id outside vocabulary")


def forward_loss(model: ModelState, batch: np.ndarray) -> tuple[float, dict]:
    """Mean next-token cross-entropy (nats) plus the backward cache.

    The cache keeps the shifted logits and their log-sum-exp; `backward`
    turns them into probabilities, so evaluation pays for one `exp` pass.
    It also keeps the per-row NLL, which evaluation reduces itself.
    """
    _check_batch(model, batch)
    cfg = model.config
    p = model.params
    x = batch[:, : cfg.context_len]
    y = batch[:, cfg.context_len]
    bsz = x.shape[0]

    e = p["embed"][x]  # (B, k, d)
    h0 = e.reshape(bsz, -1)
    z1 = h0 @ p["w1"] + p["b1"]
    h1 = np.tanh(z1)
    logits = h1 @ p["w2"] + p["b2"]

    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    nll = lse - shifted[np.arange(bsz), y]
    loss = float(nll.mean())
    cache = {"x": x, "y": y, "h0": h0, "h1": h1, "shifted": shifted, "lse": lse, "nll": nll}
    return loss, cache


def backward(model: ModelState, cache: dict, out_flat: np.ndarray) -> dict[str, np.ndarray]:
    """Exact analytic gradients of the mean cross-entropy.

    `cache` must come from `forward_loss` on this model with its current
    parameters.  The gradients are written into the flat buffer `out_flat`,
    shaped like the model's, and the returned dict holds views into it.
    """
    cfg = model.config
    p = model.params
    x, y, h0, h1 = cache["x"], cache["y"], cache["h0"], cache["h1"]
    bsz = x.shape[0]

    grads = _views(out_flat, cfg)

    dlogits = np.exp(cache["shifted"] - cache["lse"][:, None])  # softmax probs
    dlogits[np.arange(bsz), y] -= 1.0
    dlogits /= bsz

    np.matmul(h1.T, dlogits, out=grads["w2"])
    dlogits.sum(axis=0, out=grads["b2"])
    dh1 = dlogits @ p["w2"].T
    dz1 = dh1 * (1.0 - h1 * h1)
    np.matmul(h0.T, dz1, out=grads["w1"])
    dz1.sum(axis=0, out=grads["b1"])

    dh0 = dz1 @ p["w1"].T
    de = dh0.reshape(bsz * cfg.context_len, cfg.embed_dim)
    # Scatter-add into the embedding rows via a one-hot matmul; much
    # faster than np.add.at for these sizes.
    flat_ids = x.ravel()
    onehot = np.zeros((flat_ids.size, cfg.vocab_size), dtype=model.flat.dtype)
    onehot[np.arange(flat_ids.size), flat_ids] = 1.0
    np.matmul(onehot.T, de, out=grads["embed"])
    return grads


def _adam_apply(p_flat, m_flat, v_flat, t, g_flat, lr, scratch) -> None:
    """Bias-corrected Adam step `t` (1-based), in place on p, m and v.

    `scratch` is a (2, n) buffer of p's dtype that holds the temporaries.  The
    ops are those of `p -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)`,
    in the same order, so the bits do not depend on it.  A non-finite update, from
    a NaN or Inf gradient or from an lr that overflows the dtype, raises
    here before it reaches p.
    """
    update, denom = scratch
    m_flat *= ADAM_BETA1
    np.multiply(g_flat, 1.0 - ADAM_BETA1, out=update)
    m_flat += update
    v_flat *= ADAM_BETA2
    np.multiply(g_flat, g_flat, out=update)
    update *= 1.0 - ADAM_BETA2
    v_flat += update
    np.divide(m_flat, 1.0 - ADAM_BETA1**t, out=update)
    np.divide(v_flat, 1.0 - ADAM_BETA2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    update /= denom
    update *= lr
    if not np.all(np.isfinite(update)):
        raise NonFiniteUpdate("non-finite Adam update")
    p_flat -= update


def train_phase(
    model: ModelState,
    phase: Phase,
    data: np.ndarray,
    run_seed: int,
    log_stride: int = 100,
) -> tuple[ModelState, list[tuple[int, float, float]]]:
    """Run exactly phase.num_steps steps; returns (model', trace).

    The input state is left unchanged, so several phases can fork from one
    parent state.  The batch stream is seeded by (run_seed, phase_id), so
    reruns are bit-deterministic.  `data` is the concatenated token array
    of the phase's segments.
    """
    cfg = model.config
    width = cfg.context_len + 1
    if len(data) < width:
        raise DataExhausted(
            f"phase {phase.phase_id}: {len(data)} tokens cannot fill a window"
        )
    rng = np.random.default_rng(derive_seed(run_seed, f"batches:{phase.phase_id}"))
    model = model.copy()
    g_flat = np.empty_like(model.flat)
    scratch = np.empty((2, model.flat.size), dtype=model.flat.dtype)
    trace: list[tuple[int, float, float]] = []
    for s in range(phase.num_steps):
        lr = phase.lr_profile.lr(s)
        batch = sample_windows(data, rng, cfg.batch_size, width)
        loss, cache = forward_loss(model, batch)
        backward(model, cache, out_flat=g_flat)
        model.t += 1
        try:
            _adam_apply(model.flat, model.m, model.v, model.t, g_flat, lr, scratch)
        except NonFiniteUpdate as exc:
            raise NonFiniteUpdate(f"phase {phase.phase_id}, step {s}: {exc}") from exc
        if s % log_stride == 0 or s == phase.num_steps - 1:
            trace.append((s, lr, loss))
    return model, trace


def evaluate_ppl(model: ModelState, heldout: np.ndarray) -> EvalReport:
    """Perplexity over non-overlapping next-token windows of the held-out set.

    The forward pass runs in blocks of `EVAL_BLOCK` windows; a row's NLL
    does not depend on the block it is computed in.  The mean is then taken
    over groups of `EVAL_GROUP` rows, so the reported bits do not depend on
    the block size either.
    """
    cfg = model.config
    width = cfg.context_len + 1
    if len(heldout) < width:
        raise DataExhausted(f"held-out set of {len(heldout)} tokens is too small")
    windows = heldout[: len(heldout) // width * width].reshape(-1, width)
    rows = np.empty(len(windows), dtype=model.flat.dtype)
    for i in range(0, len(windows), EVAL_BLOCK):
        _, cache = forward_loss(model, windows[i : i + EVAL_BLOCK])
        rows[i : i + EVAL_BLOCK] = cache["nll"]
    total = 0.0
    for i in range(0, len(rows), EVAL_GROUP):
        group = rows[i : i + EVAL_GROUP]
        total += float(group.mean()) * len(group)
    nll = total / len(windows)
    try:
        ppl = math.exp(nll)
    except OverflowError:  # nll above ~709.78
        ppl = math.inf
    if not math.isfinite(ppl):
        raise NonFiniteEval(f"held-out nll {nll:.6g} has no finite perplexity")
    return EvalReport(ppl=ppl, nll=nll, tokens_evaluated=int(len(windows)))


# ---------------------------------------------------------------------------
# experiment orchestration

@dataclass(frozen=True)
class RunConfig:
    model: ToyModelConfig = ToyModelConfig()
    tokens_per_step: int = 64
    heldout_tokens: int = 50_000
    corpus_file: Optional[str] = None
    log_stride: int = 100

    def __post_init__(self):
        _check_counts(self, "tokens_per_step", "heldout_tokens", "log_stride")
        window = self.model.context_len + 1
        if self.heldout_tokens < window:
            raise InvalidConfig(
                f"heldout_tokens ({self.heldout_tokens}) must hold one "
                f"evaluation window ({window} tokens)"
            )


_MODEL_KEYS = frozenset(f.name for f in dataclasses.fields(ToyModelConfig))
# a run config holds the scenario, the seeds and the fields of a RunConfig
_RUN_CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(RunConfig)) | {
    "paradigms", "num_versions", "steps_per_version", "schedule", "seeds",
}


def _model_from_dict(d: dict, at: tuple, key) -> ToyModelConfig:
    o = JsonObject(d, at, key, _MODEL_KEYS)
    return ToyModelConfig(**{k: o.str(k) if k == "dtype" else o.int(k) for k in d})


def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where the system does not say."""
    if not hasattr(os, "sysconf") or "SC_PHYS_PAGES" not in os.sysconf_names:
        return None
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def run_config_from_dict(d: dict) -> tuple[list[Paradigm], UpdateSpec, RunConfig, list[int]]:
    """Read an `lrpath run` config: its paradigms, the scenario they share,
    the run settings and the seeds.

    Paradigms and seeds are lists without repeats, since each names an
    output directory; a seed also lies in [0, 2**64), the payload header's
    range.  A `corpus_file` must hold the `corpus_size` tokens the run needs.
    The per-version step tuple and the corpus must fit in physical memory:
    a corpus file's bytes, or the peak of generating the corpus.
    """
    o = JsonObject(d, ("run config",), None, _RUN_CONFIG_KEYS)
    texts = o.list("paradigms", json_str)
    paradigms = [parse_paradigm(t) for t in texts]
    if not paradigms:
        raise InvalidConfig("at least one paradigm is required")
    num_versions = o.int("num_versions")
    if type(o.fields.get("steps_per_version")) is list:
        steps = o.list("steps_per_version", json_int)
        total_steps, listed = sum(steps), len(steps)
    else:
        steps = o.int("steps_per_version")
        # a version trains at least one step
        total_steps, listed = max(steps, 1) * num_versions, num_versions
    schedule = o.object("schedule", config_from_dict)
    run_cfg = RunConfig(
        model=o.object("model", _model_from_dict, ToyModelConfig()),
        tokens_per_step=o.int("tokens_per_step", 64),
        heldout_tokens=o.int("heldout_tokens", 50_000),
        corpus_file=o.str("corpus_file", None, nullable=True),
        log_stride=o.int("log_stride", 100),
    )
    # checked before the per-version tuple exists: no tuple holds that many
    size = corpus_size(run_cfg.heldout_tokens, run_cfg.tokens_per_step, total_steps)
    listed_bytes = 8 * listed  # the tuple holds one 8-byte pointer a version
    corpus_bytes = size * (1 if run_cfg.corpus_file else GENERATED_BYTES_PER_TOKEN)
    memory = _physical_memory()
    if memory is not None and listed_bytes + corpus_bytes > memory:
        raise InvalidConfig(
            f"the run needs {listed_bytes} bytes for its per-version steps and {corpus_bytes} bytes "
            f"for its corpus of {size} tokens, more than the {memory} bytes of physical memory"
        )
    if type(steps) is int:
        spec = uniform_spec(num_versions, steps, schedule)
    else:
        spec = UpdateSpec(num_versions, tuple(steps), schedule)
    seeds = o.list("seeds", json_int, default=[0])
    if not seeds:
        raise InvalidConfig("at least one seed is required")
    for seed in seeds:
        if not 0 <= seed < 2**64:
            raise InvalidConfig(f"seed {seed} lies outside [0, 2**64)")
        if seeds.count(seed) > 1:
            raise InvalidConfig(f"seed {seed} is listed more than once")
    labels = [p.label for p in paradigms]
    for label in labels:
        if labels.count(label) > 1:
            same = ", ".join(repr(t) for t, other in zip(texts, labels) if other == label)
            raise InvalidConfig(f"paradigm {label!r} is listed more than once: {same}")
    if run_cfg.corpus_file:
        if not Path(run_cfg.corpus_file).exists():
            raise InvalidConfig(f"corpus file {run_cfg.corpus_file!r} does not exist")
        held = Path(run_cfg.corpus_file).stat().st_size
        if held < size:
            raise InvalidConfig(f"corpus file {run_cfg.corpus_file!r} holds {held} bytes, need {size}")
    return paradigms, spec, run_cfg, seeds


def _payload_file(phase: Phase) -> str:
    return f"ckpt/{phase.phase_id}_final.bin"


class _Run:
    """One plan run with one seed: its corpus, the states that later phases
    init from, the phases' content keys and the phase outcomes so far.

    The held-out set is the corpus head, reserved before segmentation and
    never trained on.  A state is dropped once the last phase that inits
    from it has started.  A phase's rank is the steps on its longest chain
    to the end of the plan.  Setting a run up writes nothing: its directory
    appears with the first payload `_run_phase` writes.
    """

    def __init__(self, plan: TrainingPlan, run_cfg: RunConfig, seed: int, out_dir: Optional[Path]):
        validate_plan(plan)
        self.plan, self.run_cfg, self.seed, self.out_dir = plan, run_cfg, seed, out_dir
        spec = plan.spec.replace(seed=seed)
        size = corpus_size(run_cfg.heldout_tokens, run_cfg.tokens_per_step, sum(plan.spec.increments))
        corpus = make_corpus(seed, size, run_cfg.corpus_file)
        # a modulus of 256 or more leaves bytes as they are (and would not fit uint8)
        if run_cfg.model.vocab_size < 256:
            corpus = corpus % run_cfg.model.vocab_size
        self.heldout = corpus[: run_cfg.heldout_tokens]
        self.heldout_digest = hashlib.sha256(self.heldout).hexdigest()
        segments = allocate_segments(
            spec, run_cfg.tokens_per_step, plan.paradigm.alpha, run_cfg.heldout_tokens
        )
        self.segments = {s.segment_id: corpus[s.start_offset : s.start_offset + s.length] for s in segments}
        self.manifest = Manifest(spec=spec, segments=segments)
        # phase indices by the phase they init from; under None, the fresh inits
        self.children: dict[Optional[str], list[int]] = {p.phase_id: [] for p in plan.phases}
        self.children[None] = []
        self.rank: dict[int, int] = {}
        for i in reversed(range(len(plan.phases))):
            phase = plan.phases[i]
            below = [self.rank[c] for c in self.children[phase.phase_id]]
            self.rank[i] = phase.num_steps + max(below, default=0)
            self.children[phase.init_from].append(i)
        self.users = {phase_id: len(c) for phase_id, c in self.children.items()}
        self.states: dict[str, ModelState] = {}
        self.keys: dict[str, str] = {}
        self.outcomes: dict[str, tuple[int, Optional[EvalReport]]] = {}

    def task(self, i: int) -> tuple:
        """The arguments of `_run_phase` for phase `i`.

        The last is the phase's content key: a digest of everything that
        fixes its outcome.  That is the parent's key (for a fresh init, the
        model config and its seed), the phase's own fields that training
        and evaluation read, the run seed, the trace stride, and the bytes
        of the phase's data and of the held-out set.
        """
        phase, model = self.plan.phases[i], None
        if phase.init_from is None:
            origin = (self.run_cfg.model, self.seed ^ phase.version)
        else:
            origin = self.keys[phase.init_from]
            model = self.states[phase.init_from]
            self.users[phase.init_from] -= 1
            if not self.users[phase.init_from]:
                del self.states[phase.init_from]
        data = np.concatenate([self.segments[r] for r in phase.data_segments])
        content = (
            origin, phase.phase_id, phase.num_steps, phase.lr_profile,
            phase.emits_version_checkpoint, self.seed, self.run_cfg.log_stride,
            hashlib.sha256(data).hexdigest(), self.heldout_digest,
        )
        key = self.keys[phase.phase_id] = hashlib.sha256(repr(content).encode()).hexdigest()
        keep = self.users[phase.phase_id] > 0
        return phase, model, data, self.heldout, self.seed, self.run_cfg, self.out_dir, keep, key

    def done(self, i: int, outcome: tuple) -> list[int]:
        """Record phase `i`'s `_run_phase` outcome; returns the phases that
        init from it, which it makes ready."""
        t, report, model = outcome
        phase_id = self.plan.phases[i].phase_id
        self.outcomes[phase_id] = (t, report)
        if model is not None:
            self.states[phase_id] = model
        return self.children[phase_id]

    def close(self) -> tuple[dict[int, EvalReport], Manifest]:
        """Record every phase in the manifest, in plan order, and write it;
        returns the evaluations by version and the manifest."""
        results: dict[int, EvalReport] = {}
        for phase in self.plan.phases:
            t, report = self.outcomes[phase.phase_id]
            if report is not None:
                results[phase.version] = report
            self.manifest.records.append(
                CheckpointRecord(
                    ckpt_id=f"{phase.phase_id}#final",
                    phase_id=phase.phase_id,
                    version=phase.version,
                    path=phase.path.value,
                    parent=None if phase.init_from is None else f"{phase.init_from}#final",
                    global_step=t,
                    metrics=dataclasses.asdict(report) if report else None,
                    payload_file=_payload_file(phase),
                )
            )
        if self.out_dir is not None:
            save_manifest(self.manifest, self.out_dir / "manifest.json")
        return results, self.manifest


# The phase store of this process: the last phase trained here that a later
# phase inits from, as {content key: (state, trace, evaluation)}.  It holds
# one entry at most, so a run keeps at most one state more than it needs.
# The state is the object the run holds, not a copy; no code mutates a
# trained state (`train_phase` copies its input).
_phase_store: dict[str, tuple[ModelState, list, Optional[EvalReport]]] = {}


def _run_phase(
    phase: Phase, model: Optional[ModelState], data: np.ndarray, heldout: np.ndarray,
    seed: int, run_cfg: RunConfig, out_dir: Optional[Path], keep: bool, key: str,
) -> tuple[int, Optional[EvalReport], Optional[ModelState]]:
    """Train one phase from `model`, or from a fresh init when it is None,
    evaluate it if it emits a version checkpoint, and write its payload and
    trace under `out_dir`.  A phase whose content `key` is in the store is
    not trained again: its stored outcome is written instead.  Returns the
    step count, the evaluation and, if `keep`, the state: a pool process
    sends back no state that nothing inits from, and only a kept state
    enters the store.
    """
    if key in _phase_store:
        model, trace, report = _phase_store[key]
    else:
        if model is None:
            # Fresh-init seed folds in the version index so independent
            # scratch runs differ.
            model = init_model(run_cfg.model, seed ^ phase.version)
        model, trace = train_phase(model, phase, data, seed, log_stride=run_cfg.log_stride)
        report = None
        if phase.emits_version_checkpoint:
            try:
                report = evaluate_ppl(model, heldout)
            except NonFiniteEval as exc:
                raise NonFiniteEval(f"phase {phase.phase_id}: {exc}") from exc
        if keep:
            _phase_store.clear()
            _phase_store[key] = model, trace, report
    if out_dir is not None:
        # concurrent processes may make it at once
        (out_dir / "ckpt").mkdir(parents=True, exist_ok=True)
        save_payload(out_dir / _payload_file(phase), model.flat, seed, model.t)
        with atomic_open(out_dir / f"trace_{phase.phase_id}.csv", "w") as fh:
            fh.write("step,lr,loss\n")
            for s, lr, loss in trace:
                fh.write(f"{s},{lr:.12g},{loss:.12g}\n")
    return model.t, report, model if keep else None


def run_single(
    plan: TrainingPlan, run_cfg: RunConfig, seed: int, out_dir: Optional[Path] = None
) -> tuple[dict[int, EvalReport], Manifest]:
    """Execute all phases of a plan once with one seed, in plan order.

    Returns per-version evaluation reports and the populated manifest.
    This is the serial reference for `run_all`.
    """
    run = _Run(plan, run_cfg, seed, out_dir)
    for i in range(len(plan.phases)):
        run.done(i, _run_phase(*run.task(i)))
    return run.close()


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def openblas_threads():
    """The thread-count getter and setter of the OpenBLAS this process has
    loaded, or None if none is found.  The symbols carry the build's
    prefix and suffix: `scipy_openblas_..._num_threads64_` in numpy's
    wheels, `openblas_..._num_threads` elsewhere."""
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
        for prefix, suffix in (("openblas_", ""), ("scipy_openblas_", "64_"), ("openblas_", "64_")):
            get = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def one_blas_thread():
    """Within the block, this process and every process it starts run one
    BLAS thread, so that training processes do not oversubscribe the cores.

    Sets BLAS_THREAD_VARS to 1, which spawned processes read when they load
    BLAS, and pins the OpenBLAS already loaded here; both are restored on
    exit.  If the user has set any of the variables, it changes nothing.
    """
    if any(var in os.environ for var in BLAS_THREAD_VARS):
        yield
        return
    blas = openblas_threads()
    threads = blas[0]() if blas else None
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        if blas:
            blas[1](1)
        yield
    finally:
        for var in BLAS_THREAD_VARS:
            os.environ.pop(var, None)
        if blas:
            blas[1](threads)


def run_all(
    jobs: Sequence[tuple[TrainingPlan, int, Optional[Path]]], run_cfg: RunConfig, workers: int
) -> list[tuple[dict[int, EvalReport], Manifest]]:
    """Run every (plan, seed, out_dir) job; returns `run_single`'s results
    for each, in job order, and writes the same bytes.

    A phase is ready once the phase it inits from has finished.  This
    process trains the highest-ranked ready phase; `workers - 1` spawned
    processes train the next ones, with at most one task queued per
    process.  `workers` is capped at the number of leaves, the phases that
    nothing inits from, so a config that is one chain spawns nothing.  A
    run that spawns runs one BLAS thread per process (`one_blas_thread`).
    Every job is set up (gated, its corpus made) before any process starts
    or any file is written, so a job that fails set-up leaves neither.
    """
    runs = [_Run(plan, run_cfg, seed, out_dir) for plan, seed, out_dir in jobs]
    leaves = sum(not run.children[p.phase_id] for run in runs for p in run.plan.phases)
    spawned = min(workers, leaves) - 1
    with one_blas_thread() if spawned > 0 else nullcontext():
        return _schedule(runs, spawned)


def _start_pool(workers: int) -> ProcessPoolExecutor:
    """A pool of `workers` spawned processes, started now.  The process
    pool's modules are imported here, so a run that spawns nothing never
    loads them."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # spawn, not fork: a forked child would inherit the parent's BLAS thread
    # pool mid-state
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
    for _ in range(workers):
        pool.submit(int)  # a no-op: the process starts now, not with the first phase
    return pool


def _schedule(runs: list[_Run], spawned: int) -> list[tuple[dict[int, EvalReport], Manifest]]:
    """`run_all` of set-up `runs`, with `spawned` pool processes beside this one."""
    pool, manager = None, None
    futures: dict[Future, tuple[int, int]] = {}
    try:
        if spawned > 0:
            pool = _start_pool(spawned)
        ready = [(-run.rank[i], j, i) for j, run in enumerate(runs) for i in run.children[None]]
        heapq.heapify(ready)
        left = sum(len(run.rank) for run in runs)  # phases not yet dispatched

        def finish(j: int, i: int, outcome: tuple) -> None:
            for c in runs[j].done(i, outcome):
                heapq.heappush(ready, (-runs[j].rank[c], j, c))

        while ready or futures:
            mine = heapq.heappop(ready)[1:] if ready else None
            left -= bool(mine)
            while ready and len(futures) < 2 * spawned:
                _, j, i = heapq.heappop(ready)
                futures[pool.submit(_run_phase, *runs[j].task(i))] = (j, i)
                left -= 1
            if pool is not None and not left:
                # Every phase is dispatched: the workers exit once their
                # queues are empty, while this process trains on.  The
                # pool's manager thread joins them, so the run joins it: a
                # second joiner of a worker can lose the race to reap it and
                # return while the worker still counts as alive.
                manager = pool._executor_manager_thread
                pool.shutdown(wait=False)
                pool = None
            if mine:
                finish(*mine, _run_phase(*runs[mine[0]].task(mine[1])))
            else:
                from concurrent.futures import FIRST_COMPLETED, wait  # loaded with the pool

                wait(futures, return_when=FIRST_COMPLETED)
            for future in [f for f in futures if f.done()]:
                finish(*futures.pop(future), future.result())
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        if manager is not None:
            manager.join()
    return [run.close() for run in runs]
