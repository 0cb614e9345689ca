"""Deterministic desk-scale next-token trainer.

A small MLP (embedding -> tanh hidden -> softmax) predicts the next byte
of a synthetic Markov corpus.  The math runs in the model config's dtype
(float32 by default, float64 on request) with explicit seeds; identical
(plan, seed, corpus, dtype) inputs give bitwise-identical parameters, which
the acceptance suite relies on.
"""

from __future__ import annotations

import dataclasses
import json
import math
from concurrent.futures import Executor, Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DataExhausted,
    EmptyEval,
    InvalidConfig,
    NonFiniteEval,
    NonFiniteUpdate,
    ShapeMismatch,
)
from .lineage import (
    CheckpointRecord,
    Manifest,
    allocate_segments,
    atomic_open,
    derive_seed,
    save_manifest,
    save_payload,
)
from .paradigm import (
    Paradigm, Phase, TrainingPlan, UpdateSpec, parse_paradigm, plan_cost, validate_plan,
)
from .schedule import JsonObject, config_from_dict, json_int, json_str

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


@dataclass(frozen=True)
class ToyModelConfig:
    vocab_size: int = 256
    context_len: int = 8
    embed_dim: int = 32
    hidden_dim: int = 128
    batch_size: int = 64  # windows per step
    dtype: str = "float32"  # of parameters, optimizer state and all model math

    def __post_init__(self):
        for name in ("vocab_size", "context_len", "embed_dim", "hidden_dim", "batch_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise InvalidConfig(f"{name} must be a positive integer, got {value!r}")
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
# data

_corpus_cache: dict[tuple, np.ndarray] = {}


def make_corpus(seed: int, size: int, path: Optional[str] = None) -> np.ndarray:
    """Deterministic byte stream from a seeded order-2 Markov source.

    16 latent modes, each an affine next-byte rule with occasional uniform
    noise; modes persist for a few hundred tokens.  With `path` set, the
    file's bytes are used instead (truncated to `size`).
    """
    if size < 1:
        raise DataExhausted(f"corpus size must be >= 1, got {size}")
    key = (seed, size, path)
    if path is None and key in _corpus_cache:
        return _corpus_cache[key]
    if path is not None:
        raw = Path(path).read_bytes()  # OSError on missing path
        if len(raw) < size:
            raise DataExhausted(
                f"file {path} holds {len(raw)} bytes, need {size}"
            )
        return np.frombuffer(raw[:size], dtype=np.uint8).astype(np.int64)

    n_modes = 16
    rng = np.random.default_rng(seed)
    coef_a = rng.integers(1, 256, size=n_modes)
    coef_b = rng.integers(1, 256, size=n_modes)
    coef_c = rng.integers(0, 256, size=n_modes)

    # Piecewise-constant latent mode: switch points drawn per position,
    # then expanded without a Python loop.
    switch = rng.random(size) < (1.0 / 512.0)
    mode_draws = rng.integers(0, n_modes, size=size)
    idx = np.flatnonzero(switch)
    boundaries = np.concatenate(([0], idx))
    values = np.concatenate(([mode_draws[0]], mode_draws[idx]))
    mode = values[np.searchsorted(boundaries, np.arange(size), side="right") - 1]

    noisy = rng.random(size) < 0.08
    noise_vals = rng.integers(0, 256, size=size)

    # The recurrence runs on Python ints, several times faster than on
    # numpy scalars, with the same arithmetic in the same order.  Every
    # token is a byte, so the streams are iterated and built as bytes.
    rules = list(zip(coef_a.tolist(), coef_b.tolist(), coef_c.tolist()))
    noise = noise_vals.astype(np.uint8).tobytes()
    tokens = bytearray(noise[:2])
    prev1, prev2 = tokens[-1], tokens[0]
    steps = zip(noisy[2:].tobytes(), noise[2:], mode[2:].astype(np.uint8).tobytes())
    for is_noise, x, m in steps:
        if not is_noise:
            a, b, c = rules[m]
            x = (a * prev1 + b * prev2 + c) % 256
        tokens.append(x)
        prev2 = prev1
        prev1 = x
    out = np.frombuffer(tokens, dtype=np.uint8).astype(np.int64)
    out.setflags(write=False)
    if len(_corpus_cache) > 8:
        _corpus_cache.clear()
    _corpus_cache[key] = out
    return out


def sample_windows(data: np.ndarray, rng: np.random.Generator, count: int, width: int) -> np.ndarray:
    if len(data) < width:
        raise DataExhausted(f"segment of {len(data)} tokens is shorter than a window ({width})")
    starts = rng.integers(0, len(data) - width + 1, size=count)
    return data[starts[:, None] + np.arange(width)]


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


def backward(
    model: ModelState, cache: dict, out_flat: Optional[np.ndarray] = None
) -> dict[str, np.ndarray]:
    """Exact analytic gradients of the mean cross-entropy.

    `cache` must come from `forward_loss` on this model with its current
    parameters.  With `out_flat` given, gradients are written into that
    flat buffer and the returned dict holds views into it (the trainer's
    hot path).
    """
    cfg = model.config
    p = model.params
    x, y, h0, h1 = cache["x"], cache["y"], cache["h0"], cache["h1"]
    bsz = x.shape[0]

    if out_flat is None:
        out_flat = np.empty_like(model.flat)
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


def _adam_apply(p_flat, m_flat, v_flat, t, g_flat, lr, scratch=None) -> None:
    """Bias-corrected Adam step `t` (1-based), in place on p, m and v.

    `scratch` is a (2, n) buffer of p's dtype that holds the temporaries
    (allocated when None).  The ops are those of
    `p -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)`, in the
    same order, so the bits do not depend on it.  A NaN or Inf gradient
    makes the update non-finite, so it raises here.
    """
    if scratch is None:
        scratch = np.empty((2, p_flat.size), dtype=p_flat.dtype)
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
    if not np.all(np.isfinite(update)):
        raise NonFiniteUpdate("non-finite Adam update")
    update *= lr
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
        raise EmptyEval(f"held-out set of {len(heldout)} tokens is too small")
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
        for name in ("tokens_per_step", "log_stride"):
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be positive")
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


def run_config_from_dict(d: dict) -> tuple[list[Paradigm], UpdateSpec, RunConfig, list[int]]:
    """Read an `lrpath run` config: its paradigms, the scenario they share,
    the run settings and the seeds.

    Paradigms and seeds are lists without repeats, since each names an
    output directory; a seed also lies in [0, 2**64), the payload header's
    range.
    """
    o = JsonObject(d, ("run config",), None, _RUN_CONFIG_KEYS)
    texts = o.list("paradigms", json_str)
    paradigms = [parse_paradigm(t) for t in texts]
    if not paradigms:
        raise InvalidConfig("at least one paradigm is required")
    num_versions = o.int("num_versions")
    if type(o.fields.get("steps_per_version")) is list:
        steps = o.list("steps_per_version", json_int)
    else:
        steps = [o.int("steps_per_version")] * num_versions
    spec = UpdateSpec(num_versions, tuple(steps), o.object("schedule", config_from_dict))
    run_cfg = RunConfig(
        model=o.object("model", _model_from_dict, ToyModelConfig()),
        tokens_per_step=o.int("tokens_per_step", 64),
        heldout_tokens=o.int("heldout_tokens", 50_000),
        corpus_file=o.str("corpus_file", None, nullable=True),
        log_stride=o.int("log_stride", 100),
    )
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
    if run_cfg.corpus_file and not Path(run_cfg.corpus_file).exists():
        raise InvalidConfig(f"corpus file {run_cfg.corpus_file!r} does not exist")
    return paradigms, spec, run_cfg, seeds


def helper_phases(plan: TrainingPlan) -> frozenset[str]:
    """The phases `run_single` hands to a helper process, by id.

    Each is a leaf, a phase that no later phase inits from, other than the
    plan's last.  Leaves are taken in plan order while the helper's steps
    stay at or below those left to the main process, so the split follows
    from the plan's step counts alone.  A plan whose only leaf is its last
    phase (CPT, a two-stage probe) has none.
    """
    parents = {p.init_from for p in plan.phases}
    total = plan_cost(plan)
    sent: set[str] = set()
    steps = 0
    for phase in plan.phases[:-1]:
        if phase.phase_id not in parents and 2 * (steps + phase.num_steps) <= total:
            sent.add(phase.phase_id)
            steps += phase.num_steps
    return frozenset(sent)


def _payload_file(phase: Phase) -> str:
    return f"ckpt/{phase.phase_id.replace('#', '_')}_final.bin"


def _run_phase(
    phase: Phase,
    model: ModelState,
    data: np.ndarray,
    seed: int,
    log_stride: int,
    heldout: np.ndarray,
    out_dir: Optional[Path],
) -> tuple[ModelState, Optional[EvalReport]]:
    """Train one phase, evaluate it if it emits a version checkpoint, and
    write its payload and trace under `out_dir`."""
    model, trace = train_phase(model, phase, data, seed, log_stride=log_stride)
    report = None
    if phase.emits_version_checkpoint:
        try:
            report = evaluate_ppl(model, heldout)
        except NonFiniteEval as exc:
            raise NonFiniteEval(f"phase {phase.phase_id}: {exc}") from exc
    if out_dir is not None:
        save_payload(out_dir / _payload_file(phase), model.flat, seed, model.t)
        with atomic_open(out_dir / f"trace_{phase.phase_id}.csv", "w") as fh:
            fh.write("step,lr,loss\n")
            for s, lr, loss in trace:
                fh.write(f"{s},{lr:.12g},{loss:.12g}\n")
    return model, report


def _train_leaf(
    phase: Phase,
    model: ModelState,
    data: np.ndarray,
    seed: int,
    log_stride: int,
    heldout: np.ndarray,
    out_dir: Optional[Path],
) -> tuple[int, Optional[EvalReport]]:
    """`_run_phase` in the helper process; returns the state's step count
    and the evaluation, which is all the main process records."""
    model, report = _run_phase(phase, model, data, seed, log_stride, heldout, out_dir)
    return model.t, report


def run_single(
    plan: TrainingPlan,
    run_cfg: RunConfig,
    seed: int,
    out_dir: Optional[Path] = None,
    helper: Optional[Executor] = None,
) -> tuple[dict[int, EvalReport], Manifest]:
    """Execute all phases of a plan once with one seed.

    Returns per-version evaluation reports and the populated manifest.
    The held-out set is the corpus head, reserved before segmentation and
    never trained on.  A state is dropped once the last phase that inits
    from it has started.

    `helper` is an executor with one worker, a process for a speed-up.  It
    trains the plan's `helper_phases` while this process goes on with the
    others.  Reports, manifest, payloads and traces are the same bytes
    with a helper and without.
    """
    validate_plan(plan)
    spec = plan.spec.replace(seed=seed)
    size = run_cfg.heldout_tokens + sum(plan.spec.increments) * run_cfg.tokens_per_step
    corpus = make_corpus(seed, size, run_cfg.corpus_file)
    if run_cfg.model.vocab_size < 256:
        corpus = corpus % run_cfg.model.vocab_size
    heldout = corpus[: run_cfg.heldout_tokens]
    segments = allocate_segments(
        spec,
        tokens_per_step=run_cfg.tokens_per_step,
        alpha=plan.paradigm.alpha,
        start_offset=run_cfg.heldout_tokens,
    )
    seg_map = {s.segment_id: s for s in segments}
    manifest = Manifest(spec=spec, segments=segments)

    if out_dir is not None:
        (out_dir / "ckpt").mkdir(parents=True, exist_ok=True)

    last_use = {p.init_from: i for i, p in enumerate(plan.phases) if p.init_from is not None}
    sent = helper_phases(plan) if helper is not None else frozenset()
    store: dict[str, ModelState] = {}
    outcomes: dict[str, tuple[int, Optional[EvalReport]]] = {}
    futures: dict[str, Future] = {}
    try:
        for i, phase in enumerate(plan.phases):
            if phase.init_from is None:
                # Fresh-init seed folds in the version index so independent
                # scratch runs differ.
                model = init_model(run_cfg.model, seed ^ phase.version)
            elif last_use[phase.init_from] == i:
                model = store.pop(phase.init_from)
            else:
                model = store[phase.init_from]
            data = np.concatenate(
                [
                    corpus[seg_map[r.ref_id].start_offset : seg_map[r.ref_id].start_offset + seg_map[r.ref_id].length]
                    for r in phase.data_segments
                ]
            )
            if phase.phase_id in sent:
                futures[phase.phase_id] = helper.submit(
                    _train_leaf, phase, model, data, seed, run_cfg.log_stride, heldout, out_dir
                )
                continue
            model, report = _run_phase(
                phase, model, data, seed, run_cfg.log_stride, heldout, out_dir
            )
            if phase.phase_id in last_use:
                store[phase.phase_id] = model
            outcomes[phase.phase_id] = (model.t, report)
        outcomes.update((pid, future.result()) for pid, future in futures.items())
    finally:
        for future in futures.values():
            future.cancel()

    results: dict[int, EvalReport] = {}
    for phase in plan.phases:
        t, report = outcomes[phase.phase_id]
        if report is not None:
            results[phase.version] = report
        manifest.records.append(
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
    if out_dir is not None:
        save_manifest(manifest, out_dir / "manifest.json")
    return results, manifest


def run_experiment(
    plan: TrainingPlan,
    run_cfg: RunConfig,
    seeds: Sequence[int],
    out_dir: Optional[Path] = None,
    helper: Optional[Executor] = None,
) -> dict:
    """Run a plan over several seeds; returns the `report.json` document,
    with per-seed perplexity and its mean for each version.  `helper` is
    passed to `run_single`."""
    per_seed: list[dict[int, EvalReport]] = []
    for seed in seeds:
        seed_dir = None if out_dir is None else Path(out_dir) / f"seed{seed}"
        results, _ = run_single(plan, run_cfg, seed, seed_dir, helper)
        per_seed.append(results)
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
        "seeds": list(seeds),
        "total_steps": plan_cost(plan),
        "versions": versions,
    }
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        with atomic_open(Path(out_dir) / "report.json", "w") as fh:
            fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return report
