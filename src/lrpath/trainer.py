"""Deterministic desk-scale next-token trainer.

A small MLP (embedding -> tanh hidden -> softmax) predicts the next byte
of a synthetic Markov corpus.  Everything runs in float64 with explicit
seeds; identical (plan, seed, corpus) inputs give bitwise-identical
parameters, which the acceptance suite relies on.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DataExhausted,
    EmptyEval,
    InvalidConfig,
    NonFiniteUpdate,
    ShapeMismatch,
    StaleCache,
)
from .lineage import (
    CheckpointRecord,
    Manifest,
    allocate_segments,
    derive_seed,
    record_checkpoint,
    save_manifest,
    save_payload,
)
from .paradigm import Phase, TrainingPlan, plan_cost, validate_plan

PARAM_NAMES = ("embed", "w1", "b1", "w2", "b2")


@dataclass(frozen=True)
class ToyModelConfig:
    vocab_size: int = 256
    context_len: int = 8
    embed_dim: int = 32
    hidden_dim: int = 128
    batch_size: int = 64  # windows per step

    def __post_init__(self):
        for name in ("vocab_size", "context_len", "embed_dim", "hidden_dim", "batch_size"):
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be positive")


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
    """Parameters stored in one flat float64 buffer; `params` are views."""

    config: ToyModelConfig
    flat: np.ndarray
    rng_seed: int
    params: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if self.flat.size != _param_count(self.config):
            raise ShapeMismatch(
                f"expected {_param_count(self.config)} parameters, got {self.flat.size}"
            )
        if not np.all(np.isfinite(self.flat)):
            raise NonFiniteUpdate("model parameters contain NaN/Inf")
        self.params = _views(self.flat, self.config)

    def copy(self) -> "ModelState":
        return ModelState(self.config, self.flat.copy(), self.rng_seed)


@dataclass
class AdamState:
    """First/second moment buffers shaped like the model's flat parameters."""

    m_flat: np.ndarray
    v_flat: np.ndarray
    config: ToyModelConfig
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8

    def copy(self) -> "AdamState":
        return AdamState(
            self.m_flat.copy(), self.v_flat.copy(), self.config,
            self.t, self.beta1, self.beta2, self.eps,
        )


@dataclass(frozen=True)
class EvalReport:
    ppl: float
    nll: float  # nats per predicted token
    tokens_evaluated: int


def init_model(cfg: ToyModelConfig, seed: int) -> ModelState:
    rng = np.random.default_rng(seed)
    chunks = []
    for name, shape in _param_shapes(cfg):
        if name.startswith("b"):
            chunks.append(np.zeros(math.prod(shape)))
        else:
            chunks.append(rng.normal(0.0, 0.02, size=math.prod(shape)))
    return ModelState(cfg, np.concatenate(chunks), seed)


def init_adam(model: ModelState, beta1: float = 0.9, beta2: float = 0.95, eps: float = 1e-8) -> AdamState:
    n = model.flat.size
    return AdamState(
        m_flat=np.zeros(n), v_flat=np.zeros(n), config=model.config,
        t=0, beta1=beta1, beta2=beta2, eps=eps,
    )


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

    out = np.empty(size, dtype=np.int64)
    out[0] = int(noise_vals[0])
    if size > 1:
        out[1] = int(noise_vals[1])
    a = coef_a[mode]
    b = coef_b[mode]
    c = coef_c[mode]
    prev1, prev2 = int(out[min(1, size - 1)]), int(out[0])
    for t in range(2, size):
        if noisy[t]:
            x = int(noise_vals[t])
        else:
            x = (a[t] * prev1 + b[t] * prev2 + c[t]) % 256
        out[t] = x
        prev2 = prev1
        prev1 = x
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
    """Mean next-token cross-entropy (nats) plus the backward cache."""
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

    probs = np.exp(shifted - lse[:, None])
    cache = {"x": x, "y": y, "h0": h0, "h1": h1, "probs": probs, "param_id": id(p)}
    return loss, cache


def backward(
    model: ModelState, cache: dict, out_flat: Optional[np.ndarray] = None
) -> dict[str, np.ndarray]:
    """Exact analytic gradients of the mean cross-entropy.

    With `out_flat` given, gradients are written into that flat buffer and
    the returned dict holds views into it (the trainer's hot path).
    """
    if cache.get("param_id") != id(model.params):
        raise StaleCache("cache was produced by a different model state")
    cfg = model.config
    p = model.params
    x, y, h0, h1, probs = cache["x"], cache["y"], cache["h0"], cache["h1"], cache["probs"]
    bsz = x.shape[0]

    if out_flat is None:
        out_flat = np.empty(model.flat.size)
    grads = _views(out_flat, cfg)

    dlogits = probs.copy()
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
    onehot = np.zeros((flat_ids.size, cfg.vocab_size))
    onehot[np.arange(flat_ids.size), flat_ids] = 1.0
    np.matmul(onehot.T, de, out=grads["embed"])
    return grads


def _adam_apply(p_flat, m_flat, v_flat, t, g_flat, lr, beta1, beta2, eps) -> None:
    m_flat *= beta1
    m_flat += (1.0 - beta1) * g_flat
    v_flat *= beta2
    v_flat += (1.0 - beta2) * (g_flat * g_flat)
    update = (m_flat / (1.0 - beta1**t)) / (np.sqrt(v_flat / (1.0 - beta2**t)) + eps)
    if not np.all(np.isfinite(update)):
        raise NonFiniteUpdate("non-finite Adam update")
    p_flat -= lr * update


def adam_step(
    model: ModelState, adam: AdamState, grads: dict[str, np.ndarray], lr: float
) -> tuple[ModelState, AdamState]:
    """Bias-corrected Adam update; returns fresh (model, adam) states."""
    g_flat = np.concatenate(
        [grads[name].ravel() for name, _ in _param_shapes(model.config)]
    )
    if not np.all(np.isfinite(g_flat)):
        raise NonFiniteUpdate("non-finite gradient")
    new_model = model.copy()
    new_adam = adam.copy()
    new_adam.t += 1
    _adam_apply(
        new_model.flat, new_adam.m_flat, new_adam.v_flat, new_adam.t, g_flat, lr,
        new_adam.beta1, new_adam.beta2, new_adam.eps,
    )
    return new_model, new_adam


def train_phase(
    model: ModelState,
    adam: AdamState,
    phase: Phase,
    data: np.ndarray,
    run_seed: int,
    log_stride: int = 100,
) -> tuple[ModelState, AdamState, list[tuple[int, float, float]]]:
    """Run exactly phase.num_steps steps; returns (model', adam', trace).

    The batch stream is seeded by (run_seed, phase_id), so reruns are
    bit-deterministic.  `data` is the concatenated token array of the
    phase's segments.
    """
    if phase.num_steps < 1:
        raise DataExhausted("phase must have at least one step")
    cfg = model.config
    width = cfg.context_len + 1
    if len(data) < width:
        raise DataExhausted(
            f"phase {phase.phase_id}: {len(data)} tokens cannot fill a window"
        )
    rng = np.random.default_rng(derive_seed(run_seed, f"batches:{phase.phase_id}"))
    model = model.copy()
    adam = adam.copy()
    g_flat = np.empty(model.flat.size)
    trace: list[tuple[int, float, float]] = []
    for s in range(phase.num_steps):
        lr = phase.lr_profile.lr(s)
        batch = sample_windows(data, rng, cfg.batch_size, width)
        loss, cache = forward_loss(model, batch)
        backward(model, cache, out_flat=g_flat)
        adam.t += 1
        _adam_apply(
            model.flat, adam.m_flat, adam.v_flat, adam.t, g_flat, lr,
            adam.beta1, adam.beta2, adam.eps,
        )
        if s % log_stride == 0 or s == phase.num_steps - 1:
            trace.append((s, lr, loss))
    return model, adam, trace


def evaluate_ppl(model: ModelState, heldout: np.ndarray, batch: int = 4096) -> EvalReport:
    """Perplexity over non-overlapping next-token windows of the held-out set."""
    cfg = model.config
    width = cfg.context_len + 1
    if len(heldout) < width:
        raise EmptyEval(f"held-out set of {len(heldout)} tokens is too small")
    starts = np.arange(0, len(heldout) - width + 1, width)
    windows = heldout[starts[:, None] + np.arange(width)]
    total = 0.0
    for i in range(0, len(windows), batch):
        chunk = windows[i : i + batch]
        loss, _ = forward_loss(model, chunk)
        total += loss * len(chunk)
    nll = total / len(windows)
    return EvalReport(ppl=math.exp(nll), nll=nll, tokens_evaluated=int(len(windows)))


# ---------------------------------------------------------------------------
# experiment orchestration

@dataclass(frozen=True)
class RunConfig:
    model: ToyModelConfig = ToyModelConfig()
    tokens_per_step: int = 64
    heldout_tokens: int = 50_000
    corpus_file: Optional[str] = None
    log_stride: int = 100


@dataclass
class ExperimentReport:
    paradigm: str
    seeds: list[int]
    total_steps: int
    versions: dict[int, dict]  # version -> {"ppl": [...], "nll": [...], "mean_ppl": x}

    def to_dict(self) -> dict:
        return {
            "paradigm": self.paradigm,
            "seeds": list(self.seeds),
            "total_steps": self.total_steps,
            "versions": {
                str(v): self.versions[v] for v in sorted(self.versions)
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _corpus_tokens(plan: TrainingPlan, run_cfg: RunConfig) -> int:
    return run_cfg.heldout_tokens + sum(plan.spec.increments) * run_cfg.tokens_per_step


def run_single(
    plan: TrainingPlan,
    run_cfg: RunConfig,
    seed: int,
    out_dir: Optional[Path] = None,
) -> tuple[dict[int, EvalReport], Manifest]:
    """Execute all phases of a plan once with one seed.

    Returns per-version evaluation reports and the populated manifest.
    The held-out set is the corpus head, reserved before segmentation and
    never trained on.
    """
    validate_plan(plan)
    spec = plan.spec.replace(seed=seed)
    total = _corpus_tokens(plan, run_cfg)
    corpus = make_corpus(seed, total, run_cfg.corpus_file)
    if run_cfg.model.vocab_size < 256:
        corpus = corpus % run_cfg.model.vocab_size
    heldout = corpus[: run_cfg.heldout_tokens]
    alpha = plan.paradigm.alpha if plan.paradigm.family == "path_switch" else None
    segments = allocate_segments(
        spec,
        corpus_size=total - run_cfg.heldout_tokens,
        tokens_per_step=run_cfg.tokens_per_step,
        alpha=alpha,
        start_offset=run_cfg.heldout_tokens,
    )
    seg_map = {s.segment_id: s for s in segments}
    manifest = Manifest(spec=spec, segments=segments)

    if out_dir is not None:
        (out_dir / "ckpt").mkdir(parents=True, exist_ok=True)

    store: dict[str, tuple[ModelState, AdamState, int]] = {}
    results: dict[int, EvalReport] = {}
    for phase in plan.phases:
        if phase.init_from is None:
            # Fresh-init seed folds in the version index so independent
            # scratch runs differ.
            model = init_model(run_cfg.model, seed ^ phase.version)
            adam = init_adam(model)
            gstep = 0
            parent_ckpt = None
        else:
            src_model, src_adam, gstep = store[phase.init_from]
            model, adam = src_model, src_adam
            parent_ckpt = f"{phase.init_from}#final"
        data = np.concatenate(
            [
                corpus[seg_map[r.ref_id].start_offset : seg_map[r.ref_id].start_offset + seg_map[r.ref_id].length]
                for r in phase.data_segments
            ]
        )
        model, adam, trace = train_phase(
            model, adam, phase, data, seed, log_stride=run_cfg.log_stride
        )
        gstep += phase.num_steps
        store[phase.phase_id] = (model, adam, gstep)

        report = None
        if phase.emits_version_checkpoint:
            report = evaluate_ppl(model, heldout)
            results[phase.version] = report

        ckpt_id = f"{phase.phase_id}#final"
        payload_file = f"ckpt/{ckpt_id.replace('#', '_')}.bin"
        record_checkpoint(
            manifest,
            CheckpointRecord(
                ckpt_id=ckpt_id,
                phase_id=phase.phase_id,
                version=phase.version,
                path=phase.path.value,
                parent=parent_ckpt,
                global_step=gstep,
                metrics=dataclasses.asdict(report) if report else None,
                payload_file=payload_file,
            ),
        )
        if out_dir is not None:
            save_payload(out_dir / payload_file, model.flat, seed, gstep)
            trace_path = out_dir / f"trace_{phase.phase_id}.csv"
            with open(trace_path, "w", encoding="utf-8") as fh:
                fh.write("step,lr,loss\n")
                for s, lr, loss in trace:
                    fh.write(f"{s},{lr:.12g},{loss:.12g}\n")
    if out_dir is not None:
        save_manifest(manifest, out_dir / "manifest.json")
    return results, manifest


def run_experiment(
    plan: TrainingPlan,
    run_cfg: RunConfig,
    seeds: Sequence[int],
    out_dir: Optional[Path] = None,
) -> ExperimentReport:
    """Run a plan over several seeds and aggregate per-version perplexity."""
    per_seed: list[dict[int, EvalReport]] = []
    for seed in seeds:
        seed_dir = None if out_dir is None else Path(out_dir) / f"seed{seed}"
        results, _ = run_single(plan, run_cfg, seed, seed_dir)
        per_seed.append(results)
    versions: dict[int, dict] = {}
    for v in sorted(per_seed[0]):
        ppls = [r[v].ppl for r in per_seed]
        nlls = [r[v].nll for r in per_seed]
        versions[v] = {
            "ppl": ppls,
            "nll": nlls,
            "mean_ppl": sum(ppls) / len(ppls),
        }
    report = ExperimentReport(
        paradigm=plan.paradigm.label,
        seeds=list(seeds),
        total_steps=plan_cost(plan),
        versions=versions,
    )
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / "report.json").write_text(report.to_json(), encoding="utf-8")
    return report
