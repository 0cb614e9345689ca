"""Which tokens a run trains and evaluates on: the corpus (the held-out set,
then each increment's segments in version order), the segment layout, the
named random streams and a step's windows.  A token is one byte: the
corpus, its slices and the windows drawn from them are uint8 arrays.  Of
the package it imports only `errors`, so every other module can build on it.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataExhausted, InvalidConfig


def derive_seed(seed: int, name: str) -> int:
    """Stable 64-bit sub-seed for a named stream."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def fast_decay_steps(t: int, alpha: float) -> int:
    """Fast-decay steps of a t-step increment: floor(alpha * t), guarded
    against float slop just below an integer.  Plans, segments and costs
    all split an increment this way; the main path keeps the rest."""
    return math.floor(alpha * t + 1e-9)


def corpus_size(heldout_tokens: int, tokens_per_step: int, total_steps: int) -> int:
    """Corpus tokens a run needs: the held-out head, then `tokens_per_step`
    per training step.  InvalidConfig if an array cannot index that many."""
    size = heldout_tokens + tokens_per_step * total_steps
    if size > sys.maxsize:
        raise InvalidConfig(f"the run needs more corpus tokens than an array can index ({sys.maxsize})")
    return size


@dataclass(frozen=True)
class DataSegment:
    segment_id: str  # matches SegmentRef.ref_id, e.g. "inc2/prefix"
    start_offset: int  # tokens
    length: int  # tokens


def allocate_segments(
    spec, tokens_per_step: int, alpha: Optional[float] = None, start_offset: int = 0
) -> list[DataSegment]:
    """Deterministic disjoint token segments of `spec.increments`, in
    corpus order, laid out from `start_offset`.

    Without `alpha` increment i is one segment, "inc<i>/full".  Path
    switching splits it at its fork into the main-path "inc<i>/prefix" and
    the fast-decay "inc<i>/remainder"; a part with no steps has no segment.
    Together they cover `sum(spec.increments) * tokens_per_step` tokens.
    """
    segments: list[DataSegment] = []
    cursor = start_offset
    for i, t in enumerate(spec.increments, start=1):
        if alpha is None:
            parts = (("full", t),)
        else:
            fast = fast_decay_steps(t, alpha)
            parts = (("prefix", t - fast), ("remainder", fast))
        for part, steps in parts:
            if steps:
                segments.append(DataSegment(f"inc{i}/{part}", cursor, steps * tokens_per_step))
                cursor += steps * tokens_per_step
    return segments


_corpus_cache: dict[tuple, np.ndarray] = {}


def make_corpus(seed: int, size: int, path: Optional[str] = None) -> np.ndarray:
    """Deterministic byte stream from a seeded order-2 Markov source, as a
    read-only uint8 array: a token is one byte.

    16 latent modes, each an affine next-byte rule with occasional uniform
    noise; modes persist for a few hundred tokens.  With `path` set, the
    file's first `size` bytes are used instead; the rest is never read.
    """
    if size < 1:
        raise DataExhausted(f"corpus size must be >= 1, got {size}")
    key = (seed, size, path)
    if path is None and key in _corpus_cache:
        return _corpus_cache[key]
    if path is not None:
        with open(path, "rb") as fh:  # OSError on missing path
            raw = fh.read(size)
        if len(raw) < size:
            raise DataExhausted(
                f"file {path} holds {len(raw)} bytes, need {size}"
            )
        return np.frombuffer(raw, dtype=np.uint8)

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
    out = np.frombuffer(tokens, dtype=np.uint8)
    out.setflags(write=False)
    if len(_corpus_cache) >= 8:
        _corpus_cache.clear()
    _corpus_cache[key] = out
    return out


def sample_windows(data: np.ndarray, rng: np.random.Generator, count: int, width: int) -> np.ndarray:
    if len(data) < width:
        raise DataExhausted(f"segment of {len(data)} tokens is shorter than a window ({width})")
    starts = rng.integers(0, len(data) - width + 1, size=count)
    return data[starts[:, None] + np.arange(width)]
