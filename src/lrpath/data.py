"""Which tokens a run trains and evaluates on: the corpus (the held-out set,
then each increment's segments in version order), the segment layout, the
named random streams and a step's windows.  A token is one byte: the
corpus, its slices and the windows drawn from them are uint8 arrays.  Of
the package it imports only `errors`, so every other module can build on it.
numpy is imported by the functions that make arrays, so the layout helpers
that plans and costs use load no numpy.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .errors import DataExhausted, InvalidConfig

if TYPE_CHECKING:
    import numpy as np


def derive_seed(seed: int, name: str) -> int:
    """Stable 64-bit sub-seed for a named stream."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def fast_decay_steps(t: int, alpha: float) -> int:
    """Fast-decay steps of a t-step increment: floor(alpha * t), guarded
    against float slop just below an integer.  Plans, segments and costs
    all split an increment this way; the main path keeps the rest."""
    return math.floor(alpha * t + 1e-9)


# Peak bytes a token while `make_corpus` generates a corpus: its random
# draws are float64 and int64 arrays of corpus length.  tracemalloc read
# 16.75 at 1M tokens and 16.05 at 2M (numpy 2.4, Python 3.11, x86-64).
GENERATED_BYTES_PER_TOKEN = 16


def corpus_size(heldout_tokens: int, tokens_per_step: int, total_steps: int) -> int:
    """Corpus tokens a run needs: the held-out head, then `tokens_per_step`
    per training step.  InvalidConfig if an array cannot index that many."""
    size = heldout_tokens + tokens_per_step * total_steps
    if size > sys.maxsize:
        raise InvalidConfig(f"the run needs more corpus tokens than an array can index ({sys.maxsize})")
    return size


@dataclass(frozen=True)
class DataSegment:
    segment_id: str  # as a plan phase lists it in `data_segments`, e.g. "inc2/prefix"
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


# Positions per block of `_affine_recurrence`; any size gives the same bytes.
SCAN_BLOCK = 128


def _affine_recurrence(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, prev1: int, prev2: int
) -> np.ndarray:
    """x[t] = (a[t] * x[t-1] + b[t] * x[t-2] + c[t]) % 256 for uint8 arrays
    a, b and c, where x[-1] is `prev1` and x[-2] is `prev2`; exactly.

    The positions are cut into blocks of SCAN_BLOCK, and all blocks advance
    in lockstep, one position at a time.  Within a block, x[t] is tracked as
    p[t] * u + q[t] * w + r[t] of the unknown state (u, w) before the block:
    p, q and r follow the recurrence themselves (only r adds c), from
    (1, 0, 0) for u and (0, 1, 0) for w.  One short pass then carries the
    state from block to block.  uint8 arithmetic wraps like `% 256`, so every
    value is exact.
    """
    import numpy as np

    n = len(a)
    block = min(SCAN_BLOCK, n)
    blocks = -(-n // block)

    def columns(x: np.ndarray) -> np.ndarray:
        """x as (block, blocks): row j holds position j of every block; the
        last block is padded with zeros."""
        padded = np.zeros(block * blocks, dtype=np.uint8)
        padded[:n] = x
        return np.ascontiguousarray(padded.reshape(blocks, block).T)

    a, b, c = columns(a), columns(b), columns(c)
    # rows 0 and 1 are the state before the block: w = x[s-2], u = x[s-1]
    p, q, r = (np.empty((block + 2, blocks), dtype=np.uint8) for _ in range(3))
    p[:2], q[:2], r[:2] = [[0], [1]], [[1], [0]], 0
    term = np.empty(blocks, dtype=np.uint8)
    for j in range(block):
        for f in (p, q, r):
            np.multiply(a[j], f[j + 1], out=f[j + 2])
            np.multiply(b[j], f[j], out=term)
            f[j + 2] += term
        r[j + 2] += c[j]

    # the state before each block, carried from the one before the first:
    # a block's last two positions are the next block's (u, w)
    last = [f[block + 1].tolist() for f in (p, q, r)]
    second_last = [f[block].tolist() for f in (p, q, r)]
    u, w = prev1, prev2
    starts = []
    for p1, q1, r1, p2, q2, r2 in zip(*last, *second_last):
        starts.append((u, w))
        u, w = (p1 * u + q1 * w + r1) % 256, (p2 * u + q2 * w + r2) % 256
    u, w = np.array(starts, dtype=np.uint8).T
    p *= u
    q *= w
    r += p
    r += q
    return r[2:].T.reshape(-1)[:n]


_corpus_cache: dict[tuple, np.ndarray] = {}


def make_corpus(seed: int, size: int, path: Optional[str] = None) -> np.ndarray:
    """Deterministic byte stream from a seeded order-2 Markov source, as a
    read-only uint8 array: a token is one byte.  With `path` set, the
    file's first `size` bytes are used instead; the rest is never read.
    InvalidConfig if the corpus does not fit in memory.
    """
    import numpy as np

    if size < 1:
        raise DataExhausted(f"corpus size must be >= 1, got {size}")
    key = (seed, size, path)
    if path is None and key in _corpus_cache:
        return _corpus_cache[key]
    try:
        if path is not None:
            with open(path, "rb") as fh:  # OSError on missing path
                raw = fh.read(size)
            if len(raw) < size:
                raise DataExhausted(f"file {path} holds {len(raw)} bytes, need {size}")
            return np.frombuffer(raw, dtype=np.uint8)
        out = _markov_source(seed, size)
    except MemoryError:
        raise InvalidConfig(f"a corpus of {size} tokens does not fit in memory") from None
    out.setflags(write=False)
    if len(_corpus_cache) >= 8:
        _corpus_cache.clear()
    _corpus_cache[key] = out
    return out


def _markov_source(seed: int, size: int) -> np.ndarray:
    """`make_corpus`'s stream: 16 latent modes, each an affine next-byte rule with
    occasional uniform noise; modes persist for a few hundred tokens."""
    import numpy as np

    n_modes = 16
    rng = np.random.default_rng(seed)
    coef_a = rng.integers(1, 256, size=n_modes)
    coef_b = rng.integers(1, 256, size=n_modes)
    coef_c = rng.integers(0, 256, size=n_modes)

    # Piecewise-constant latent mode: a mode is drawn at every position and
    # takes over where a switch is drawn.  Both uniform draws share a buffer.
    uniform = rng.random(size)
    switch = np.flatnonzero(uniform < (1.0 / 512.0))
    mode_draws = rng.integers(0, n_modes, size=size)
    modes = np.concatenate(([mode_draws[0]], mode_draws[switch]))
    del mode_draws
    run_lengths = np.diff(np.concatenate(([0], switch, [size])))
    rng.random(out=uniform)
    noisy = uniform < 0.08
    del uniform
    noise = rng.integers(0, 256, size=size).astype(np.uint8)

    # Token t >= 2 is a * x[t-1] + b * x[t-2] + c (mod 256) with its mode's
    # rule, or (0, 0, noise) for a noisy token; the first two are noise.
    keep = ~noisy
    a, b, c = (
        np.repeat(coef.astype(np.uint8)[modes], run_lengths) * keep for coef in (coef_a, coef_b, coef_c)
    )
    c += noise * noisy
    out = np.empty(size, dtype=np.uint8)
    out[:2] = noise[:2]
    if size > 2:
        out[2:] = _affine_recurrence(a[2:], b[2:], c[2:], int(noise[1]), int(noise[0]))
    return out


def sample_windows(data: np.ndarray, rng: np.random.Generator, count: int, width: int) -> np.ndarray:
    import numpy as np

    if len(data) < width:
        raise DataExhausted(f"segment of {len(data)} tokens is shorter than a window ({width})")
    starts = rng.integers(0, len(data) - width + 1, size=count)
    return data[starts[:, None] + np.arange(width)]
