"""Checkpoint lineage and data-segment bookkeeping.

The manifest records who initialized whom, on which data slice, with
which metrics.  It serializes to a canonical JSON document (sorted keys)
so identical manifests are byte-identical on disk.  Checkpoint payloads
are flat little-endian float64 arrays with a small binary header.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    CorpusExhausted,
    DanglingReference,
    DuplicateId,
    MissingCheckpoint,
    SchemaMismatch,
)
from .paradigm import (
    Phase,
    UpdateSpec,
    _main_prefix_steps,
    spec_from_dict,
    spec_to_dict,
    validate_spec,
)

MANIFEST_FORMAT_VERSION = 1
PAYLOAD_MAGIC = b"LRPC"
_HEADER = struct.Struct("<4sIQQQ")  # magic, format version, param count, seed, step


def derive_seed(seed: int, name: str) -> int:
    """Stable 64-bit sub-seed for a named stream."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class DataSegment:
    segment_id: str  # matches SegmentRef.ref_id, e.g. "inc2/prefix"
    increment_index: int
    start_offset: int  # tokens
    length: int  # tokens
    sampling_seed: int


@dataclass(frozen=True)
class CheckpointRecord:
    ckpt_id: str
    phase_id: str
    version: int
    path: str  # "main" | "branch" | "scratch"
    parent: Optional[str]  # ckpt_id, None = fresh init
    global_step: int
    metrics: Optional[dict] = None
    payload_file: str = ""


@dataclass
class Manifest:
    spec: UpdateSpec
    records: list[CheckpointRecord] = field(default_factory=list)
    segments: list[DataSegment] = field(default_factory=list)
    format_version: int = MANIFEST_FORMAT_VERSION


def allocate_segments(
    spec: UpdateSpec,
    corpus_size: int,
    tokens_per_step: int,
    alpha: Optional[float] = None,
    start_offset: int = 0,
) -> list[DataSegment]:
    """Deterministic disjoint token segments, one group per increment.

    With `alpha` set (path switching), each increment splits at the fork
    boundary into a main-prefix segment and a decay-remainder segment.
    """
    validate_spec(spec)
    if tokens_per_step < 1:
        raise CorpusExhausted(f"tokens_per_step must be >= 1, got {tokens_per_step}")
    demand = sum(spec.increments) * tokens_per_step
    if demand > corpus_size:
        raise CorpusExhausted(
            f"need {demand} tokens but corpus holds {corpus_size}"
        )
    segments: list[DataSegment] = []

    def add(name: str, increment: int, offset: int, length: int) -> None:
        segments.append(
            DataSegment(
                segment_id=name,
                increment_index=increment,
                start_offset=offset,
                length=length,
                sampling_seed=derive_seed(spec.seed, name),
            )
        )

    cursor = start_offset
    for i, t in enumerate(spec.increments, start=1):
        need = t * tokens_per_step
        if alpha is None:
            add(f"inc{i}/full", i, cursor, need)
        else:
            m = _main_prefix_steps(alpha, t)
            prefix = m * tokens_per_step
            if prefix:
                add(f"inc{i}/prefix", i, cursor, prefix)
            if need - prefix:
                add(f"inc{i}/remainder", i, cursor + prefix, need - prefix)
        cursor += need
    return segments


def record_checkpoint(m: Manifest, rec: CheckpointRecord) -> Manifest:
    """Append a record, preserving referential integrity."""
    if any(r.ckpt_id == rec.ckpt_id for r in m.records):
        raise DuplicateId(rec.ckpt_id)
    if rec.parent is not None and not any(r.ckpt_id == rec.parent for r in m.records):
        raise DanglingReference(f"{rec.ckpt_id}: unknown parent {rec.parent!r}")
    m.records.append(rec)
    return m


def resolve_init(m: Manifest, phase: Phase) -> Optional[CheckpointRecord]:
    """The checkpoint a phase initializes from, or None for a fresh init."""
    if phase.init_from is None:
        return None
    for rec in reversed(m.records):
        if rec.phase_id == phase.init_from:
            return rec
    raise MissingCheckpoint(
        f"{phase.phase_id}: no checkpoint recorded for phase {phase.init_from!r}"
    )


# ---------------------------------------------------------------------------
# manifest persistence

def manifest_to_dict(m: Manifest) -> dict:
    return {
        "format_version": m.format_version,
        "spec": spec_to_dict(m.spec),
        "segments": [dataclasses.asdict(s) for s in m.segments],
        "records": [dataclasses.asdict(r) for r in m.records],
    }


def manifest_from_dict(d: dict) -> Manifest:
    if d.get("format_version") != MANIFEST_FORMAT_VERSION:
        raise SchemaMismatch(
            f"unsupported manifest format_version {d.get('format_version')!r}"
        )
    missing = {"spec", "records", "segments"} - d.keys()
    if missing:
        raise SchemaMismatch(f"manifest missing fields: {sorted(missing)}")
    return Manifest(
        spec=spec_from_dict(d["spec"]),
        records=[CheckpointRecord(**r) for r in d["records"]],
        segments=[DataSegment(**s) for s in d["segments"]],
        format_version=d["format_version"],
    )


def save_manifest(m: Manifest, path) -> None:
    data = json.dumps(manifest_to_dict(m), sort_keys=True, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(data)


def load_manifest(path) -> Manifest:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaMismatch(f"manifest is not valid JSON: {exc}") from exc
    try:
        return manifest_from_dict(d)
    except (KeyError, TypeError) as exc:
        raise SchemaMismatch(f"manifest is missing fields: {exc}") from exc


# ---------------------------------------------------------------------------
# checkpoint payloads

def save_payload(path, flat_params: np.ndarray, seed: int, step: int) -> None:
    flat = np.ascontiguousarray(flat_params, dtype="<f8")
    header = _HEADER.pack(PAYLOAD_MAGIC, 1, flat.size, seed, step)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(flat.tobytes())


def load_payload(path) -> tuple[np.ndarray, int, int]:
    """Returns (flat float64 params, seed, step)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise SchemaMismatch("payload file truncated before header")
    magic, version, count, seed, step = _HEADER.unpack_from(raw)
    if magic != PAYLOAD_MAGIC or version != 1:
        raise SchemaMismatch(f"bad payload header: magic={magic!r} version={version}")
    body = raw[_HEADER.size :]
    if len(body) != 8 * count:
        raise SchemaMismatch(
            f"payload holds {len(body)} bytes, expected {8 * count}"
        )
    return np.frombuffer(body, dtype="<f8").copy(), seed, step
