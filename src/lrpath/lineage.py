"""Checkpoint lineage and data-segment bookkeeping.

The manifest records who initialized whom, on which data slice, with
which metrics.  It serializes to a canonical JSON document (sorted keys)
so identical manifests are byte-identical on disk.  Checkpoint payloads
are flat little-endian float64 arrays with a small binary header.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .documents import JsonObject, atomic_open, read_json, write_json
from .errors import SchemaMismatch
from .paradigm import PathKind, UpdateSpec, segment_steps, spec_from_dict, spec_to_dict

MANIFEST_FORMAT_VERSION = 2
PAYLOAD_MAGIC = b"LRPC"
_HEADER = struct.Struct("<4sIQQQ")  # magic, format version, param count, seed, step


def derive_seed(seed: int, name: str) -> int:
    """Stable 64-bit sub-seed for a named stream."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class DataSegment:
    segment_id: str  # matches SegmentRef.ref_id, e.g. "inc2/prefix"
    start_offset: int  # tokens
    length: int  # tokens


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


def allocate_segments(
    spec: UpdateSpec,
    tokens_per_step: int,
    alpha: Optional[float] = None,
    start_offset: int = 0,
) -> list[DataSegment]:
    """Deterministic disjoint token segments, laid out from `start_offset`.

    The segments are those of `paradigm.segment_steps(spec, alpha)`, in
    its order, `tokens_per_step` tokens per step; together they cover
    exactly `sum(spec.increments) * tokens_per_step` tokens.
    """
    segments: list[DataSegment] = []
    cursor = start_offset
    for ref_id, steps in segment_steps(spec, alpha).items():
        segments.append(DataSegment(ref_id, cursor, steps * tokens_per_step))
        cursor += steps * tokens_per_step
    return segments


# ---------------------------------------------------------------------------
# manifest persistence

def manifest_to_dict(m: Manifest) -> dict:
    return {
        "format_version": MANIFEST_FORMAT_VERSION,
        "spec": spec_to_dict(m.spec),
        "segments": [dataclasses.asdict(s) for s in m.segments],
        "records": [dataclasses.asdict(r) for r in m.records],
    }


_MANIFEST_KEYS = frozenset({"format_version", "spec", "segments", "records"})
_SEGMENT_KEYS = frozenset(f.name for f in dataclasses.fields(DataSegment))
_RECORD_KEYS = frozenset(f.name for f in dataclasses.fields(CheckpointRecord))
_METRICS_KEYS = frozenset({"ppl", "nll", "tokens_evaluated"})


def _segment_from_dict(d: dict, at: tuple, key) -> DataSegment:
    o = JsonObject(d, at, key, _SEGMENT_KEYS)
    return DataSegment(
        o.str("segment_id"), o.int("start_offset", minimum=0), o.int("length", minimum=0)
    )


def _metrics_from_dict(d: dict, at: tuple, key) -> dict:
    o = JsonObject(d, at, key, _METRICS_KEYS)
    return {k: o.int(k, minimum=0) if k == "tokens_evaluated" else o.float(k) for k in d}


def _record_from_dict(d: dict, at: tuple, key) -> CheckpointRecord:
    o = JsonObject(d, at, key, _RECORD_KEYS)
    return CheckpointRecord(
        ckpt_id=o.str("ckpt_id"),
        phase_id=o.str("phase_id"),
        version=o.int("version", minimum=0),
        path=o.enum("path", PathKind).value,
        parent=o.str("parent", nullable=True),
        global_step=o.int("global_step", minimum=0),
        metrics=(
            None if o.fields.get("metrics") is None else o.object("metrics", _metrics_from_dict)
        ),
        payload_file=o.str("payload_file", ""),
    )


def manifest_from_dict(d: dict) -> Manifest:
    """Read a manifest document; its records must form a lineage.

    Every record names a new `ckpt_id` and a `parent` that is None or an
    earlier record, the order `run_single` writes them in.
    """
    o = JsonObject(d, ("manifest document",), None, _MANIFEST_KEYS)
    o.version(MANIFEST_FORMAT_VERSION, "manifest")
    m = Manifest(
        spec=o.object("spec", spec_from_dict),
        records=o.list("records", _record_from_dict),
        segments=o.list("segments", _segment_from_dict),
    )
    seen: set[str] = set()
    for rec in m.records:
        if rec.ckpt_id in seen:
            raise SchemaMismatch(f"manifest repeats checkpoint {rec.ckpt_id!r}")
        if rec.parent is not None and rec.parent not in seen:
            raise SchemaMismatch(
                f"{rec.ckpt_id}: parent {rec.parent!r} is not an earlier record"
            )
        seen.add(rec.ckpt_id)
    return m


def save_manifest(m: Manifest, path) -> None:
    write_json(path, manifest_to_dict(m))


def load_manifest(path) -> Manifest:
    return manifest_from_dict(read_json(path, "manifest"))


# ---------------------------------------------------------------------------
# checkpoint payloads

def save_payload(path, flat_params: np.ndarray, seed: int, step: int) -> None:
    """Write params as float64; widening float32 params is exact."""
    flat = np.ascontiguousarray(flat_params, dtype="<f8")
    header = _HEADER.pack(PAYLOAD_MAGIC, 1, flat.size, seed, step)
    with atomic_open(path, "wb") as fh:
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
