"""Checkpoint lineage: the manifest and the checkpoint payloads.

A run's lineage is the plan it ran: one phase per checkpoint, each
`init_from` the phase it forks from.  The manifest holds that plan (its
spec's seed is the run seed), the data segments the run laid out, and
one record per phase, in plan order, of what the run measured: the
checkpoint's global step and, for a phase that releases a version, its
held-out metrics.  A phase's payload is `ckpt/<phase_id>_final.bin`.
The manifest serializes to a canonical JSON document (sorted keys) so
identical manifests are byte-identical on disk.  Checkpoint payloads are
flat little-endian float64 arrays with a small binary header.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import DataSegment
from .documents import JsonObject, atomic_open, read_json, schema_error, wrong_value, write_json
from .errors import SchemaMismatch
from .paradigm import TrainingPlan, plan_from_dict, plan_to_dict, validate_plan

MANIFEST_FORMAT_VERSION = 3
PAYLOAD_MAGIC = b"LRPC"
_HEADER = struct.Struct("<4sIQQQ")  # magic, format version, param count, seed, step


@dataclass(frozen=True)
class CheckpointRecord:
    """What a run measured of one phase's checkpoint."""

    phase_id: str
    global_step: int
    metrics: Optional[dict] = None  # a released version's held-out evaluation


@dataclass
class Manifest:
    plan: TrainingPlan  # the plan as run: its spec's seed is the run seed
    records: list[CheckpointRecord] = field(default_factory=list)
    segments: list[DataSegment] = field(default_factory=list)


# ---------------------------------------------------------------------------
# manifest persistence

def manifest_to_dict(m: Manifest) -> dict:
    return {
        "format_version": MANIFEST_FORMAT_VERSION,
        "plan": plan_to_dict(m.plan),
        "segments": [dataclasses.asdict(s) for s in m.segments],
        "records": [dataclasses.asdict(r) for r in m.records],
    }


_MANIFEST_KEYS = frozenset({"format_version", "plan", "segments", "records"})
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
        phase_id=o.str("phase_id"),
        global_step=o.int("global_step", minimum=0),
        metrics=(
            None if o.fields.get("metrics") is None else o.object("metrics", _metrics_from_dict)
        ),
    )


def manifest_from_dict(d: dict) -> Manifest:
    """Read a manifest document.

    Its plan must pass `validate_plan`, whose PlanViolation passes
    through, and its records must name the plan's phases, one each, in
    plan order: the order `run_single` writes them in.
    """
    o = JsonObject(d, ("manifest document",))
    o.version(MANIFEST_FORMAT_VERSION, "manifest")  # before the keys, which differ by format
    o.only(_MANIFEST_KEYS)
    m = Manifest(
        plan=o.object("plan", plan_from_dict),
        records=o.list("records", _record_from_dict),
        segments=o.list("segments", _segment_from_dict),
    )
    validate_plan(m.plan)
    ids = [p.phase_id for p in m.plan.phases]
    got = [r.phase_id for r in m.records]
    if len(got) != len(ids):
        raise schema_error(o.at, "records", f"expected {len(ids)} records, one per plan phase, got {len(got)}")
    if got != ids:
        i = next(i for i, (a, b) in enumerate(zip(got, ids)) if a != b)
        raise wrong_value(o.at + ("records", i), "phase_id", repr(ids[i]), got[i])
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
