import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrpath.data import allocate_segments, derive_seed
from lrpath.errors import SchemaMismatch
from lrpath.lineage import (
    CheckpointRecord,
    Manifest,
    atomic_open,
    load_manifest,
    load_payload,
    manifest_from_dict,
    manifest_to_dict,
    save_manifest,
    save_payload,
)
from lrpath.paradigm import Paradigm, build_plan, plan_from_dict, plan_to_dict, uniform_spec
from lrpath.schedule import ScheduleConfig, ScheduleKind

BASE = ScheduleConfig(ScheduleKind.COSINE, 3e-4, 3e-5, 100, 1000)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "batches:v1") == derive_seed(7, "batches:v1")

    def test_distinct_names(self):
        names = [f"phase-{i}" for i in range(100)]
        seeds = {derive_seed(42, n) for n in names}
        assert len(seeds) == 100

    def test_distinct_base(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_range(self):
        s = derive_seed(123456789, "anything")
        assert 0 <= s < 2**64


class TestAllocateSegments:
    def test_uniform_disjoint(self):
        spec = uniform_spec(3, 1000, BASE)
        segs = allocate_segments(spec, tokens_per_step=64)
        assert len(segs) == 3
        assert segs[0].start_offset == 0
        assert segs[0].length == 64_000
        assert segs[1].start_offset == 64_000
        assert [s.segment_id for s in segs] == ["inc1/full", "inc2/full", "inc3/full"]

    def test_alpha_split(self):
        spec = uniform_spec(2, 1000, BASE)
        segs = allocate_segments(spec, 64, alpha=0.6)
        ids = [s.segment_id for s in segs]
        assert ids == ["inc1/prefix", "inc1/remainder", "inc2/prefix", "inc2/remainder"]
        # prefix covers ceil(0.4*1000)=400 steps, remainder the other 600
        assert segs[0].length == 400 * 64
        assert segs[1].length == 600 * 64
        assert segs[1].start_offset == segs[0].start_offset + segs[0].length

    def test_start_offset(self):
        spec = uniform_spec(1, 10, BASE.replace(warmup_steps=2))
        (seg,) = allocate_segments(spec, 64, start_offset=5000)
        assert seg.start_offset == 5000

    @given(
        st.integers(1, 6),
        st.integers(10, 500),
        st.integers(1, 64),
        st.one_of(st.none(), st.sampled_from([0.25, 0.5, 0.75, 1.0])),
    )
    @settings(max_examples=50, deadline=None)
    def test_disjoint_and_complete(self, n, t, tps, alpha):
        spec = uniform_spec(n, t, BASE.replace(warmup_steps=min(5, t - 1)))
        segs = allocate_segments(spec, tps, alpha=alpha)
        covered = []
        for s in segs:
            covered.append((s.start_offset, s.start_offset + s.length))
        covered.sort()
        # contiguous, disjoint, covering exactly n*t*tps tokens
        assert covered[0][0] == 0
        for (a0, a1), (b0, _) in zip(covered, covered[1:]):
            assert a1 == b0
        assert covered[-1][1] == n * t * tps


class TestRecords:
    """A manifest read from disk must hold a lineage: new ids, earlier parents."""

    def document(self, *records):
        spec = uniform_spec(2, 100, BASE.replace(warmup_steps=10))
        m = Manifest(spec=spec, records=[self.rec(*r) for r in records], segments=[])
        return manifest_to_dict(m)

    def rec(self, ckpt_id, parent=None):
        return CheckpointRecord(
            ckpt_id=ckpt_id,
            phase_id=ckpt_id.split("#")[0],
            version=1,
            path="main",
            parent=parent,
            global_step=100,
            metrics={"ppl": 42.0},
            payload_file=f"ckpt/{ckpt_id.replace('#', '_')}.bin",
        )

    def test_lineage_accepted(self):
        doc = self.document(("a#final",), ("b#final", "a#final"), ("c#final", "a#final"))
        assert [r.parent for r in manifest_from_dict(doc).records] == [None, "a#final", "a#final"]

    def test_duplicate(self):
        doc = self.document(("a#final",), ("a#final",))
        with pytest.raises(SchemaMismatch, match="repeats checkpoint 'a#final'"):
            manifest_from_dict(doc)

    def test_dangling_parent(self):
        doc = self.document(("b#final", "missing#final"))
        with pytest.raises(SchemaMismatch, match="'missing#final' is not an earlier record"):
            manifest_from_dict(doc)
        # a parent recorded only after its child is dangling too
        doc = self.document(("b#final", "a#final"), ("a#final",))
        with pytest.raises(SchemaMismatch, match="not an earlier record"):
            manifest_from_dict(doc)


def random_manifest(rng):
    n = int(rng.integers(1, 5))
    t = int(rng.integers(20, 2000))
    warm = int(rng.integers(1, min(t, 50)))
    kinds = list(ScheduleKind)
    kind = kinds[int(rng.integers(len(kinds)))]
    schedule = ScheduleConfig(
        kind,
        float(rng.uniform(1e-5, 1e-2)),
        float(rng.uniform(1e-7, 1e-5)),
        warm,
        t,
    )
    spec = uniform_spec(n, t, schedule, seed=int(rng.integers(0, 2**32)))
    segs = allocate_segments(spec, 64)
    m = Manifest(spec=spec, records=[], segments=list(segs))
    prev = None
    for i in range(int(rng.integers(0, 6))):
        rec = CheckpointRecord(
            ckpt_id=f"p{i}#final",
            phase_id=f"p{i}",
            version=i + 1,
            path=str(rng.choice(["main", "branch", "scratch"])),
            parent=prev,
            global_step=int(rng.integers(0, 10**6)),
            metrics={"ppl": float(rng.uniform(1, 500)), "nll": float(rng.uniform(0, 7))},
            payload_file=f"ckpt/p{i}.bin",
        )
        m.records.append(rec)
        prev = rec.ckpt_id
    return m


class TestManifestSerialization:
    def test_round_trip_byte_stable(self, tmp_path):
        rng = np.random.default_rng(2024)
        for i in range(100):
            m = random_manifest(rng)
            path = tmp_path / f"m{i}.json"
            save_manifest(m, path)
            first = path.read_bytes()
            again = load_manifest(path)
            save_manifest(again, path)
            assert path.read_bytes() == first

    def test_dict_round_trip_equality(self):
        rng = np.random.default_rng(7)
        m = random_manifest(rng)
        assert manifest_from_dict(manifest_to_dict(m)) == m

    def test_schema_version_mismatch(self):
        rng = np.random.default_rng(8)
        doc = manifest_to_dict(random_manifest(rng))
        doc["format_version"] = 99
        with pytest.raises(SchemaMismatch):
            manifest_from_dict(doc)
        # a v1 manifest: segments also carry increment_index and sampling_seed
        doc["format_version"] = 1
        for seg in doc["segments"]:
            seg["increment_index"] = int(seg["segment_id"].split("/")[0][3:])
            seg["sampling_seed"] = derive_seed(doc["spec"]["seed"], seg["segment_id"])
        with pytest.raises(SchemaMismatch, match="format_version 1"):
            manifest_from_dict(doc)

    def test_missing_field(self):
        rng = np.random.default_rng(9)
        doc = manifest_to_dict(random_manifest(rng))
        del doc["segments"]
        with pytest.raises(SchemaMismatch):
            manifest_from_dict(doc)

    @pytest.mark.parametrize(
        "breakage",
        ["bogus_schedule_kind", "missing_spec_field", "unknown_record_field"],
    )
    def test_malformed_document_rejected(self, tmp_path, breakage):
        doc = manifest_to_dict(random_manifest(np.random.default_rng(11)))
        if breakage == "bogus_schedule_kind":
            doc["spec"]["base_schedule"]["kind"] = "bogus"
        elif breakage == "missing_spec_field":
            del doc["spec"]["increments"]
        else:
            doc["records"].append({"ckpt_id": "x#final", "unknown": 1})
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatch, match="malformed manifest document"):
            load_manifest(path)

    def test_json_is_sorted(self, tmp_path):
        rng = np.random.default_rng(10)
        m = random_manifest(rng)
        path = tmp_path / "m.json"
        save_manifest(m, path)
        doc = json.loads(path.read_text())
        assert list(doc) == sorted(doc)


class TestPayload:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        params = rng.normal(size=1234)
        path = tmp_path / "c.bin"
        save_payload(path, params, seed=99, step=500)
        loaded, seed, step = load_payload(path)
        assert seed == 99 and step == 500
        np.testing.assert_array_equal(loaded, params)

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "c.bin"
        save_payload(path, rng.normal(size=100), seed=1, step=2)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 8])
        with pytest.raises(SchemaMismatch):
            load_payload(path)

    def test_shorter_than_its_header(self, tmp_path):
        path = tmp_path / "c.bin"
        save_payload(path, np.zeros(10), seed=0, step=0)
        path.write_bytes(path.read_bytes()[:7])
        with pytest.raises(SchemaMismatch) as exc:
            load_payload(path)
        assert str(exc.value) == "payload file truncated before header"

    def test_write_raising_midway_leaves_nothing(self, tmp_path):
        # a file is replaced whole or not at all, and no temp file stays
        target = tmp_path / "manifest.json"
        with pytest.raises(RuntimeError, match="killed"):
            with atomic_open(target, "w") as fh:
                fh.write("half a docu")
                raise RuntimeError("killed")
        assert list(tmp_path.iterdir()) == []
        target.write_text("old")
        with pytest.raises(RuntimeError, match="killed"):
            with atomic_open(target, "wb") as fh:
                fh.write(b"new")
                raise RuntimeError("killed")
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
        assert target.read_text() == "old"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.bin"
        save_payload(path, np.zeros(10), seed=0, step=0)
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(SchemaMismatch):
            load_payload(path)


def _plan_doc():
    return plan_to_dict(build_plan(Paradigm.path_switch(0.5), uniform_spec(2, 1000, BASE)))


def _with_string_schedule(doc):
    doc["spec"]["base_schedule"] = "cosine"
    return doc


@pytest.mark.parametrize(
    "load, doc",
    [
        (plan_from_dict, lambda: []),
        (plan_from_dict, lambda: "plan"),
        (plan_from_dict, lambda: _with_string_schedule(_plan_doc())),
        (manifest_from_dict, lambda: []),
        (manifest_from_dict, lambda: None),
        (
            manifest_from_dict,
            lambda: _with_string_schedule(manifest_to_dict(random_manifest(np.random.default_rng(3)))),
        ),
    ],
    ids=["plan_list", "plan_string", "plan_string_schedule",
         "manifest_list", "manifest_null", "manifest_string_schedule"],
)
def test_non_object_document_rejected(load, doc):
    # JSON that parses but holds another type where an object belongs
    with pytest.raises(SchemaMismatch):
        load(doc())
