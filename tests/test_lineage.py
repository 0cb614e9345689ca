import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrpath.cli import main
from lrpath.data import allocate_segments, derive_seed
from lrpath.errors import PlanViolation, SchemaMismatch
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
from lrpath.paradigm import (
    CptVariant,
    Paradigm,
    build_plan,
    build_two_stage_probe,
    parse_paradigm,
    plan_cost,
    plan_from_dict,
    plan_to_dict,
    spec_to_dict,
    uniform_spec,
)
from lrpath.schedule import INFINITE, ScheduleConfig, ScheduleKind
from lrpath.trainer import RunConfig, ToyModelConfig, run_config_from_dict, run_single

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


def _outcomes(plan, rng) -> list[CheckpointRecord]:
    """A record per phase, in plan order: its global step counts the steps
    along its lineage, and a released version has metrics."""
    steps: dict = {None: 0}
    records = []
    for p in plan.phases:
        steps[p.phase_id] = steps[p.init_from] + p.num_steps
        metrics = None
        if p.emits_version_checkpoint:
            metrics = {"ppl": float(rng.uniform(1, 500)), "nll": float(rng.uniform(0, 7)),
                       "tokens_evaluated": int(rng.integers(1, 10**5))}
        records.append(CheckpointRecord(p.phase_id, steps[p.phase_id], metrics))
    return records


def _manifest_of(plan, rng=None) -> Manifest:
    rng = np.random.default_rng(0) if rng is None else rng
    segments = allocate_segments(plan.spec, 64, plan.paradigm.alpha, 1000)
    return Manifest(plan=plan, records=_outcomes(plan, rng), segments=segments)


def _path_switch_document() -> dict:
    spec = uniform_spec(2, 100, BASE.replace(warmup_steps=10), seed=5)
    return manifest_to_dict(_manifest_of(build_plan(Paradigm.path_switch(0.6), spec)))


class TestRecords:
    """A manifest read from disk holds a lineage: its plan passes
    `validate_plan`, and its records follow the plan's phases."""

    def test_lineage_accepted(self):
        m = manifest_from_dict(_path_switch_document())
        assert [(p.phase_id, p.init_from) for p in m.plan.phases] == [
            ("v1-main", None), ("v1-branch", "v1-main"), ("v1-cont", "v1-main"),
            ("v2-main", "v1-cont"), ("v2-branch", "v2-main"),
        ]
        assert [r.phase_id for r in m.records] == [p.phase_id for p in m.plan.phases]
        assert [r.global_step for r in m.records] == [40, 100, 100, 140, 200]
        assert m.plan.spec.seed == 5

    def test_duplicate(self):
        doc = _path_switch_document()
        doc["plan"]["phases"][2]["phase_id"] = doc["records"][2]["phase_id"] = "v1-branch"
        with pytest.raises(PlanViolation, match="^v1-branch: duplicate phase_id$"):
            manifest_from_dict(doc)

    def test_dangling_parent(self):
        doc = _path_switch_document()
        doc["plan"]["phases"][1]["init_from"] = "missing"
        with pytest.raises(PlanViolation, match="^v1-branch: init_from 'missing' not an earlier phase$"):
            manifest_from_dict(doc)
        # a phase that inits from one after it is dangling too
        doc["plan"]["phases"][1]["init_from"] = "v1-cont"
        with pytest.raises(PlanViolation, match="^v1-branch: init_from 'v1-cont' not an earlier phase$"):
            manifest_from_dict(doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: r.pop(), "records: expected 5 records, one per plan phase, got 4"),
            (lambda r: r.append(dict(r[0])), "records: expected 5 records, one per plan phase, got 6"),
            (lambda r: r.insert(1, r.pop(2)), "records[1].phase_id: expected 'v1-branch', got 'v1-cont'"),
            (lambda r: r[4].update(phase_id="v2-cont"), "records[4].phase_id: expected 'v2-branch', got 'v2-cont'"),
        ],
        ids=["missing", "extra", "out_of_order", "unknown_phase"],
    )
    def test_records_follow_the_plan(self, edit, message):
        doc = _path_switch_document()
        edit(doc["records"])
        with pytest.raises(SchemaMismatch, match=f"^malformed manifest document: {re.escape(message)}$"):
            manifest_from_dict(doc)


class TestRunDirectory:
    """From a run directory alone: the plan that ran, its cost and its payloads."""

    def test_cli_run(self, tmp_path):
        config = {
            "paradigms": ["ptfs", "cpt:keep_min", "path_switch:0.6"], "num_versions": 2,
            "steps_per_version": 20, "seeds": [0, 3],
            "schedule": {"kind": "cosine", "eta_max": 3e-3, "eta_min": 3e-4, "warmup_steps": 2},
            "model": {"embed_dim": 8, "hidden_dim": 16}, "tokens_per_step": 16, "heldout_tokens": 500,
        }
        (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", str(tmp_path / "run.json"), "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
        _, spec, _, _ = run_config_from_dict(config)
        summary = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        for label in config["paradigms"]:
            for seed in config["seeds"]:
                run_dir = tmp_path / "out" / label.replace(":", "-") / f"seed{seed}"
                m = load_manifest(run_dir / "manifest.json")
                assert m.plan == build_plan(parse_paradigm(label), spec.replace(seed=seed))
                assert plan_cost(m.plan) == summary[label]["total_steps"]
                assert all((run_dir / "ckpt" / f"{r.phase_id}_final.bin").is_file() for r in m.records)

    def test_probe(self, tmp_path):
        spec = uniform_spec(2, 20, BASE.replace(warmup_steps=2))
        plan = build_two_stage_probe(INFINITE, 20, 10, 30, spec)
        run_cfg = RunConfig(model=ToyModelConfig(embed_dim=8, hidden_dim=16), tokens_per_step=16, heldout_tokens=500)
        _, manifest = run_single(plan, run_cfg, 7, tmp_path)
        m = load_manifest(tmp_path / "manifest.json")
        assert m == manifest
        assert m.plan == dataclasses.replace(plan, spec=plan.spec.replace(seed=7))
        assert plan_cost(m.plan) == 50
        assert [r.global_step for r in m.records] == [20, 50]


_KINDS = list(ScheduleKind)
_PARADIGMS = ["ptfs", *(f"cpt:{v.value}" for v in CptVariant), "path_switch:0.6", "path_switch:1",
              "two_stage_probe"]


def random_manifest(rng) -> Manifest:
    """The manifest of a random valid plan, with a random seed and outcomes."""
    label = _PARADIGMS[int(rng.integers(len(_PARADIGMS)))]
    n = int(rng.integers(1, 5))
    t = int(rng.integers(20, 2000))
    kind = _KINDS[int(rng.integers(len(_KINDS)))]
    if label.startswith("path_switch") and kind is ScheduleKind.CONSTANT:
        kind = ScheduleKind.COSINE  # a branch decays, and constant has no decay shape
    schedule = ScheduleConfig(
        kind,
        float(rng.uniform(1e-5, 1e-2)),
        float(rng.uniform(1e-7, 1e-5)),
        int(rng.integers(1, min(t, 50))),
        t,
    )
    spec = uniform_spec(n, t, schedule, seed=int(rng.integers(0, 2**32)))
    if label == "two_stage_probe":
        plan = build_two_stage_probe(INFINITE, t, int(rng.integers(1, 2 * t)), int(rng.integers(1, 2 * t)), spec)
    else:
        plan = build_plan(parse_paradigm(label), spec)
    return _manifest_of(plan, rng)


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
        with pytest.raises(SchemaMismatch, match="^unsupported manifest format_version 99$"):
            manifest_from_dict(doc)
        # a v1 manifest: segments also carry increment_index and sampling_seed
        doc["format_version"] = 1
        for seg in doc["segments"]:
            seg["increment_index"] = int(seg["segment_id"].split("/")[0][3:])
            seg["sampling_seed"] = derive_seed(doc["plan"]["spec"]["seed"], seg["segment_id"])
        with pytest.raises(SchemaMismatch, match="^unsupported manifest format_version 1$"):
            manifest_from_dict(doc)

    def test_format_2_rejected(self):
        # format 2 held the spec and records with checkpoint ids and parent links
        spec = uniform_spec(1, 100, BASE.replace(warmup_steps=10))
        doc = {
            "format_version": 2,
            "spec": spec_to_dict(spec),
            "segments": [dataclasses.asdict(s) for s in allocate_segments(spec, 64)],
            "records": [{
                "ckpt_id": "v1-scratch#final", "phase_id": "v1-scratch", "version": 1, "path": "scratch",
                "parent": None, "global_step": 100, "metrics": None, "payload_file": "ckpt/v1-scratch_final.bin",
            }],
        }
        with pytest.raises(SchemaMismatch) as exc:
            manifest_from_dict(doc)
        assert str(exc.value) == "unsupported manifest format_version 2"

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
            doc["plan"]["spec"]["base_schedule"]["kind"] = "bogus"
        elif breakage == "missing_spec_field":
            del doc["plan"]["spec"]["increments"]
        else:
            doc["records"].append({"phase_id": "x", "unknown": 1})
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


def _manifest_with_string_schedule():
    doc = manifest_to_dict(random_manifest(np.random.default_rng(3)))
    _with_string_schedule(doc["plan"])
    return doc


@pytest.mark.parametrize(
    "load, doc",
    [
        (plan_from_dict, lambda: []),
        (plan_from_dict, lambda: "plan"),
        (plan_from_dict, lambda: _with_string_schedule(_plan_doc())),
        (manifest_from_dict, lambda: []),
        (manifest_from_dict, lambda: None),
        (manifest_from_dict, _manifest_with_string_schedule),
    ],
    ids=["plan_list", "plan_string", "plan_string_schedule",
         "manifest_list", "manifest_null", "manifest_string_schedule"],
)
def test_non_object_document_rejected(load, doc):
    # JSON that parses but holds another type where an object belongs
    with pytest.raises(SchemaMismatch):
        load(doc())
