"""Pins of what plan code changes must not move: the bytes of plan
documents and the exact errors for bad segment ids and LR profiles.

The digests are sha256 over `plan_to_json` at the plan-io benchmark's
shape (12 versions x 25,000 steps, cosine 3e-3 -> 3e-4, warmup 2,500,
horizon inf, seed 1) and over one two-stage probe plan.
"""

import hashlib
import json
from pathlib import Path

import pytest

from lrpath.cli import main
from lrpath.errors import PlanViolation, SchemaMismatch
from lrpath.paradigm import (
    build_plan,
    build_two_stage_probe,
    parse_paradigm,
    plan_from_dict,
    plan_to_dict,
    plan_to_json,
    uniform_spec,
    validate_plan,
)
from lrpath.schedule import INFINITE, ScheduleConfig, ScheduleKind

PLAN_IO_SPEC = uniform_spec(12, 25_000, ScheduleConfig(ScheduleKind.COSINE, 3e-3, 3e-4, 2500, INFINITE), seed=1)
PLAN_IO_ARGV = ["--versions", "12", "--steps", "25000", "--seed", "1", "--kind", "cosine", "--max-lr", "0.003",
                "--min-lr", "0.0003", "--warmup", "2500", "--horizon", "inf"]
PLAN_DIGESTS = {
    "path_switch:0.6": "144727b8443aa0095b52fe8cd3290aff0ab072769caed9d34286970eceac9f9e",
    "ptfs": "1cc1acf701e27622892311e3171ba6ef2b54ea4374485afc2fb3f1535bc92651",
    "cpt:reset_max": "0888c448f362719008ad09fc99062cebf91647bf0a62b71bdfcca532f5467ee2",
}
PROBE = build_two_stage_probe(
    INFINITE, 40, 20, 50, uniform_spec(2, 40, ScheduleConfig(ScheduleKind.COSINE, 1e-2, 1e-3, 4, 40))
)
PROBE_DIGEST = "a4fe388acd8bf6bba2bbca878b168bc992c6a8b241e8fcbc5489c1ee3cc61c85"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("label", sorted(PLAN_DIGESTS))
def test_plan_bytes(label):
    plan = build_plan(parse_paradigm(label), PLAN_IO_SPEC)
    text = plan_to_json(plan)
    assert _digest(text) == PLAN_DIGESTS[label]
    assert plan_to_json(plan_from_dict(json.loads(text))) == text


@pytest.mark.parametrize("label", sorted(PLAN_DIGESTS))
def test_cli_plan_bytes(label, tmp_path):
    out = tmp_path / "plan.json"
    assert main(["plan", "--paradigm", label, *PLAN_IO_ARGV, "--out", str(out)]) == 0
    assert _digest(out.read_text(encoding="utf-8")) == PLAN_DIGESTS[label]


def test_probe_plan_bytes():
    assert _digest(plan_to_json(PROBE)) == PROBE_DIGEST


BASE = ScheduleConfig(ScheduleKind.COSINE, 3e-4, 3e-5, 50, 10_000)
SEGMENT_ID = "is not inc<n>/full, inc<n>/prefix or inc<n>/remainder"


def _doc(label: str) -> dict:
    return plan_to_dict(build_plan(parse_paradigm(label), uniform_spec(3, 300, BASE)))


@pytest.mark.parametrize(
    "phases, error, message",
    [
        ({1: ["inc1/full", "inc01/full"]}, SchemaMismatch,
         f"malformed plan document: phases[1].data_segments[1]: segment id 'inc01/full' {SEGMENT_ID}"),
        # the first malformed id in document order is named, also where it repeats later
        ({1: ["inc1/full", "inc2/sideways", "inc0/full"], 2: ["inc0/full"]}, SchemaMismatch,
         f"malformed plan document: phases[1].data_segments[1]: segment id 'inc2/sideways' {SEGMENT_ID}"),
        ({2: ["inc1/full", "inc2/full", 3]}, SchemaMismatch,
         f"malformed plan document: phases[2].data_segments[2]: segment id 3 {SEGMENT_ID}"),
        ({2: ["inc1/full", True, 1]}, SchemaMismatch,
         f"malformed plan document: phases[2].data_segments[1]: segment id True {SEGMENT_ID}"),
        ({2: ["inc1/full", ["inc2/full"]]}, SchemaMismatch,
         f"malformed plan document: phases[2].data_segments[1]: segment id ['inc2/full'] {SEGMENT_ID}"),
        ({2: "inc1/full"}, SchemaMismatch,
         "malformed plan document: phases[2].data_segments: expected a list, got 'inc1/full'"),
        ({1: ["inc1/full", "inc9/full"]}, PlanViolation, "v2-scratch: no data segment inc9/full in this plan"),
        ({1: ["inc1/full", "inc2/full", "inc1/full"]}, PlanViolation,
         "v2-scratch: duplicate data segment within phase"),
    ],
    ids=["malformed", "first_malformed", "number", "bool", "list", "not_a_list", "unknown", "repeated"],
)
def test_segment_id_errors(phases, error, message):
    doc = _doc("ptfs")
    for i, segments in phases.items():
        doc["phases"][i]["data_segments"] = segments
    with pytest.raises(error) as exc:
        validate_plan(plan_from_dict(doc))
    assert exc.type is error and str(exc.value) == message


def test_segment_reused_on_trajectory():
    doc = _doc("path_switch:0.6")
    doc["phases"][4]["data_segments"] = ["inc1/prefix"]  # v2-branch re-reads v1-main's data
    with pytest.raises(PlanViolation) as exc:
        validate_plan(plan_from_dict(doc))
    assert str(exc.value) == "v2-branch: trajectory consumes a segment twice"


@pytest.mark.parametrize(
    "index, lr, message",
    [
        # v1-branch holds the object that v2-branch and v3-branch point back to
        (1, {"length": 120.5}, "phases[1].lr.length: expected an integer, got 120.5"),
        # v1-cont holds the one that every later main phase points back to
        (2, {"hold_min": 0}, "phases[2].lr.hold_min: expected true or false, got 0"),
        (1, {"type": "series"}, "phases[1].lr.type: unknown lr profile type 'series'"),
    ],
    ids=["decay_length", "hold_min", "type"],
)
def test_shared_profile_errors_name_their_phase(index, lr, message):
    doc = _doc("path_switch:0.6")
    assert [p["lr"] for p in doc["phases"][3:]] == [2, 1, 2, 2, 1]
    doc["phases"][index]["lr"] = {**doc["phases"][index]["lr"], **lr}
    with pytest.raises(SchemaMismatch) as exc:
        plan_from_dict(doc)
    assert str(exc.value) == f"malformed plan document: {message}"


def _edit_config(phase: dict, **fields) -> None:
    phase["lr"]["config"] = {**phase["lr"]["config"], **fields}


@pytest.mark.parametrize(
    "label, edit, message",
    [
        ("path_switch:0.6", lambda phases: phases[1].update(phase_id="v1-main"), "v1-main: duplicate phase_id"),
        ("ptfs", lambda phases: phases[1].update(emits_version_checkpoint=False),
         "version 2: no phase emits this version"),
        # v1-branch writes the decay object that v2-branch and v3-branch share
        ("path_switch:0.6", lambda phases: _edit_config(phases[1], eta_max=6e-4),
         "v1-branch: branch starts above eta_max"),
        # v1-cont writes the constant object that every later main phase shares
        ("path_switch:0.6", lambda phases: _edit_config(phases[2], eta_max=6e-4),
         "v1-cont: main path departs from eta_max"),
    ],
    ids=["duplicate_phase_id", "version_not_emitted", "branch_above_eta_max", "main_off_eta_max"],
)
def test_cross_phase_rule_errors(label, edit, message):
    # documents that read back, and that `validate_plan` rejects
    doc = _doc(label)
    edit(doc["phases"])
    with pytest.raises(PlanViolation) as exc:
        validate_plan(plan_from_dict(doc))
    assert str(exc.value) == message


BEFORE_IT = "expected an lr object or the index of one of the {} before it, got {}"


@pytest.mark.parametrize(
    "index, lr, message",
    [
        (4, 3, BEFORE_IT.format(3, 3)),
        # v1-cont's object is index 2, defined after v1-branch
        (1, 2, BEFORE_IT.format(1, 2)),
        (1, 1, BEFORE_IT.format(1, 1)),
        (0, 0, "expected an lr object, got 0"),
        (4, -1, BEFORE_IT.format(3, -1)),
        (4, True, BEFORE_IT.format(3, True)),
        (4, 1.0, BEFORE_IT.format(3, 1.0)),
        (4, "1", BEFORE_IT.format(3, "'1'")),
    ],
    ids=["out_of_range", "forward", "itself", "first_phase", "negative", "true", "float", "string"],
)
def test_back_reference_errors(index, lr, message):
    # an int lr is the index of an lr object of an earlier phase
    doc = _doc("path_switch:0.6")
    doc["phases"][index]["lr"] = lr
    with pytest.raises(SchemaMismatch) as exc:
        plan_from_dict(doc)
    assert str(exc.value) == f"malformed plan document: phases[{index}].lr: {message}"


def _nested(depth: int) -> list:
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize(
    "lr, error, message",
    [
        ({"length": 10**5000}, PlanViolation, "v1-branch: decay length differs from num_steps"),
        ({"config": _nested(100_000)}, SchemaMismatch,
         "malformed plan document: phases[1].lr.config: expected an object, got [[[[[[[...]]]]]]]"),
    ],
    ids=["int_too_long_to_print", "nested_too_deep_to_print"],
)
def test_profile_without_a_repr(lr, error, message):
    # values a Python caller may pass that have no repr; read as they are
    doc = _doc("path_switch:0.6")
    doc["phases"][1]["lr"] = {**doc["phases"][1]["lr"], **lr}
    with pytest.raises(error) as exc:
        plan_from_dict(doc)
    assert exc.type is error and str(exc.value) == message


NO_WARMUP = uniform_spec(4, 100, ScheduleConfig(ScheduleKind.COSINE, 3e-3, 3e-4, 0, INFINITE))
# (plan, its number of distinct LR profiles)
SHARED_PROFILES = {
    "ptfs": (build_plan(parse_paradigm("ptfs"), PLAN_IO_SPEC), 12),
    "cpt:reset_max": (build_plan(parse_paradigm("cpt:reset_max"), PLAN_IO_SPEC), 2),
    "cpt:rewarm_max": (build_plan(parse_paradigm("cpt:rewarm_max"), PLAN_IO_SPEC), 1),
    "cpt:keep_min": (build_plan(parse_paradigm("cpt:keep_min"), PLAN_IO_SPEC), 2),
    "path_switch:0.6": (build_plan(parse_paradigm("path_switch:0.6"), PLAN_IO_SPEC), 3),
    "path_switch:1": (build_plan(parse_paradigm("path_switch:1"), PLAN_IO_SPEC), 2),
    "probe": (PROBE, 2),
    # without warmup, the first main phase's profile is every later one's,
    # and the first CPT update's is the scratch run's
    "path_switch:0.6-no_warmup": (build_plan(parse_paradigm("path_switch:0.6"), NO_WARMUP), 2),
    "cpt:reset_max-no_warmup": (build_plan(parse_paradigm("cpt:reset_max"), NO_WARMUP), 1),
    "probe-equal_stages": (build_two_stage_probe(100, 100, 100, 100, NO_WARMUP), 1),
}


@pytest.mark.parametrize("label", sorted(SHARED_PROFILES))
def test_one_profile_object_per_distinct_profile(label):
    built, distinct = SHARED_PROFILES[label]
    text = plan_to_json(built)
    for plan in (built, plan_from_dict(json.loads(text)), plan_from_dict(plan_to_dict(built))):
        profiles = [p.lr_profile for p in plan.phases]
        assert len(set(profiles)) == len({id(p) for p in profiles}) == distinct
        assert plan_to_json(plan) == text
    # every other phase points back to one of the document's `distinct` lr objects
    lrs = [p["lr"] for p in json.loads(text)["phases"]]
    assert sum(type(lr) is dict for lr in lrs) == distinct
    assert {lr for lr in lrs if type(lr) is int} <= set(range(distinct))


def test_readme_example_is_cli_output(capsys):
    # the Documents section of the README shows this command's document
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split('```json\n{\n  "format_version"', 1)[1].split("```", 1)[0]
    argv = ["plan", "--paradigm", "path_switch:0.6", "--versions", "2", "--steps", "1000", "--warmup", "100",
            "--max-lr", "3e-3", "--min-lr", "3e-4"]
    assert main(argv) == 0
    assert capsys.readouterr().out == '{\n  "format_version"' + example
