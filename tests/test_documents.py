"""The document readers: plans, manifests, run configs and reports read from JSON.

A loader either returns what the document describes or raises
SchemaMismatch naming the path of the bad value; construction errors
(InvalidConfig, PlanViolation) pass through as they are.  It
never raises a bare built-in exception, and neither does reading a file
that is not UTF-8 or not JSON.
"""

import copy
import json
import re

import pytest

from lrpath.cli import _write_report, main
from lrpath.data import allocate_segments
from lrpath.documents import (
    JsonObject,
    to_json,
    write_json,
    json_bool,
    json_enum,
    json_float,
    json_int,
    json_list,
    json_str,
)
from lrpath.errors import InvalidConfig, PlanViolation, SchemaMismatch
from lrpath.lineage import (
    CheckpointRecord,
    Manifest,
    load_manifest,
    manifest_from_dict,
    manifest_to_dict,
    save_manifest,
)
from lrpath.paradigm import (
    CptVariant,
    Paradigm,
    build_plan,
    plan_from_dict,
    plan_to_dict,
    plan_to_json,
    uniform_spec,
    validate_plan,
)
from lrpath.schedule import ScheduleConfig, ScheduleKind
from lrpath.trainer import EvalReport, run_config_from_dict

SPEC = uniform_spec(3, 300, ScheduleConfig(ScheduleKind.KNEE, 3e-4, 3e-5, 50, 1000))


def _plan(kind):
    return plan_to_dict(build_plan(kind, SPEC))


def _ptfs_plan():
    return _plan(Paradigm.ptfs())


def _manifest():
    plan = build_plan(Paradigm.ptfs(), SPEC)
    records = [
        CheckpointRecord(f"v{v}-scratch", 300 * v, {"ppl": 40.5 - v, "nll": 3.7, "tokens_evaluated": 1991})
        for v in (1, 2, 3)
    ]
    return manifest_to_dict(Manifest(plan, records, allocate_segments(SPEC, 64)))


def _run_config():
    return {
        "paradigms": ["ptfs", "path_switch:0.5"],
        "num_versions": 2,
        "steps_per_version": [30, 40],
        "schedule": {"kind": "cosine", "eta_max": 1e-3, "eta_min": 1e-4, "warmup_steps": 5},
        "seeds": [0, 1],
        "model": {
            "vocab_size": 32, "context_len": 4, "embed_dim": 8, "hidden_dim": 16,
            "batch_size": 8, "dtype": "float32",
        },
        "tokens_per_step": 40,
        "heldout_tokens": 2000,
        "corpus_file": None,
        "log_stride": 10,
    }


# A plan is read by plan_from_dict and checked by validate_plan, as run_single does.
DOCUMENTS = {
    "plan-ptfs": (_ptfs_plan, lambda d: validate_plan(plan_from_dict(d))),
    "plan-cpt-keep_min": (
        lambda: _plan(Paradigm.cpt(CptVariant.KEEP_MIN)),
        lambda d: validate_plan(plan_from_dict(d)),
    ),
    "plan-path_switch-0.5": (
        lambda: _plan(Paradigm.path_switch(0.5)),
        lambda d: validate_plan(plan_from_dict(d)),
    ),
    "manifest": (_manifest, manifest_from_dict),
    "run-config": (_run_config, run_config_from_dict),
}
SWAPS = [True, "x", "1", 1.5, None, [], {}]
# fields where null is a valid value
NULLABLE = {"init_from", "metrics", "horizon", "corpus_file"}


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def _leaves(doc, path=()):
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, value in items:
            yield from _leaves(value, path + (key,))
    else:
        yield path, doc


def _swapped(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_type_swap_fuzz(name):
    make, load = DOCUMENTS[name]
    doc = make()
    load(copy.deepcopy(doc))  # the document itself is valid
    loaded, bare, cases = [], [], 0
    for path, leaf in _leaves(doc):
        for value in SWAPS:
            if _json_type(value) == _json_type(leaf) or (value is None and path[-1] in NULLABLE):
                continue
            cases += 1
            try:
                load(_swapped(doc, path, value))
            except (SchemaMismatch, InvalidConfig, PlanViolation):
                continue
            except Exception as exc:
                bare.append(f"{path} = {value!r}: {exc!r}")
                continue
            loaded.append(f"{path} = {value!r}")
    assert cases > 50
    assert not loaded, f"{len(loaded)} of {cases} swapped documents load: {loaded[:5]}"
    assert not bare, f"{len(bare)} of {cases} raise a bare exception: {bare[:5]}"


@pytest.mark.parametrize(
    "make, load, path, value, message",
    [
        (_ptfs_plan, plan_from_dict, ("phases", 2, "lr", "config", "eta_max"), True,
         "malformed plan document: phases[2].lr.config.eta_max: expected a number, got True"),
        (_ptfs_plan, plan_from_dict, ("spec", "base_schedule", "eta_min"), "1e-5",
         "malformed plan document: spec.base_schedule.eta_min: expected a number, got '1e-5'"),
        (_ptfs_plan, plan_from_dict, ("spec", "base_schedule", "eta_max"), 10**400,
         "malformed plan document: spec.base_schedule.eta_max: expected a number in the float "
         "range, got 100000000000000000...0000000000000000000"),
        (_ptfs_plan, plan_from_dict, ("phases", 0, "phase_id"), [],
         "malformed plan document: phases[0].phase_id: expected a string, got []"),
        (_ptfs_plan, plan_from_dict, ("phases", 1, "lr", "offset"), 0,
         "malformed plan document: phases[1].lr: unknown key(s) 'offset'"),
        (_ptfs_plan, plan_from_dict, ("phases", 1, "path"), "sideways",
         "malformed plan document: phases[1].path: expected one of 'main', 'branch', 'scratch', "
         "got 'sideways'"),
        (_manifest, manifest_from_dict, ("records", 0, "global_step"), "12.5x",
         "malformed manifest document: records[0].global_step: expected an integer >= 0, got '12.5x'"),
        (_manifest, manifest_from_dict, ("plan", "phases", 0, "version"), True,
         "malformed manifest document: plan.phases[0].version: expected an integer, got True"),
        (_manifest, manifest_from_dict, ("plan", "phases", 2, "lr", "config", "eta_max"), True,
         "malformed manifest document: plan.phases[2].lr.config.eta_max: expected a number, got True"),
        (_manifest, manifest_from_dict, ("segments", 1, "start_offset"), -3,
         "malformed manifest document: segments[1].start_offset: expected an integer >= 0, got -3"),
        (_manifest, manifest_from_dict, ("segments", 2, "length"), "many",
         "malformed manifest document: segments[2].length: expected an integer >= 0, got 'many'"),
        (_manifest, manifest_from_dict, ("records", 0, "metrics", "ppl"), "40",
         "malformed manifest document: records[0].metrics.ppl: expected a number, got '40'"),
        (_run_config, run_config_from_dict, ("schedule", "warmup_step"), 200,
         "malformed run config: schedule: unknown key(s) 'warmup_step'"),
        (_run_config, run_config_from_dict, ("model", "hidden"), 16,
         "malformed run config: model: unknown key(s) 'hidden'"),
        (_run_config, run_config_from_dict, ("steps_per_version", 1), "40",
         "malformed run config: steps_per_version[1]: expected an integer, got '40'"),
        (_run_config, run_config_from_dict, ("schedule",), {"kind": "cosine"},
         "malformed run config: schedule: missing key 'eta_max'"),
    ],
    ids=["plan_bool_rate", "plan_string_rate", "plan_huge_rate", "plan_list_id", "plan_nested_key", "plan_enum",
         "manifest_step", "manifest_bool_version", "manifest_plan_rate", "manifest_offset", "manifest_length",
         "manifest_metrics", "run_nested_key", "run_model_key", "run_steps", "run_missing_key"],
)
def test_error_names_path(make, load, path, value, message):
    with pytest.raises(SchemaMismatch, match=f"^{re.escape(message)}$"):
        load(_swapped(make(), path, value))


# for every JSON type a document field can have: how a JsonObject reads
# field "k", and how the reader of that type reads the field's value
READERS = {
    "int": (lambda o: o.int("k"), lambda v, at: json_int(v, at, "k")),
    "int_minimum": (lambda o: o.int("k", minimum=0), lambda v, at: json_int(v, at, "k", 0)),
    "float": (lambda o: o.float("k"), lambda v, at: json_float(v, at, "k")),
    "bool": (lambda o: o.bool("k"), lambda v, at: json_bool(v, at, "k")),
    "str": (lambda o: o.str("k"), lambda v, at: json_str(v, at, "k")),
    "str_nullable": (lambda o: o.str("k", nullable=True), lambda v, at: json_str(v, at, "k", True)),
    "enum": (lambda o: o.enum("k", ScheduleKind), lambda v, at: json_enum(v, at, "k", ScheduleKind)),
    "list_of_2": (
        lambda o: o.list("k", json_float, 2), lambda v, at: json_list(v, at, "k", json_float, 2),
    ),
}
VALUES = [
    0, 5, -3, 5.0, 5e4, 16.5, -0.5, True, False, "5", "1e-5", "cosine", "knee", "", None,
    [], [1.0, 2], [1, 2, 3], ["a", 2], {}, {"k": 1}, 10**400,
]


def _outcome(read, *args):
    try:
        value = read(*args)
    except SchemaMismatch as exc:
        return "error", str(exc)
    return "value", type(value), value


@pytest.mark.parametrize("kind", sorted(READERS))
def test_field_reads_as_its_reader(kind):
    # a field of a JsonObject and the reader of its type accept the same
    # values, and reject the others with the same message
    field, reader = READERS[kind]
    outcomes = []
    for value in VALUES:
        got = _outcome(field, JsonObject({"k": value}, ("doc", "obj")))
        assert got == _outcome(reader, value, ("doc", "obj")), value
        outcomes.append(got[0])
    assert "value" in outcomes and "error" in outcomes


@pytest.mark.parametrize("kind", sorted(READERS))
def test_missing_field_names_its_key(kind):
    field, _ = READERS[kind]
    with pytest.raises(SchemaMismatch, match="^malformed doc: obj: missing key 'k'$"):
        field(JsonObject({}, ("doc", "obj")))


NOT_UTF8 = b"\xff\xfe{}"
NOT_JSON = b"{not json"
LONG_INT = b"[1" + b"0" * 5000 + b"]"  # Python reads no integer of over 4300 digits


@pytest.mark.parametrize("content", [NOT_UTF8, NOT_JSON, LONG_INT],
                         ids=["not_utf8", "not_json", "long_int"])
@pytest.mark.parametrize("command, message", [
    (["run", "{path}", "--out", "{out}"], "cannot read config: run config is not "),
    (["compare", "{path}"], "cannot read report: report {path} is not "),
], ids=["run", "compare"])
def test_unreadable_file_exits_2(tmp_path, capsys, content, command, message):
    path, out = tmp_path / "doc.json", tmp_path / "out"
    path.write_bytes(content)
    assert main([a.format(path=path, out=out) for a in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message.format(path=path))
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "content, problem", [(NOT_UTF8, "UTF-8"), (NOT_JSON, "valid JSON"), (LONG_INT, "valid JSON")],
    ids=["not_utf8", "not_json", "long_int"],
)
def test_unreadable_manifest(tmp_path, content, problem):
    path = tmp_path / "manifest.json"
    path.write_bytes(content)
    with pytest.raises(SchemaMismatch, match=f"^manifest is not {problem}: "):
        load_manifest(path)



def test_float_beyond_range_exits_2(tmp_path, capsys):
    cfg, out = _run_config(), tmp_path / "out"
    cfg["schedule"]["eta_max"] = 10**400
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: malformed run config: schedule.eta_max: expected a "
                          "number in the float range, got ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("make, load, path", [
    (_ptfs_plan, plan_from_dict, ("spec", "base_schedule", "eta_max")),
    (_ptfs_plan, plan_from_dict, ("phases", 1, "lr", "config", "eta_min")),
    (_manifest, manifest_from_dict, ("plan", "spec", "base_schedule", "eta_max")),
], ids=["plan_base", "plan_phase", "manifest"])
def test_infinite_rate_rejected(make, load, path):
    # json reads 1e999 as inf
    name = path[-1]
    with pytest.raises(InvalidConfig, match=f"^{name} must be finite, got inf$"):
        load(_swapped(make(), path, json.loads("1e999")))


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("sort_keys", [False, True])
def test_to_json_writes_no_non_finite_number(value, sort_keys):
    # json would write Infinity or NaN, which are not JSON
    for doc in (value, [value], {"a": value}, {"a": [value]}, {"a": {"b": value}}):
        with pytest.raises(ValueError, match="not JSON compliant"):
            to_json(doc, sort_keys)


# ---------------------------------------------------------------------------
# the encoding: one line per top-level entry and per element of a top-level list


def _assert_one_line_each(text: str) -> dict:
    """Check that each top-level entry of the document `text`, and each
    element of a top-level list, is one line; returns the document."""
    doc = json.loads(text)
    lines = iter(text.splitlines())
    assert next(lines) == "{"
    for key, value in doc.items():  # in the text's order
        line = next(lines).strip().removesuffix(",")
        if type(value) is list and value:
            assert line == f"{json.dumps(key)}: ["
            for element in value:
                assert json.loads(next(lines).strip().removesuffix(",")) == element
            assert next(lines).strip().removesuffix(",") == "]"
        else:
            assert json.loads("{" + line + "}") == {key: value}
    assert next(lines) == "}"
    assert next(lines, None) is None and text.endswith("}\n")
    return doc


def test_plan_phase_per_line():
    plan = build_plan(Paradigm.path_switch(0.5), SPEC)
    doc = _assert_one_line_each(plan_to_json(plan))
    assert len(doc["phases"]) == len(plan.phases) == 8


def test_manifest_record_and_segment_per_line(tmp_path):
    doc = _manifest()
    doc["records"][1]["metrics"] = None
    save_manifest(manifest_from_dict(doc), tmp_path / "manifest.json")
    text = (tmp_path / "manifest.json").read_text(encoding="utf-8")
    assert _assert_one_line_each(text) == doc
    assert len(doc["records"]) == 3 and len(doc["segments"]) == 3


def test_report_entry_per_line(tmp_path):
    reports, per_seed = {}, [{v: EvalReport(30.0 + v + s, 3.4, 1991) for v in (1, 2, 3)} for s in (0, 1)]
    for kind in (Paradigm.ptfs(), Paradigm.path_switch(0.5)):
        reports[kind.label] = _write_report(build_plan(kind, SPEC), [0, 1], per_seed, tmp_path)
        assert _assert_one_line_each((tmp_path / "report.json").read_text(encoding="utf-8")) == reports[kind.label]
    write_json(tmp_path / "summary.json", reports)
    text = (tmp_path / "summary.json").read_text(encoding="utf-8")
    assert _assert_one_line_each(text) == reports
    assert len(text.splitlines()) == 2 + len(reports)


@pytest.mark.parametrize(
    "doc",
    [
        {}, [], "", None, 0.1, {"a": []}, {"a": {}}, {"a": [[]]}, [[], [[]]],
        {"a": [[], [[]], [1, [2, [3, []]]]], "b": [{}], "c": [None]},
        {"name": "naïve ☃", "ü": ["é", {"ß": [], "ø": "\u2028"}], "\u00e9": "line\nbreak"},
        {"z": 1, "a": {"y": [2, {"x": 3, "b": 4}], "c": None}, "m": [True, False]},
    ],
)
@pytest.mark.parametrize("sort_keys", [False, True])
def test_to_json_round_trip(doc, sort_keys):
    text = to_json(doc, sort_keys)
    assert json.loads(text) == doc and text.endswith("\n")
    if type(doc) is dict and doc:
        _assert_one_line_each(text)


def test_to_json_key_order():
    doc = {"z": {"b": 1, "a": 2}, "a": [{"d": 1, "c": 2}]}
    kept, ordered = json.loads(to_json(doc, False)), json.loads(to_json(doc, True))
    assert list(kept) == ["z", "a"] and list(kept["z"]) == ["b", "a"] and list(kept["a"][0]) == ["d", "c"]
    assert list(ordered) == ["a", "z"] and list(ordered["z"]) == ["a", "b"] and list(ordered["a"][0]) == ["c", "d"]
