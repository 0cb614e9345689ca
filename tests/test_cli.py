import json
import sys
from contextlib import contextmanager

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrpath import cli, lineage
from lrpath.cli import main, parse_paradigm
from lrpath.errors import InvalidSpec
from lrpath.paradigm import CptVariant, Paradigm
from lrpath.trainer import run_config_from_dict


class TestParseParadigm:
    def test_ptfs(self):
        assert parse_paradigm("ptfs") == Paradigm.ptfs()

    def test_cpt_variants(self):
        assert parse_paradigm("cpt:reset_max") == Paradigm.cpt(CptVariant.RESET_MAX)
        assert parse_paradigm("cpt:rewarm-max") == Paradigm.cpt(CptVariant.REWARM_MAX)

    def test_path_switch(self):
        p = parse_paradigm("path_switch:0.6")
        assert p.family == "path_switch" and p.alpha == 0.6

    def test_garbage(self):
        with pytest.raises(InvalidSpec):
            parse_paradigm("adamw")

    @pytest.mark.parametrize("alpha, label", [
        (0, "path_switch:0"), (0.45, "path_switch:0.45"), (0.6, "path_switch:0.6"),
        (1, "path_switch:1"), (0.123456789, "path_switch:0.123456789"),
        (0.6000001, "path_switch:0.6000001"),
    ])
    def test_label_round_trips(self, alpha, label):
        # a label names the alpha that trains, in reports and directory names
        p = Paradigm.path_switch(alpha)
        assert p.label == label
        assert parse_paradigm(p.label) == p

    @given(st.floats(0.0, 1.0))
    def test_any_alpha_label_round_trips(self, alpha):
        p = Paradigm.path_switch(alpha)
        assert parse_paradigm(p.label) == p

    def test_close_alphas_are_distinct_paradigms(self):
        texts = ["path_switch:0.6000001", "path_switch:0.6"]
        paradigms, *_ = run_config_from_dict({
            "paradigms": texts, "num_versions": 2, "steps_per_version": 30,
            "schedule": {"kind": "cosine", "eta_max": 1e-3, "eta_min": 1e-4, "warmup_steps": 5},
        })
        assert [p.label for p in paradigms] == texts


PLAN_ARGS = ["--versions", "2", "--warmup", "10"]
USAGE_ERRORS = {
    "unknown_paradigm": (["plan", "--paradigm", "adamw", "--steps", "100", *PLAN_ARGS],
                         "unknown paradigm 'adamw'"),
    "path_switch_without_alpha": (["plan", "--paradigm", "path_switch", "--steps", "100", *PLAN_ARGS],
                                  "requires an alpha"),
    "unknown_cpt_variant": (["plan", "--paradigm", "cpt:x", "--steps", "100", *PLAN_ARGS],
                            "paradigm 'cpt:x'"),
    "bad_steps": (["plan", "--paradigm", "ptfs", "--steps", "100,a", *PLAN_ARGS],
                  "argument --steps"),
    "bad_horizon": (["schedule", "--horizon", "abc"], "argument --horizon"),
    "stride_zero": (["schedule", "--stride", "0"], "error: stride must be >= 1, got 0"),
    "from_after_to": (["schedule", "--from", "5", "--to", "3"],
                      "error: start (5) must not exceed stop (3)"),
    # inverse_sqrt was a kind once; it had no decay shape and no run used it
    "inverse_sqrt_kind": (["schedule", "--kind", "inverse_sqrt"],
                          "argument --kind: invalid choice: 'inverse_sqrt'"),
    "not_a_report": (["compare", "{report}"], "cannot read report"),
    "jobs_zero": (["run", "{report}", "--jobs", "0"], "argument --jobs: expected a positive integer"),
    "jobs_negative": (["run", "{report}", "--jobs", "-1"], "argument --jobs"),
    "jobs_not_int": (["run", "{report}", "--jobs", "two"], "argument --jobs"),
}


@pytest.mark.parametrize("argv, message", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_usage_error_exits_2(tmp_path, capsys, argv, message):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"ptfs": 1}))
    assert main([a.format(report=report) for a in argv]) == 2
    assert message in capsys.readouterr().err


class TestSchedule:
    def rows(self, capsys, *flags) -> list[tuple[int, float]]:
        assert main(["schedule", *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "step,lr"
        return [(int(step), float(lr)) for step, lr in (line.split(",") for line in lines[1:])]

    def test_endpoints(self, capsys):
        rows = self.rows(capsys, "--stride", "2000")
        assert [step for step, _ in rows] == [0, 2000, 4000, 6000, 8000, 10_000]
        assert rows[0] == (0, 0.0)
        assert abs(rows[-1][1] - 3e-5) / 3e-5 < 1e-12

    def test_degenerate_stride(self, capsys):
        # a stride longer than the range samples its start only
        rows = self.rows(capsys, "--from", "3000", "--to", "4000", "--stride", "5000")
        assert [step for step, _ in rows] == [3000]

    def test_constant_plateau(self, capsys):
        flags = ["--kind", "constant", "--horizon", "inf", "--from", "2000", "--to", "4000"]
        rows = self.rows(capsys, *flags, "--stride", "1000")
        assert [lr for _, lr in rows] == [3e-4] * 3

    def test_csv_format(self, capsys):
        assert main(["schedule", "--to", "4000", "--stride", "2000"]) == 0
        lines = capsys.readouterr().out.split("\n")
        assert lines[:2] == ["step,lr", "0,0"]
        # >= 10 significant digits survive round-tripping
        step, lr = lines[2].split(",")
        assert step == "2000"
        assert float(lr) == 3e-4

    def test_csv_endpoints(self, capsys):
        rc = main(["schedule", "--kind", "cosine", "--warmup", "2000"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "step,lr"
        assert lines[1] == "0,0"
        assert lines[-1] == "10000,3e-05"

    def test_stride_and_out(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        rc = main(
            ["schedule", "--kind", "knee", "--warmup", "100", "--horizon", "1000",
             "--stride", "100", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 12  # header + 11 sampled steps
        assert lines[1].startswith("0,")

    def test_inverted_lrs_usage_error(self, capsys):
        rc = main(["schedule", "--kind", "cosine", "--max-lr", "1e-5", "--min-lr", "1e-4"])
        assert rc == 2
        assert "error" in capsys.readouterr().err.lower()

    def test_infinite_requires_to(self, capsys):
        rc = main(["schedule", "--kind", "constant", "--horizon", "inf"])
        assert rc == 2
        rc = main(["schedule", "--kind", "constant", "--horizon", "inf", "--to", "5000"])
        assert rc == 0


@pytest.mark.parametrize("argv", [
    ["plan", "--paradigm", "ptfs", "--versions", "1", "--steps", "50", "--warmup", "5",
     "--max-lr", "inf", "--horizon", "inf", "--out", "{out}"],
    ["schedule", "--max-lr", "inf", "--to", "2"],
    ["schedule", "--max-lr", "inf", "--min-lr", "inf", "--to", "2", "--out", "{out}"],
    ["run", "{config}", "--out", "{out}"],
], ids=["plan", "schedule", "schedule_out", "run"])
def test_infinite_rate_exits_2(tmp_path, capsys, argv):
    # a run config of 1e999, which json reads as inf
    config = tmp_path / "config.json"
    config.write_text('{"paradigms": ["ptfs"], "num_versions": 1, "steps_per_version": 10, '
                      '"schedule": {"kind": "cosine", "eta_max": 1e999, "eta_min": 1e-4}}')
    out = tmp_path / "out"
    assert main([a.format(config=config, out=out) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("eta_max must be finite, got inf\n")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


class TestCost:
    def test_csv_values(self, capsys):
        rc = main(["cost", "--versions", "4", "--steps", "10000", "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[1] == "ptfs,4,10000,100000,1.00"
        assert lines[2] == "cpt:reset_max,4,10000,40000,0.40"
        assert lines[3] == "path_switch:0.6,4,10000,58000,0.58"

    def test_bad_versions(self, capsys):
        assert main(["cost", "--versions", "0"]) == 2


class TestRendering:
    def table(self, capsys, fmt):
        assert main(["cost", "--versions", "4", "--steps", "10000", "--format", fmt]) == 0
        return capsys.readouterr().out

    def test_csv(self, capsys):
        lines = self.table(capsys, "csv").strip().split("\n")
        assert lines[0] == "paradigm,N_v,T,steps,relative"
        assert lines[1] == "ptfs,4,10000,100000,1.00"
        assert lines[3].endswith("58000,0.58")

    def test_text_alignment(self, capsys):
        assert self.table(capsys, "text") == (
            "paradigm         N_v  T      steps   relative\n"
            "---------------  ---  -----  ------  --------\n"
            "ptfs             4    10000  100000  1.00    \n"
            "cpt:reset_max    4    10000  40000   0.40    \n"
            "path_switch:0.6  4    10000  58000   0.58    \n"
        )


class TestPlan:
    def test_json_output(self, capsys):
        rc = main(
            ["plan", "--paradigm", "path_switch:0.6", "--versions", "4",
             "--steps", "10000", "--warmup", "2000"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["phases"]) == 11
        assert doc["paradigm"]["alpha"] == 0.6
        assert sum(ph["num_steps"] for ph in doc["phases"]) == 58_000

    def test_comma_steps(self, capsys):
        rc = main(
            ["plan", "--paradigm", "cpt:reset_max", "--versions", "3",
             "--steps", "300,200,100", "--warmup", "50"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert [ph["num_steps"] for ph in doc["phases"]] == [300, 200, 100]

    def test_alpha_zero_usage_error(self, capsys):
        rc = main(
            ["plan", "--paradigm", "path_switch:0.0", "--versions", "2",
             "--steps", "100", "--warmup", "10"]
        )
        assert rc == 2

    def test_unlistable_versions_usage_error(self, capsys, tmp_path):
        # 10**17 versions: the per-version tuple would take 8e17 bytes, so its
        # allocation fails at once (a smaller count might really allocate)
        out = tmp_path / "plan.json"
        rc = main(
            ["plan", "--paradigm", "ptfs", "--versions", str(10**17), "--steps", "1",
             "--warmup", "0", "--out", str(out)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: num_versions 100000000000000000 is more versions than memory can hold\n"
        assert not out.exists()


def run_config(tmp_path, **overrides):
    cfg = {
        "paradigms": ["path_switch:0.5"],
        "num_versions": 2,
        "steps_per_version": 30,
        "schedule": {"kind": "cosine", "eta_max": 1e-3, "eta_min": 1e-4, "warmup_steps": 5},
        "seeds": [0],
        "model": {
            "vocab_size": 32, "context_len": 4, "embed_dim": 8,
            "hidden_dim": 16, "batch_size": 8,
        },
        "tokens_per_step": 40,
        "heldout_tokens": 2000,
        "log_stride": 10,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestRun:
    def test_deterministic_reports(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg = run_config(tmp_path)
            assert main(["run", str(cfg), "--out", str(out)]) == 0
            report = out / "path_switch-0.5" / "report.json"
            outs.append(report.read_bytes())
        assert outs[0] == outs[1]

    def test_report_content(self, tmp_path):
        out = tmp_path / "out"
        cfg = run_config(tmp_path)
        main(["run", str(cfg), "--out", str(out)])
        doc = json.loads((out / "path_switch-0.5" / "report.json").read_text())
        assert doc["seeds"] == [0]
        assert set(doc["versions"]) == {"1", "2"}
        for entry in doc["versions"].values():
            assert entry["mean_ppl"] > 1.0

    def test_missing_corpus_file(self, tmp_path):
        cfg = run_config(tmp_path, corpus_file=str(tmp_path / "nope.bin"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("held", [3, 4399])
    def test_corpus_file_size_checked_at_load(self, tmp_path, capsys, held):
        # the run needs 2000 held-out tokens plus 40 tokens x 2 x 30 steps
        path, out = tmp_path / "corpus.bin", tmp_path / "o"
        path.write_bytes(bytes(held))
        cfg = run_config(tmp_path, corpus_file=str(path))
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"invalid config: corpus file {str(path)!r} holds {held} bytes, need 4400\n"
        assert not out.exists()

    def test_corpus_file_of_the_needed_size_runs(self, tmp_path):
        path = tmp_path / "corpus.bin"
        path.write_bytes((bytes(range(256)) * 20)[:4400])
        cfg = run_config(tmp_path, corpus_file=str(path))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0

    UNINDEXABLE = f"the run needs more corpus tokens than an array can index ({sys.maxsize})"

    @pytest.mark.parametrize(
        "override, message",
        [({"num_versions": 1e300}, UNINDEXABLE),
         ({"num_versions": 1e300, "steps_per_version": 0}, UNINDEXABLE),
         ({"steps_per_version": 1e300}, UNINDEXABLE),
         ({"steps_per_version": [1e300, 30]}, UNINDEXABLE),
         # an indexable corpus of 1e17 + 2000 tokens, but a per-version step
         # tuple of 8e17 bytes, more than any address space holds
         ({"num_versions": 1e17, "steps_per_version": 1, "tokens_per_step": 1},
          "num_versions 100000000000000000 is more versions than memory can hold")],
        ids=["num_versions", "num_versions_no_steps", "steps_per_version", "steps_list",
             "num_versions_unlistable"],
    )
    def test_unindexable_run(self, tmp_path, capsys, override, message):
        # the corpus would have more tokens than an array can index, or the
        # versions more entries than memory holds
        out = tmp_path / "o"
        assert main(["run", str(run_config(tmp_path, **override)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"invalid config: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "override",
        [{"tokens_per_step": 0}, {"log_stride": 0}, {"heldout_tokens": 4},
         {"schedule": "cosine"}, {"model": {"dtype": "float16"}},
         {"model": {"hidden_dim": 16.5}}, {"model": {"batch_size": True}},
         {"heldout_tokens": 2000.5}, {"tokens_per_step": True}, {"steps_per_version": 30.5},
         {"steps_per_version": [30, 30.5]}, {"num_versions": 2.5}, {"seeds": [0.5]},
         {"log_stride": "10"},
         {"schedule": {"kind": "cosine", "eta_max": 1e-3, "eta_min": 1e-4, "warmup_steps": 5.5}},
         {"schedule": {"kind": "cosine", "eta_max": 1e-3, "eta_min": 1e-4, "horizon": 100.5}}],
        ids=["tokens_per_step", "log_stride", "heldout_one_token_short",
             "string_schedule", "model_dtype", "model_fraction", "model_bool",
             "heldout_fraction", "bool_count", "steps_fraction", "steps_list_fraction",
             "versions_fraction", "seed_fraction", "string_count", "warmup_fraction",
             "horizon_fraction"],
    )
    def test_bad_run_config(self, tmp_path, capsys, override):
        # heldout_tokens 4 is the context length: one token short of a window
        out = tmp_path / "o"
        cfg = run_config(tmp_path, **override)
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert "invalid config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "override, message",
        [({"seeds": []}, "at least one seed is required"),
         ({"seeds": [-1]}, "seed -1 lies outside [0, 2**64)"),
         ({"seeds": [2**64]}, f"seed {2**64} lies outside [0, 2**64)"),
         ({"seeds": [0, 1, 0]}, "seed 0 is listed more than once"),
         ({"paradigms": ["ptfs", "ptfs"]}, "paradigm 'ptfs' is listed more than once: 'ptfs', 'ptfs'"),
         ({"paradigms": ["cpt", "cpt:reset_max"]},
          "paradigm 'cpt:reset_max' is listed more than once: 'cpt', 'cpt:reset_max'")],
        ids=["no_seeds", "negative_seed", "seed_too_large", "repeated_seed", "repeated_paradigm",
             "repeated_label"],
    )
    def test_seeds_and_repeats_rejected(self, tmp_path, capsys, override, message):
        # each seed and paradigm names an output directory, and a payload
        # header holds a seed in 64 bits
        out = tmp_path / "o"
        cfg = run_config(tmp_path, **override)
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert f"invalid config: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_inverse_sqrt_kind_rejected(self, tmp_path, capsys):
        schedule = {"kind": "inverse_sqrt", "eta_max": 1e-3, "eta_min": 1e-4, "warmup_steps": 5}
        out = tmp_path / "o"
        assert main(["run", str(run_config(tmp_path, schedule=schedule)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid config: malformed run config: schedule.kind: ")
        assert "'inverse_sqrt'" in err
        assert not out.exists()

    @pytest.mark.parametrize("eta_max", [1000, 1e6, 1e12])
    def test_eval_overflow_fails_run(self, tmp_path, capsys, eta_max):
        # the held-out nll passes ~709, past which exp() overflows a float
        schedule = {"kind": "cosine", "eta_max": eta_max, "eta_min": 1e-4, "warmup_steps": 3}
        cfg = run_config(tmp_path, paradigms=["cpt:reset_max"], schedule=schedule)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("run failed: phase v1-scratch: held-out nll ")
        assert err.endswith(" has no finite perplexity\n")

    def test_large_lr_runs_through(self, tmp_path):
        schedule = {"kind": "cosine", "eta_max": 10, "eta_min": 1e-4, "warmup_steps": 3}
        cfg = run_config(tmp_path, paradigms=["cpt:reset_max"], schedule=schedule)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_integral_floats_load(self, tmp_path):
        # JSON writers may emit 2e3 for 2000; the run is the same
        model = json.loads(run_config(tmp_path).read_text())["model"]
        floats = {
            "num_versions": 2.0, "steps_per_version": 3e1, "heldout_tokens": 2e3,
            "tokens_per_step": 40.0, "seeds": [0.0], "model": {**model, "hidden_dim": 16.0},
        }
        outs = []
        for name, overrides in (("ints", {}), ("floats", floats)):
            cfg = run_config(tmp_path, **overrides)
            assert main(["run", str(cfg), "--out", str(tmp_path / name)]) == 0
            outs.append((tmp_path / name / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_out_defaults_to_cwd(self, tmp_path, monkeypatch):
        cfg = run_config(tmp_path)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["run", str(cfg)]) == 0
        assert (cwd / "report.json").exists()
        assert (cwd / "path_switch-0.5" / "seed0" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "key, value", [("log_strid", 10), ("out_dir", "elsewhere"), ("seed", 7)]
    )
    def test_unknown_key_rejected(self, tmp_path, capsys, key, value):
        # a misspelt key would otherwise run with the default; "out_dir" and
        # "seed" were read by earlier versions
        out = tmp_path / "o"
        cfg = run_config(tmp_path, **{key: value})
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "invalid config" in err and repr(key) in err
        assert not out.exists()

    def test_float64_model(self, tmp_path):
        # the model object goes to ToyModelConfig as it is
        model = json.loads(run_config(tmp_path).read_text())["model"]
        reports = []
        for dtype in ("float32", "float64"):
            cfg = run_config(tmp_path, model={**model, "dtype": dtype})
            assert main(["run", str(cfg), "--out", str(tmp_path / dtype)]) == 0
            reports.append((tmp_path / dtype / "report.json").read_bytes())
        assert reports[0] != reports[1]

    def test_jobs_output_identical(self, tmp_path):
        # the pool changes where paradigms run, not a byte of what they write
        cfg = run_config(tmp_path, paradigms=["ptfs", "path_switch:0.5"], seeds=[0, 1])
        trees = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["run", str(cfg), "--out", str(out), "--jobs", jobs]) == 0
            trees.append({
                str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()
            })
        assert "report.json" in trees[0] and "ptfs/seed1/manifest.json" in trees[0]
        assert trees[0] == trees[1]

    def test_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('["paradigms"]')
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "invalid config: a run config is a JSON object, not list" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2


class TestCompare:
    def test_table(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = run_config(tmp_path, paradigms=["cpt:reset_max", "path_switch:0.5"])
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()  # drain the run command's own output
        reports = sorted(str(p) for p in out.glob("*/report.json"))
        assert len(reports) == 2
        rc = main(["compare", *reports, "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("paradigm,")
        assert len(lines) == 3


class HalfWrite:
    """A file handle that writes half of the text it is given, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError("no space left on device")


@pytest.mark.parametrize("argv", [
    ["schedule", "--warmup", "10", "--horizon", "100"],
    ["plan", "--paradigm", "path_switch:0.6", "--versions", "2", "--steps", "100", "--warmup", "10"],
])
def test_out_file_replaced_whole_or_not_at_all(argv, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out.txt"
    out.write_text("old")

    @contextmanager
    def failing(path, mode):
        with lineage.atomic_open(path, mode) as fh:
            yield HalfWrite(fh)

    monkeypatch.setattr(cli, "atomic_open", failing)
    assert main(argv + ["--out", str(out)]) == 1
    assert "no space left on device" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    assert out.read_text() == "old"
    monkeypatch.undo()
    assert main(argv + ["--out", str(out)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    assert out.read_text() != "old"
