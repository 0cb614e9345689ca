"""The CLI parser is built once per process, by the first `main` call, and
reused by every later call.

What users see is pinned here: the help of `lrpath` and of each command,
and the full stderr of every usage error in `test_cli.USAGE_ERRORS`.  A
reused parser must give the same exit code and text again, in any order of
calls, so it carries no state from one call to the next.  The texts are
argparse's at a terminal width of 80 columns.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lrpath
from lrpath import cli, trainer
from lrpath.cli import main
from lrpath.errors import LrPathError
from test_cli import USAGE_ERRORS

SRC = Path(lrpath.__file__).resolve().parents[1]

HELP = {
    (): """\
usage: lrpath [-h] {schedule,cost,plan,run,compare} ...

Learning-rate path-switching: schedules, plans, costs, experiments.

positional arguments:
  {schedule,cost,plan,run,compare}
    schedule            dump an LR curve as CSV
    cost                print paradigm cost table
    plan                compile a training plan to JSON
    run                 execute experiments from a JSON config
    compare             merge reports into a comparison table

options:
  -h, --help            show this help message and exit
""",
    ("schedule",): """\
usage: lrpath schedule [-h] [--kind {cosine,knee,multistep,constant}]
                       [--max-lr MAX_LR] [--min-lr MIN_LR] [--warmup WARMUP]
                       [--horizon HORIZON] [--from FRM] [--to TO]
                       [--stride STRIDE] [--out OUT]

options:
  -h, --help            show this help message and exit
  --kind {cosine,knee,multistep,constant}
  --max-lr MAX_LR
  --min-lr MIN_LR
  --warmup WARMUP
  --horizon HORIZON
  --from FRM
  --to TO
  --stride STRIDE
  --out OUT
""",
    ("cost",): """\
usage: lrpath cost [-h] --versions VERSIONS [--steps STEPS] [--alpha ALPHA]
                   [--format {text,csv}]

options:
  -h, --help           show this help message and exit
  --versions VERSIONS
  --steps STEPS
  --alpha ALPHA
  --format {text,csv}
""",
    ("plan",): """\
usage: lrpath plan [-h] --paradigm PARADIGM --versions VERSIONS --steps STEPS
                   [--seed SEED] [--kind {cosine,knee,multistep,constant}]
                   [--max-lr MAX_LR] [--min-lr MIN_LR] [--warmup WARMUP]
                   [--horizon HORIZON] [--out OUT]

options:
  -h, --help            show this help message and exit
  --paradigm PARADIGM
  --versions VERSIONS
  --steps STEPS         steps per version, or comma list
  --seed SEED
  --kind {cosine,knee,multistep,constant}
  --max-lr MAX_LR
  --min-lr MIN_LR
  --warmup WARMUP
  --horizon HORIZON
  --out OUT
""",
    ("run",): """\
usage: lrpath run [-h] [--out OUT] [--jobs JOBS] config

positional arguments:
  config

options:
  -h, --help   show this help message and exit
  --out OUT    output directory (default: the current one)
  --jobs JOBS  training processes
""",
    ("compare",): """\
usage: lrpath compare [-h] [--format {text,csv}] reports [reports ...]

positional arguments:
  reports

options:
  -h, --help           show this help message and exit
  --format {text,csv}
""",
}


def usage(command: str) -> str:
    """The usage lines of a command, as its help begins with them."""
    return HELP[(command,)].split("\n\n")[0] + "\n"


# the stderr of each USAGE_ERRORS case, with "{report}" for the report's path
USAGE_ERROR_TEXT = {
    "unknown_paradigm": "error: unknown paradigm 'adamw'\n",
    "path_switch_without_alpha": "error: path_switch requires an alpha, e.g. path_switch:0.6\n",
    "unknown_cpt_variant": "error: paradigm 'cpt:x': 'x' is not a valid CptVariant\n",
    "bad_steps": usage("plan") + "lrpath plan: error: argument --steps: expected an integer or "
                                 "a comma list of integers, got '100,a'\n",
    "bad_horizon": usage("schedule") + "lrpath schedule: error: argument --horizon: expected an "
                                       "integer or inf, got 'abc'\n",
    "stride_zero": "error: stride must be >= 1, got 0\n",
    "from_after_to": "error: start (5) must not exceed stop (3)\n",
    "inverse_sqrt_kind": usage("schedule") + "lrpath schedule: error: argument --kind: invalid "
                                             "choice: 'inverse_sqrt' (choose from 'cosine', "
                                             "'knee', 'multistep', 'constant')\n",
    "not_a_report": "cannot read report: malformed report {report}: ptfs: expected an object, got 1\n",
    "jobs_zero": usage("run") + "lrpath run: error: argument --jobs: expected a positive integer, "
                                "got '0'\n",
    "jobs_negative": usage("run") + "lrpath run: error: argument --jobs: expected a positive "
                                    "integer, got '-1'\n",
    "jobs_not_int": usage("run") + "lrpath run: error: argument --jobs: expected a positive "
                                   "integer, got 'two'\n",
}

PLAN = ["plan", "--paradigm", "path_switch:0.6", "--versions", "3", "--steps", "100",
        "--warmup", "10"]
COST = ["cost", "--versions", "4"]


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.fixture
def report(tmp_path) -> str:
    """The file that USAGE_ERRORS puts in place of "{report}"."""
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"ptfs": 1}))
    return str(path)


def call(capsys, argv) -> tuple[int, str, str]:
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.mark.parametrize("command", HELP, ids=lambda c: " ".join(c) or "lrpath")
def test_help_text(capsys, command):
    assert call(capsys, [*command, "--help"]) == (0, HELP[command], "")


@pytest.mark.parametrize("name", USAGE_ERRORS)
def test_usage_error_text(capsys, report, name):
    argv, _ = USAGE_ERRORS[name]
    want = USAGE_ERROR_TEXT[name].replace("{report}", report)
    assert call(capsys, [a.format(report=report) for a in argv]) == (2, "", want)


def test_reused_parser_gives_the_first_text_again(capsys, report):
    cli._parser.cache_clear()
    invocations = [[*command, "--help"] for command in HELP]
    invocations += [[a.format(report=report) for a in argv] for argv, _ in USAGE_ERRORS.values()]
    first = [call(capsys, argv) for argv in invocations]
    for order in (reversed(range(len(invocations))), range(len(invocations))):
        assert call(capsys, PLAN)[0] == 0
        assert call(capsys, COST)[0] == 0
        for i in order:
            assert call(capsys, invocations[i]) == first[i], invocations[i]


@pytest.fixture
def constructions(monkeypatch):
    """Every ArgumentParser constructed while the test runs, from an empty
    parser cache."""
    cli._parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_one_parser_tree_per_process(capsys, report, constructions):
    invocations = [PLAN, COST, ["schedule", "--to", "3"], ["--help"], ["plan", "--help"],
                   ["compare", report], ["run", report, "--jobs", "0"]]
    for argv in invocations * 3:
        main(argv)
    # the top-level parser and one per command
    assert constructions == ["lrpath"] + [f"lrpath {c}" for (c,) in list(HELP)[1:]]


def test_import_builds_no_parser(tmp_path):
    code = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(self) or init(self, *a, **k)
import lrpath.cli
print(len(built))
"""
    assert python(["-c", code], tmp_path).stdout == "0\n"


def test_command_looked_up_per_call(capsys, monkeypatch):
    # a wrapper put on a command after the parser is built still runs, as
    # a tracer's would
    assert call(capsys, COST)[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_cost", lambda args: seen.append(args.versions) or 0)
    assert call(capsys, COST) == (0, "", "")
    assert seen == [4]


def test_jobs_default_read_per_run(tmp_path, capsys, monkeypatch):
    config = {
        "paradigms": ["ptfs"], "num_versions": 1, "steps_per_version": 10,
        "schedule": {"kind": "cosine", "eta_max": 1e-3, "eta_min": 1e-4, "warmup_steps": 2},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    workers = []

    def run_all(jobs, run_cfg, n):
        workers.append(n)
        raise LrPathError("stopped before training")

    monkeypatch.setattr(trainer, "run_all", run_all)
    argv = ["run", str(path), "--out", str(tmp_path / "out")]
    for cpus in (3, 5):
        monkeypatch.setattr(cli, "_available_cpus", lambda n=cpus: n)
        assert call(capsys, argv) == (1, "", "run failed: stopped before training\n")
    assert call(capsys, [*argv, "--jobs", "2"])[0] == 1
    assert workers == [3, 5, 2]


def python(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's lrpath."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, COLUMNS="80")
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


@pytest.mark.parametrize("argv", [PLAN, COST], ids=["plan", "cost"])
def test_module_entry_prints_what_main_prints(tmp_path, capsys, argv):
    # `python -m lrpath.cli` runs `entry()`, which parses sys.argv, as the
    # installed `lrpath` script does
    proc = python(["-m", "lrpath.cli", *argv], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == call(capsys, argv)
    assert proc.returncode == 0 and proc.stdout


def test_entry_parses_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["lrpath", *COST])
    with pytest.raises(SystemExit) as exit_:
        cli.entry()
    assert exit_.value.code == 0
    assert capsys.readouterr() == call(capsys, COST)[1:]
