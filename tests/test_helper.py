"""Leaf phases in a helper process, and the states `run_single` keeps.

A leaf phase is one that no later phase inits from.  `run_single` hands
the plan's `helper_phases` to an executor; the outputs must be the bytes
of a serial run.  `lrpath run` opens the helper itself when it has two
CPUs; these tests force it, so they also run on a machine with one.
"""

import dataclasses
import json
import multiprocessing
import os
import re
import weakref
from concurrent.futures import Executor, ProcessPoolExecutor

import numpy as np
import pytest

from lrpath import cli, trainer
from lrpath.errors import NonFiniteEval, NonFiniteUpdate
from lrpath.paradigm import (
    Paradigm,
    PathKind,
    ScheduleProfile,
    build_plan,
    build_two_stage_probe,
    parse_paradigm,
    uniform_spec,
)
from lrpath.schedule import INFINITE, ScheduleConfig, ScheduleKind
from lrpath.trainer import RunConfig, ToyModelConfig, helper_phases, run_single

SCHED = ScheduleConfig(ScheduleKind.COSINE, 1e-3, 1e-4, 3, INFINITE)
MODEL = {"vocab_size": 32, "context_len": 4, "embed_dim": 8, "hidden_dim": 16, "batch_size": 8}
RUN_CFG = RunConfig(model=ToyModelConfig(**MODEL), tokens_per_step=20, heldout_tokens=500)
SPAWN = multiprocessing.get_context("spawn")


class NoSubmit(Executor):
    def submit(self, fn, /, *args, **kwargs):
        raise AssertionError(f"submitted {args[0].phase_id}")


@pytest.mark.parametrize(
    "label, expected",
    [
        ("path_switch:0.6", {"v1-branch", "v2-branch", "v3-branch"}),
        ("path_switch:0.45", {"v1-branch", "v2-branch", "v3-branch"}),
        # 2 * (30 + 60) <= 300, while v3 would give the helper 180 of 300 steps
        ("ptfs", {"v1-scratch", "v2-scratch"}),
        ("cpt:reset_max", set()),
        ("cpt:keep_min", set()),
    ],
)
def test_helper_phases(label, expected):
    plan = build_plan(parse_paradigm(label), uniform_spec(4, 30, SCHED))
    assert helper_phases(plan) == expected


@pytest.mark.parametrize("label", ["cpt:reset_max", "cpt:rewarm_max", "probe"])
def test_no_leaf_submits_nothing(label):
    spec = uniform_spec(2, 20, SCHED)
    if label == "probe":
        plan = build_two_stage_probe(INFINITE, 20, 40, 20, spec)
    else:
        plan = build_plan(parse_paradigm(label), spec)
    assert helper_phases(plan) == frozenset()
    reports, _ = run_single(plan, RUN_CFG, 0, helper=NoSubmit())
    assert set(reports) == {1, 2}


def test_dead_states_dropped(monkeypatch):
    # a state lives until the last phase that inits from it has started, so
    # at most the input and the output of a main-path phase are alive
    main_states, alive = [], []
    train_phase = trainer.train_phase

    def tracking(model, phase, *args, **kwargs):
        out, trace = train_phase(model, phase, *args, **kwargs)
        if phase.path is PathKind.MAIN:
            main_states.append(weakref.ref(out))
        alive.append(sum(ref() is not None for ref in main_states))
        return out, trace

    monkeypatch.setattr(trainer, "train_phase", tracking)
    plan = build_plan(Paradigm.path_switch(0.6), uniform_spec(4, 20, SCHED))
    run_single(plan, RUN_CFG, 0)
    assert len(main_states) == 7
    assert max(alive) == 2


def test_helper_error_names_phase_and_step():
    # v1 diverges in the helper while v2 trains here
    plan = build_plan(Paradigm.ptfs(), uniform_spec(2, 20, SCHED))
    huge = ScheduleConfig(ScheduleKind.CONSTANT, 1e300, 1e300, 0, INFINITE)
    v1 = dataclasses.replace(plan.phases[0], lr_profile=ScheduleProfile(huge))
    plan = dataclasses.replace(plan, phases=(v1, plan.phases[1]))
    assert helper_phases(plan) == {"v1-scratch"}
    with ProcessPoolExecutor(max_workers=1, mp_context=SPAWN) as pool:
        with pytest.raises(NonFiniteUpdate, match=r"^phase v1-scratch, step \d+: "):
            run_single(plan, RUN_CFG, 0, helper=pool)


@pytest.mark.parametrize("label, phase", [("cpt:reset_max", "v2-cpt"), ("ptfs", "v1-scratch")])
def test_eval_overflow_names_phase(label, phase):
    # at lr 1e6 the held-out nll passes ~709, where exp() overflows; v2-cpt
    # is evaluated here, v1-scratch in the helper
    plan = build_plan(parse_paradigm(label), uniform_spec(2, 20, SCHED))
    big = ScheduleConfig(ScheduleKind.CONSTANT, 1e6, 1e6, 0, INFINITE)
    phases = [
        dataclasses.replace(p, lr_profile=ScheduleProfile(big)) if p.phase_id == phase else p
        for p in plan.phases
    ]
    plan = dataclasses.replace(plan, phases=tuple(phases))
    assert helper_phases(plan) == ({phase} if label == "ptfs" else set())
    message = rf"^phase {phase}: held-out nll \S+ has no finite perplexity$"
    with ProcessPoolExecutor(max_workers=1, mp_context=SPAWN) as pool:
        with pytest.raises(NonFiniteEval, match=message):
            run_single(plan, RUN_CFG, 0, helper=pool)


def run_config(tmp_path, **overrides):
    cfg = {
        "paradigms": ["ptfs", "cpt:reset_max", "path_switch:0.6", "path_switch:0.45"],
        "num_versions": 4,
        # 0.45 * 30 = 13.5: the fast decay takes 13 steps, the main path 17
        "steps_per_version": 30,
        "schedule": {"kind": "cosine", "eta_max": 1e-3, "eta_min": 1e-4, "warmup_steps": 3},
        "seeds": [0, 1],
        "model": MODEL,
        "tokens_per_step": 20,
        "heldout_tokens": 500,
        "log_stride": 7,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_run_output_identical_with_helper(tmp_path, monkeypatch):
    submitted = []

    class Recording(ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            if fn is trainer._train_leaf:
                phase, heldout, out_dir = args[0], args[-2], args[-1]
                run = (out_dir.parent.name, out_dir.name)
                # every task carries the run's held-out array
                assert isinstance(heldout, np.ndarray)
                assert len(heldout) == 500
                submitted.append((*run, phase.phase_id))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recording)
    cfg = run_config(tmp_path)
    trees = []
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_available_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        assert multiprocessing.active_children() == []
        trees.append({
            str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()
        })
    assert "path_switch-0.45/seed1/ckpt/v3-branch_final.bin" in trees[0]
    assert not [name for name in trees[1] if name.endswith(".tmp")]
    assert trees[0] == trees[1]
    branches = ["v1-branch", "v2-branch", "v3-branch"]
    expected = {
        (label, f"seed{seed}", phase)
        for seed in (0, 1)
        for label, phases in [("ptfs", ["v1-scratch", "v2-scratch"]),
                              ("path_switch-0.6", branches), ("path_switch-0.45", branches)]
        for phase in phases
    }
    assert sorted(submitted) == sorted(expected)


def test_run_failure_leaves_no_process(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
    schedule = {"kind": "constant", "eta_max": 1e300, "eta_min": 1e300, "warmup_steps": 0}
    cfg = run_config(tmp_path, paradigms=["ptfs"], seeds=[0], schedule=schedule)
    with np.errstate(all="ignore"):
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert multiprocessing.active_children() == []
    err = capsys.readouterr().err
    assert err.startswith("run failed: phase v") and ", step " in err


def test_eval_overflow_fails_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
    schedule = {"kind": "cosine", "eta_max": 1e6, "eta_min": 1e-4, "warmup_steps": 3}
    cfg = run_config(tmp_path, paradigms=["path_switch:0.6"], seeds=[0], schedule=schedule)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert multiprocessing.active_children() == []
    err = capsys.readouterr().err
    assert re.fullmatch(r"run failed: phase v\d-branch: held-out nll \S+ has no finite perplexity\n", err)


def test_helper_death_fails_run(tmp_path, capsys, monkeypatch):
    # a helper that dies (killed, out of memory) breaks its pool
    class Dying(ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            if fn is trainer._train_leaf:
                return super().submit(os._exit, 1)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Dying)
    monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
    cfg = run_config(tmp_path, paradigms=["path_switch:0.6"], seeds=[0])
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert multiprocessing.active_children() == []
    assert capsys.readouterr().err.startswith("run failed: ")
