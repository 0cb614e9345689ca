"""Phases in helper processes, and the states `run_single` keeps.

`run_all` schedules every phase of a run config: this process trains the
highest-ranked ready phase, and spawned helper processes train the next
ones.  A leaf phase is one that no later phase inits from.  The outputs
must be the bytes of `run_single`, the serial reference, at any worker
count.
"""

import dataclasses
import json
import multiprocessing
import os
import re
import weakref
from concurrent.futures import Executor, Future

import numpy as np
import pytest

from lrpath import cli, trainer
from lrpath.errors import NonFiniteEval, NonFiniteUpdate, PlanViolation
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
from lrpath.trainer import RunConfig, ToyModelConfig, run_all, run_single

SCHED = ScheduleConfig(ScheduleKind.COSINE, 1e-3, 1e-4, 3, INFINITE)
MODEL = {"vocab_size": 32, "context_len": 4, "embed_dim": 8, "hidden_dim": 16, "batch_size": 8}
RUN_CFG = RunConfig(model=ToyModelConfig(**MODEL), tokens_per_step=20, heldout_tokens=500)


class NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("constructed a process pool")


class Inline(Executor):
    """A process pool stand-in that runs each task at once, in this process,
    and records the pools made, the phases submitted and the states sent
    back."""

    made: list = []

    def __init__(self, max_workers, mp_context=None):
        self.max_workers, self._executor_manager_thread = max_workers, None
        self.phases, self.states, self.shutdowns = [], [], []
        Inline.made.append(self)

    def submit(self, fn, /, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        if fn is trainer._run_phase:
            self.phases.append(args[0].phase_id)
            self.states.append(future.result()[2])
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shutdowns.append(wait)


@pytest.fixture
def inline(monkeypatch):
    Inline.made = []
    monkeypatch.setattr(trainer, "_start_pool", Inline)
    return Inline.made


@pytest.mark.parametrize("label", ["cpt:reset_max", "cpt:rewarm_max", "probe"])
def test_no_leaf_submits_nothing(label, monkeypatch):
    # a plan that is one chain has one leaf, its last phase, so even with
    # workers to spare this process trains it all
    spec = uniform_spec(2, 20, SCHED)
    if label == "probe":
        plan = build_two_stage_probe(INFINITE, 20, 40, 20, spec)
    else:
        plan = build_plan(parse_paradigm(label), spec)
    monkeypatch.setattr(trainer, "_start_pool", NoPool)
    [(reports, _)] = run_all([(plan, 0, None)], RUN_CFG, 4)
    assert set(reports) == {1, 2}


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_setup_leaves_nothing(workers, tmp_path, monkeypatch):
    # every job is set up before the pool starts or a file is written, so a
    # later job that fails its gate stops the run with neither
    started = []
    monkeypatch.setattr(trainer, "_start_pool", lambda n: started.append(n) or Inline(n))
    plan = build_plan(Paradigm.path_switch(0.6), uniform_spec(2, 20, SCHED))
    phases = list(plan.phases)
    phases[1] = dataclasses.replace(phases[1], init_from="nowhere")
    bad = dataclasses.replace(plan, phases=tuple(phases))
    jobs = [(plan, 0, tmp_path / "a"), (bad, 0, tmp_path / "b")]
    with pytest.raises(PlanViolation):
        run_all(jobs, RUN_CFG, workers)
    assert started == []
    assert list(tmp_path.iterdir()) == []


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


def test_placement(inline, monkeypatch):
    # the main path ranks first, so it trains here; each branch but the last
    # goes to the one helper, which sends back no state
    trained = []
    train_phase = trainer.train_phase

    def tracking(model, phase, *args, **kwargs):
        trained.append(phase.phase_id)
        return train_phase(model, phase, *args, **kwargs)

    monkeypatch.setattr(trainer, "train_phase", tracking)
    plan = build_plan(Paradigm.path_switch(0.6), uniform_spec(4, 30, SCHED))
    [(reports, manifest)] = run_all([(plan, 0, None)], RUN_CFG, 2)
    [pool] = inline
    assert pool.max_workers == 1
    assert pool.phases == ["v1-branch", "v2-branch", "v3-branch"]
    assert pool.states == [None, None, None]
    here = [pid for pid in trained if pid not in pool.phases]
    assert here == [p.phase_id for p in plan.phases if p.path is PathKind.MAIN] + ["v4-branch"]
    # once v3-branch is dispatched, the helper is told to exit without a wait
    assert pool.shutdowns == [False]
    assert (reports, manifest) == run_single(plan, RUN_CFG, 0)


@pytest.mark.parametrize("workers", [2, 64])
def test_workers_capped_at_leaves(inline, workers):
    # ptfs and path_switch have four leaves each: eight in all, so at most
    # seven helpers
    spec = uniform_spec(4, 10, SCHED)
    jobs = [(build_plan(parse_paradigm(label), spec), 0, None) for label in ("ptfs", "path_switch:0.6")]
    run_all(jobs, RUN_CFG, workers)
    [pool] = inline
    assert pool.max_workers == min(workers, 8) - 1


def test_jobs_default_to_available_cpus(inline, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_available_cpus", lambda: 64)
    cfg = run_config(tmp_path, paradigms=["ptfs", "path_switch:0.6"], seeds=[0, 1])
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    [pool] = inline
    assert pool.max_workers == 15  # 16 leaves


@pytest.fixture
def blas(monkeypatch):
    """The default environment (no BLAS thread variable set), with the
    loaded OpenBLAS at two threads if it is found; restored afterwards."""
    for var in trainer.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    found = trainer.openblas_threads()
    if found is None:
        yield None
        return
    get, put = found
    threads = get()
    put(2)
    try:
        yield get
    finally:
        put(threads)


def _blas_state(get):
    return {var: os.environ.get(var) for var in trainer.BLAS_THREAD_VARS}, get() if get else None


def test_one_blas_thread_pins_and_restores(blas):
    with trainer.one_blas_thread():
        env, threads = _blas_state(blas)
        assert env == dict.fromkeys(trainer.BLAS_THREAD_VARS, "1")
        assert threads == (1 if blas else None)
    assert _blas_state(blas) == (dict.fromkeys(trainer.BLAS_THREAD_VARS), 2 if blas else None)


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"])
def test_one_blas_thread_respects_the_user(blas, monkeypatch, var):
    monkeypatch.setenv(var, "3")
    before = _blas_state(blas)
    with trainer.one_blas_thread():
        assert _blas_state(blas) == before
    assert _blas_state(blas) == before


@pytest.mark.parametrize("workers, pinned", [(1, False), (2, True)])
def test_run_all_pins_blas_when_it_spawns(inline, blas, monkeypatch, workers, pinned):
    # the inline pool trains its phases in this process, so every phase sees
    # the state that spawned processes would inherit
    seen = []
    train_phase = trainer.train_phase

    def recording(*args, **kwargs):
        seen.append(_blas_state(blas))
        return train_phase(*args, **kwargs)

    monkeypatch.setattr(trainer, "train_phase", recording)
    plan = build_plan(Paradigm.path_switch(0.6), uniform_spec(2, 20, SCHED))
    run_all([(plan, 0, None)], RUN_CFG, workers)
    assert len(inline) == int(pinned) and len(seen) == len(plan.phases)
    default = (dict.fromkeys(trainer.BLAS_THREAD_VARS), 2 if blas else None)
    one = (dict.fromkeys(trainer.BLAS_THREAD_VARS, "1"), 1 if blas else None)
    assert seen == [one if pinned else default] * len(seen)
    assert _blas_state(blas) == default


def test_helper_error_names_phase_and_step():
    # v1 diverges in the helper while v2 trains here
    plan = build_plan(Paradigm.ptfs(), uniform_spec(2, 20, SCHED))
    huge = ScheduleConfig(ScheduleKind.CONSTANT, 1e300, 1e300, 0, INFINITE)
    v1 = dataclasses.replace(plan.phases[0], lr_profile=ScheduleProfile(huge))
    plan = dataclasses.replace(plan, phases=(v1, plan.phases[1]))
    with pytest.raises(NonFiniteUpdate, match=r"^phase v1-scratch, step \d+: "):
        run_all([(plan, 0, None)], RUN_CFG, 2)
    assert multiprocessing.active_children() == []


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
    message = rf"^phase {phase}: held-out nll \S+ has no finite perplexity$"
    with pytest.raises(NonFiniteEval, match=message):
        run_all([(plan, 0, None)], RUN_CFG, 2)
    assert multiprocessing.active_children() == []


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


def tree(root):
    return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()}


def test_run_output_identical_with_helper(tmp_path):
    cfg = run_config(tmp_path)
    trees = []
    for workers in (1, 2, 3):
        out = tmp_path / f"workers{workers}"
        assert cli.main(["run", str(cfg), "--out", str(out), "--jobs", str(workers)]) == 0
        assert multiprocessing.active_children() == []
        trees.append(tree(out))
    assert "path_switch-0.45/seed1/ckpt/v3-branch_final.bin" in trees[0]
    assert not [name for name in trees[2] if name.endswith(".tmp")]
    assert trees[0] == trees[1] == trees[2]
    # each run's files are those of the serial reference
    _, spec, run_cfg, seeds = trainer.run_config_from_dict(json.loads(cfg.read_text()))
    for label in ("ptfs", "cpt:reset_max", "path_switch:0.6", "path_switch:0.45"):
        for seed in seeds:
            run_dir = f"{label.replace(':', '-')}/seed{seed}"
            ref = tmp_path / "serial" / run_dir
            run_single(build_plan(parse_paradigm(label), spec), run_cfg, seed, ref)
            assert tree(ref) == tree(tmp_path / "workers3" / run_dir)


def test_run_failure_leaves_no_process(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
    schedule = {"kind": "constant", "eta_max": 1e300, "eta_min": 1e300, "warmup_steps": 0}
    cfg = run_config(tmp_path, paradigms=["ptfs"], seeds=[0], schedule=schedule)
    with np.errstate(all="ignore"):
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert multiprocessing.active_children() == []
    err = capsys.readouterr().err
    assert err.startswith("run failed: phase v") and ", step " in err


def test_adam_overflow_names_step(tmp_path, capsys):
    # in float32 an lr of 1e39 is inf: the update is checked after the lr
    # is applied, so no NaN parameter is written and the step is named
    schedule = {"kind": "constant", "eta_max": 1e39, "eta_min": 1e39, "warmup_steps": 0}
    cfg = run_config(tmp_path, paradigms=["cpt:reset_max"], num_versions=2, steps_per_version=1,
                     seeds=[0], schedule=schedule)
    _, spec, run_cfg, _ = trainer.run_config_from_dict(json.loads(cfg.read_text()))
    assert run_cfg.model.dtype == "float32"
    plan = build_plan(parse_paradigm("cpt:reset_max"), spec)
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteUpdate, match=r"^phase v1-scratch, step 0: "):
            run_single(plan, run_cfg, 0)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out"), "--jobs", "2"]) == 1
    assert capsys.readouterr().err.startswith("run failed: phase v1-scratch, step 0: ")


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
    start_pool = trainer._start_pool

    def dying(workers):
        pool = start_pool(workers)
        submit = pool.submit

        def die(fn, /, *args, **kwargs):
            if fn is trainer._run_phase:
                return submit(os._exit, 1)
            return submit(fn, *args, **kwargs)

        pool.submit = die
        return pool

    monkeypatch.setattr(trainer, "_start_pool", dying)
    monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
    cfg = run_config(tmp_path, paradigms=["path_switch:0.6"], seeds=[0])
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert multiprocessing.active_children() == []
    assert capsys.readouterr().err.startswith("run failed: ")
