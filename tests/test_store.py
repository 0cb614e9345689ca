"""The phase store: a phase already trained in this process is not trained
again.

`_Run.task` keys each phase by a digest of everything that fixes its
outcome, and `_run_phase` looks the key up before it trains.  A hit must
write the bytes of a run with an empty store, a change to any input of the
key must miss, and the store holds one state at most.
"""

import dataclasses
import gc
import weakref
from collections import Counter
from typing import NamedTuple, Optional

import numpy as np
import pytest

from lrpath import trainer
from lrpath.paradigm import (
    ScheduleProfile,
    TrainingPlan,
    build_plan,
    build_two_stage_probe,
    parse_paradigm,
    uniform_spec,
)
from lrpath.schedule import INFINITE, ScheduleConfig, ScheduleKind
from lrpath.trainer import RunConfig, ToyModelConfig, run_all, run_single

T = 12
SCHED = ScheduleConfig(ScheduleKind.COSINE, 1e-3, 1e-4, 3, INFINITE)
RUN_CFG = RunConfig(
    model=ToyModelConfig(vocab_size=32, context_len=4, embed_dim=8, hidden_dim=16, batch_size=8),
    tokens_per_step=20,
    heldout_tokens=500,
    log_stride=5,
)
# stage1 decays over its T steps and is the phase that enters the store;
# stage2 inits from it and is a leaf
PLAN = build_two_stage_probe(T, T, 2 * T, 2 * T, uniform_spec(2, T, SCHED))
# 500 held-out bytes, then (T + 2T) * 20 training bytes and a spare tail
CORPUS = np.random.default_rng(7).integers(0, 256, 2000, dtype=np.uint8).tobytes()


class Setup(NamedTuple):
    plan: TrainingPlan
    run_cfg: RunConfig = RUN_CFG
    seed: int = 0
    corpus: Optional[bytes] = None  # the bytes of a corpus_file, written before the run


def run(setup: Setup, tmp_path, name: str):
    """The evaluations and every file a `run_single` of `setup` writes."""
    run_cfg = setup.run_cfg
    if setup.corpus is not None:
        path = tmp_path / "corpus.bin"
        path.write_bytes(setup.corpus)
        run_cfg = dataclasses.replace(run_cfg, corpus_file=str(path))
    out = tmp_path / name
    reports, _ = run_single(setup.plan, run_cfg, setup.seed, out)
    files = {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()}
    return reports, files


def replace_stage1(plan: TrainingPlan, **fields) -> TrainingPlan:
    stage1, stage2 = plan.phases
    if "phase_id" in fields:
        stage2 = dataclasses.replace(stage2, init_from=fields["phase_id"])
    return dataclasses.replace(plan, phases=(dataclasses.replace(stage1, **fields), stage2))


def stage1_schedule(plan: TrainingPlan, hold_min: bool = False, **config) -> TrainingPlan:
    profile = plan.phases[0].lr_profile
    return replace_stage1(plan, lr_profile=ScheduleProfile(profile.config.replace(**config), hold_min))


def model_case(**fields):
    model = dataclasses.replace(RUN_CFG.model, **fields)
    return Setup(PLAN), Setup(PLAN, dataclasses.replace(RUN_CFG, model=model))


def flipped(data: bytes) -> bytes:
    return bytes(255 - b for b in data)


def swap_versions(plan: TrainingPlan) -> TrainingPlan:
    stage1, stage2 = plan.phases
    swapped = dataclasses.replace(stage1, version=2), dataclasses.replace(stage2, version=1)
    return dataclasses.replace(plan, phases=swapped)


def swap_emits(plan: TrainingPlan) -> TrainingPlan:
    return dataclasses.replace(plan, phases=tuple(
        dataclasses.replace(p, emits_version_checkpoint=not p.emits_version_checkpoint)
        for p in plan.phases
    ))


KNEE = stage1_schedule(PLAN, kind=ScheduleKind.KNEE)
STEPS = stage1_schedule(PLAN, kind=ScheduleKind.MULTISTEP)
# one version of path switching: v1-main (kept, no evaluation), then
# v1-branch (a leaf, evaluated)
SWITCH = build_plan(parse_paradigm("path_switch:0.5"), uniform_spec(1, T, SCHED))
# (the run that fills the store, the run with one input changed)
CASES = {
    "vocab_size": model_case(vocab_size=33),
    "context_len": model_case(context_len=5),
    "embed_dim": model_case(embed_dim=9),
    "hidden_dim": model_case(hidden_dim=17),
    "batch_size": model_case(batch_size=9),
    "dtype": model_case(dtype="float64"),
    "seed": (Setup(PLAN), Setup(PLAN, seed=1)),
    # stage1 at version 2 and seed 3 inits from seed 3 ^ 2, the base's 0 ^ 1,
    # and a corpus file makes the data; only the batch stream tells them apart
    "seed_same_init": (Setup(PLAN, corpus=CORPUS), Setup(swap_versions(PLAN), seed=3, corpus=CORPUS)),
    "emits_version_checkpoint": (Setup(SWITCH), Setup(swap_emits(SWITCH))),
    "phase_id": (Setup(PLAN), Setup(replace_stage1(PLAN, phase_id="warm"))),
    # the same data, one step fewer
    "num_steps": (Setup(PLAN), Setup(replace_stage1(PLAN, num_steps=T - 1))),
    "kind": (Setup(PLAN), Setup(KNEE)),
    "eta_max": (Setup(PLAN), Setup(stage1_schedule(PLAN, eta_max=2e-3))),
    "eta_min": (Setup(PLAN), Setup(stage1_schedule(PLAN, eta_min=2e-4))),
    "warmup_steps": (Setup(PLAN), Setup(stage1_schedule(PLAN, warmup_steps=2))),
    "horizon": (Setup(PLAN), Setup(stage1_schedule(PLAN, horizon=T + 5))),
    "knee_explore_fraction": (Setup(KNEE), Setup(stage1_schedule(KNEE, knee_explore_fraction=0.8))),
    "multistep_breaks": (Setup(STEPS), Setup(stage1_schedule(STEPS, multistep_breaks=(0.5, 0.9)))),
    "multistep_factors": (Setup(STEPS), Setup(stage1_schedule(STEPS, multistep_factors=(0.5, 0.1)))),
    "hold_min": (Setup(PLAN), Setup(stage1_schedule(PLAN, hold_min=True))),
    # a longer stage 2 makes a larger corpus, whose head stage1 trains on
    "corpus_size": (Setup(PLAN), Setup(build_two_stage_probe(T, T, 2 * T, 2 * T + 1, PLAN.spec))),
    # the same path and held-out bytes, other training bytes
    "corpus_file": (Setup(PLAN, corpus=CORPUS), Setup(PLAN, corpus=CORPUS[:500] + flipped(CORPUS[500:]))),
    # the same path and training bytes, other held-out bytes
    "heldout_bytes": (Setup(PLAN, corpus=CORPUS), Setup(PLAN, corpus=flipped(CORPUS[:500]) + CORPUS[500:])),
    "heldout_tokens": (Setup(PLAN), Setup(PLAN, dataclasses.replace(RUN_CFG, heldout_tokens=450))),
    "log_stride": (Setup(PLAN), Setup(PLAN, dataclasses.replace(RUN_CFG, log_stride=3))),
}


@pytest.fixture
def trained(monkeypatch):
    """`train_phase` calls by phase id."""
    calls = Counter()
    train_phase = trainer.train_phase

    def counting(model, phase, *args, **kwargs):
        calls[phase.phase_id] += 1
        return train_phase(model, phase, *args, **kwargs)

    monkeypatch.setattr(trainer, "train_phase", counting)
    return calls


@pytest.fixture
def keys(monkeypatch):
    """The content key of each phase, by phase id, as the last run gave it."""
    seen = {}
    run_phase = trainer._run_phase

    def recording(phase, *args):
        seen[phase.phase_id] = args[-1]
        return run_phase(phase, *args)

    monkeypatch.setattr(trainer, "_run_phase", recording)
    return seen


def stored_state():
    [(state, _, _)] = trainer._phase_store.values()
    return state


@pytest.mark.parametrize("name", sorted(CASES))
def test_changed_input_misses(name, tmp_path, keys):
    base, variant = CASES[name]
    run(base, tmp_path, "base")
    base_keys = dict(keys)
    assert list(trainer._phase_store) == [base_keys[base.plan.phases[0].phase_id]]
    keys.clear()
    filled = run(variant, tmp_path, "filled")
    trainer._phase_store.clear()
    assert filled == run(variant, tmp_path, "fresh")
    # No phase keeps a key of the base.  Where only stage1 changed, stage2's
    # own fields, data and held-out set are those of the base, so its key
    # differs through the parent chain alone.
    assert not set(keys.values()) & set(base_keys.values())


def test_hit_writes_the_same_bytes_and_leaves_the_state(tmp_path, trained):
    first = run(Setup(PLAN), tmp_path, "first")
    state = stored_state()
    before = [a.tobytes() for a in (state.flat, state.m, state.v)], state.t
    second = run(Setup(PLAN), tmp_path, "second")
    assert trained == {"stage1": 1, "stage2": 2}
    assert second == first
    assert stored_state() is state
    assert ([a.tobytes() for a in (state.flat, state.m, state.v)], state.t) == before


def test_second_cycle_probes_share_stage1(tmp_path, trained):
    # the probe-grid shape: (inf, T, c, 2T) for c in {T, 2T, 3T, 4T, inf}
    spec = uniform_spec(4, T, SCHED)
    cycles = [T, 2 * T, 3 * T, 4 * T, INFINITE]
    probes = [build_two_stage_probe(INFINITE, T, c, 2 * T, spec) for c in cycles]
    shared = [run(Setup(plan), tmp_path / "shared", f"probe{i}") for i, plan in enumerate(probes)]
    assert trained == {"stage1": 1, "stage2": 5}
    emptied = []
    for i, plan in enumerate(probes):
        trainer._phase_store.clear()
        emptied.append(run(Setup(plan), tmp_path / "emptied", f"probe{i}"))
    assert shared == emptied
    assert trained == {"stage1": 6, "stage2": 10}


@pytest.mark.parametrize("walker", ["run_single", "run_all"])
def test_store_holds_one_state(walker, monkeypatch):
    made = []
    train_phase = trainer.train_phase

    def tracking(*args, **kwargs):
        state, trace = train_phase(*args, **kwargs)
        made.append(weakref.ref(state))
        return state, trace

    monkeypatch.setattr(trainer, "train_phase", tracking)
    spec = uniform_spec(4, T, SCHED)
    plans = [build_plan(parse_paradigm(label), spec) for label in ("path_switch:0.6", "cpt:reset_max")]
    seeds = [0] if walker == "run_single" else [0, 1]
    if walker == "run_single":
        for plan in plans:
            run_single(plan, RUN_CFG, 0)
    else:
        run_all([(plan, seed, None) for plan in plans for seed in seeds], RUN_CFG, 1)
    gc.collect()
    assert len(made) == len(seeds) * sum(len(plan.phases) for plan in plans)
    assert [ref() for ref in made if ref() is not None] == [stored_state()]
