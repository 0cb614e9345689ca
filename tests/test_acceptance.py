"""End-to-end acceptance suite.

Criteria 1-5, 7, 8 are fast.  Criterion 6 trains the toy model at full desk
scale (five paradigms plus ten two-stage probes, three seeds each) in the
float32 default, through `trainer.run_all` on the available CPUs as `lrpath
run` trains: about 2.5 minutes on two cores.  The paradigm runs are shared
across the criterion-6 tests through a session-scoped fixture.  Deselect
with `-k "not c6"` for a quick pass.

Each test prints one PASS line through the usual pytest -v report.
"""

import math

import numpy as np
import pytest

from lrpath.lineage import load_manifest, save_manifest
from lrpath.paradigm import (
    CptVariant,
    Paradigm,
    build_plan,
    build_two_stage_probe,
    plan_cost,
    uniform_spec,
)
from lrpath import cli, trainer
from lrpath.cli import main
from lrpath.cost import paradigm_cost, relative_cost
from lrpath.schedule import INFINITE, ScheduleConfig, ScheduleKind, lr_at
from lrpath.trainer import (
    RunConfig,
    ToyModelConfig,
    backward,
    forward_loss,
    init_model,
)
from test_lineage import random_manifest

# ---------------------------------------------------------------------------
# criterion 1: cost exactness


def test_c1_cost_exactness():
    t = 10_000
    assert paradigm_cost(Paradigm.ptfs(), 4, t) == 10 * t
    assert paradigm_cost(Paradigm.cpt(), 4, t) == 4 * t
    assert paradigm_cost(Paradigm.path_switch(0.6), 4, t) == 58 * t // 10
    assert paradigm_cost(Paradigm.ptfs(), 10, t) == 55 * t
    assert paradigm_cost(Paradigm.cpt(), 10, t) == 10 * t
    assert paradigm_cost(Paradigm.path_switch(0.6), 10, t) == 154 * t // 10


# ---------------------------------------------------------------------------
# criterion 2: relative cost


def test_c2_relative_cost():
    assert abs(relative_cost(Paradigm.path_switch(0.6), 4, 10_000) - 0.58) <= 0.005
    assert abs(relative_cost(Paradigm.cpt(), 4, 10_000) - 0.40) <= 0.005


# ---------------------------------------------------------------------------
# criterion 3: plan/cost agreement on 500 random cases


def test_c3_plan_cost_agreement():
    rng = np.random.default_rng(31337)
    kinds = list(ScheduleKind)
    decaying = [ScheduleKind.COSINE, ScheduleKind.KNEE, ScheduleKind.MULTISTEP]
    alphas = [0.2, 0.4, 0.5, 0.6, 0.8, 1.0]
    for _ in range(500):
        n = int(rng.integers(1, 13))
        # multiples of 10 keep alpha*t integral for every alpha on the grid
        t = int(rng.integers(2, 10_001)) * 10
        which = int(rng.integers(3))
        if which == 0:
            p = Paradigm.ptfs()
        elif which == 1:
            p = Paradigm.cpt()
        else:
            # branches fast-decay to eta_min, so the base schedule must
            # have a decay shape
            p = Paradigm.path_switch(alphas[int(rng.integers(len(alphas)))])
        pool = decaying if p.family == "path_switch" else kinds
        kind = pool[int(rng.integers(len(pool)))]
        base = ScheduleConfig(kind, 3e-4, 3e-5, min(100, t - 1), t)
        spec = uniform_spec(n, t, base)
        assert plan_cost(build_plan(p, spec)) == paradigm_cost(p, n, t)


# ---------------------------------------------------------------------------
# criterion 4: schedule goldens


def test_c4_schedule_goldens():
    cfg = ScheduleConfig(ScheduleKind.COSINE, 3e-4, 3e-5, 2000, 10_000)
    goldens = {0: 0.0, 1000: 1.5e-4, 2000: 3e-4, 6000: 1.65e-4, 10_000: 3e-5}
    for step, want in goldens.items():
        got = lr_at(cfg, step)
        if want == 0.0:
            assert got == 0.0
        else:
            assert abs(got - want) / want < 1e-12


# ---------------------------------------------------------------------------
# criterion 5: gradient oracle


def test_c5_gradient_oracle():
    # float64: central differences at eps=1e-5 need its precision
    model = init_model(ToyModelConfig(dtype="float64"), seed=5)
    rng = np.random.default_rng(55)
    cfg = model.config
    batch = rng.integers(0, cfg.vocab_size, size=(8, cfg.context_len + 1), dtype=np.int64)
    _, cache = forward_loss(model, batch)
    grads = backward(model, cache)
    eps = 1e-5
    for name, g in grads.items():
        flatg = g.ravel()
        p = model.params[name].ravel()
        idx = rng.choice(p.size, size=min(200, p.size), replace=False)
        for i in idx:
            old = p[i]
            p[i] = old + eps
            up, _ = forward_loss(model, batch)
            p[i] = old - eps
            down, _ = forward_loss(model, batch)
            p[i] = old
            numeric = (up - down) / (2 * eps)
            denom = max(abs(numeric), abs(flatg[i]), 1e-6)
            assert abs(numeric - flatg[i]) / denom < 1e-4, (name, int(i))


# ---------------------------------------------------------------------------
# criterion 6: desk-scale property suite (slow)

T = 2000
SEEDS = [0, 1, 2]
BASE = ScheduleConfig(ScheduleKind.COSINE, 3e-3, 3e-4, 200, T)
SPEC = uniform_spec(4, T, BASE)


def mean_ppls(plans, out_root=None):
    """The held-out ppl of each plan by version, the mean over SEEDS.

    One `run_all` call trains every (plan, seed) job on the available
    CPUs, as `lrpath run` does; its results are `run_single`'s.  A plan's
    runs write under `out_root / f"seed{seed}"` if `out_root` is given,
    so it takes one plan only.
    """
    assert out_root is None or len(plans) == 1
    jobs = [
        (plan, seed, None if out_root is None else out_root / f"seed{seed}")
        for plan in plans
        for seed in SEEDS
    ]
    results = trainer.run_all(jobs, RunConfig(), cli._available_cpus())
    means = []
    for k in range(len(plans)):
        per_version = {}
        for reports, _ in results[k * len(SEEDS) : (k + 1) * len(SEEDS)]:
            for v, rep in reports.items():
                per_version.setdefault(v, []).append(rep.ppl)
        means.append({v: float(np.mean(p)) for v, p in per_version.items()})
    return means


@pytest.fixture(scope="session")
def paradigm_ppls(tmp_path_factory):
    out = {}
    table = {
        "ptfs": Paradigm.ptfs(),
        "reset": Paradigm.cpt(CptVariant.RESET_MAX),
        "rewarm": Paradigm.cpt(CptVariant.REWARM_MAX),
        "keepmin": Paradigm.cpt(CptVariant.KEEP_MIN),
        "ours": Paradigm.path_switch(0.6),
    }
    root = tmp_path_factory.mktemp("runs")
    for name, p in table.items():
        # c6e compares v1-scratch payloads across paradigms: each must be
        # trained in its own paradigm, not taken from the phase store (the
        # processes that run_all spawns start afresh at every call)
        trainer._phase_store.clear()
        [out[name]] = mean_ppls([build_plan(p, SPEC)], out_root=root / name)
    return out, root


def test_c6a_ours_beats_reset_max(paradigm_ppls):
    ppls, _ = paradigm_ppls
    for v in (2, 3, 4):
        assert ppls["ours"][v] < ppls["reset"][v], (v, ppls)


def test_c6b_cpt_variant_ordering(paradigm_ppls):
    ppls, _ = paradigm_ppls
    assert ppls["reset"][4] < ppls["rewarm"][4] < ppls["keepmin"][4], ppls


def test_c6c_widening_gap(paradigm_ppls):
    ppls, _ = paradigm_ppls
    gaps = [ppls["reset"][v] - ppls["ptfs"][v] for v in (2, 3, 4)]
    assert gaps == sorted(gaps), gaps


def adjacent_inversions(values, increasing):
    sign = 1 if increasing else -1
    return sum(1 for a, b in zip(values, values[1:]) if sign * (b - a) < 0)


CYCLES = [T, 2 * T, 3 * T, 4 * T, INFINITE]


def test_c6d_first_cycle_probe():
    checkpoints, finals = [], []
    plans = [build_two_stage_probe(cycle, T, T, T, SPEC) for cycle in CYCLES]
    for ppls in mean_ppls(plans):
        checkpoints.append(ppls[1])
        finals.append(ppls[2])
    # longer first cycle -> less decay by the fork -> worse checkpoint,
    # but a better launch point for the fast decay that follows
    assert adjacent_inversions(checkpoints, increasing=True) <= 1, checkpoints
    assert adjacent_inversions(finals, increasing=False) <= 1, finals


def test_c6d_second_cycle_probe():
    never_decayed = None
    fully_decayed = []
    plans = [build_two_stage_probe(INFINITE, T, cycle, 2 * T, SPEC) for cycle in CYCLES]
    for cycle, ppls in zip(CYCLES, mean_ppls(plans)):
        final = ppls[2]
        if cycle == INFINITE:
            never_decayed = final
        elif cycle <= 2 * T:
            fully_decayed.append((cycle, final))
    # every configuration that finishes its decay by the evaluation step
    # must beat the never-decayed run
    for cycle, final in fully_decayed:
        assert final < never_decayed, (cycle, final, never_decayed)


def test_c6e_first_version_bitwise_identical(paradigm_ppls):
    _, root = paradigm_ppls
    reference = None
    for name in ("ptfs", "reset", "rewarm", "keepmin"):
        payload = (root / name / "seed0" / "ckpt" / "v1-scratch_final.bin").read_bytes()
        if reference is None:
            reference = payload
        else:
            assert payload == reference, name


# ---------------------------------------------------------------------------
# criterion 7: cmd_run determinism


def test_c7_run_determinism(tmp_path):
    config = {
        "paradigms": ["path_switch:0.5"],
        "num_versions": 2,
        "steps_per_version": 40,
        "schedule": {"kind": "cosine", "eta_max": 1e-3, "eta_min": 1e-4, "warmup_steps": 8},
        "seeds": [0, 1],
        "model": {
            "vocab_size": 64,
            "context_len": 4,
            "embed_dim": 8,
            "hidden_dim": 16,
            "batch_size": 8,
        },
        "tokens_per_step": 40,
        "heldout_tokens": 2000,
    }
    import json

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    snapshots = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["run", str(cfg_path), "--out", str(out)]) == 0
        files = sorted(p for p in out.rglob("*") if p.is_file() and p.suffix in (".json", ".bin"))
        assert any(p.name == "report.json" for p in files)
        assert any(p.suffix == ".bin" for p in files)
        snapshots.append({p.relative_to(out): p.read_bytes() for p in files})
    assert snapshots[0] == snapshots[1]


# ---------------------------------------------------------------------------
# criterion 8: manifest round-trip stability


def test_c8_manifest_round_trip(tmp_path):
    rng = np.random.default_rng(88)
    for i in range(100):
        m = random_manifest(rng)
        path = tmp_path / "manifest.json"
        save_manifest(m, path)
        first = path.read_bytes()
        save_manifest(load_manifest(path), path)
        assert path.read_bytes() == first, i
