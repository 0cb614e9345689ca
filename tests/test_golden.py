"""Golden digests: the exact bits of LR profiles and of trained checkpoints.

A change that should not alter numbers (a refactor, a faster code path)
must leave every digest here unchanged.  A change that alters numbers on
purpose updates the digests and records the c6 values before and after.

The LR digests are sha256 over the float64 per-step LRs; the payload
digests are sha256 over the checkpoint files of a tiny `run_single`, in
file-name order.  Payload bits depend on the BLAS the matmuls use; these
were taken with numpy's bundled OpenBLAS on x86-64.
"""

import hashlib

import numpy as np
import pytest

from lrpath.cli import parse_paradigm
from lrpath.paradigm import (
    DecayProfile,
    build_plan,
    build_two_stage_probe,
    uniform_spec,
)
from lrpath.schedule import INFINITE, ScheduleConfig, ScheduleKind
from lrpath.trainer import RunConfig, ToyModelConfig, run_single

DECAY_DIGESTS = {
    ("cosine", 1): "dd18bf0624c62a5ad06c856ee8355dd933d830322bb81b2758f148e03ffeed7b",
    ("cosine", 2): "7afd30a7a5b5861f52a060bc87120a74a888c83e9c7bd7a38282c0630d2c0db8",
    ("cosine", 7): "174457f845ab1664246a9e3bcd69cce5417dbefb00761d853986bafd7a8c30ee",
    ("cosine", 1000): "762910fbd0b25385660415635091e293f0786cc86efd9dec6ea3ac3e668db236",
    ("knee", 1): "dd18bf0624c62a5ad06c856ee8355dd933d830322bb81b2758f148e03ffeed7b",
    ("knee", 2): "7afd30a7a5b5861f52a060bc87120a74a888c83e9c7bd7a38282c0630d2c0db8",
    ("knee", 7): "3d624fba915910c4bd14e71bf789cad4e42170a3e246629d533396bd4f9a9f3f",
    ("knee", 1000): "6775da48f8b2d396aa91bbbfd6ce527437225dbe1a3992136c4c6d6219a2b422",
    ("multistep", 1): "dd18bf0624c62a5ad06c856ee8355dd933d830322bb81b2758f148e03ffeed7b",
    ("multistep", 2): "a2e1f05709811393c96effd1e228301d2ec5fa87dea1a417bf275d41e71bacb8",
    ("multistep", 7): "baa03cb382e5cd000853aafee167d9564872a6e7272b05b7e6978ccdfb360aa8",
    ("multistep", 1000): "594d29f49470146a42258f7f1f5552a8d815939a5d2535de0c50f431ea1de9ba",
}

# (first_cycle, fork_step, second_cycle, second_len): stage-2 cycles that
# end before the probe does, so stage 2 holds eta_min afterwards
HELD_PROBE_DIGESTS = {
    (INFINITE, 40, 20, 50): "b2c69b905ed1f405fb9aa2d28e1813fe4a438b0c1e126d8dae92c4e224bed87d",
    (40, 20, 7, 1000): "e61ca56e9848b62bdfd93aba09ee4c68a16b8e3d73765323ea5cb667e1b6d611",
}

PAYLOAD_DIGESTS = {
    "ptfs": "53312b4307d6fef631bbffca283c323602dc5525de26e3635a4c78ea8ecf41c4",
    "cpt:reset_max": "4702398e960a5cf6e39c96a5c480a3014a3928fcb5395953d7d6e72cbacea269",
    "path_switch:0.6": "700cb0a64d146453af54b30de5e49c84048c8d1632a41f0d88f7962f157c3c09",
    "probe": "291d578bab1d325fca045cf1cbf17e304225929cfc1cc1632480bdc3fbde31f3",
}

SPEC = uniform_spec(3, 40, ScheduleConfig(ScheduleKind.COSINE, 1e-2, 1e-3, 4, 40))
RUN_CFG = RunConfig(
    model=ToyModelConfig(vocab_size=64, context_len=4, embed_dim=8, hidden_dim=16, batch_size=8),
    tokens_per_step=16,
    heldout_tokens=2000,
    log_stride=10,
)


def lr_digest(profile, num_steps: int) -> str:
    lrs = np.array([profile.lr(s) for s in range(num_steps)], dtype="<f8")
    return hashlib.sha256(lrs.tobytes()).hexdigest()


@pytest.mark.parametrize("kind, length", sorted(DECAY_DIGESTS))
def test_branch_decay_bits(kind, length):
    base = ScheduleConfig(ScheduleKind(kind), 3e-3, 3e-4, 10, 100)
    assert lr_digest(DecayProfile(base, length), length) == DECAY_DIGESTS[kind, length]


@pytest.mark.parametrize("probe", list(HELD_PROBE_DIGESTS), ids=str)
def test_held_probe_stage2_bits(probe):
    stage2 = build_two_stage_probe(*probe, SPEC).phases[1]
    assert stage2.lr_profile.hold_min
    assert lr_digest(stage2.lr_profile, stage2.num_steps) == HELD_PROBE_DIGESTS[probe]


def _plan(label: str):
    if label == "probe":
        return build_two_stage_probe(INFINITE, 40, 20, 40, SPEC)
    return build_plan(parse_paradigm(label), SPEC)


@pytest.mark.parametrize("label", list(PAYLOAD_DIGESTS))
def test_payload_bits(label, tmp_path):
    run_single(_plan(label), RUN_CFG, 0, tmp_path)
    h = hashlib.sha256()
    for path in sorted((tmp_path / "ckpt").iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    assert h.hexdigest() == PAYLOAD_DIGESTS[label]
