"""Golden digests: the exact bits of LR profiles and of trained checkpoints.

A change that should not alter numbers (a refactor, a faster code path)
must leave every digest here unchanged.  A change that alters numbers on
purpose updates the digests and records the c6 values before and after.

The LR digests are sha256 over the float64 per-step LRs; the payload
digests are sha256 over the checkpoint files of a tiny `run_single`, in
file-name order, trained once in float64 and once in the float32 default.
Payload bits depend on the BLAS the matmuls use; these were taken with
numpy's bundled OpenBLAS on x86-64.

The corpus digests are sha256 over the little-endian int64 tokens of
`make_corpus`; the eval pins are the exact per-version (ppl, nll) floats
of the same tiny runs.  The run-output digests are sha256 over the report
and manifest files that a tiny two-paradigm `lrpath run` writes.  The CLI
digests are sha256 over what `lrpath schedule` and `lrpath cost` print.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from lrpath.cli import main, parse_paradigm
from lrpath.lineage import load_manifest, load_payload
from lrpath.paradigm import (
    DecayProfile,
    build_plan,
    build_two_stage_probe,
    uniform_spec,
)
from lrpath.schedule import INFINITE, ScheduleConfig, ScheduleKind
from lrpath.trainer import RunConfig, ToyModelConfig, make_corpus, run_single

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

PAYLOAD_DIGESTS_FLOAT32 = {
    "ptfs": "756954e4d5c1a48cf7b9faf3cb03af475ae41bbeab308a3d54f5c268079fb19a",
    "cpt:reset_max": "f5b4f929124b9a41a3d6e165d7c7538d947be1f0b9cff0e67f4e6fc59f9e2228",
    "path_switch:0.6": "758758f2f0a06d8bb98f67ac05b6e470e482a8052f35e01819acda73be86eff5",
    "probe": "730ea2def6a518801f0772faec12edee39489491069d54b03cb1474a803268fd",
}

CORPUS_DIGESTS = {
    (0, 1): "487511b40043b1074b379f271d50625d3c0ea36609702e2d15279ac2a42894c6",
    (0, 2): "3a74a920b09a4395052faba6c78c2fec6f59aa9a221972b04950d7b6f414b4ce",
    (0, 3): "274d05ddcfef9d6e9442cb743d82266375a72aad5932fb09edc01d89ada4ee75",
    (0, 1000): "39eb1c196f21d677c90fbde0e4aaa29ea423f57a9132e186d19114a1e04ca334",
    (0, 80720): "4fbe5fee8ea6ba5ac4f92dad6c5ec2bf5c31c90cef915be0335604d631c5ed3c",
    (7, 1): "22950c1440bdaf5f1df96a5c616d62b165959c174b7941f06f44c4bec2666966",
    (7, 2): "b40e84f3565c86c234f651ad78d0ee9d0180a045ed00f20159ae13a91e5c8543",
    (7, 3): "f0b60cc591b725378d2aca39c5eed2a49282ef381976870bccf04a75cac448ef",
    (7, 1000): "346a57abdb00b39ffbef3b9590e57a76cf84ec884ecb286b71e58161d3c95448",
    (7, 80720): "b6c0fd921bc0f8bd0373ae8bbdc24cc136fb813f5577a0fa8311718203fab0a5",
}

# label -> {version: (ppl, nll)} of the tiny runs below, seed 0
EVAL_PINS = {
    "ptfs": {
        1: (64.37465208277506, 4.164719954429879),
        2: (65.10425547848664, 4.175989915411235),
        3: (63.495164508411776, 4.150963753525297),
    },
    "cpt:reset_max": {
        1: (64.37465208277506, 4.164719954429879),
        2: (64.6177272913906, 4.168488789418693),
        3: (63.04529663304174, 4.143853462214315),
    },
    "path_switch:0.6": {
        1: (64.23525379118466, 4.162552184455524),
        2: (64.03805175540204, 4.1594774653578455),
        3: (63.95864786956296, 4.15823674749156),
    },
    "probe": {
        1: (32.634892820255885, 3.4853820478855533),
        2: (30.61003276509152, 3.4213278233615676),
    },
}

EVAL_PINS_FLOAT32 = {
    "ptfs": {
        1: (64.37465877846556, 4.164720058441162),
        2: (65.10426780038337, 4.175990104675293),
        3: (63.495166396685796, 4.15096378326416),
    },
    "cpt:reset_max": {
        1: (64.37465877846556, 4.164720058441162),
        2: (64.61773956364911, 4.1684889793396),
        3: (63.04530937978562, 4.143853664398193),
    },
    "path_switch:0.6": {
        1: (64.23526485663604, 4.162552356719971),
        2: (64.03806746816659, 4.159477710723877),
        3: (63.95863227065918, 4.158236503601074),
    },
    "probe": {
        1: (32.634893870857034, 3.485382080078125),
        2: (30.610032948733178, 3.421327829360962),
    },
}

# file under `lrpath run --out` -> sha256 of its bytes, for RUN_DOC
RUN_OUTPUT_DIGESTS = {
    "report.json": "cc9ed3350ee92cc37459d7088bc8bd631779a07f799668f6edcbcd7a7b0fb425",
    "cpt-reset_max/report.json": "dcc81169b58d49a34eacf628332915fd5a3a1c3e58ef95fc3edd66e79d852179",
    "cpt-reset_max/seed0/manifest.json": "8414998dd0ed994b4ce14086dfa877ce79531b9715a4da4793bd5325f9dad755",
    "path_switch-0.6/report.json": "5ab2e74d463409c57dab4edc44c55685488a744f0764e7af8847a287bdb1db4a",
    "path_switch-0.6/seed0/manifest.json": "d1a693e7ec939b4a680805ff2de0a81a8ea60518aa24be0a28466f3f7861178e",
}

# sha256 of the stdout of `lrpath schedule --kind <kind>` plus these flags
SCHEDULE_FLAGS = {
    "default": [],
    "from_stride": ["--from", "1500", "--stride", "7"],
    "infinite": ["--horizon", "inf", "--to", "4000"],
}
SCHEDULE_OUTPUT_DIGESTS = {
    ("cosine", "default"): "0798645312a99dc8622b9330901b02c2a5ef476d2cdc34704330632815d5054e",
    ("cosine", "from_stride"): "8ddc80c701bd86fe4b141cf4470e424877751439faa560224409deb9d215e38d",
    ("cosine", "infinite"): "ad0848d5a95ff6b702fb8856aa0e4356f985577023dd5908f65202be48276532",
    ("knee", "default"): "2676427cc697a26d809f8d5a88d2c6a0d20ed6a90f2f5a8807f453f0248752a0",
    ("knee", "from_stride"): "098b831983b803881b32398fc24be47317d70e91db2dad61d740c28a72817357",
    ("knee", "infinite"): "ad0848d5a95ff6b702fb8856aa0e4356f985577023dd5908f65202be48276532",
    ("multistep", "default"): "48d763994fe90923954ff606e4ca2ae718e467b47d7cbe0dd5e98cb04b29dd44",
    ("multistep", "from_stride"): "e1d6e9a1b367798454dca4dbb75915fe7b892adcc587fc2bcf8a048ba11b9d31",
    ("multistep", "infinite"): "ad0848d5a95ff6b702fb8856aa0e4356f985577023dd5908f65202be48276532",
    ("constant", "default"): "e3cf2a70d7388d92ccdf11d194de9d0247f036646e7b564835539aee9310b175",
    ("constant", "from_stride"): "d84d9c15c0fd0f908bc9584789de2509d81d3c852064d737a104a093bd6a38bf",
    ("constant", "infinite"): "ad0848d5a95ff6b702fb8856aa0e4356f985577023dd5908f65202be48276532",
}
# sha256 of the stdout of `lrpath cost --versions 4 --steps 2000`
COST_OUTPUT_DIGEST = "7cc648b5a4d03e09857a34fd1d7d4f3a28c48a6321c3efd96ada1d381e440f82"

SPEC = uniform_spec(3, 40, ScheduleConfig(ScheduleKind.COSINE, 1e-2, 1e-3, 4, 40))
RUN_CFG = RunConfig(
    model=ToyModelConfig(
        vocab_size=64, context_len=4, embed_dim=8, hidden_dim=16, batch_size=8, dtype="float64"
    ),
    tokens_per_step=16,
    heldout_tokens=2000,
    log_stride=10,
)
RUN_CFG_FLOAT32 = dataclasses.replace(
    RUN_CFG, model=dataclasses.replace(RUN_CFG.model, dtype="float32")
)
# the float32 default model of RUN_CFG, as an `lrpath run` config
RUN_DOC = {
    "paradigms": ["cpt:reset_max", "path_switch:0.6"],
    "num_versions": 3,
    "steps_per_version": 40,
    "schedule": {"kind": "cosine", "eta_max": 1e-2, "eta_min": 1e-3, "warmup_steps": 4},
    "seeds": [0],
    "model": {"vocab_size": 64, "context_len": 4, "embed_dim": 8, "hidden_dim": 16, "batch_size": 8},
    "tokens_per_step": 16,
    "heldout_tokens": 2000,
    "log_stride": 10,
}


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


@pytest.mark.parametrize("label", list(PAYLOAD_DIGESTS_FLOAT32))
def test_payload_bits_float32(label, tmp_path):
    run_single(_plan(label), RUN_CFG_FLOAT32, 0, tmp_path)
    h = hashlib.sha256()
    for path in sorted((tmp_path / "ckpt").iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    assert h.hexdigest() == PAYLOAD_DIGESTS_FLOAT32[label]


@pytest.mark.parametrize("seed, size", sorted(CORPUS_DIGESTS))
def test_corpus_bits(seed, size):
    tokens = np.ascontiguousarray(make_corpus(seed, size), dtype="<i8")
    assert hashlib.sha256(tokens.tobytes()).hexdigest() == CORPUS_DIGESTS[seed, size]


@pytest.mark.parametrize(
    "cfg, pins", [(RUN_CFG, EVAL_PINS), (RUN_CFG_FLOAT32, EVAL_PINS_FLOAT32)],
    ids=["float64", "float32"],
)
@pytest.mark.parametrize("label", list(EVAL_PINS))
def test_eval_bits(label, cfg, pins):
    results, _ = run_single(_plan(label), cfg, 0)
    assert {v: (r.ppl, r.nll) for v, r in results.items()} == pins[label]


@pytest.fixture(scope="module")
def run_out(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    (root / "config.json").write_text(json.dumps(RUN_DOC), encoding="utf-8")
    assert main(["run", str(root / "config.json"), "--out", str(root / "out")]) == 0
    return root / "out"


@pytest.mark.parametrize("name", list(RUN_OUTPUT_DIGESTS))
def test_run_output_bytes(run_out, name):
    digest = hashlib.sha256((run_out / name).read_bytes()).hexdigest()
    assert digest == RUN_OUTPUT_DIGESTS[name]


@pytest.mark.parametrize("label", RUN_DOC["paradigms"])
def test_global_step_is_lineage_steps(run_out, label):
    # a checkpoint's step counts every optimizer step since its fresh init
    run_dir = run_out / label.replace(":", "-") / "seed0"
    manifest = load_manifest(run_dir / "manifest.json")
    phases = {p.phase_id: p for p in build_plan(parse_paradigm(label), manifest.spec).phases}
    records = {r.ckpt_id: r for r in manifest.records}
    for rec in manifest.records:
        steps, cur = 0, rec
        while cur is not None:
            steps += phases[cur.phase_id].num_steps
            cur = records.get(cur.parent)
        _, seed, header_step = load_payload(run_dir / rec.payload_file)
        assert rec.global_step == steps == header_step, rec.ckpt_id
        assert seed == 0


def _stdout_digest(capsys, argv) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("kind, flags", sorted(SCHEDULE_OUTPUT_DIGESTS))
def test_schedule_output_bytes(capsys, kind, flags):
    argv = ["schedule", "--kind", kind, *SCHEDULE_FLAGS[flags]]
    assert _stdout_digest(capsys, argv) == SCHEDULE_OUTPUT_DIGESTS[kind, flags]


def test_cost_output_bytes(capsys):
    argv = ["cost", "--versions", "4", "--steps", "2000"]
    assert _stdout_digest(capsys, argv) == COST_OUTPUT_DIGEST
