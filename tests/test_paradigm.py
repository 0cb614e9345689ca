import dataclasses
import json
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrpath.data import allocate_segments
from lrpath.errors import (
    AlphaDegenerate,
    InvalidConfig,
    PlanViolation,
    SchemaMismatch,
)
from lrpath.lineage import CheckpointRecord, Manifest, manifest_from_dict, manifest_to_dict
from lrpath.paradigm import (
    CptVariant,
    DecayProfile,
    Paradigm,
    PathKind,
    Phase,
    ScheduleProfile,
    UpdateSpec,
    build_plan,
    build_two_stage_probe,
    plan_cost,
    plan_from_dict,
    plan_to_dict,
    plan_to_json,
    uniform_spec,
    validate_plan,
)
from lrpath.paradigm import _reused_segments
from lrpath.schedule import INFINITE, ScheduleConfig, ScheduleKind

BASE = ScheduleConfig(ScheduleKind.COSINE, 3e-4, 3e-5, 2000, 10_000)


def spec4(t=10_000):
    return uniform_spec(4, t, BASE, seed=11)


class TestBuildPlanPtfs:
    def test_phase_shape(self):
        plan = build_plan(Paradigm.ptfs(), spec4())
        assert [p.num_steps for p in plan.phases] == [10_000, 20_000, 30_000, 40_000]
        assert all(p.init_from is None for p in plan.phases)
        assert all(p.path is PathKind.SCRATCH for p in plan.phases)
        validate_plan(plan)

    def test_each_phase_consumes_all_prior_increments(self):
        plan = build_plan(Paradigm.ptfs(), spec4())
        assert plan.phases[2].data_segments == (
            "inc1/full",
            "inc2/full",
            "inc3/full",
        )

    def test_cost(self):
        assert plan_cost(build_plan(Paradigm.ptfs(), spec4())) == 100_000


class TestBuildPlanCpt:
    def test_cost(self):
        plan = build_plan(Paradigm.cpt(), spec4())
        assert plan_cost(plan) == 40_000
        validate_plan(plan)

    def test_keep_min_constant(self):
        plan = build_plan(Paradigm.cpt(CptVariant.KEEP_MIN), uniform_spec(2, 10_000, BASE))
        phase2 = plan.phases[1]
        assert phase2.num_steps == 10_000
        for s in (0, 5000, 9999):
            assert phase2.lr_profile.lr(s) == 3e-5

    def test_reset_max_jumps(self):
        plan = build_plan(Paradigm.cpt(CptVariant.RESET_MAX), spec4())
        phase2 = plan.phases[1]
        assert phase2.lr_profile.lr(0) == 3e-4
        assert phase2.lr_profile.lr(10_000 - 1) < 2 * 3e-5

    def test_rewarm_ramps(self):
        plan = build_plan(Paradigm.cpt(CptVariant.REWARM_MAX), spec4())
        phase2 = plan.phases[1]
        assert phase2.lr_profile.lr(0) == 0.0
        assert phase2.lr_profile.lr(2000) == 3e-4

    def test_first_version_matches_ptfs(self):
        cpt = build_plan(Paradigm.cpt(), spec4()).phases[0]
        ptfs = build_plan(Paradigm.ptfs(), spec4()).phases[0]
        assert cpt == ptfs

    def test_chain_links(self):
        plan = build_plan(Paradigm.cpt(), spec4())
        assert [p.init_from for p in plan.phases] == [None, "v1-scratch", "v2-cpt", "v3-cpt"]


class TestBuildPlanPathSwitch:
    def test_single_version(self):
        plan = build_plan(Paradigm.path_switch(0.6), uniform_spec(1, 10_000, BASE))
        assert [p.phase_id for p in plan.phases] == ["v1-main", "v1-branch"]
        assert [p.num_steps for p in plan.phases] == [4000, 6000]
        assert plan_cost(plan) == 10_000
        validate_plan(plan)

    def test_four_versions(self):
        plan = build_plan(Paradigm.path_switch(0.6), spec4())
        assert len(plan.phases) == 11  # 4 M + 4 B + 3 C
        assert plan_cost(plan) == 58_000
        validate_plan(plan)

    def test_branch_inits_from_fork_and_emits(self):
        plan = build_plan(Paradigm.path_switch(0.6), spec4())
        branch = {p.phase_id: p for p in plan.phases}["v2-branch"]
        assert branch.init_from == "v2-main"
        assert branch.emits_version_checkpoint
        assert isinstance(branch.lr_profile, DecayProfile)
        assert branch.lr_profile.lr(branch.num_steps - 1) == 3e-5

    def test_main_continuation_shares_remainder_data(self):
        phases = {p.phase_id: p for p in build_plan(Paradigm.path_switch(0.6), spec4()).phases}
        assert phases["v2-branch"].data_segments == ("inc2/remainder",)
        assert phases["v2-cont"].data_segments == ("inc2/remainder",)
        assert phases["v3-main"].init_from == "v2-cont"

    def test_warmup_only_in_first_main(self):
        phases = {p.phase_id: p for p in build_plan(Paradigm.path_switch(0.6), spec4()).phases}
        assert phases["v1-main"].lr_profile.config.warmup_steps == 2000
        assert phases["v2-main"].lr_profile.config.warmup_steps == 0

    def test_alpha_degenerate(self):
        with pytest.raises(AlphaDegenerate):
            build_plan(Paradigm.path_switch(0.0), spec4())

    def test_alpha_one_omits_main_prefix(self):
        plan = build_plan(Paradigm.path_switch(1.0), spec4())
        assert "v1-main" not in [p.phase_id for p in plan.phases]
        assert plan_cost(plan) == 70_000  # 2*T*N - T
        validate_plan(plan)

    def test_alpha_out_of_range(self):
        with pytest.raises(InvalidConfig, match=r"^alpha must lie in \[0, 1\], got 1.5$"):
            Paradigm.path_switch(1.5)


class TestPlanCostIdentities:
    @given(
        st.integers(1, 8),
        st.integers(200, 5000),
        st.sampled_from([0.2, 0.4, 0.6, 0.8, 1.0]),
    )
    @settings(max_examples=25, deadline=None)
    def test_path_switch_cost_formula(self, n, t, alpha):
        spec = uniform_spec(n, t, BASE.replace(warmup_steps=100))
        plan = build_plan(Paradigm.path_switch(alpha), spec)
        expected = n * t + sum(int(alpha * t + 1e-9) for _ in range(n - 1))
        assert plan_cost(plan) == expected

    def test_unequal_increments(self):
        spec = UpdateSpec(3, (10_000, 20_000, 30_000), BASE, seed=0)
        assert plan_cost(build_plan(Paradigm.ptfs(), spec)) == 10_000 + 30_000 + 60_000
        assert plan_cost(build_plan(Paradigm.cpt(), spec)) == 60_000
        plan = build_plan(Paradigm.path_switch(0.5), spec)
        assert plan_cost(plan) == 60_000 + 5000 + 10_000
        validate_plan(plan)


class TestTwoStageProbe:
    def test_infinite_first_cycle(self):
        plan = build_two_stage_probe(INFINITE, 10_000, 10_000, 10_000, spec4())
        s1, s2 = plan.phases
        assert s1.lr_profile.lr(5000) == 3e-4  # constant plateau after warmup
        assert s2.lr_profile.lr(0) == 3e-4  # no warmup
        assert abs(s2.lr_profile.lr(10_000) - 3e-5) < 1e-18
        validate_plan(plan)

    def test_fork_at_cycle_end_is_fully_decayed(self):
        plan = build_two_stage_probe(10_000, 10_000, 20_000, 10_000, spec4())
        s1 = plan.phases[0]
        assert abs(s1.lr_profile.lr(10_000) - 3e-5) < 1e-18

    def test_fork_mid_cycle(self):
        from lrpath.schedule import lr_at

        plan = build_two_stage_probe(40_000, 10_000, 10_000, 10_000, spec4())
        s1 = plan.phases[0]
        expected = lr_at(BASE.replace(horizon=40_000), 10_000)
        assert s1.lr_profile.lr(10_000) == expected

    def test_fork_beyond_cycle(self):
        with pytest.raises(InvalidConfig, match=r"^fork_step \(10000\) exceeds first cycle \(5000\)$"):
            build_two_stage_probe(5000, 10_000, 10_000, 10_000, spec4())

    def test_cycle_ending_early_holds_min(self):
        plan = build_two_stage_probe(INFINITE, 10_000, 5000, 10_000, spec4())
        s2 = plan.phases[1]
        assert s2.lr_profile.hold_min
        assert abs(s2.lr_profile.lr(5000) - 3e-5) < 1e-18
        assert s2.lr_profile.lr(5001) == s2.lr_profile.lr(9999) == 3e-5
        validate_plan(plan)

    def test_cycle_covering_probe_does_not_hold(self):
        s2 = build_two_stage_probe(INFINITE, 10_000, 10_000, 10_000, spec4()).phases[1]
        assert not s2.lr_profile.hold_min
        with pytest.raises(InvalidConfig, match="^step 10001 exceeds horizon 10000$"):
            s2.lr_profile.lr(10_001)


class TestValidatePlan:
    def test_constructive_correctness(self):
        for kind in (
            Paradigm.ptfs(),
            Paradigm.cpt(CptVariant.RESET_MAX),
            Paradigm.cpt(CptVariant.REWARM_MAX),
            Paradigm.cpt(CptVariant.KEEP_MIN),
            Paradigm.path_switch(0.4),
        ):
            validate_plan(build_plan(kind, spec4()))

    def test_branch_bad_endpoint(self):
        import dataclasses

        plan = build_plan(Paradigm.path_switch(0.6), spec4())
        phases = list(plan.phases)
        idx = next(i for i, p in enumerate(phases) if p.phase_id == "v2-branch")
        # a decay that ends at 2 * eta_min instead of eta_min
        bad_decay = dataclasses.replace(
            phases[idx],
            lr_profile=DecayProfile(BASE.replace(eta_min=2 * 3e-5), phases[idx].num_steps),
        )
        assert bad_decay.lr_profile.lr(bad_decay.num_steps - 1) == 2 * 3e-5
        phases[idx] = bad_decay
        with pytest.raises(PlanViolation):
            validate_plan(dataclasses.replace(plan, phases=tuple(phases)))

    def test_decay_length_mismatch(self):
        import dataclasses

        phases = build_plan(Paradigm.path_switch(0.6), spec4()).phases
        branch = {p.phase_id: p for p in phases}["v2-branch"]
        with pytest.raises(PlanViolation, match="decay length"):
            dataclasses.replace(branch, num_steps=branch.num_steps + 1)

    def test_double_emission(self):
        import dataclasses

        plan = build_plan(Paradigm.path_switch(0.6), spec4())
        phases = list(plan.phases)
        idx = next(i for i, p in enumerate(phases) if p.phase_id == "v3-cont")
        phases[idx] = dataclasses.replace(phases[idx], emits_version_checkpoint=True)
        with pytest.raises(PlanViolation):
            validate_plan(dataclasses.replace(plan, phases=tuple(phases)))

    def test_bad_spec(self):
        plan = build_plan(Paradigm.cpt(), spec4())
        with pytest.raises(InvalidConfig, match="expected 4 increments, got 3"):
            plan.spec.replace(increments=plan.spec.increments[:-1])

    def test_dangling_init(self):
        import dataclasses

        plan = build_plan(Paradigm.cpt(), spec4())
        phases = list(plan.phases)
        phases[1] = dataclasses.replace(phases[1], init_from="nowhere")
        with pytest.raises(PlanViolation):
            validate_plan(dataclasses.replace(plan, phases=tuple(phases)))

    @pytest.mark.parametrize(
        "kind, ref",
        [
            (Paradigm.ptfs(), "inc9/full"),
            (Paradigm.ptfs(), "inc0/full"),
            (Paradigm.ptfs(), "inc1/prefix"),
            (Paradigm.ptfs(), "inc1/sideways"),
            (Paradigm.path_switch(1.0), "inc1/prefix"),
        ],
        ids=["past_last", "zero", "ptfs_prefix", "bad_part", "empty_prefix"],
    )
    def test_unknown_segment(self, kind, ref):
        # each names data that run_single would not allocate; plan_from_dict
        # loads the well-formed ids among them and rejects the others
        # (TestSerialization::test_malformed_segment_id_rejected)
        plan = build_plan(kind, uniform_spec(2, 300, BASE.replace(warmup_steps=50)))
        first = dataclasses.replace(plan.phases[0], data_segments=(ref,))
        plan = dataclasses.replace(plan, phases=(first,) + plan.phases[1:])
        with pytest.raises(PlanViolation, match=f"^{first.phase_id}: no data segment {ref}") as exc:
            validate_plan(plan)
        assert exc.value.phase_id == first.phase_id


    @pytest.mark.parametrize("trajectory_first", [True, False])
    def test_first_violation_in_plan_order(self, trajectory_first):
        # a branch that re-reads its main path's data, and a later branch
        # that ends above eta_min: the one earlier in the plan is reported
        plan = build_plan(Paradigm.path_switch(0.6), spec4())
        phases = list(plan.phases)
        ids = [p.phase_id for p in phases]
        reread, bad_end = ("v1-branch", "v3-branch") if trajectory_first else ("v3-branch", "v1-branch")
        i = ids.index(reread)
        phases[i] = dataclasses.replace(phases[i], data_segments=phases[i - 1].data_segments)
        j = ids.index(bad_end)
        phases[j] = dataclasses.replace(
            phases[j], lr_profile=DecayProfile(BASE.replace(eta_min=2 * 3e-5), phases[j].num_steps)
        )
        message = "trajectory consumes a segment twice" if trajectory_first else "branch does not end at eta_min"
        with pytest.raises(PlanViolation, match=f"^{ids[min(i, j)]}: {message}$"):
            validate_plan(dataclasses.replace(plan, phases=tuple(phases)))

    def test_gate_is_linear_in_phases(self):
        # 8999 phases; a gate that walks each phase's ancestors takes tens
        # of seconds here, one pass well under one
        base = ScheduleConfig(ScheduleKind.COSINE, 3e-3, 3e-4, 1, INFINITE)
        plan = build_plan(Paradigm.path_switch(0.6), uniform_spec(3000, 10, base))
        start = time.perf_counter()
        validate_plan(plan)
        assert time.perf_counter() - start < 5.0


REFS = ["inc1/prefix", "inc1/remainder", "inc2/prefix", "inc2/remainder"]


@st.composite
def _forest(draw):
    """Phases p0..pn-1, each a root or inited from an earlier one, with
    distinct segments drawn from REFS."""
    phases = []
    for i in range(draw(st.integers(1, 12))):
        parent = draw(st.one_of(st.none(), st.integers(0, i - 1))) if i else None
        refs = draw(st.lists(st.sampled_from(REFS), max_size=3, unique=True))
        phases.append(_phase(
            phase_id=f"p{i}", init_from=None if parent is None else f"p{parent}",
            data_segments=tuple(refs),
        ))
    return tuple(phases)


@given(_forest())
@settings(max_examples=200, deadline=None)
def test_reused_segments_matches_ancestor_walk(phases):
    by_id = {p.phase_id: p for p in phases}
    expected = []
    for phase in phases:
        refs, cur = list(phase.data_segments), phase
        while cur.init_from is not None:
            cur = by_id[cur.init_from]
            refs.extend(cur.data_segments)
        expected.append(len(set(refs)) != len(refs))
    plan = build_plan(Paradigm.ptfs(), spec4())
    assert _reused_segments(dataclasses.replace(plan, phases=phases)) == expected


def _phase(**changes):
    fields = dict(
        phase_id="p",
        version=1,
        path=PathKind.SCRATCH,
        init_from=None,
        num_steps=100,
        lr_profile=ScheduleProfile(BASE.replace(warmup_steps=10, horizon=100)),
        data_segments=("inc1/full",),
        emits_version_checkpoint=True,
    )
    fields.update(changes)
    return Phase(**fields)


def _plan_doc(edit):
    doc = plan_to_dict(build_plan(Paradigm.path_switch(0.5), uniform_spec(2, 300, BASE.replace(warmup_steps=50))))
    edit(doc)
    return plan_from_dict(doc)


def _manifest_doc(edit):
    plan = build_plan(Paradigm.path_switch(0.5), uniform_spec(2, 300, BASE.replace(warmup_steps=50)))
    doc = manifest_to_dict(Manifest(plan, [CheckpointRecord(p.phase_id, 0) for p in plan.phases]))
    edit(doc)
    return manifest_from_dict(doc)


# increments whose alpha * T is not an integer for every alpha below 1
LAYOUT_SPEC = UpdateSpec(3, (37, 53, 41), BASE.replace(warmup_steps=5))
LAYOUT_ALPHAS = (0.05, 0.3, 0.45, 0.6, 0.999, 1.0)
LAYOUT_PLANS = {
    "ptfs": build_plan(Paradigm.ptfs(), LAYOUT_SPEC),
    **{f"cpt:{v.value}": build_plan(Paradigm.cpt(v), LAYOUT_SPEC) for v in CptVariant},
    "probe": build_two_stage_probe(INFINITE, 37, 45, 53, LAYOUT_SPEC),
    **{f"path_switch:{a}": build_plan(Paradigm.path_switch(a), LAYOUT_SPEC) for a in LAYOUT_ALPHAS},
}


@pytest.mark.parametrize("label", sorted(LAYOUT_PLANS))
def test_plan_consumes_exactly_its_layout(label):
    # build_plan splits increments itself; the layout must agree with it
    assert all((a * t) % 1 for a in LAYOUT_ALPHAS[:-1] for t in LAYOUT_SPEC.increments)
    plan = LAYOUT_PLANS[label]
    segments = allocate_segments(plan.spec, 1, plan.paradigm.alpha)
    steps = {s.segment_id: s.length for s in segments}
    used = {r for p in plan.phases for r in p.data_segments}
    assert used - set(steps) == set(), "phases reference segments that are not laid out"
    assert set(steps) - used == set(), "laid-out segments that no phase consumes"
    for p in plan.phases:
        assert p.num_steps == sum(steps[r] for r in p.data_segments), p.phase_id


class TestValidByConstruction:
    """A value that breaks its rules cannot be built, nor loaded."""

    @pytest.mark.parametrize(
        "build, error, match",
        [
            (lambda: UpdateSpec(2, (100, 0), BASE.replace(warmup_steps=50)), InvalidConfig,
             "all increments must be >= 1 step"),
            (lambda: _phase(num_steps=0, lr_profile=ScheduleProfile(BASE)), PlanViolation,
             "^p: num_steps must be >= 1"),
            (lambda: _phase(lr_profile=DecayProfile(BASE, 99)), PlanViolation,
             "^p: decay length differs from num_steps"),
            (lambda: _phase(num_steps=102), PlanViolation, "^p: schedule horizon shorter than phase"),
            (lambda: _phase(data_segments=("inc1/full",) * 2), PlanViolation,
             "^p: duplicate data segment within phase"),
            (lambda: Paradigm("ptfs", alpha=0.5), InvalidConfig, "alpha applies only to path_switch"),
            (lambda: _plan_doc(lambda d: d["spec"].update(increments=[300])), InvalidConfig,
             "expected 2 increments, got 1"),
            (lambda: _plan_doc(lambda d: d["phases"][1].update(num_steps=151)), PlanViolation,
             "^v1-branch: decay length differs from num_steps"),
            (lambda: _plan_doc(lambda d: d.update(paradigm="ptfs:0.5")), InvalidConfig,
             "^paradigm 'ptfs:0.5': ptfs takes no argument$"),
            (lambda: _plan_doc(lambda d: d["spec"]["base_schedule"].update(eta_min=1.0)), InvalidConfig,
             "exceeds eta_max"),
            (lambda: _manifest_doc(lambda d: d["plan"]["spec"].update(increments=[50, 300])), InvalidConfig,
             "warmup_steps \\(50\\) must be smaller than the first increment \\(50\\)"),
            (lambda: _manifest_doc(lambda d: d["plan"]["spec"]["base_schedule"].update(warmup_steps=-1)),
             InvalidConfig, "warmup_steps must be >= 0"),
            *(
                (lambda pid=pid: _plan_doc(lambda d: d["phases"][0].update(phase_id=pid)), PlanViolation,
                 f"^{re.escape(repr(pid))}: phase_id must be a file-name stem matching ")
                for pid in ("../../escape", "a/b", "x#y", ".hidden", "")
            ),
        ],
        ids=[
            "spec", "phase_num_steps", "phase_decay_length", "phase_horizon", "phase_segments",
            "alpha_on_ptfs", "plan_spec", "plan_phase", "plan_alpha_on_ptfs", "plan_schedule",
            "manifest_spec", "manifest_schedule",
            "plan_phase_id_escapes", "plan_phase_id_path", "plan_phase_id_hash", "plan_phase_id_hidden",
            "plan_phase_id_empty",
        ],
    )
    def test_invalid_value_rejected(self, build, error, match):
        # loaders pass these through as they are, not as SchemaMismatch
        with pytest.raises(error, match=match) as exc:
            build()
        assert exc.type is error


class TestSerialization:
    @pytest.mark.parametrize(
        "kind",
        [
            Paradigm.ptfs(),
            Paradigm.cpt(CptVariant.KEEP_MIN),
            Paradigm.path_switch(0.6),
            Paradigm.cpt(CptVariant.RESET_MAX),
            Paradigm.cpt(CptVariant.REWARM_MAX),
            Paradigm.path_switch(1.0),
        ],
    )
    def test_round_trip(self, kind):
        plan = build_plan(kind, uniform_spec(3, 400, BASE.replace(warmup_steps=50)))
        assert plan_from_dict(plan_to_dict(plan)) == plan
        assert plan_from_dict(json.loads(plan_to_json(plan))) == plan

    @pytest.mark.parametrize("second_cycle", [200, 400, INFINITE], ids=["held", "exact", "inf"])
    def test_probe_round_trip(self, second_cycle):
        spec = uniform_spec(2, 400, BASE.replace(warmup_steps=50))
        plan = build_two_stage_probe(INFINITE, 400, second_cycle, 400, spec)
        assert plan.phases[1].lr_profile.hold_min == (second_cycle == 200)
        assert plan_from_dict(json.loads(plan_to_json(plan))) == plan

    @given(
        st.sampled_from([
            Paradigm.ptfs(),
            Paradigm.cpt(CptVariant.KEEP_MIN),
            Paradigm.cpt(CptVariant.RESET_MAX),
            Paradigm.cpt(CptVariant.REWARM_MAX),
            Paradigm.path_switch(0.5),
            Paradigm.path_switch(1.0),
            None,  # a two-stage probe
        ]),
        st.lists(st.integers(21, 300), min_size=2, max_size=5),
        st.integers(0, 20),
        st.sampled_from([100, 300, INFINITE]),
    )
    @settings(max_examples=60, deadline=None)
    def test_document_holds_one_lr_object_per_distinct_profile(self, kind, increments, warmup, cycle):
        spec = UpdateSpec(len(increments), tuple(increments), BASE.replace(warmup_steps=warmup, horizon=cycle))
        if kind is None:
            plan = build_two_stage_probe(INFINITE, increments[0], cycle, increments[1], spec)
        else:
            plan = build_plan(kind, spec)
        text = plan_to_json(plan)
        back = plan_from_dict(json.loads(text))
        assert back == plan and plan_to_json(back) == text
        lrs = [p["lr"] for p in json.loads(text)["phases"]]
        assert sum(type(lr) is dict for lr in lrs) == len({p.lr_profile for p in plan.phases})

    @staticmethod
    def _format_4_doc(plan) -> dict:
        # format 4 wrote the paradigm as an object of its fields
        doc = plan_to_dict(plan)
        p = plan.paradigm
        doc["paradigm"] = {"family": p.family, **({"variant": p.variant.value} if p.variant else {}),
                           **({"alpha": p.alpha} if p.alpha is not None else {})}
        doc["format_version"] = 4
        return doc

    @classmethod
    def _format_3_doc(cls, plan) -> dict:
        # format 3 also wrote each phase's lr object whole: no back-references
        doc = cls._format_4_doc(plan)
        objects = [p["lr"] for p in doc["phases"] if type(p["lr"]) is dict]
        for p in doc["phases"]:
            if type(p["lr"]) is int:
                p["lr"] = dict(objects[p["lr"]])
        doc["format_version"] = 3
        return doc

    @pytest.mark.parametrize("version", [None, 1, 2, 3, 4, 6])
    def test_other_format_version_rejected(self, version):
        plan = build_plan(Paradigm.path_switch(0.5), uniform_spec(2, 300, BASE.replace(warmup_steps=50)))
        doc = self._format_4_doc(plan) if version in (4, 6) else self._format_3_doc(plan)
        del doc["format_version"]
        if version == 2:
            # a v2 document: schedule profiles carry an "offset"
            for p in doc["phases"]:
                if p["lr"]["type"] == "schedule":
                    p["lr"]["offset"] = 0
        elif version == 1 or version is None:
            # a v1 document: no format_version, branches as per-step "series"
            branch = next(p for p in doc["phases"] if p["path"] == "branch")
            branch["lr"] = {"type": "series", "points": [[s, 3e-4] for s in range(branch["num_steps"])]}
        if version is not None:
            doc["format_version"] = version
        with pytest.raises(SchemaMismatch, match=f"format_version {version!r}"):
            plan_from_dict(doc)

    @pytest.mark.parametrize("kind", [
        Paradigm.ptfs(), Paradigm.cpt(CptVariant.KEEP_MIN), Paradigm.path_switch(0.5),
        Paradigm.path_switch(1 / 3), None,
    ], ids=["ptfs", "cpt", "path_switch", "path_switch_third", "probe"])
    def test_converted_format_4_document_reads(self, kind):
        # format 5 names the paradigm by its label: a format-4 document whose
        # paradigm object is replaced by its label and whose format_version
        # is set to 5 is a format-5 document of the same plan
        spec = uniform_spec(3, 300, BASE.replace(warmup_steps=50))
        plan = build_two_stage_probe(INFINITE, 300, 200, 300, spec) if kind is None else build_plan(kind, spec)
        doc = self._format_4_doc(plan)
        p = doc["paradigm"]
        if "variant" in p:
            doc["paradigm"] = f"cpt:{p['variant']}"
        elif "alpha" in p:
            doc["paradigm"] = f"path_switch:{p['alpha']!r}"
        else:
            doc["paradigm"] = p["family"]
        doc["format_version"] = 5
        assert plan_from_dict(doc) == plan

    def test_paradigm_object_rejected(self):
        # a format-5 document whose paradigm is still format 4's object
        plan = build_plan(Paradigm.path_switch(0.5), uniform_spec(2, 300, BASE.replace(warmup_steps=50)))
        doc = self._format_4_doc(plan)
        doc["format_version"] = 5
        with pytest.raises(SchemaMismatch) as exc:
            plan_from_dict(doc)
        assert str(exc.value) == (
            "malformed plan document: paradigm: expected a string, got {'alpha': 0.5, 'family': 'path_switch'}"
        )

    @pytest.mark.parametrize("fault", ["no_phases", "bad_segment", "bad_path", "segment_without_part"])
    def test_malformed_document_rejected(self, fault):
        plan = build_plan(Paradigm.path_switch(0.5), uniform_spec(2, 300, BASE.replace(warmup_steps=50)))
        doc = plan_to_dict(plan)
        if fault == "no_phases":
            del doc["phases"]
        elif fault == "bad_segment":
            doc["phases"][0]["data_segments"] = ["bogus"]
        elif fault == "bad_path":
            doc["phases"][0]["path"] = "sideways"
        else:
            doc["phases"][0]["data_segments"] = ["inc1"]
        with pytest.raises(SchemaMismatch, match="malformed plan document"):
            plan_from_dict(doc)

    @pytest.mark.parametrize(
        "ref",
        ["xyz1/full", "inc1/full/extra", "inc01/full", "inc0/full", "inc1/sideways",
         "inc-1/full", "inc+1/full", "inc1/", "/full", " inc1/full", "inc1/full\n",
         "inc\uff11/full", 1],
        ids=["prefix", "extra_part", "leading_zero", "zero", "bad_part", "negative", "plus",
             "no_part", "no_increment", "space", "newline", "fullwidth_digit", "not_a_string"],
    )
    def test_malformed_segment_id_rejected(self, ref):
        plan = build_plan(Paradigm.ptfs(), uniform_spec(2, 300, BASE.replace(warmup_steps=50)))
        doc = plan_to_dict(plan)
        doc["phases"][0]["data_segments"] = [ref]
        with pytest.raises(SchemaMismatch, match=re.escape(f"segment id {ref!r}")):
            plan_from_dict(doc)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d["phases"][0].update(num_steps=150.5),
            lambda d: d["phases"][0].update(version=True),
            lambda d: d["phases"][1]["lr"].update(length=150.5),
            lambda d: d["phases"][0].update(emits_version_checkpoint="false"),
            lambda d: d["phases"][0]["lr"].update(hold_min=0),
            lambda d: d["spec"].update(num_versions=2.5),
            lambda d: d["spec"].update(increments=[300.5, 300]),
            lambda d: d["spec"].update(seed=0.5),
            lambda d: d["spec"]["base_schedule"].update(horizon=10_000.5),
            lambda d: d["spec"]["base_schedule"].update(warmup_steps=False),
        ],
        ids=["num_steps", "bool_version", "decay_length", "string_bool", "int_bool",
             "num_versions", "increment", "seed", "horizon", "bool_warmup"],
    )
    def test_non_integer_count_rejected(self, edit):
        # int() or bool() would truncate or coerce each of these
        with pytest.raises(SchemaMismatch, match="malformed plan document"):
            _plan_doc(edit)

    def test_non_integer_count_rejected_in_manifest(self):
        with pytest.raises(SchemaMismatch, match="malformed manifest document"):
            _manifest_doc(lambda d: d["plan"]["spec"].update(increments=[300, 300.5]))

    def test_integral_floats_load(self):
        # JSON writers may emit 3e2 for 300
        def edit(d):
            d["phases"][0].update(num_steps=150.0)
            d["spec"].update(increments=[3e2, 300.0])
            d["spec"]["base_schedule"].update(horizon=1e4)

        plan = build_plan(Paradigm.path_switch(0.5), uniform_spec(2, 300, BASE.replace(warmup_steps=50)))
        assert _plan_doc(edit) == plan

    @pytest.mark.parametrize("steps", [100, 100_000])
    def test_json_size_independent_of_steps(self, steps):
        plan = build_plan(Paradigm.path_switch(0.6), uniform_spec(12, steps, BASE.replace(warmup_steps=10)))
        assert len(plan_to_json(plan).encode()) < 64 * 1024

    def test_stable_field_order(self):
        plan = build_plan(Paradigm.path_switch(0.5), uniform_spec(2, 300, BASE.replace(warmup_steps=50)))
        doc = json.loads(plan_to_json(plan))
        assert list(doc) == ["format_version", "paradigm", "spec", "phases"]
        assert doc["format_version"] == 5
        assert doc["paradigm"] == "path_switch:0.5"
        # v1-main, v1-branch and v1-cont hold the three lr objects; v2-main
        # and v2-branch point back to v1-cont's and v1-branch's
        lrs = [p["lr"] for p in doc["phases"]]
        assert list(lrs[0]) == list(lrs[2]) == ["type", "config", "hold_min"]
        assert list(lrs[1]) == ["type", "config", "length"]
        assert lrs[3:] == [2, 1]
        assert list(doc["phases"][0]) == [
            "phase_id",
            "version",
            "path",
            "init_from",
            "num_steps",
            "lr",
            "data_segments",
            "emits_version_checkpoint",
        ]

    def test_json_deterministic(self):
        plan = build_plan(Paradigm.path_switch(0.5), uniform_spec(2, 300, BASE.replace(warmup_steps=50)))
        assert plan_to_json(plan) == plan_to_json(plan)


class TestSpecValidation:
    def test_bad_increment_count(self):
        with pytest.raises(InvalidConfig, match="^expected 3 increments, got 2$"):
            build_plan(Paradigm.ptfs(), UpdateSpec(3, (100, 100), BASE, 0))

    def test_warmup_exceeds_first_increment(self):
        message = r"^warmup_steps \(2000\) must be smaller than the first increment \(1000\)$"
        with pytest.raises(InvalidConfig, match=message):
            build_plan(Paradigm.ptfs(), uniform_spec(2, 1000, BASE))  # W=2000 > 1000
