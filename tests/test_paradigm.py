import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrpath.errors import (
    AlphaDegenerate,
    InvalidSpec,
    PlanViolation,
    SchemaMismatch,
    StepOutOfRange,
)
from lrpath.paradigm import (
    CptVariant,
    DecayProfile,
    Paradigm,
    PathKind,
    ScheduleProfile,
    SegmentRef,
    UpdateSpec,
    build_plan,
    build_two_stage_probe,
    equalize_cpt_cost,
    plan_cost,
    plan_from_dict,
    plan_to_dict,
    plan_to_json,
    uniform_spec,
    validate_plan,
)
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
            SegmentRef(1, "full"),
            SegmentRef(2, "full"),
            SegmentRef(3, "full"),
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
        branch = plan.phase("v2-branch")
        assert branch.init_from == "v2-main"
        assert branch.emits_version_checkpoint
        assert isinstance(branch.lr_profile, DecayProfile)
        assert branch.lr_profile.lr(branch.num_steps - 1) == 3e-5

    def test_main_continuation_shares_remainder_data(self):
        plan = build_plan(Paradigm.path_switch(0.6), spec4())
        assert plan.phase("v2-branch").data_segments == (SegmentRef(2, "remainder"),)
        assert plan.phase("v2-cont").data_segments == (SegmentRef(2, "remainder"),)
        assert plan.phase("v3-main").init_from == "v2-cont"

    def test_warmup_only_in_first_main(self):
        plan = build_plan(Paradigm.path_switch(0.6), spec4())
        assert plan.phase("v1-main").lr_profile.config.warmup_steps == 2000
        assert plan.phase("v2-main").lr_profile.config.warmup_steps == 0

    def test_alpha_degenerate(self):
        with pytest.raises(AlphaDegenerate):
            build_plan(Paradigm.path_switch(0.0), spec4())

    def test_alpha_one_omits_main_prefix(self):
        plan = build_plan(Paradigm.path_switch(1.0), spec4())
        assert "v1-main" not in [p.phase_id for p in plan.phases]
        assert plan_cost(plan) == 70_000  # 2*T*N - T
        validate_plan(plan)

    def test_alpha_out_of_range(self):
        with pytest.raises(InvalidSpec):
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
        with pytest.raises(InvalidSpec):
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
        with pytest.raises(StepOutOfRange):
            s2.lr_profile.lr(10_001)


class TestEqualizeCptCost:
    def test_worked_example(self):
        spec = uniform_spec(4, 5000, BASE.replace(warmup_steps=200))
        out = equalize_cpt_cost(spec, 0.2)
        assert out.increments == (5750, 5750, 5750, 5750)
        assert sum(out.increments) == 23_000

    def test_matches_path_switch_cost(self):
        spec = uniform_spec(4, 5000, BASE.replace(warmup_steps=200))
        out = equalize_cpt_cost(spec, 0.6)
        plan = build_plan(Paradigm.path_switch(0.6), spec)
        assert sum(out.increments) == plan_cost(plan)

    def test_alpha_zero_unchanged(self):
        spec = spec4()
        assert equalize_cpt_cost(spec, 0.0) is spec

    def test_single_version_unchanged(self):
        spec = uniform_spec(1, 10_000, BASE)
        assert equalize_cpt_cost(spec, 0.6) is spec

    def test_remainder_goes_to_earliest(self):
        spec = uniform_spec(3, 1001, BASE.replace(warmup_steps=100))
        out = equalize_cpt_cost(spec, 0.5)
        # total = 3003 + round(0.5*2002) = 4004 -> 1335, 1335, 1334
        assert sum(out.increments) == 4004
        assert out.increments[0] >= out.increments[-1]


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

        plan = build_plan(Paradigm.path_switch(0.6), spec4())
        phases = list(plan.phases)
        idx = next(i for i, p in enumerate(phases) if p.phase_id == "v2-branch")
        phases[idx] = dataclasses.replace(phases[idx], num_steps=phases[idx].num_steps + 1)
        with pytest.raises(PlanViolation, match="decay length"):
            validate_plan(dataclasses.replace(plan, phases=tuple(phases)))

    def test_double_emission(self):
        import dataclasses

        plan = build_plan(Paradigm.path_switch(0.6), spec4())
        phases = list(plan.phases)
        idx = next(i for i, p in enumerate(phases) if p.phase_id == "v3-cont")
        phases[idx] = dataclasses.replace(phases[idx], emits_version_checkpoint=True)
        with pytest.raises(PlanViolation):
            validate_plan(dataclasses.replace(plan, phases=tuple(phases)))

    def test_dangling_init(self):
        import dataclasses

        plan = build_plan(Paradigm.cpt(), spec4())
        phases = list(plan.phases)
        phases[1] = dataclasses.replace(phases[1], init_from="nowhere")
        with pytest.raises(PlanViolation):
            validate_plan(dataclasses.replace(plan, phases=tuple(phases)))


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

    @pytest.mark.parametrize("version", [None, 1, 3])
    def test_other_format_version_rejected(self, version):
        # a v1 document: no format_version, branches as per-step "series"
        plan = build_plan(Paradigm.path_switch(0.5), uniform_spec(2, 300, BASE.replace(warmup_steps=50)))
        doc = plan_to_dict(plan)
        del doc["format_version"]
        branch = next(p for p in doc["phases"] if p["path"] == "branch")
        branch["lr"] = {"type": "series", "points": [[s, 3e-4] for s in range(branch["num_steps"])]}
        if version is not None:
            doc["format_version"] = version
        with pytest.raises(SchemaMismatch, match=f"format_version {version!r}"):
            plan_from_dict(doc)

    @pytest.mark.parametrize("steps", [100, 100_000])
    def test_json_size_independent_of_steps(self, steps):
        plan = build_plan(Paradigm.path_switch(0.6), uniform_spec(12, steps, BASE.replace(warmup_steps=10)))
        assert len(plan_to_json(plan).encode()) < 64 * 1024

    def test_stable_field_order(self):
        plan = build_plan(Paradigm.ptfs(), uniform_spec(2, 300, BASE.replace(warmup_steps=50)))
        doc = json.loads(plan_to_json(plan))
        assert list(doc) == ["format_version", "paradigm", "spec", "phases"]
        assert doc["format_version"] == 2
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
        with pytest.raises(InvalidSpec):
            build_plan(Paradigm.ptfs(), UpdateSpec(3, (100, 100), BASE, 0))

    def test_warmup_exceeds_first_increment(self):
        with pytest.raises(InvalidSpec):
            build_plan(Paradigm.ptfs(), uniform_spec(2, 1000, BASE))  # W=2000 > 1000
