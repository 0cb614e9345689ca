import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrpath.cost import paradigm_cost, relative_cost
from lrpath.errors import AlphaDegenerate, InvalidConfig
from lrpath.paradigm import Paradigm, UpdateSpec, build_plan, plan_cost, uniform_spec
from lrpath.schedule import ScheduleConfig, ScheduleKind

BASE = ScheduleConfig(ScheduleKind.COSINE, 3e-4, 3e-5, 100, 10_000)


class TestWorkedValues:
    def test_four_versions(self):
        assert paradigm_cost(Paradigm.ptfs(), 4, 10_000) == 100_000
        assert paradigm_cost(Paradigm.cpt(), 4, 10_000) == 40_000
        assert paradigm_cost(Paradigm.path_switch(0.6), 4, 10_000) == 58_000

    def test_ten_versions(self):
        assert paradigm_cost(Paradigm.ptfs(), 10, 10_000) == 550_000
        assert paradigm_cost(Paradigm.cpt(), 10, 10_000) == 100_000
        assert paradigm_cost(Paradigm.path_switch(0.6), 10, 10_000) == 154_000

    def test_single_version_path_switch(self):
        for alpha in (0.1, 0.5, 1.0):
            assert paradigm_cost(Paradigm.path_switch(alpha), 1, 777) == 777

    def test_relative(self):
        assert relative_cost(Paradigm.path_switch(0.6), 4, 10_000) == pytest.approx(0.58)
        assert relative_cost(Paradigm.cpt(), 4, 10_000) == pytest.approx(0.40)
        for n in (1, 3, 9):
            assert relative_cost(Paradigm.ptfs(), n, 5000) == 1.0

    def test_invalid_args(self):
        with pytest.raises(InvalidConfig, match="^n_versions must be >= 1, got 0$"):
            paradigm_cost(Paradigm.ptfs(), 0, 100)
        with pytest.raises(InvalidConfig, match="^unit steps must be >= 1, got 0$"):
            paradigm_cost(Paradigm.cpt(), 3, 0)

    def test_probe_has_no_closed_form(self):
        with pytest.raises(InvalidConfig) as exc:
            paradigm_cost(Paradigm("two_stage_probe"), 2, 10)
        assert str(exc.value) == (
            "two_stage_probe has no closed-form cost: a probe's plan is built only by build_two_stage_probe"
        )


class TestProperties:
    @given(
        st.integers(1, 12),
        st.integers(200, 100_000).map(lambda t: t // 10 * 10),
        st.sampled_from([0.2, 0.4, 0.6, 0.8, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_plan_agreement_integral_alpha_t(self, n, t, alpha):
        # t is a multiple of 10 so alpha*t is integral on this grid.
        spec = uniform_spec(n, t, BASE)
        for kind in (Paradigm.ptfs(), Paradigm.cpt(), Paradigm.path_switch(alpha)):
            assert plan_cost(build_plan(kind, spec)) == paradigm_cost(kind, n, t)

    def test_degrees_via_finite_differences(self):
        t = 1000
        ptfs = [paradigm_cost(Paradigm.ptfs(), n, t) for n in range(1, 7)]
        ours = [paradigm_cost(Paradigm.path_switch(0.6), n, t) for n in range(1, 7)]
        d2_ptfs = [ptfs[i + 2] - 2 * ptfs[i + 1] + ptfs[i] for i in range(4)]
        d2_ours = [ours[i + 2] - 2 * ours[i + 1] + ours[i] for i in range(4)]
        assert all(d == t for d in d2_ptfs)  # quadratic, constant 2nd difference
        assert all(d == 0 for d in d2_ours)  # linear

    @given(st.integers(3, 12), st.integers(100, 50_000), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_monotonicity(self, n, t, alpha):
        cpt = paradigm_cost(Paradigm.cpt(), n, t)
        ours = paradigm_cost(Paradigm.path_switch(alpha), n, t)
        ptfs = paradigm_cost(Paradigm.ptfs(), n, t)
        assert cpt <= ours <= 2 * cpt <= ptfs


def test_fast_decay_split_agrees_on_small_grid():
    # the closed-form cost and the compiled plan split alpha*t the same
    # way, also when it is not integral
    base = BASE.replace(warmup_steps=0)
    cases = 0
    for n in range(1, 7):
        for t in range(1, 60):
            spec = uniform_spec(n, t, base)
            for alpha in (0.05, 0.1, 0.25, 0.3, 0.45, 0.5, 0.6, 0.7, 0.9, 1.0):
                kind = Paradigm.path_switch(alpha)
                try:
                    cost = plan_cost(build_plan(kind, spec))
                except AlphaDegenerate:
                    continue  # no fast-decay step
                cases += 1
                assert paradigm_cost(kind, n, t) == cost, (n, t, alpha)
    assert cases > 3000


def test_equal_budget_cpt_is_a_steps_list():
    # the README's example: path_switch:0.6 at 4 x 2000 steps costs
    # 8000 + 3 * 1200 steps, and so does a CPT of 4 x 2900
    budget = paradigm_cost(Paradigm.path_switch(0.6), 4, 2000)
    cpt = UpdateSpec(4, (2900, 2900, 2900, 2900), BASE.replace(warmup_steps=200))
    assert budget == 11_600 == plan_cost(build_plan(Paradigm.cpt(), cpt))
