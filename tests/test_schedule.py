import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrpath.errors import InvalidConfig, StepOutOfRange, UnsupportedKind
from lrpath.paradigm import DecayProfile
from lrpath.schedule import (
    INFINITE,
    ScheduleConfig,
    ScheduleKind,
    decay_lr,
    lr_at,
)

COSINE = ScheduleConfig(ScheduleKind.COSINE, 3e-4, 3e-5, 2000, 10_000)


def rel_err(a, b):
    return abs(a - b) / abs(b)


class TestValidateConfig:
    def test_paper_defaults_ok(self):
        ScheduleConfig(ScheduleKind.COSINE, 3e-4, 3e-5, 2000, 10_000)

    def test_inverted_bounds(self):
        with pytest.raises(InvalidConfig):
            COSINE.replace(eta_max=3e-5, eta_min=3e-4)

    def test_warmup_consumes_horizon(self):
        with pytest.raises(InvalidConfig):
            COSINE.replace(warmup_steps=10_000)

    def test_bad_breaks(self):
        with pytest.raises(InvalidConfig):
            COSINE.replace(multistep_breaks=(0.9, 0.8))

    def test_bad_factors(self):
        with pytest.raises(InvalidConfig):
            COSINE.replace(multistep_factors=(0.1, 0.316))

    @pytest.mark.parametrize("rates, message", [
        ({"eta_max": INFINITE}, "eta_max must be finite, got inf"),
        ({"eta_max": INFINITE, "eta_min": INFINITE}, "eta_max must be finite, got inf"),
        ({"eta_min": INFINITE}, "eta_min must be finite, got inf"),
        ({"eta_max": float("nan")}, "eta_max must be positive, got nan"),
        ({"eta_min": float("nan")}, "eta_min must be positive, got nan"),
    ])
    def test_rates_finite(self, rates, message):
        with pytest.raises(InvalidConfig, match=f"^{message}$"):
            COSINE.replace(**rates)


class TestLrAt:
    def test_warmup_end(self):
        assert rel_err(lr_at(COSINE, 2000), 3.0e-4) < 1e-12

    def test_warmup_midpoint(self):
        assert rel_err(lr_at(COSINE, 1000), 1.5e-4) < 1e-12

    def test_cosine_decay_midpoint(self):
        assert rel_err(lr_at(COSINE, 6000), 1.65e-4) < 1e-12

    def test_cosine_endpoint(self):
        assert rel_err(lr_at(COSINE, 10_000), 3.0e-5) < 1e-12

    def test_step_zero(self):
        assert lr_at(COSINE, 0) == 0.0

    def test_multistep_second_plateau(self):
        cfg = COSINE.replace(kind=ScheduleKind.MULTISTEP)
        assert rel_err(lr_at(cfg, 8500), 0.316 * 3e-4) < 1e-12

    def test_multistep_plateaus(self):
        cfg = COSINE.replace(kind=ScheduleKind.MULTISTEP)
        assert lr_at(cfg, 7999) == 3e-4
        assert rel_err(lr_at(cfg, 9500), 0.10 * 3e-4) < 1e-12

    def test_beyond_horizon(self):
        with pytest.raises(StepOutOfRange):
            lr_at(COSINE, 10_001)

    def test_infinite_horizon_plateaus(self):
        cfg = COSINE.replace(horizon=INFINITE)
        for step in (2000, 50_000, 10**7):
            assert lr_at(cfg, step) == 3e-4

    def test_constant(self):
        cfg = COSINE.replace(kind=ScheduleKind.CONSTANT, horizon=INFINITE)
        assert lr_at(cfg, 5000) == 3e-4


class TestProperties:
    @given(st.integers(0, 2000))
    def test_warmup_linearity(self, s):
        assert lr_at(COSINE, s) == 3e-4 * s / 2000

    @given(st.sampled_from([ScheduleKind.COSINE, ScheduleKind.KNEE]), st.integers(2000, 9999))
    def test_monotone_decay(self, kind, s):
        cfg = COSINE.replace(kind=kind)
        assert lr_at(cfg, s) >= lr_at(cfg, s + 1) - 1e-18

    @pytest.mark.parametrize(
        "kind", [ScheduleKind.COSINE, ScheduleKind.KNEE, ScheduleKind.MULTISTEP]
    )
    def test_boundary_agreement(self, kind):
        cfg = COSINE.replace(kind=kind)
        assert rel_err(lr_at(cfg, 2000), 3e-4) < 1e-12
        assert rel_err(lr_at(cfg, 10_000), 3e-5) < 1e-12

    def test_decay_identity_cosine(self):
        for i in range(8000):
            assert rel_err(decay_lr(COSINE, 8000, i), lr_at(COSINE, 2001 + i)) < 1e-12

    def test_decay_identity_knee_no_plateau(self):
        # With no explore plateau the knee decay window spans [W, L], so
        # an uncompressed fast decay must reproduce it pointwise.
        cfg = COSINE.replace(kind=ScheduleKind.KNEE, knee_explore_fraction=0.0)
        for i in range(8000):
            assert rel_err(decay_lr(cfg, 8000, i), lr_at(cfg, 2001 + i)) < 1e-12

    @given(st.floats(0.5, 100.0), st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_scale_equivariance(self, c, s):
        scaled = COSINE.replace(eta_max=3e-4 * c, eta_min=3e-5 * c)
        base = lr_at(COSINE, s)
        if base == 0.0:
            assert lr_at(scaled, s) == 0.0
        else:
            assert rel_err(lr_at(scaled, s), c * base) < 1e-12


class TestDecaySegment:
    """The complete decay a branch runs: decay_lr and DecayProfile."""

    def test_cosine_branch(self):
        profile = DecayProfile(COSINE, 6000)
        assert profile.length == 6000
        assert profile.lr(5999) == 3e-5
        assert profile.lr(0) <= 3e-4
        with pytest.raises(StepOutOfRange):
            profile.lr(6000)
        with pytest.raises(StepOutOfRange):
            profile.lr(-1)

    def test_knee_two_point(self):
        cfg = COSINE.replace(kind=ScheduleKind.KNEE)
        mid = 3e-4 + (3e-5 - 3e-4) * 0.5
        assert rel_err(decay_lr(cfg, 2, 0), mid) < 1e-12
        assert decay_lr(cfg, 2, 1) == 3e-5

    def test_multistep_split(self):
        cfg = COSINE.replace(kind=ScheduleKind.MULTISTEP)
        lrs = [decay_lr(cfg, 1000, s) for s in range(1000)]
        assert all(rel_err(lr, 0.316 * 3e-4) < 1e-12 for lr in lrs[:500])
        assert all(lr == 3e-5 for lr in lrs[500:])

    @pytest.mark.parametrize("kind", [ScheduleKind.CONSTANT])
    def test_unsupported_kinds(self, kind):
        with pytest.raises(UnsupportedKind):
            DecayProfile(COSINE.replace(kind=kind, horizon=INFINITE), 100)

    def test_bad_length(self):
        with pytest.raises(InvalidConfig):
            DecayProfile(COSINE, 0)
