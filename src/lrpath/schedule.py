"""Learning-rate schedules: pure step -> LR maps plus fast-decay profiles.

All schedule kinds share a linear warmup ramp from 0 to eta_max over
`warmup_steps`, followed by the kind's own shape until `horizon`.
`horizon` may be `INFINITE` (math.inf), in which case the decaying kinds
plateau at eta_max after warmup instead of decaying.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

from .documents import JsonObject, json_float
from .errors import InvalidConfig, StepOutOfRange, UnsupportedKind

INFINITE = math.inf


class ScheduleKind(str, Enum):
    COSINE = "cosine"
    KNEE = "knee"
    MULTISTEP = "multistep"
    CONSTANT = "constant"


#: Kinds that have a decay shape (usable for branch fast-decay profiles).
DECAYING_KINDS = frozenset(
    {ScheduleKind.COSINE, ScheduleKind.KNEE, ScheduleKind.MULTISTEP}
)


@dataclass(frozen=True)
class ScheduleConfig:
    kind: ScheduleKind
    eta_max: float = 3e-4
    eta_min: float = 3e-5
    warmup_steps: int = 2000
    horizon: float = 10_000  # positive integer number of steps, or INFINITE
    knee_explore_fraction: float = 0.5
    multistep_breaks: tuple[float, float] = (0.8, 0.9)
    multistep_factors: tuple[float, float] = (0.316, 0.10)

    def __post_init__(self):
        """Raise InvalidConfig naming the first violated invariant."""
        if not isinstance(self.kind, ScheduleKind):
            raise InvalidConfig(f"unknown schedule kind {self.kind!r}")
        if not (self.eta_max > 0):
            raise InvalidConfig(f"eta_max must be positive, got {self.eta_max}")
        if not (self.eta_min > 0):
            raise InvalidConfig(f"eta_min must be positive, got {self.eta_min}")
        if not math.isfinite(self.eta_max):
            raise InvalidConfig(f"eta_max must be finite, got {self.eta_max}")
        if not math.isfinite(self.eta_min):
            raise InvalidConfig(f"eta_min must be finite, got {self.eta_min}")
        if self.eta_min > self.eta_max:
            raise InvalidConfig(
                f"eta_min ({self.eta_min}) exceeds eta_max ({self.eta_max})"
            )
        if self.warmup_steps < 0:
            raise InvalidConfig(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if self.horizon != INFINITE:
            if self.horizon <= 0 or int(self.horizon) != self.horizon:
                raise InvalidConfig(f"horizon must be a positive integer or INFINITE")
            if self.warmup_steps >= self.horizon:
                raise InvalidConfig(
                    f"warmup_steps ({self.warmup_steps}) must be smaller than "
                    f"horizon ({self.horizon})"
                )
        if not (0.0 <= self.knee_explore_fraction <= 1.0):
            raise InvalidConfig("knee_explore_fraction must lie in [0, 1]")
        b1, b2 = self.multistep_breaks
        if not (0.0 < b1 < b2 < 1.0):
            raise InvalidConfig("multistep_breaks must be strictly increasing in (0, 1)")
        f1, f2 = self.multistep_factors
        if not (0.0 < f2 < f1 <= 1.0):
            raise InvalidConfig(
                "multistep_factors must be strictly decreasing positive values <= 1"
            )

    def replace(self, **kwargs) -> "ScheduleConfig":
        return dataclasses.replace(self, **kwargs)


def _decay_value(cfg: ScheduleConfig, u: float) -> float:
    """Decay shape of the post-warmup window, u in [0, 1] -> lr.

    For Knee the explore plateau is part of the shape; the fast-decay
    profile in decay_lr() deliberately compresses only the decaying
    tail (see there).
    """
    if cfg.kind is ScheduleKind.COSINE:
        return cfg.eta_min + 0.5 * (cfg.eta_max - cfg.eta_min) * (
            1.0 + math.cos(math.pi * u)
        )
    if cfg.kind is ScheduleKind.KNEE:
        frac = cfg.knee_explore_fraction
        if u <= frac:
            return cfg.eta_max
        t = (u - frac) / (1.0 - frac)
        return cfg.eta_max + (cfg.eta_min - cfg.eta_max) * t
    raise UnsupportedKind(cfg.kind)


def lr_at(cfg: ScheduleConfig, step: int) -> float:
    """Learning rate at a global step (0-based, warmup included)."""
    if step < 0:
        raise StepOutOfRange(f"step must be nonnegative, got {step}")
    w = cfg.warmup_steps
    if step < w:
        return cfg.eta_max * step / w
    horizon = cfg.horizon
    if horizon != INFINITE and step > horizon:
        raise StepOutOfRange(f"step {step} exceeds horizon {horizon}")

    # Decaying kinds plateau at eta_max when the horizon is infinite.
    if cfg.kind is ScheduleKind.CONSTANT or horizon == INFINITE:
        return cfg.eta_max
    if cfg.kind is ScheduleKind.MULTISTEP:
        b1, b2 = cfg.multistep_breaks
        f1, f2 = cfg.multistep_factors
        if step < b1 * horizon:
            return cfg.eta_max
        if step < b2 * horizon:
            return f1 * cfg.eta_max
        return f2 * cfg.eta_max
    return _decay_value(cfg, (step - w) / (horizon - w))


def decay_lr(cfg: ScheduleConfig, length: int, step: int) -> float:
    """LR at local `step` of a complete decay from eta_max to eta_min.

    The decay spans `length` steps and uses the kind's decay shape without
    warmup: cosine curve, linear for Knee (the explore plateau belongs to
    the uncompressed schedule, not to a fast decay), and the two lowered
    plateaus for MultiStep, split proportionally to their original shares
    of the decay window.  The last step is exactly eta_min.  `length`
    and the kind are checked once by paradigm.DecayProfile.
    """
    if not 0 <= step < length:
        raise StepOutOfRange(f"step {step} outside a decay of {length} steps")
    if step == length - 1:
        return cfg.eta_min
    i = step + 1
    if cfg.kind is ScheduleKind.MULTISTEP:
        b1, b2 = cfg.multistep_breaks
        n1 = round(length * ((b2 - b1) / (1.0 - b1)))
        return cfg.multistep_factors[0] * cfg.eta_max if i <= n1 else cfg.eta_min
    if cfg.kind is ScheduleKind.KNEE:
        return cfg.eta_max + (cfg.eta_min - cfg.eta_max) * (i / length)
    return _decay_value(cfg, i / length)


def config_to_dict(cfg: ScheduleConfig) -> dict:
    return {
        "kind": cfg.kind.value,
        "eta_max": cfg.eta_max,
        "eta_min": cfg.eta_min,
        "warmup_steps": cfg.warmup_steps,
        "horizon": "inf" if cfg.horizon == INFINITE else int(cfg.horizon),
        "knee_explore_fraction": cfg.knee_explore_fraction,
        "multistep_breaks": list(cfg.multistep_breaks),
        "multistep_factors": list(cfg.multistep_factors),
    }


_CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(ScheduleConfig))


def config_from_dict(d: dict, at: tuple = ("schedule config",), key=None) -> ScheduleConfig:
    o = JsonObject(d, at, key, _CONFIG_KEYS)
    horizon = o.fields.get("horizon", "inf")
    return ScheduleConfig(
        kind=o.enum("kind", ScheduleKind),
        eta_max=o.float("eta_max"),
        eta_min=o.float("eta_min"),
        warmup_steps=o.int("warmup_steps", 0),
        horizon=INFINITE if horizon in ("inf", None) else o.int("horizon"),
        knee_explore_fraction=o.float("knee_explore_fraction", 0.5),
        multistep_breaks=tuple(o.list("multistep_breaks", json_float, 2, default=(0.8, 0.9))),
        multistep_factors=tuple(o.list("multistep_factors", json_float, 2, default=(0.316, 0.10))),
    )
