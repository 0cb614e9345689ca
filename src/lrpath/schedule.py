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

from .errors import InvalidConfig, StepOutOfRange, UnsupportedKind

INFINITE = math.inf


class ScheduleKind(str, Enum):
    COSINE = "cosine"
    KNEE = "knee"
    MULTISTEP = "multistep"
    CONSTANT = "constant"
    INVERSE_SQRT = "inverse_sqrt"


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

    def replace(self, **kwargs) -> "ScheduleConfig":
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class LRSeries:
    """A materialized (step, lr) curve with strictly increasing steps."""

    points: tuple[tuple[int, float], ...]

    def __len__(self) -> int:
        return len(self.points)

    def to_csv(self) -> str:
        lines = ["step,lr"]
        lines.extend(f"{s},{lr:.12g}" for s, lr in self.points)
        return "\n".join(lines) + "\n"


def validate_config(cfg: ScheduleConfig) -> None:
    """Raise InvalidConfig naming the first violated invariant."""
    if not isinstance(cfg.kind, ScheduleKind):
        raise InvalidConfig(f"unknown schedule kind {cfg.kind!r}")
    if not (cfg.eta_max > 0):
        raise InvalidConfig(f"eta_max must be positive, got {cfg.eta_max}")
    if not (cfg.eta_min > 0):
        raise InvalidConfig(f"eta_min must be positive, got {cfg.eta_min}")
    if cfg.eta_min > cfg.eta_max:
        raise InvalidConfig(
            f"eta_min ({cfg.eta_min}) exceeds eta_max ({cfg.eta_max})"
        )
    if cfg.warmup_steps < 0:
        raise InvalidConfig(f"warmup_steps must be >= 0, got {cfg.warmup_steps}")
    if cfg.horizon != INFINITE:
        if cfg.horizon <= 0 or int(cfg.horizon) != cfg.horizon:
            raise InvalidConfig(f"horizon must be a positive integer or INFINITE")
        if cfg.warmup_steps >= cfg.horizon:
            raise InvalidConfig(
                f"warmup_steps ({cfg.warmup_steps}) must be smaller than "
                f"horizon ({cfg.horizon})"
            )
    if not (0.0 <= cfg.knee_explore_fraction <= 1.0):
        raise InvalidConfig("knee_explore_fraction must lie in [0, 1]")
    b1, b2 = cfg.multistep_breaks
    if not (0.0 < b1 < b2 < 1.0):
        raise InvalidConfig("multistep_breaks must be strictly increasing in (0, 1)")
    f1, f2 = cfg.multistep_factors
    if not (0.0 < f2 < f1 <= 1.0):
        raise InvalidConfig(
            "multistep_factors must be strictly decreasing positive values <= 1"
        )


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
    validate_config(cfg)
    if step < 0:
        raise StepOutOfRange(f"step must be nonnegative, got {step}")
    w = cfg.warmup_steps
    if step < w:
        return cfg.eta_max * step / w
    horizon = cfg.horizon
    if horizon != INFINITE and step > horizon:
        raise StepOutOfRange(f"step {step} exceeds horizon {horizon}")

    kind = cfg.kind
    if kind is ScheduleKind.CONSTANT:
        return cfg.eta_max
    if kind is ScheduleKind.INVERSE_SQRT:
        ref = max(w, 1)
        if step < ref:
            return cfg.eta_max
        return max(cfg.eta_min, cfg.eta_max * math.sqrt(ref / step))
    # Decaying kinds plateau at eta_max when the horizon is infinite.
    if horizon == INFINITE:
        return cfg.eta_max
    if kind is ScheduleKind.MULTISTEP:
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
    of the decay window.  The last step is exactly eta_min.  The caller
    validates (cfg, length) once; see paradigm.DecayProfile.
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


def dump_curve(cfg: ScheduleConfig, start: int, stop: int, stride: int) -> LRSeries:
    """Materialize lr_at over [start, stop] at the given stride."""
    if stride < 1:
        raise InvalidConfig(f"stride must be >= 1, got {stride}")
    if start > stop:
        raise InvalidConfig(f"start ({start}) must not exceed stop ({stop})")
    points = tuple((s, lr_at(cfg, s)) for s in range(start, stop + 1, stride))
    return LRSeries(points)


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


def config_from_dict(d: dict) -> ScheduleConfig:
    horizon = d.get("horizon", "inf")
    return ScheduleConfig(
        kind=ScheduleKind(d["kind"]),
        eta_max=float(d["eta_max"]),
        eta_min=float(d["eta_min"]),
        warmup_steps=int(d.get("warmup_steps", 0)),
        horizon=INFINITE if horizon in ("inf", None) else int(horizon),
        knee_explore_fraction=float(d.get("knee_explore_fraction", 0.5)),
        multistep_breaks=tuple(d.get("multistep_breaks", (0.8, 0.9))),
        multistep_factors=tuple(d.get("multistep_factors", (0.316, 0.10))),
    )
