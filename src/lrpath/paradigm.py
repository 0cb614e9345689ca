"""Compile version-update scenarios into explicit, auditable training plans.

A TrainingPlan is a topologically ordered list of phases.  Each phase
fully determines its learning-rate profile, its data segments and the
checkpoint it initializes from, so a trainer can execute it without any
further decisions.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from . import schedule as sched
from .documents import JsonObject, json_int, schema_error, to_json
from .errors import AlphaDegenerate, InvalidConfig, InvalidSpec, PlanViolation, UnsupportedKind
from .schedule import DECAYING_KINDS, INFINITE, ScheduleConfig, ScheduleKind, decay_lr, lr_at

PLAN_FORMAT_VERSION = 3


class PathKind(str, Enum):
    MAIN = "main"
    BRANCH = "branch"
    SCRATCH = "scratch"


class CptVariant(str, Enum):
    REWARM_MAX = "rewarm_max"
    RESET_MAX = "reset_max"
    KEEP_MIN = "keep_min"


@dataclass(frozen=True)
class Paradigm:
    """PTFS, a CPT variant, or path switching with fast-decay fraction alpha."""

    family: str  # "ptfs" | "cpt" | "path_switch" | "two_stage_probe"
    variant: Optional[CptVariant] = None
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.family not in ("ptfs", "cpt", "path_switch", "two_stage_probe"):
            raise InvalidSpec(f"unknown paradigm family {self.family!r}")
        if self.family == "cpt" and self.variant is None:
            raise InvalidSpec("cpt paradigm requires a variant")
        if self.family == "path_switch":
            if self.alpha is None or not (0.0 <= self.alpha <= 1.0):
                raise InvalidSpec(f"alpha must lie in [0, 1], got {self.alpha}")
        elif self.alpha is not None:
            raise InvalidSpec(f"alpha applies only to path_switch, not {self.family}")

    @staticmethod
    def ptfs() -> "Paradigm":
        return Paradigm("ptfs")

    @staticmethod
    def cpt(variant: CptVariant = CptVariant.RESET_MAX) -> "Paradigm":
        return Paradigm("cpt", variant=CptVariant(variant))

    @staticmethod
    def path_switch(alpha: float) -> "Paradigm":
        return Paradigm("path_switch", alpha=float(alpha))

    @property
    def label(self) -> str:
        if self.family == "cpt":
            return f"cpt:{self.variant.value}"
        if self.family == "path_switch":
            text = f"{self.alpha:g}"  # the short form, where it reads back as this alpha
            return f"path_switch:{text if float(text) == self.alpha else repr(self.alpha)}"
        return self.family


def parse_paradigm(text: str) -> Paradigm:
    """Parse a paradigm label as `lrpath plan` and run configs write it:
    ptfs, cpt:<variant>, path_switch:<alpha>.

    Raises InvalidSpec for any other label.
    """
    name, _, arg = text.partition(":")
    name = name.replace("-", "_")
    if name == "ptfs":
        return Paradigm.ptfs()
    if name == "path_switch" and not arg:
        raise InvalidSpec("path_switch requires an alpha, e.g. path_switch:0.6")
    try:
        if name == "cpt":
            return Paradigm.cpt(CptVariant(arg.replace("-", "_") or CptVariant.RESET_MAX))
        if name == "path_switch":
            return Paradigm.path_switch(float(arg))
    except ValueError as exc:
        raise InvalidSpec(f"paradigm {text!r}: {exc}") from exc
    raise InvalidSpec(f"unknown paradigm {text!r}")


@dataclass(frozen=True)
class UpdateSpec:
    """A version-update scenario: how many versions, how much data per update."""

    num_versions: int
    increments: tuple[int, ...]  # training steps added per version
    base_schedule: ScheduleConfig  # horizon ignored; set per phase
    seed: int = 0

    def __post_init__(self):
        if self.num_versions < 1:
            raise InvalidSpec(f"num_versions must be >= 1, got {self.num_versions}")
        if len(self.increments) != self.num_versions:
            raise InvalidSpec(
                f"expected {self.num_versions} increments, got {len(self.increments)}"
            )
        if any(t < 1 for t in self.increments):
            raise InvalidSpec("all increments must be >= 1 step")
        if self.base_schedule.warmup_steps >= self.increments[0]:
            raise InvalidSpec(
                f"warmup_steps ({self.base_schedule.warmup_steps}) must be smaller "
                f"than the first increment ({self.increments[0]})"
            )

    def replace(self, **kwargs) -> "UpdateSpec":
        return dataclasses.replace(self, **kwargs)


def uniform_spec(
    num_versions: int,
    steps_per_version: int,
    base_schedule: ScheduleConfig,
    seed: int = 0,
) -> UpdateSpec:
    return UpdateSpec(
        num_versions=num_versions,
        increments=(steps_per_version,) * num_versions,
        base_schedule=base_schedule,
        seed=seed,
    )


@dataclass(frozen=True)
class SegmentRef:
    """Which slice of which data increment a phase consumes."""

    increment: int  # 1-based increment index
    part: str  # "full" | "prefix" | "remainder"

    @property
    def ref_id(self) -> str:
        return f"inc{self.increment}/{self.part}"


@dataclass(frozen=True)
class ScheduleProfile:
    """LR given by a schedule evaluated at the local step.

    With `hold_min`, steps past the horizon hold eta_min instead of being
    out of range (a probe cycle that ends before its phase does).
    """

    config: ScheduleConfig
    hold_min: bool = False

    def lr(self, local_step: int) -> float:
        if self.hold_min and local_step > self.config.horizon:
            return self.config.eta_min
        return lr_at(self.config, local_step)


@dataclass(frozen=True)
class DecayProfile:
    """Complete decay from eta_max to eta_min over `length` local steps."""

    config: ScheduleConfig
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise InvalidConfig(f"decay length must be >= 1, got {self.length}")
        if self.config.kind not in DECAYING_KINDS:
            raise UnsupportedKind(f"{self.config.kind} has no decay shape")

    def lr(self, local_step: int) -> float:
        return decay_lr(self.config, self.length, local_step)


LRProfile = Union[ScheduleProfile, DecayProfile]


@dataclass(frozen=True)
class Phase:
    phase_id: str
    version: int
    path: PathKind
    init_from: Optional[str]  # phase_id of the producing phase, None = fresh init
    num_steps: int
    lr_profile: LRProfile
    data_segments: tuple[SegmentRef, ...]
    emits_version_checkpoint: bool

    def __post_init__(self):
        pid = self.phase_id
        if self.num_steps < 1:
            raise PlanViolation(pid, "num_steps must be >= 1")
        profile = self.lr_profile
        if isinstance(profile, DecayProfile):
            if profile.length != self.num_steps:
                raise PlanViolation(pid, "decay length differs from num_steps")
        elif not profile.hold_min:
            h = profile.config.horizon
            if h != INFINITE and self.num_steps - 1 > h:
                raise PlanViolation(pid, "schedule horizon shorter than phase")
        if len(set(self.data_segments)) != len(self.data_segments):
            raise PlanViolation(pid, "duplicate data segment within phase")


@dataclass(frozen=True)
class TrainingPlan:
    paradigm: Paradigm
    spec: UpdateSpec
    phases: tuple[Phase, ...]


def _constant_profile(base: ScheduleConfig, warmup: int) -> ScheduleProfile:
    cfg = ScheduleConfig(
        kind=ScheduleKind.CONSTANT,
        eta_max=base.eta_max,
        eta_min=base.eta_min,
        warmup_steps=warmup,
        horizon=INFINITE,
    )
    return ScheduleProfile(cfg)


def fast_decay_steps(t: int, alpha: float) -> int:
    """Fast-decay steps of a t-step increment: floor(alpha * t), guarded
    against float slop just below an integer.  Plans, segments and costs
    all split an increment this way; the main path keeps the rest."""
    return math.floor(alpha * t + 1e-9)


def segment_steps(spec: UpdateSpec, alpha: Optional[float]) -> dict[str, int]:
    """Training steps of each data segment, by ref id, in corpus order.

    Without `alpha` each increment is one "full" segment.  Path switching
    splits each increment at its fork into a main-path "prefix" and the
    fast-decay "remainder"; a part with no steps has no segment.
    """
    out: dict[str, int] = {}
    for i, t in enumerate(spec.increments, start=1):
        if alpha is None:
            out[SegmentRef(i, "full").ref_id] = t
            continue
        prefix = t - fast_decay_steps(t, alpha)
        for part, steps in (("prefix", prefix), ("remainder", t - prefix)):
            if steps:
                out[SegmentRef(i, part).ref_id] = steps
    return out


def build_plan(kind: Paradigm, spec: UpdateSpec) -> TrainingPlan:
    """Compile (paradigm, scenario) into an explicit phase sequence."""
    base = spec.base_schedule
    inc = spec.increments
    n = spec.num_versions
    phases: list[Phase] = []

    if kind.family == "ptfs":
        for i in range(1, n + 1):
            horizon = sum(inc[:i])
            cfg = base.replace(horizon=horizon)
            phases.append(
                Phase(
                    phase_id=f"v{i}-scratch",
                    version=i,
                    path=PathKind.SCRATCH,
                    init_from=None,
                    num_steps=horizon,
                    lr_profile=ScheduleProfile(cfg),
                    data_segments=tuple(SegmentRef(j, "full") for j in range(1, i + 1)),
                    emits_version_checkpoint=True,
                )
            )

    elif kind.family == "cpt":
        # Version 1 is a plain scratch run with a full decay; identical to
        # the PTFS first phase by construction.
        cfg1 = base.replace(horizon=inc[0])
        phases.append(
            Phase(
                phase_id="v1-scratch",
                version=1,
                path=PathKind.SCRATCH,
                init_from=None,
                num_steps=inc[0],
                lr_profile=ScheduleProfile(cfg1),
                data_segments=(SegmentRef(1, "full"),),
                emits_version_checkpoint=True,
            )
        )
        for i in range(2, n + 1):
            t = inc[i - 1]
            if kind.variant is CptVariant.RESET_MAX:
                cfg = base.replace(warmup_steps=0, horizon=t)
            elif kind.variant is CptVariant.REWARM_MAX:
                if base.warmup_steps >= t:
                    raise InvalidSpec(
                        f"rewarm warmup ({base.warmup_steps}) must be smaller "
                        f"than increment {i} ({t})"
                    )
                cfg = base.replace(horizon=t)
            else:  # KEEP_MIN: constant eta_min for the whole update
                cfg = ScheduleConfig(
                    kind=ScheduleKind.CONSTANT,
                    eta_max=base.eta_min,
                    eta_min=base.eta_min,
                    warmup_steps=0,
                    horizon=INFINITE,
                )
            phases.append(
                Phase(
                    phase_id=f"v{i}-cpt",
                    version=i,
                    path=PathKind.MAIN,
                    init_from=phases[-1].phase_id,
                    num_steps=t,
                    lr_profile=ScheduleProfile(cfg),
                    data_segments=(SegmentRef(i, "full"),),
                    emits_version_checkpoint=True,
                )
            )

    elif kind.family == "path_switch":
        alpha = kind.alpha
        split = segment_steps(spec, alpha)
        main_tip: Optional[str] = None
        for i in range(1, n + 1):
            prefix, rest = SegmentRef(i, "prefix"), SegmentRef(i, "remainder")
            m = split.get(prefix.ref_id, 0)
            b = split.get(rest.ref_id, 0)
            if b < 1:
                raise AlphaDegenerate(
                    f"alpha={alpha} leaves no fast-decay steps for "
                    f"increment {i} (T={inc[i - 1]})"
                )
            fork = main_tip
            if m > 0:
                warm = base.warmup_steps if i == 1 else 0
                mp = Phase(
                    phase_id=f"v{i}-main",
                    version=i,
                    path=PathKind.MAIN,
                    init_from=main_tip,
                    num_steps=m,
                    lr_profile=_constant_profile(base, warm),
                    data_segments=(prefix,),
                    emits_version_checkpoint=False,
                )
                phases.append(mp)
                fork = mp.phase_id
            phases.append(
                Phase(
                    phase_id=f"v{i}-branch",
                    version=i,
                    path=PathKind.BRANCH,
                    init_from=fork,
                    num_steps=b,
                    lr_profile=DecayProfile(base, b),
                    data_segments=(rest,),
                    emits_version_checkpoint=True,
                )
            )
            if i < n:
                cp = Phase(
                    phase_id=f"v{i}-cont",
                    version=i,
                    path=PathKind.MAIN,
                    init_from=fork,
                    num_steps=b,
                    lr_profile=_constant_profile(base, 0),
                    data_segments=(rest,),
                    emits_version_checkpoint=False,
                )
                phases.append(cp)
                main_tip = cp.phase_id

    else:
        raise InvalidSpec(f"build_plan does not handle family {kind.family!r}")

    return TrainingPlan(paradigm=kind, spec=spec, phases=tuple(phases))


def plan_cost(plan: TrainingPlan) -> int:
    """Total training steps; shared path-switch prefixes appear once."""
    return sum(p.num_steps for p in plan.phases)


def build_two_stage_probe(
    first_cycle: float,
    fork_step: int,
    second_cycle: float,
    second_len: int,
    spec: UpdateSpec,
) -> TrainingPlan:
    """Two-stage LR probe: scratch run forked into a continual run.

    Stage 1 trains from scratch under a cosine schedule with cycle length
    `first_cycle` and checkpoints at `fork_step`; stage 2 resumes from that
    checkpoint for `second_len` steps under a cosine cycle of
    `second_cycle`, starting at step 0 with no warmup.  Stage 1 consumes
    the first data increment, stage 2 the second.
    """
    if first_cycle != INFINITE and fork_step > first_cycle:
        raise InvalidSpec(
            f"fork_step ({fork_step}) exceeds first cycle ({first_cycle})"
        )
    base = spec.base_schedule
    probe_spec = spec.replace(
        num_versions=2, increments=(fork_step, second_len)
    )
    cfg1 = base.replace(kind=ScheduleKind.COSINE, horizon=first_cycle)
    cfg2 = base.replace(
        kind=ScheduleKind.COSINE, warmup_steps=0, horizon=second_cycle
    )
    # a cycle that ends before the probe does holds eta_min afterwards
    profile2 = ScheduleProfile(cfg2, hold_min=second_len > second_cycle)
    stage1 = Phase(
        phase_id="stage1",
        version=1,
        path=PathKind.SCRATCH,
        init_from=None,
        num_steps=fork_step,
        lr_profile=ScheduleProfile(cfg1),
        data_segments=(SegmentRef(1, "full"),),
        emits_version_checkpoint=True,
    )
    stage2 = Phase(
        phase_id="stage2",
        version=2,
        path=PathKind.BRANCH,
        init_from="stage1",
        num_steps=second_len,
        lr_profile=profile2,
        data_segments=(SegmentRef(2, "full"),),
        emits_version_checkpoint=True,
    )
    return TrainingPlan(
        paradigm=Paradigm("two_stage_probe"),
        spec=probe_spec,
        phases=(stage1, stage2),
    )


def _ancestors(plan: TrainingPlan, phase: Phase) -> list[Phase]:
    chain = []
    by_id = {p.phase_id: p for p in plan.phases}
    cur = phase
    while cur.init_from is not None:
        cur = by_id[cur.init_from]
        chain.append(cur)
    return chain


def validate_plan(plan: TrainingPlan) -> None:
    """The one gate between a plan and a run.

    The spec and each phase checked their own rules when they were built;
    this raises PlanViolation for the first broken rule across phases.  A
    plan that passes has unique phase ids, each `init_from` names an
    earlier phase, and each data segment is one that `segment_steps`
    allocates for the plan.
    """
    segments = segment_steps(plan.spec, plan.paradigm.alpha)
    seen: set[str] = set()
    emitted: dict[int, str] = {}
    eta_max = plan.spec.base_schedule.eta_max
    eta_min = plan.spec.base_schedule.eta_min
    rel = lambda a, b: abs(a - b) / max(abs(b), 1e-300)

    for phase in plan.phases:
        pid = phase.phase_id
        if pid in seen:
            raise PlanViolation(pid, "duplicate phase_id")
        if phase.init_from is not None and phase.init_from not in seen:
            raise PlanViolation(pid, f"init_from {phase.init_from!r} not an earlier phase")
        seen.add(pid)
        for r in phase.data_segments:
            if r.ref_id not in segments:
                raise PlanViolation(pid, f"no data segment {r.ref_id} in this plan")
        if phase.emits_version_checkpoint:
            if phase.version in emitted:
                raise PlanViolation(
                    pid, f"version {phase.version} already emitted by {emitted[phase.version]}"
                )
            emitted[phase.version] = pid

    for v in range(1, plan.spec.num_versions + 1):
        if v not in emitted:
            raise PlanViolation(f"version {v}", "no phase emits this version")

    # Path-switch geometry: branches decay completely, main phases hold
    # eta_max after warmup; no trajectory consumes a segment twice.
    for phase in plan.phases:
        first = phase.lr_profile.lr(0)
        last = phase.lr_profile.lr(phase.num_steps - 1)
        if phase.path is PathKind.BRANCH and plan.paradigm.family == "path_switch":
            if first > eta_max * (1 + 1e-12):
                raise PlanViolation(phase.phase_id, "branch starts above eta_max")
            if rel(last, eta_min) > 1e-12:
                raise PlanViolation(phase.phase_id, "branch does not end at eta_min")
        if (
            phase.path is PathKind.MAIN
            and plan.paradigm.family == "path_switch"
            and isinstance(phase.lr_profile, ScheduleProfile)
        ):
            warm = phase.lr_profile.config.warmup_steps
            if phase.num_steps - 1 >= warm and rel(last, eta_max) > 1e-12:
                raise PlanViolation(phase.phase_id, "main path departs from eta_max")
        refs = [r for a in _ancestors(plan, phase) for r in a.data_segments]
        refs.extend(phase.data_segments)
        if len(set(refs)) != len(refs):
            raise PlanViolation(phase.phase_id, "trajectory consumes a segment twice")


# ---------------------------------------------------------------------------
# serialization

def paradigm_to_dict(p: Paradigm) -> dict:
    d = {"family": p.family}
    if p.variant is not None:
        d["variant"] = p.variant.value
    if p.alpha is not None:
        d["alpha"] = p.alpha
    return d


_PARADIGM_KEYS = frozenset({"family", "variant", "alpha"})
_SPEC_KEYS = frozenset({"num_versions", "increments", "base_schedule", "seed"})


def paradigm_from_dict(d: dict, at: tuple = ("paradigm",), key=None) -> Paradigm:
    o = JsonObject(d, at, key, _PARADIGM_KEYS)
    return Paradigm(o.str("family"), o.enum("variant", CptVariant, None), o.float("alpha", None))


def spec_to_dict(spec: UpdateSpec) -> dict:
    return {
        "num_versions": spec.num_versions,
        "increments": list(spec.increments),
        "base_schedule": sched.config_to_dict(spec.base_schedule),
        "seed": spec.seed,
    }


def spec_from_dict(d: dict, at: tuple = ("update spec",), key=None) -> UpdateSpec:
    o = JsonObject(d, at, key, _SPEC_KEYS)
    return UpdateSpec(
        num_versions=o.int("num_versions"),
        increments=tuple(o.list("increments", json_int)),
        base_schedule=o.object("base_schedule", sched.config_from_dict),
        seed=o.int("seed", 0),
    )


def _profile_to_dict(profile: LRProfile) -> dict:
    if isinstance(profile, DecayProfile):
        return {
            "type": "decay",
            "config": sched.config_to_dict(profile.config),
            "length": profile.length,
        }
    return {
        "type": "schedule",
        "config": sched.config_to_dict(profile.config),
        "hold_min": profile.hold_min,
    }


_PROFILE_KEYS = {
    "decay": frozenset({"type", "config", "length"}),
    "schedule": frozenset({"type", "config", "hold_min"}),
}


def _profile_from_dict(d: dict, at: tuple, key) -> LRProfile:
    o = JsonObject(d, at, key)
    kind = o.str("type")
    if kind not in _PROFILE_KEYS:
        raise schema_error(o.at, "type", f"unknown lr profile type {kind!r}")
    o.only(_PROFILE_KEYS[kind])
    cfg = o.object("config", sched.config_from_dict)
    if kind == "decay":
        return DecayProfile(cfg, o.int("length"))
    return ScheduleProfile(cfg, o.bool("hold_min"))


def plan_to_dict(plan: TrainingPlan) -> dict:
    return {
        "format_version": PLAN_FORMAT_VERSION,
        "paradigm": paradigm_to_dict(plan.paradigm),
        "spec": spec_to_dict(plan.spec),
        "phases": [
            {
                "phase_id": p.phase_id,
                "version": p.version,
                "path": p.path.value,
                "init_from": p.init_from,
                "num_steps": p.num_steps,
                "lr": _profile_to_dict(p.lr_profile),
                "data_segments": [r.ref_id for r in p.data_segments],
                "emits_version_checkpoint": p.emits_version_checkpoint,
            }
            for p in plan.phases
        ],
    }


def plan_to_json(plan: TrainingPlan) -> str:
    return to_json(plan_to_dict(plan), sort_keys=False)


_SEGMENT_ID = re.compile(r"inc([1-9][0-9]*)/(full|prefix|remainder)")
_PHASE_KEYS = frozenset({
    "phase_id", "version", "path", "init_from", "num_steps", "lr", "data_segments",
    "emits_version_checkpoint",
})
_PLAN_KEYS = frozenset({"format_version", "paradigm", "spec", "phases"})


def _segment_ref_from_id(ref_id, at: tuple, key) -> SegmentRef:
    """Inverse of `SegmentRef.ref_id`; anything else is not a segment id."""
    match = _SEGMENT_ID.fullmatch(ref_id) if type(ref_id) is str else None
    if match is None:
        raise schema_error(
            at, key,
            f"segment id {ref_id!r} is not inc<n>/full, inc<n>/prefix or inc<n>/remainder",
        )
    return SegmentRef(int(match[1]), match[2])


def _phase_from_dict(d: dict, at: tuple, key) -> Phase:
    o = JsonObject(d, at, key, _PHASE_KEYS)
    return Phase(
        phase_id=o.str("phase_id"),
        version=o.int("version"),
        path=o.enum("path", PathKind),
        init_from=o.str("init_from", nullable=True),
        num_steps=o.int("num_steps"),
        lr_profile=o.object("lr", _profile_from_dict),
        data_segments=tuple(o.list("data_segments", _segment_ref_from_id)),
        emits_version_checkpoint=o.bool("emits_version_checkpoint"),
    )


def plan_from_dict(d: dict) -> TrainingPlan:
    o = JsonObject(d, ("plan document",), None, _PLAN_KEYS)
    o.version(PLAN_FORMAT_VERSION, "plan")
    return TrainingPlan(
        paradigm=o.object("paradigm", paradigm_from_dict),
        spec=o.object("spec", spec_from_dict),
        phases=tuple(o.list("phases", _phase_from_dict)),
    )
