"""Compile version-update scenarios into explicit, auditable training plans.

A TrainingPlan is a topologically ordered list of phases.  Each phase
fully determines its learning-rate profile, its data segments and the
checkpoint it initializes from, so a trainer can execute it without any
further decisions.
"""

from __future__ import annotations

import dataclasses
import functools
import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from . import schedule as sched
from .data import allocate_segments, fast_decay_steps
from .documents import JsonObject, json_int, json_list, schema_error, to_json, wrong_value
from .errors import AlphaDegenerate, InvalidConfig, PlanViolation
from .schedule import DECAYING_KINDS, INFINITE, ScheduleConfig, ScheduleKind, decay_lr, lr_at

PLAN_FORMAT_VERSION = 4


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
            raise InvalidConfig(f"unknown paradigm family {self.family!r}")
        if self.family == "cpt" and self.variant is None:
            raise InvalidConfig("cpt paradigm requires a variant")
        if self.family == "path_switch":
            if self.alpha is None or not (0.0 <= self.alpha <= 1.0):
                raise InvalidConfig(f"alpha must lie in [0, 1], got {self.alpha}")
        elif self.alpha is not None:
            raise InvalidConfig(f"alpha applies only to path_switch, not {self.family}")

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

    Raises InvalidConfig for any other label.
    """
    name, _, arg = text.partition(":")
    name = name.replace("-", "_")
    if name == "ptfs":
        return Paradigm.ptfs()
    if name == "path_switch" and not arg:
        raise InvalidConfig("path_switch requires an alpha, e.g. path_switch:0.6")
    try:
        if name == "cpt":
            return Paradigm.cpt(CptVariant(arg.replace("-", "_") or CptVariant.RESET_MAX))
        if name == "path_switch":
            return Paradigm.path_switch(float(arg))
    except ValueError as exc:
        raise InvalidConfig(f"paradigm {text!r}: {exc}") from exc
    raise InvalidConfig(f"unknown paradigm {text!r}")


@dataclass(frozen=True)
class UpdateSpec:
    """A version-update scenario: how many versions, how much data per update."""

    num_versions: int
    increments: tuple[int, ...]  # training steps added per version
    base_schedule: ScheduleConfig  # horizon ignored; set per phase
    seed: int = 0

    def __post_init__(self):
        if self.num_versions < 1:
            raise InvalidConfig(f"num_versions must be >= 1, got {self.num_versions}")
        if len(self.increments) != self.num_versions:
            raise InvalidConfig(
                f"expected {self.num_versions} increments, got {len(self.increments)}"
            )
        if any(t < 1 for t in self.increments):
            raise InvalidConfig("all increments must be >= 1 step")
        if self.base_schedule.warmup_steps >= self.increments[0]:
            raise InvalidConfig(
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
    """`num_versions` increments of `steps_per_version` steps each; raises
    InvalidConfig for a count whose increments no memory can list."""
    try:
        increments = (steps_per_version,) * num_versions
    except MemoryError:  # raised at once for a tuple larger than any address space
        raise InvalidConfig(f"num_versions {num_versions} is more versions than memory can hold") from None
    return UpdateSpec(
        num_versions=num_versions,
        increments=increments,
        base_schedule=base_schedule,
        seed=seed,
    )


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
            raise InvalidConfig(f"{self.config.kind.value} has no decay shape")

    def lr(self, local_step: int) -> float:
        return decay_lr(self.config, self.length, local_step)


LRProfile = Union[ScheduleProfile, DecayProfile]

# a phase id names the run's files `ckpt/<id>_final.bin` and `trace_<id>.csv`,
# so it is a file-name stem: no path separator, no leading dot
_PHASE_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


@dataclass(frozen=True)
class Phase:
    phase_id: str
    version: int
    path: PathKind
    init_from: Optional[str]  # phase_id of the producing phase, None = fresh init
    num_steps: int
    lr_profile: LRProfile
    # the ids of the data segments it consumes, as `allocate_segments` names
    # them: "inc<i>/full", "inc<i>/prefix" or "inc<i>/remainder"
    data_segments: tuple[str, ...]
    emits_version_checkpoint: bool

    def __post_init__(self):
        pid = self.phase_id
        if not _PHASE_ID.fullmatch(pid):
            raise PlanViolation(repr(pid), f"phase_id must be a file-name stem matching {_PHASE_ID.pattern}")
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


def build_plan(kind: Paradigm, spec: UpdateSpec) -> TrainingPlan:
    """Compile (paradigm, scenario) into an explicit phase sequence.

    Each distinct LR profile is built once, and every phase that runs it
    holds that one object.
    """
    base = spec.base_schedule
    inc = spec.increments
    n = spec.num_versions
    phases: list[Phase] = []

    @functools.cache
    def schedule(warmup: int, horizon: int) -> ScheduleProfile:
        return ScheduleProfile(base.replace(warmup_steps=warmup, horizon=horizon))

    @functools.cache
    def constant(eta_max: float, warmup: int) -> ScheduleProfile:
        return ScheduleProfile(ScheduleConfig(ScheduleKind.CONSTANT, eta_max, base.eta_min, warmup, INFINITE))

    @functools.cache
    def decay(length: int) -> DecayProfile:
        return DecayProfile(base, length)

    if kind.family == "ptfs":
        full = tuple(f"inc{j}/full" for j in range(1, n + 1))
        horizon = 0
        for i in range(1, n + 1):
            horizon += inc[i - 1]
            phases.append(
                Phase(
                    phase_id=f"v{i}-scratch",
                    version=i,
                    path=PathKind.SCRATCH,
                    init_from=None,
                    num_steps=horizon,
                    lr_profile=schedule(base.warmup_steps, horizon),
                    data_segments=full[:i],
                    emits_version_checkpoint=True,
                )
            )

    elif kind.family == "cpt":
        # Version 1 is a plain scratch run with a full decay; identical to
        # the PTFS first phase by construction.
        phases.append(
            Phase(
                phase_id="v1-scratch",
                version=1,
                path=PathKind.SCRATCH,
                init_from=None,
                num_steps=inc[0],
                lr_profile=schedule(base.warmup_steps, inc[0]),
                data_segments=("inc1/full",),
                emits_version_checkpoint=True,
            )
        )
        for i in range(2, n + 1):
            t = inc[i - 1]
            if kind.variant is CptVariant.RESET_MAX:
                profile = schedule(0, t)
            elif kind.variant is CptVariant.REWARM_MAX:
                if base.warmup_steps >= t:
                    raise InvalidConfig(
                        f"rewarm warmup ({base.warmup_steps}) must be smaller "
                        f"than increment {i} ({t})"
                    )
                profile = schedule(base.warmup_steps, t)
            else:  # KEEP_MIN: constant eta_min for the whole update
                profile = constant(base.eta_min, 0)
            phases.append(
                Phase(
                    phase_id=f"v{i}-cpt",
                    version=i,
                    path=PathKind.MAIN,
                    init_from=phases[-1].phase_id,
                    num_steps=t,
                    lr_profile=profile,
                    data_segments=(f"inc{i}/full",),
                    emits_version_checkpoint=True,
                )
            )

    elif kind.family == "path_switch":
        alpha = kind.alpha
        main_tip: Optional[str] = None
        for i in range(1, n + 1):
            prefix, rest = (f"inc{i}/prefix",), (f"inc{i}/remainder",)
            b = fast_decay_steps(inc[i - 1], alpha)
            m = inc[i - 1] - b
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
                    lr_profile=constant(base.eta_max, warm),
                    data_segments=prefix,
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
                    lr_profile=decay(b),
                    data_segments=rest,
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
                    lr_profile=constant(base.eta_max, 0),
                    data_segments=rest,
                    emits_version_checkpoint=False,
                )
                phases.append(cp)
                main_tip = cp.phase_id

    else:
        raise InvalidConfig(f"build_plan does not handle family {kind.family!r}")

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
        raise InvalidConfig(
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
    profile1 = ScheduleProfile(cfg1)
    # a cycle that ends before the probe does holds eta_min afterwards
    profile2 = ScheduleProfile(cfg2, hold_min=second_len > second_cycle)
    if profile2 == profile1:  # one object per distinct profile, as in build_plan
        profile2 = profile1
    stage1 = Phase(
        phase_id="stage1",
        version=1,
        path=PathKind.SCRATCH,
        init_from=None,
        num_steps=fork_step,
        lr_profile=profile1,
        data_segments=("inc1/full",),
        emits_version_checkpoint=True,
    )
    stage2 = Phase(
        phase_id="stage2",
        version=2,
        path=PathKind.BRANCH,
        init_from="stage1",
        num_steps=second_len,
        lr_profile=profile2,
        data_segments=("inc2/full",),
        emits_version_checkpoint=True,
    )
    return TrainingPlan(
        paradigm=Paradigm("two_stage_probe"),
        spec=probe_spec,
        phases=(stage1, stage2),
    )


def _reused_segments(plan: TrainingPlan) -> list[bool]:
    """For each phase, whether its trajectory (its ancestors' segments and
    its own) holds a segment twice.

    One depth-first pass over the `init_from` forest, which must link each
    phase to an earlier one.  It keeps a count per segment on the current
    root path and the number of segments counted twice or more.  A leaf
    only looks its segments up: nothing below it reads the counts, and a
    phase holds no segment twice itself (`Phase` rules that out).  So a
    plan of scratch runs (PTFS) hashes no segment at all.
    """
    index = {p.phase_id: i for i, p in enumerate(plan.phases)}
    children: list[list[int]] = [[] for _ in plan.phases]
    roots = []
    for i, p in enumerate(plan.phases):
        (roots if p.init_from is None else children[index[p.init_from]]).append(i)
    reused = [False] * len(plan.phases)
    on_path: dict[str, int] = {}
    repeats = 0
    stack = [(i, True) for i in reversed(roots)]
    while stack:
        i, entering = stack.pop()
        refs = plan.phases[i].data_segments
        if not children[i]:
            reused[i] = repeats > 0 or bool(on_path) and any(r in on_path for r in refs)
        elif entering:
            for r in refs:
                on_path[r] = on_path.get(r, 0) + 1
                repeats += on_path[r] == 2
            reused[i] = repeats > 0
            stack.append((i, False))
            stack.extend((c, True) for c in reversed(children[i]))
        else:
            for r in refs:
                repeats -= on_path[r] == 2
                on_path[r] -= 1
                if not on_path[r]:
                    del on_path[r]
    return reused


def validate_plan(plan: TrainingPlan) -> None:
    """The one gate between a plan and a run.

    The spec and each phase checked their own rules when they were built;
    this raises PlanViolation for the first broken rule across phases.  A
    plan that passes has unique phase ids, each `init_from` names an
    earlier phase, and each data segment is one that `allocate_segments`
    lays out for the plan.
    """
    segments = {s.segment_id for s in allocate_segments(plan.spec, 1, plan.paradigm.alpha)}
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
        if not segments.issuperset(phase.data_segments):
            missing = next(r for r in phase.data_segments if r not in segments)
            raise PlanViolation(pid, f"no data segment {missing} in this plan")
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
    reused = _reused_segments(plan)
    for phase, reuses in zip(plan.phases, reused):
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
        if reuses:
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
    """The plan document.  A phase's `lr` is its profile's object where the
    profile first appears, and later the index of that object among the
    document's `lr` objects, counted from 0 in phase order."""
    index: dict[int, int] = {}  # id of a profile -> the index of its object
    phases = []
    for p in plan.phases:
        lr = index.get(id(p.lr_profile))
        if lr is None:
            index[id(p.lr_profile)] = len(index)
            lr = _profile_to_dict(p.lr_profile)
        phases.append({
            "phase_id": p.phase_id,
            "version": p.version,
            "path": p.path.value,
            "init_from": p.init_from,
            "num_steps": p.num_steps,
            "lr": lr,
            "data_segments": list(p.data_segments),
            "emits_version_checkpoint": p.emits_version_checkpoint,
        })
    return {
        "format_version": PLAN_FORMAT_VERSION,
        "paradigm": paradigm_to_dict(plan.paradigm),
        "spec": spec_to_dict(plan.spec),
        "phases": phases,
    }


def plan_to_json(plan: TrainingPlan) -> str:
    return to_json(plan_to_dict(plan), sort_keys=False)


_SEGMENT_ID = re.compile(r"inc([1-9][0-9]*)/(full|prefix|remainder)")
_PHASE_KEYS = frozenset({
    "phase_id", "version", "path", "init_from", "num_steps", "lr", "data_segments",
    "emits_version_checkpoint",
})
_PLAN_KEYS = frozenset({"format_version", "paradigm", "spec", "phases"})


def _segment_id(ref, at: tuple, key) -> str:
    """`ref` if it is a segment id as `allocate_segments` names one."""
    if type(ref) is not str or _SEGMENT_ID.fullmatch(ref) is None:
        raise schema_error(
            at, key,
            f"segment id {ref!r} is not inc<n>/full, inc<n>/prefix or inc<n>/remainder",
        )
    return ref


class _PhaseReader:
    """Reads the phases of one plan document.

    Each `lr` object is read once, where it appears; a later phase's int
    `lr` is the index of one read before it, and that phase shares its
    profile.  Each distinct segment id is checked once.
    """

    def __init__(self):
        self.profiles: list[LRProfile] = []
        self.segment_ids: set[str] = set()

    def __call__(self, d: dict, at: tuple, key) -> Phase:
        # a phase whose fields all have their exact JSON types is built at
        # once; any other is read field by field, which names the first bad one
        if type(d) is dict and d.keys() == _PHASE_KEYS:
            pid, path, init_from = d["phase_id"], d["path"], d["init_from"]
            version, steps, emits = d["version"], d["num_steps"], d["emits_version_checkpoint"]
            path = PathKind._value2member_map_.get(path) if type(path) is str else None
            if (
                type(pid) is str and type(version) is int and path is not None and type(steps) is int
                and (init_from is None or type(init_from) is str) and type(emits) is bool
            ):
                at += (key,)
                lr = self.profile(d["lr"], at, "lr")
                segments = self.segments(d["data_segments"], at, "data_segments")
                return Phase(pid, version, path, init_from, steps, lr, segments, emits)
        o = JsonObject(d, at, key, _PHASE_KEYS)
        return Phase(
            phase_id=o.str("phase_id"),
            version=o.int("version"),
            path=o.enum("path", PathKind),
            init_from=o.str("init_from", nullable=True),
            num_steps=o.int("num_steps"),
            lr_profile=o.object("lr", self.profile),
            data_segments=o.object("data_segments", self.segments),
            emits_version_checkpoint=o.bool("emits_version_checkpoint"),
        )

    def profile(self, value, at: tuple, key) -> LRProfile:
        profiles = self.profiles
        if type(value) is int and 0 <= value < len(profiles):
            return profiles[value]
        if type(value) is not dict:
            expected = f"an lr object or the index of one of the {len(profiles)} before it"
            raise wrong_value(at, key, expected if profiles else "an lr object", value)
        profile = _profile_from_dict(value, at, key)
        profiles.append(profile)
        return profile

    def segments(self, value, at: tuple, key) -> tuple[str, ...]:
        if type(value) is list and set(map(type, value)) <= {str}:
            new = set(value).difference(self.segment_ids)
            if all(_SEGMENT_ID.fullmatch(r) for r in new):
                self.segment_ids |= new
                return tuple(value)
        # id by id, which names the first bad one
        return tuple(json_list(value, at, key, _segment_id))


def plan_from_dict(d: dict) -> TrainingPlan:
    o = JsonObject(d, ("plan document",), None, _PLAN_KEYS)
    o.version(PLAN_FORMAT_VERSION, "plan")
    return TrainingPlan(
        paradigm=o.object("paradigm", paradigm_from_dict),
        spec=o.object("spec", spec_from_dict),
        phases=tuple(o.list("phases", _PhaseReader())),
    )
