"""Learning-rate path switching for model version updates.

Schedule generation, training-plan compilation (PTFS, CPT variants, path
switching), exact cost accounting, checkpoint lineage, and a deterministic
desk-scale trainer.
"""

from .cost import paradigm_cost, relative_cost
from .paradigm import (
    CptVariant,
    Paradigm,
    TrainingPlan,
    UpdateSpec,
    build_plan,
    build_two_stage_probe,
    plan_cost,
    uniform_spec,
    validate_plan,
)
from .schedule import (
    INFINITE,
    ScheduleConfig,
    ScheduleKind,
    decay_lr,
    lr_at,
)

__all__ = [
    "CptVariant",
    "INFINITE",
    "Paradigm",
    "ScheduleConfig",
    "ScheduleKind",
    "TrainingPlan",
    "UpdateSpec",
    "build_plan",
    "build_two_stage_probe",
    "decay_lr",
    "lr_at",
    "paradigm_cost",
    "plan_cost",
    "relative_cost",
    "uniform_spec",
    "validate_plan",
]
