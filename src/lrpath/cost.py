"""Closed-form training-cost functions and costs relative to PTFS.

Costs count optimizer steps (warmup steps included) and are independent
of plan construction, so they double as a cross-check for compiled plans.
"""

from __future__ import annotations

from .data import fast_decay_steps
from .errors import InvalidConfig
from .paradigm import Paradigm


def paradigm_cost(kind: Paradigm, n: int, t: int) -> int:
    """Total training steps to produce n versions with t steps of new data each.

    PTFS: 0.5*t*n^2 + 0.5*t*n.  CPT: t*n.  Path switching: (1+a)*t*n - a*t,
    the last version needing no main-path continuation, with a*t floored
    (`fast_decay_steps`) when it is non-integral.
    """
    if n < 1:
        raise InvalidConfig(f"n_versions must be >= 1, got {n}")
    if t < 1:
        raise InvalidConfig(f"unit steps must be >= 1, got {t}")
    if kind.family == "ptfs":
        return t * n * (n + 1) // 2
    if kind.family == "cpt":
        return t * n
    if kind.family == "path_switch":
        return t * n + (n - 1) * fast_decay_steps(t, kind.alpha)
    raise InvalidConfig(
        "two_stage_probe has no closed-form cost: a probe's plan is built only by build_two_stage_probe"
    )


def relative_cost(kind: Paradigm, n: int, t: int) -> float:
    """Cost as a fraction of PTFS for the same scenario; PTFS -> 1.0."""
    return paradigm_cost(kind, n, t) / paradigm_cost(Paradigm.ptfs(), n, t)
