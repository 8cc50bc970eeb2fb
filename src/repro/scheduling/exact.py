"""Exact optimization of ``1|prec|sum w_j C_j`` for small instances.

Branch-and-bound over linear extensions: at each step any unscheduled job
whose predecessors are all scheduled may run next.  Exponential in the
worst case — these exact schedules exist to certify the NP-hardness
reduction (Theorem 3.6) and to provide ground truth in tests, not to be
fast.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._validation import raises, require
from ..exceptions import ValidationError
from .precedence import Job, SchedulingInstance

__all__ = ["ExactSchedule", "solve_scheduling_exact"]

_MAX_JOBS = 12


@dataclass(frozen=True)
class ExactSchedule:
    """An optimal schedule: the job order and its weighted completion cost."""

    order: tuple[Job, ...]
    cost: float


@raises("ValidationError")
def solve_scheduling_exact(instance: SchedulingInstance) -> ExactSchedule:
    """Find an optimal linear extension by branch-and-bound.

    Limited to :data:`_MAX_JOBS` jobs; the state space is the set of
    downward-closed job subsets, pruned by the running best cost.
    """
    n = instance.num_jobs
    require(
        n <= _MAX_JOBS,
        f"solve_scheduling_exact supports at most {_MAX_JOBS} jobs (got {n})",
    )
    jobs = list(instance.jobs)
    predecessor_sets = {job: set(instance.predecessors(job)) for job in jobs}

    best_cost = float("inf")
    best_order: tuple[Job, ...] | None = None

    def recurse(
        scheduled: set[Job], order: list[Job], elapsed: float, cost: float
    ) -> None:
        nonlocal best_cost, best_order
        if cost >= best_cost:
            return
        if len(order) == n:
            best_cost = cost
            best_order = tuple(order)
            return
        for job in jobs:
            if job in scheduled or not predecessor_sets[job] <= scheduled:
                continue
            time = elapsed + instance.processing_times[job]
            scheduled.add(job)
            order.append(job)
            recurse(scheduled, order, time, cost + instance.weights[job] * time)
            order.pop()
            scheduled.remove(job)

    recurse(set(), [], 0.0, 0.0)
    if best_order is None:  # pragma: no cover - acyclicity guarantees a schedule
        raise ValidationError("no feasible schedule found; instance is malformed")
    return ExactSchedule(order=best_order, cost=best_cost)
