"""Greedy GAP heuristic (ablation baseline for Theorem 3.11).

Assigns jobs in decreasing-load order, each to the cheapest machine with
enough remaining capacity.  No approximation guarantee — it exists so the
benchmarks can show what the LP + Shmoys-Tardos rounding buys over the
obvious heuristic (greedy respects capacities exactly but can pay
arbitrarily more cost, and can fail on feasible instances).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import raises
from ..exceptions import InfeasibleError
from .instance import GAPInstance, Label

__all__ = ["GreedyAssignment", "solve_gap_greedy"]


@dataclass(frozen=True)
class GreedyAssignment:
    """A greedy assignment: complete, capacity-respecting, no guarantee."""

    assignment: dict[Label, Label]
    cost: float
    machine_loads: dict[Label, float]


@raises("InfeasibleError")
def solve_gap_greedy(instance: GAPInstance) -> GreedyAssignment:
    """Greedy cheapest-feasible-machine assignment.

    Jobs are processed in decreasing order of their *minimum* load over
    machines (heavy, inflexible jobs first).  Raises
    :class:`InfeasibleError` when the greedy order gets stuck — which can
    happen even on feasible instances; callers treating this as a
    baseline should catch it.
    """
    remaining = np.array(instance.capacities, dtype=float)

    def job_weight(j: int) -> float:
        loads = instance.loads[:, j]
        finite = loads[np.isfinite(loads)]
        return float(finite.min()) if finite.size else 0.0

    order = sorted(range(instance.num_jobs), key=job_weight, reverse=True)
    assignment: dict[Label, Label] = {}
    for j in order:
        best_machine = -1
        best_cost = np.inf
        for i in range(instance.num_machines):
            load = instance.loads[i, j]
            if not np.isfinite(load) or load > remaining[i] + 1e-12:
                continue
            cost = float(instance.costs[i, j])
            if cost < best_cost:
                best_cost = cost
                best_machine = i
        if best_machine < 0:
            raise InfeasibleError(
                f"greedy GAP stuck: job {instance.jobs[j]!r} fits on no "
                "machine with remaining capacity"
            )
        remaining[best_machine] -= float(instance.loads[best_machine, j])
        assignment[instance.jobs[j]] = instance.machines[best_machine]

    return GreedyAssignment(
        assignment=assignment,
        cost=instance.assignment_cost(assignment),
        machine_loads=instance.machine_loads(assignment),
    )
