"""Integration tests: whole-paper pipelines across modules.

Each test exercises a full story from the paper — system construction,
strategy optimization, placement, and bound verification — across several
modules at once.
"""

import numpy as np
import pytest

import repro
from repro.core import (
    average_max_delay,
    average_total_delay,
    capacity_violation_factor,
    greedy_placement,
    is_capacity_respecting,
    optimal_grid_placement,
    optimal_majority_placement,
    relay_analysis,
    single_node_placement,
    solve_qpp,
    solve_ssqpp,
    solve_total_delay,
)
from repro.experiments import simulate_accesses, standard_suite
from repro.network import (
    random_geometric_network,
    two_cluster_network,
    uniform_capacities,
)
from repro.quorums import (
    AccessStrategy,
    grid,
    majority,
    optimal_strategy,
    projective_plane,
)


def test_public_api_importable():
    assert repro.__version__ == "1.0.0"
    assert callable(repro.solve_qpp)
    assert callable(repro.solve_total_delay)


def test_full_pipeline_fpp_on_wan(rng):
    """Maekawa system + load-optimal strategy + LP placement + simulation,
    end to end with every guarantee checked."""
    system = projective_plane(2)  # 7 elements, quorums of size 3
    strategy_result = optimal_strategy(system)
    strategy = strategy_result.strategy
    network = uniform_capacities(
        random_geometric_network(10, 0.5, rng=rng, scale=100.0), 0.6
    )

    result = solve_ssqpp(system, strategy, network=network, source=network.nodes[0], alpha=2.0)
    assert result.within_guarantees

    simulation = simulate_accesses(
        result.placement, strategy, rng=rng, accesses_per_client=500
    )
    assert simulation.max_delay_error < 0.1


def test_qpp_beats_or_matches_greedy_baseline_on_suite():
    """Across the standard suite, the Theorem 1.2 solver (which may use
    (alpha+1)x capacity) should never lose badly to feasible greedy."""
    wins = 0
    total = 0
    for instance in standard_suite(5)[:4]:
        result = solve_qpp(
            instance.system,
            instance.strategy,
            network=instance.network,
            alpha=2.0,
            candidate_sources=list(instance.network.nodes)[:4],
        )
        try:
            baseline = greedy_placement(
                instance.system, instance.strategy, instance.network
            )
        except repro.CapacityError:
            continue
        baseline_delay = average_max_delay(baseline, instance.strategy)
        total += 1
        if result.objective <= baseline_delay + 1e-9:
            wins += 1
    assert total >= 2
    assert wins >= total // 2  # the LP solver should usually win


def test_two_cluster_story(rng):
    """The wide-area motivation: on two clusters joined by a slow bridge,
    a good placement keeps quorums inside clusters; the single-node
    baseline violates capacity massively."""
    network = uniform_capacities(two_cluster_network(5, bridge_length=20.0), 1.0)
    system = majority(5)
    strategy = AccessStrategy.uniform(system)

    result = solve_qpp(
        system, strategy, network=network, alpha=2.0,
        candidate_sources=[("a", 0), ("b", 0)],
    )
    assert result.objective < 25.0  # not paying the bridge every time

    collapsed = single_node_placement(system, network)
    assert capacity_violation_factor(collapsed, strategy) == pytest.approx(3.0)
    assert capacity_violation_factor(result.placement, strategy) <= 3.0 + 1e-9


def test_grid_and_majority_theorem_1_3_pipeline(rng):
    """Theorem 1.3's two layouts both respect capacities exactly and have
    sensible relay behavior."""
    network = uniform_capacities(random_geometric_network(12, 0.5, rng=rng), 1.0)
    source = network.nodes[0]

    grid_result = optimal_grid_placement(network, source, k=3)
    assert is_capacity_respecting(grid_result.placement, grid_result.strategy)
    relay = relay_analysis(grid_result.placement, grid_result.strategy)
    assert relay.within_bound

    majority_result = optimal_majority_placement(network, source, n=7)
    assert is_capacity_respecting(majority_result.placement, majority_result.strategy)
    assert majority_result.objective == pytest.approx(majority_result.formula_delay)


def test_total_delay_vs_max_delay_objectives(rng):
    """Optimizing Gamma vs Delta produces different placements in general;
    each wins on its own objective."""
    network = uniform_capacities(random_geometric_network(9, 0.5, rng=rng), 0.9)
    system = majority(5)
    strategy = AccessStrategy.uniform(system)

    total_result = solve_total_delay(system, strategy, network=network)
    qpp_result = solve_qpp(
        system, strategy, network=network, candidate_sources=list(network.nodes)[:3]
    )
    # Each solution is at least as good on its own metric.
    assert average_total_delay(
        total_result.placement, strategy
    ) <= average_total_delay(qpp_result.placement, strategy) + 1e-6


def test_grid_uniform_strategy_is_load_optimal_end_to_end():
    """§4.1 assumes uniform is optimal for the Grid; verify via the LP
    and then use it for a placement."""
    system = grid(3)
    uniform = AccessStrategy.uniform(system)
    optimal = optimal_strategy(system)
    assert optimal.load == pytest.approx(uniform.max_load(), abs=1e-8)
