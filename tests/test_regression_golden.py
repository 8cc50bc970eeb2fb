"""Golden-value regression tests.

Reproduction libraries live and die by numerical stability: a silent
change in the LP construction, the metric, or a construction's quorum
order shifts every downstream number.  These tests pin exact values
(computed at release time, asserted with tight tolerances) for a handful
of fully deterministic instances, so any behavioral drift fails loudly
with a clear diff point.

If a deliberate algorithm change moves one of these numbers, update the
golden value *in the same commit* and say why in the commit message.
"""

import numpy as np
import pytest

from repro.analysis import broom_gap_instance
from repro.core import (
    average_max_delay,
    majority_delay_formula,
    optimal_grid_placement,
    solve_qpp_exact,
    solve_ssqpp,
    solve_total_delay,
)
from repro.network import broom_network, path_network
from repro.quorums import AccessStrategy, grid, majority, system_load


class TestGoldenValues:
    def test_broom_lp_value_k3(self):
        """LP optimum of the Figure 1 instance at k = 3."""
        instance = broom_gap_instance(3)
        assert instance.lp_value == pytest.approx(1.2222222222, abs=1e-6)
        assert instance.integral_optimum == 3.0

    def test_majority_formula_path(self):
        """Eq. (19) for majority(5) on distances 0..4: hand-derived
        (1/10) * (4*C(4,2) + 3*C(3,2) + 2*C(2,2)) = 35/10."""
        value = majority_delay_formula(5, 3, [0.0, 1.0, 2.0, 3.0, 4.0])
        assert value == pytest.approx(3.5)

    def test_grid_layout_on_path(self):
        """Concentric layout for grid(2) at the end of a 6-path with unit
        capacities.  Slots land on nodes 0..3 (loads 3/4 each); the
        distance matrix is [[3,2],[1,0]] and the average quorum max is
        (3+3+3+2)/4 = 2.75."""
        network = path_network(6).with_capacities(1.0)
        result = optimal_grid_placement(network, 0, k=2)
        assert result.objective == pytest.approx(2.75)

    def test_system_loads_closed_forms(self):
        assert system_load(grid(4)) == pytest.approx(7 / 16, abs=1e-8)
        assert system_load(majority(7)) == pytest.approx(4 / 7, abs=1e-8)

    def test_exact_qpp_on_cycle(self):
        """majority(3) on a 6-cycle with capacity 1 (pinned at release)."""
        from repro.network import cycle_network

        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        network = cycle_network(6).with_capacities(1.0)
        exact = solve_qpp_exact(system, strategy, network=network)
        assert exact.objective == pytest.approx(2.0555555556, abs=1e-6)

    def test_ssqpp_lp_value_broom(self):
        """The single-source LP value for majority(3) at the handle of
        broom(3) with capacity 1 (deterministic instance)."""
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        network = broom_network(3).with_capacities(1.0)
        result = solve_ssqpp(system, strategy, network=network, source=0, alpha=2.0)
        # Loads are 2/3 with unit capacities; the fractional optimum
        # half-completes quorums inside node 0 (value pinned at release).
        assert result.lp_value == pytest.approx(0.5, abs=1e-6)
        assert result.delay <= result.delay_bound + 1e-9

    def test_total_delay_on_path(self):
        """majority(3) on path(5), capacity 10 (uncapacitated in effect):
        everything lands on the median (node 2); avg total delay =
        3 elements x load 2/3 x avg distance 6/5 = 2.4."""
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        network = path_network(5).with_capacities(10.0)
        result = solve_total_delay(system, strategy, network=network)
        assert result.objective == pytest.approx(2.4)

    def test_deterministic_generators_fingerprint(self):
        """Edge-count fingerprints of seeded random generators."""
        from repro.network import erdos_renyi_network, random_geometric_network

        er = erdos_renyi_network(15, 0.3, rng=np.random.default_rng(42))
        geo = random_geometric_network(15, 0.4, rng=np.random.default_rng(42))
        assert er.edge_count == 30
        assert geo.edge_count == 33
