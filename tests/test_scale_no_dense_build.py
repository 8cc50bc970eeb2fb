"""Every ``scale="large"`` entry point runs without the dense metric.

The large path promises never to materialize the ``n x n`` all-pairs
matrix: distances come from the network's lazy row cache instead.  The
program counts dense builds itself (``metric_cache_info().builds``, the
``metric.cache.builds`` counter, zeroed before every test by
``conftest.py``), so each entry point is called once on a 120-node
network and the counter must still read zero afterwards.  The
thousand-node versions of these solves live in the ``-m scale`` tier.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    solve_partial_deployment,
    solve_qpp,
    solve_ssqpp,
    solve_total_delay,
)
from repro.core.rw_placement import solve_rw_placement, solve_rw_ssqpp
from repro.network import metric_cache_info, random_geometric_network, uniform_capacities
from repro.quorums import AccessStrategy, grid, grid_rw, majority
from repro.serve import PlacementService, serve_request

NODES = 120


@pytest.fixture
def network():
    # Fresh per test: the per-network build counter is never reset.
    network = random_geometric_network(
        NODES, 0.25, rng=np.random.default_rng(2026)
    )
    return uniform_capacities(network, 2.0)


def _majority3():
    system = majority(3)
    return system, AccessStrategy.uniform(system)


def _assert_no_dense_build(network):
    assert metric_cache_info().builds == 0
    assert network.metric_cache_info().builds == 0


def test_solve_qpp(network):
    system, strategy = _majority3()
    result = solve_qpp(
        system, strategy, network=network, scale="large", landmarks=4
    )
    _assert_no_dense_build(network)
    assert metric_cache_info().row_misses > 0
    assert result.provenance.algorithm == "qpp.relay-sweep-large"


def test_solve_ssqpp(network):
    system, strategy = _majority3()
    solve_ssqpp(
        system, strategy, network=network, source=network.nodes[0], scale="large"
    )
    _assert_no_dense_build(network)


def test_solve_total_delay(network):
    system, strategy = _majority3()
    solve_total_delay(system, strategy, network=network, scale="large")
    _assert_no_dense_build(network)


def test_solve_rw_placement(network):
    solve_rw_placement(
        grid_rw(2), network, read_fraction=0.7, scale="large", landmarks=4
    )
    _assert_no_dense_build(network)


def test_solve_rw_ssqpp(network):
    solve_rw_ssqpp(
        grid_rw(2),
        network,
        source=network.nodes[0],
        read_fraction=0.7,
        scale="large",
    )
    _assert_no_dense_build(network)


def test_solve_partial_deployment():
    # |Q| = |V| = |U| = 9: grid(3) on a nine-node network.
    small = random_geometric_network(9, 0.8, rng=np.random.default_rng(2026))
    solve_partial_deployment(grid(3), small, scale="large")
    _assert_no_dense_build(small)


def test_placement_service_and_forced_resolve(network):
    system, strategy = _majority3()
    service = PlacementService(
        system, strategy, network, scale="large", landmarks=4
    )
    _assert_no_dense_build(network)
    service.submit(serve_request("resolve", id=1))
    (response,) = service.tick()
    assert response["ok"] and response["version"] == 2
    _assert_no_dense_build(network)
