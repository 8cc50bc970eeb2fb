"""Tests for the second wave of CLI features (--dual, compare)."""

import pytest

from repro.cli import main


class TestDualFlag:
    def test_dual_reports_transversals(self, capsys):
        assert main(["system", "majority:3", "--dual"]) == 0
        out = capsys.readouterr().out
        assert "minimal transversals" in out
        assert "non-dominated" in out

    def test_dual_detects_self_duality(self, capsys):
        assert main(["system", "majority:5", "--dual"]) == 0
        out = capsys.readouterr().out
        # majority(5) is self-dual: the check column shows yes.
        lines = [l for l in out.splitlines() if "non-dominated" in l]
        assert lines and "yes" in lines[0]

    def test_dual_detects_domination(self, capsys):
        # 3-of-4 threshold (= grid(2) family) is dominated.
        assert main(["system", "threshold:4:3", "--dual"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if "non-dominated" in l]
        assert lines and "NO" in lines[0]

    def test_dual_skipped_for_large_universe(self, capsys):
        assert main(["system", "grid:4", "--dual"]) == 0
        out = capsys.readouterr().out
        assert "minimal transversals" not in out  # 16 elements > guard


class TestCompareCommand:
    def test_compare_runs_all_algorithms(self, capsys):
        assert main(["compare", "majority:3", "path:4"]) == 0
        out = capsys.readouterr().out
        for name in ("qpp", "total_delay", "greedy", "random"):
            assert name in out
        assert "exact optimal" in out

    def test_compare_with_explicit_capacity(self, capsys):
        assert main(["compare", "majority:3", "path:4", "--capacity", "1.0"]) == 0
        assert "qpp" in capsys.readouterr().out

    def test_compare_seeded_network(self, capsys):
        assert main(["compare", "majority:3", "geometric:6:0.6", "--seed", "3"]) == 0
        assert "algorithm comparison" in capsys.readouterr().out

    def test_compare_infeasible_capacity_errors(self, capsys):
        code = main(["compare", "majority:3", "path:4", "--capacity", "0.1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestQPPFormulationPassThrough:
    def test_solve_qpp_accepts_cumulative(self, rng):
        from repro.core import solve_qpp
        from repro.network import random_geometric_network, uniform_capacities
        from repro.quorums import AccessStrategy, majority

        network = uniform_capacities(
            random_geometric_network(6, 0.6, rng=rng), 1.0
        )
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        prefix = solve_qpp(system, strategy, network=network, formulation="prefix")
        cumulative = solve_qpp(system, strategy, network=network, formulation="cumulative")
        assert cumulative.optimum_lower_bound == pytest.approx(
            prefix.optimum_lower_bound, abs=1e-7
        )
