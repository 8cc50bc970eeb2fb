"""Tests for the Appendix A integrality-gap instances (incl. Figure 1)."""

import pytest

from repro.analysis import broom_gap_instance, general_metric_gap_instance
from repro.core import solve_ssqpp_exact


class TestGeneralMetricGap:
    def test_lp_value_closed_form(self):
        """The LP optimum on the star instance is the uniform spread:
        (sum of distances)/n = (n - 2 + M)/n... the feasible point from
        the paper; the solved LP can only be lower or equal."""
        n, M = 6, 50.0
        instance = general_metric_gap_instance(n, M)
        paper_point = (0 + (n - 2) * 1 + M) / n
        assert instance.lp_value <= paper_point + 1e-6
        assert instance.lp_value > 0

    def test_gap_grows_with_m(self):
        gaps = [
            general_metric_gap_instance(6, M).gap for M in (10.0, 100.0, 1000.0)
        ]
        assert gaps[0] < gaps[1] < gaps[2]
        # As M -> infinity the gap approaches n = 6.
        assert gaps[2] > 5.5

    def test_integral_optimum_is_exact(self):
        """Cross-check the claimed integral optimum by brute force."""
        instance = general_metric_gap_instance(5, 20.0)
        exact = solve_ssqpp_exact(
            instance.system, instance.strategy, network=instance.network, source=instance.source
        )
        assert exact.objective == pytest.approx(instance.integral_optimum)


# paper: Claim A.1, App. A
class TestBroomGap:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_integral_optimum_verified_by_brute_force(self, k):
        if k > 3:
            pytest.skip("brute force too large beyond k=3")
        instance = broom_gap_instance(k)
        exact = solve_ssqpp_exact(
            instance.system, instance.strategy, network=instance.network, source=instance.source
        )
        assert exact.objective == pytest.approx(float(k))

    def test_lp_value_near_three_halves(self):
        """The paper's fractional point costs ~3/2; the LP optimum must
        not exceed it and stays bounded below by 1 (all but one node are
        at distance >= 1 and n-1 of n elements must leave the source)."""
        for k in (3, 4, 5):
            instance = broom_gap_instance(k)
            n = k * k
            paper_point = ((n - k) * 1 + sum(range(2, k + 1))) / n
            assert instance.lp_value <= paper_point + 1e-6

    def test_gap_scales_like_sqrt_n(self):
        gaps = {k: broom_gap_instance(k).gap for k in (2, 3, 4, 5)}
        # Monotone growth roughly linear in k = sqrt(n).
        assert gaps[2] < gaps[3] < gaps[4] < gaps[5]
        assert gaps[5] > 0.5 * 5  # at least k/2, i.e. Omega(sqrt(n))


def test_instances_expose_consistent_metadata():
    instance = broom_gap_instance(3)
    assert instance.network.size == 9
    assert instance.system.universe_size == 9
    assert len(instance.system) == 1
    assert instance.gap == pytest.approx(
        instance.integral_optimum / instance.lp_value
    )
