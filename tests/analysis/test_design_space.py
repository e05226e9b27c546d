"""Design-space exploration: caching, dominance, and the paper's verdict."""

import pytest

from repro.analysis.design_space import (
    DesignPoint,
    EvaluatedPoint,
    default_space,
    evaluate_point,
    explore,
    pareto_frontier,
)
from repro.runtime import Executor


def ev(label_cfg=4, lat=10.0, tput=0.03, power=5.0):
    return EvaluatedPoint(
        point=DesignPoint(config_id=label_cfg, scenario=1),
        latency=lat,
        throughput=tput,
        power_w=power,
        energy_per_packet_nj=1.0,
    )


class TestDominance:
    def test_strict_dominance(self):
        better = ev(lat=10, power=4.0)
        worse = ev(lat=12, power=5.0)
        assert better.dominates(worse)
        assert not worse.dominates(better)

    def test_incomparable_points(self):
        fast = ev(lat=10, power=6.0)
        frugal = ev(lat=20, power=4.0)
        assert not fast.dominates(frugal)
        assert not frugal.dominates(fast)

    def test_equal_points_do_not_dominate(self):
        a, b = ev(), ev()
        assert not a.dominates(b)

    def test_frontier_extraction(self):
        points = [ev(lat=10, power=6.0), ev(lat=20, power=4.0), ev(lat=21, power=6.5)]
        frontier = pareto_frontier(points)
        assert len(frontier) == 2
        assert points[2] not in frontier

    def test_frontier_sorted_by_power(self):
        points = [ev(lat=10, power=6.0), ev(lat=20, power=4.0)]
        frontier = pareto_frontier(points)
        assert frontier[0].power_w <= frontier[1].power_w


class TestDefaultSpace:
    def test_paper_grid(self):
        space = default_space()
        assert len(space) == 8
        assert {p.config_id for p in space} == {1, 2, 3, 4}
        assert {p.scenario for p in space} == {1, 2}

    def test_conservative_scenario_halves_bandwidth(self):
        for p in default_space():
            expected = 1 if p.scenario == 1 else 2
            assert p.wireless_cycles_per_flit == expected


class TestExploration:
    @pytest.fixture(scope="class")
    def result(self):
        return explore(cycles=500, warmup=150)

    def test_all_points_evaluated(self, result):
        assert len(result.evaluated) == 8

    def test_paper_verdict_config4(self, result):
        """The sweep rediscovers Sec. V-B's conclusion: configuration 4 is
        the power winner, and the whole frontier is config-4 designs."""
        assert result.best_by("power").point.config_id == 4
        assert all(e.point.config_id == 4 for e in result.frontier)

    def test_frontier_has_the_latency_and_power_extremes(self, result):
        labels = {e.point.scenario for e in result.frontier}
        # Ideal (fast) and conservative (frugal) both survive.
        assert labels == {1, 2}

    def test_rows_mark_frontier(self, result):
        rows = result.rows()
        stars = [r for r in rows if r[5] == "*"]
        assert len(stars) == len(result.frontier)

    def test_best_by_validation(self, result):
        with pytest.raises(ValueError):
            result.best_by("beauty")

    def test_evaluate_point_standalone(self):
        e = evaluate_point(DesignPoint(config_id=4, scenario=1), cycles=300, warmup=100)
        assert e.latency > 0 and e.power_w > 0

    def test_grid_simulates_each_shape_once(self):
        ex = Executor(jobs=1)
        explore(cycles=200, warmup=50, executor=ex)
        assert ex.runs_executed == 2

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            evaluate_point(DesignPoint(config_id=4, scenario=9), cycles=100)
