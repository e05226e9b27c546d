"""Sweep harness, saturation detection and table formatting."""

import pytest

from repro.analysis.sweep import (
    SweepPoint,
    SweepResult,
    compare_saturation,
    load_sweep,
    run_point,
)
from repro.analysis.tables import format_csv, format_table, ratio_note
from repro.runtime import Executor

CMESH64 = ("cmesh", {"n_cores": 64})


class TestSweepPoint:
    def test_accepted_fraction(self):
        p = SweepPoint(offered=0.1, latency=20.0, throughput=0.09, packets=100)
        assert p.accepted_fraction == pytest.approx(0.9)

    def test_zero_offered(self):
        p = SweepPoint(offered=0.0, latency=0.0, throughput=0.0, packets=0)
        assert p.accepted_fraction != p.accepted_fraction  # NaN


class TestSweepResult:
    def make(self, latencies, accepted):
        r = SweepResult("net", "UN")
        for i, (lat, acc) in enumerate(zip(latencies, accepted)):
            offered = 0.01 * (i + 1)
            r.points.append(
                SweepPoint(offered, lat, acc * offered, packets=100)
            )
        return r

    def test_saturation_by_latency_blowup(self):
        r = self.make([10, 12, 15, 40], [1.0, 1.0, 1.0, 1.0])
        assert r.saturation_offered(latency_factor=3.0) == pytest.approx(0.03)

    def test_saturation_by_acceptance_drop(self):
        r = self.make([10, 11, 12, 13], [1.0, 1.0, 0.7, 0.6])
        assert r.saturation_offered() == pytest.approx(0.02)

    def test_no_points(self):
        r = SweepResult("net", "UN")
        assert r.saturation_offered() is None

    def test_saturation_throughput_is_peak(self):
        r = self.make([10, 11, 12, 100], [1.0, 1.0, 0.9, 0.5])
        assert r.saturation_throughput() == pytest.approx(max(p.throughput for p in r.points))

    def test_zero_load_latency(self):
        r = self.make([10, 20], [1.0, 1.0])
        assert r.zero_load_latency() == 10

    def test_point_without_packets_is_skipped(self):
        # NaN latency: the point measured no packet. It is neither the
        # zero-load reference nor a saturation point.
        r = self.make([float("nan"), 10, 12, 40], [0.0, 1.0, 1.0, 1.0])
        assert r.zero_load_latency() == 10
        assert r.saturation_offered() == pytest.approx(0.03)


class TestRunners:
    def test_run_point_executes(self):
        p = run_point(CMESH64, "UN", 0.03, cycles=300, warmup=100)
        assert p.offered == 0.03
        assert p.latency > 0
        assert 0 < p.throughput <= 0.05

    def test_load_sweep_stops_at_saturation(self):
        sweep = load_sweep(CMESH64, "UN", [0.02, 0.3], cycles=300, warmup=100)
        # 0.3 is deep saturation for CMESH-64 -> the sweep stops there.
        assert len(sweep.points) == 2
        assert sweep.points[-1].accepted_fraction < 0.8
        assert sweep.name == "cmesh64"  # unnamed: the built network's name

    @pytest.mark.parametrize("stop", [True, False])
    def test_point_without_packets_reads_nan(self, stop):
        sweep = load_sweep(
            CMESH64, "UN", [0.0, 0.05], cycles=200, warmup=150,
            stop_at_saturation=stop,
        )
        empty, measured = sweep.points
        assert empty.packets == 0 and empty.latency != empty.latency  # NaN
        assert measured.latency > 0
        assert sweep.zero_load_latency() == measured.latency
        assert sweep.saturation_offered() in (None, 0.05)

    def test_lazy_and_batched_dispatch_agree(self, tmp_path):
        # A serial uncached executor stops simulating at saturation; a
        # caching one runs every point as one batch and truncates. Same
        # sweeps either way, and the lazy one did less work.
        # The first rate is 0.05, not lower: at 0.02 CMESH-16 delivers ~16
        # measured packets, too few for its accepted fraction to stay clear
        # of the 0.8 stop on every sample path.
        topologies = {"a": CMESH64, "b": ("cmesh", {"n_cores": 16})}
        rates = [0.05, 0.3, 0.4]
        lazy_ex = Executor(jobs=1)
        batch_ex = Executor(jobs=1, cache=str(tmp_path / "cache"))
        lazy = compare_saturation(
            topologies, "UN", rates, cycles=300, warmup=100, executor=lazy_ex
        )
        batched = compare_saturation(
            topologies, "UN", rates, cycles=300, warmup=100, executor=batch_ex
        )
        assert lazy == batched
        assert [len(s.points) for s in lazy.values()] == [2, 2]
        assert lazy_ex.runs_executed == 4 and batch_ex.runs_executed == 6


class TestTables:
    def test_format_table_basic(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["x", 3.25]])
        lines = out.strip().split("\n")
        assert lines[0].startswith("a")
        assert "2.500" in out and "3.250" in out

    def test_format_table_title(self):
        out = format_table(["c"], [[1]], title="T")
        assert out.startswith("T\n")

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_csv(self):
        out = format_csv(["a", "b"], [[1, 2], [3, 4]])
        assert out == "a,b\n1,2\n3,4\n"

    def test_ratio_note(self):
        assert ratio_note(2.0, 1.0, "base") == "x2.00 of base"
        assert "zero" in ratio_note(2.0, 0.0, "base")
