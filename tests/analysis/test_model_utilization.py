"""Analytical model vs simulation cross-validation + utilisation reports.

The model/simulator agreement is the strongest whole-system check in the
repo: an error in either one (hop counting, token accounting, serialization,
channel capacities) breaks the tolerance bands below.
"""

import pytest

from repro.analysis.model import PREDICTORS
from repro.analysis.sweep import run_point
from repro.analysis.utilization import utilisation_report, wireless_channel_table_rows
from repro.core import build_own256, build_own1024
from repro.noc import Simulator
from repro.runtime import NAMED_TOPOLOGIES
from repro.traffic import SyntheticTraffic


class TestModelVsSimulation:
    @pytest.mark.parametrize("name", sorted(PREDICTORS))
    def test_zero_load_latency_within_15pct(self, name):
        predicted = PREDICTORS[name]().zero_load_latency
        point = run_point(NAMED_TOPOLOGIES[name], "UN", 0.01, cycles=800, warmup=300)
        assert predicted == pytest.approx(point.latency, rel=0.15), (
            name, predicted, point.latency,
        )

    @pytest.mark.parametrize("name", sorted(PREDICTORS))
    def test_saturation_within_25pct(self, name):
        """Run at the predicted saturation rate: the network must be near
        its knee — accepting most of the load below, rejecting load 30 %
        above."""
        predicted = PREDICTORS[name]().saturation_rate
        ref = NAMED_TOPOLOGIES[name]
        below = run_point(ref, "UN", predicted * 0.75, cycles=1000, warmup=300)
        above = run_point(ref, "UN", predicted * 1.3, cycles=1000, warmup=300)
        assert below.accepted_fraction > 0.9, (name, below)
        assert above.accepted_fraction < 0.97, (name, above)

    def test_binding_resources_named(self):
        for name, fn in PREDICTORS.items():
            assert fn().binding_resource

    def test_own_predicts_lowest_latency(self):
        t0s = {name: fn().zero_load_latency for name, fn in PREDICTORS.items()}
        assert min(t0s, key=t0s.get) == "own256"


class TestUtilisationReport:
    def run_own(self, rate=0.03, cycles=600):
        built = build_own256()
        sim = Simulator(
            built.network, traffic=SyntheticTraffic(256, "UN", rate, 4, seed=4)
        )
        sim.run(cycles)
        return built, sim

    def test_wireless_traffic_share(self):
        built, sim = self.run_own()
        report = utilisation_report(built, sim)
        # UN: ~75 % of packets cross clusters, but photonic carries ~2 hops
        # per inter-cluster packet -> wireless share ~25-30 % of traversals.
        assert 0.15 < report.wireless_traffic_share < 0.45

    def test_channel_rows(self):
        built, sim = self.run_own()
        rows = wireless_channel_table_rows(built, sim)
        assert len(rows) == 12
        assert [r[0] for r in rows] == list(range(1, 13))
        assert all(r[2] > 0 for r in rows)  # every channel carried traffic

    def test_gateway_loads_present(self):
        built, sim = self.run_own()
        report = utilisation_report(built, sim)
        assert len(report.gateway_loads) == 16  # 4 antennas x 4 clusters

    def test_hottest_sorted(self):
        built, sim = self.run_own()
        report = utilisation_report(built, sim)
        top = report.hottest(5)
        assert all(
            top[i].utilisation >= top[i + 1].utilisation for i in range(len(top) - 1)
        )

    def test_load_balance_cv(self):
        built, sim = self.run_own()
        report = utilisation_report(built, sim)
        cv = report.load_balance_cv("wireless")
        # Uniform traffic over symmetric channels: modest imbalance only.
        assert 0.0 <= cv < 0.6

    def test_requires_a_run(self):
        built = build_own256()
        sim = Simulator(built.network)
        with pytest.raises(ValueError):
            utilisation_report(built, sim)

    def test_own1024_media_counted_once(self):
        built = build_own1024()
        sim = Simulator(
            built.network, traffic=SyntheticTraffic(1024, "UN", 0.008, 4, seed=4)
        )
        sim.run(200)
        report = utilisation_report(built, sim)
        wireless = [c for c in report.channels if c.kind == "wireless"]
        assert len(wireless) == 16  # one row per SWMR channel, not per writer
