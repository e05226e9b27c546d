"""Analytical model vs simulation cross-validation + utilisation reports.

The model/simulator agreement is the strongest whole-system check in the
repo: an error in either one (hop counting, token accounting, serialization,
channel capacities) breaks the tolerance bands below.
"""

import statistics

import pytest

from repro.analysis.model import channel_of, predict, walk_route
from repro.analysis.sweep import run_point
from repro.analysis.utilization import utilisation_report, wireless_channel_table_rows
from repro.core import build_own256, build_own1024
from repro.noc import Simulator
from repro.runtime import NAMED_TOPOLOGIES, build_ref
from repro.traffic import SyntheticTraffic

NETWORKS_256 = ["cmesh256", "optxb256", "own256", "pclos256", "wcmesh256"]


@pytest.fixture(scope="module")
def predictions():
    return {name: predict(build_ref(NAMED_TOPOLOGIES[name])) for name in NETWORKS_256}


class TestModelVsSimulation:
    @pytest.mark.parametrize("name", NETWORKS_256)
    def test_zero_load_latency_within_15pct(self, name, predictions):
        predicted = predictions[name].zero_load_latency
        point = run_point(NAMED_TOPOLOGIES[name], "UN", 0.01, cycles=800, warmup=300)
        assert predicted == pytest.approx(point.latency, rel=0.15), (
            name, predicted, point.latency,
        )

    @pytest.mark.parametrize("name", NETWORKS_256)
    def test_saturation_within_25pct(self, name, predictions):
        """Run at the predicted saturation rate: the network must be near
        its knee — accepting most of the load below, rejecting load 30 %
        above."""
        predicted = predictions[name].saturation_rate
        ref = NAMED_TOPOLOGIES[name]
        below = run_point(ref, "UN", predicted * 0.75, cycles=1000, warmup=300)
        above = run_point(ref, "UN", predicted * 1.3, cycles=1000, warmup=300)
        assert below.accepted_fraction > 0.9, (name, below)
        assert above.accepted_fraction < 0.97, (name, above)

    def test_binding_resources_named(self, predictions):
        for prediction in predictions.values():
            names = [channel.name for channel in prediction.loads]
            assert prediction.binding_resource in names

    def test_own_predicts_lowest_latency(self, predictions):
        t0s = {name: p.zero_load_latency for name, p in predictions.items()}
        assert min(t0s, key=t0s.get) == "own256"


@pytest.mark.parametrize("name", NETWORKS_256)
def test_channel_loads_match_simulation(name):
    """Each channel carries the flits its load predicts: UN offers every
    ordered core pair rate / (n_cores - 1) flits per cycle."""
    built = build_ref(NAMED_TOPOLOGIES[name])
    loads = predict(built).loads
    n, cycles = built.n_cores, 3000
    rate = 0.02 if name == "wcmesh256" else 0.03
    sim = Simulator(built.network, traffic=SyntheticTraffic(n, "UN", rate, 4, seed=4))
    sim.run(cycles)
    errors = [
        abs(channel.flits_carried / (rate * cycles * load / (n - 1)) - 1)
        for channel, load in loads.items()
        if load
    ]
    assert statistics.median(errors) <= 0.15, (name, statistics.median(errors))


@pytest.mark.parametrize("name", NETWORKS_256)
def test_router_pair_walk_equals_all_core_pairs(name):
    """One representative core per router pair loses nothing: walking
    every ordered core pair gives the same channel loads."""
    built = build_ref(NAMED_TOPOLOGIES[name])
    predicted = predict(built).loads
    net = built.network
    routing = net.routers[0].routing
    loads = dict.fromkeys(predicted, 0)
    for src in range(net.n_cores):
        for dst in range(net.n_cores):
            if src != dst:
                for _, _, link, _ in walk_route(net, routing, src, dst):
                    channel = channel_of(link)
                    if channel is not None:
                        loads[channel] += 1
    assert loads == predicted


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
