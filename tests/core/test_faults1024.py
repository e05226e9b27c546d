"""Group-level fault tolerance for OWN-1024."""

import random

import pytest

from repro.core import (
    OWN1024_DIMS,
    UnroutableError,
    build_fault_tolerant_own1024,
)
from repro.noc import Simulator
from repro.traffic import ScriptedTraffic, SyntheticTraffic


def core(g, c, t, p=0):
    return OWN1024_DIMS.quad_to_core(g, c, t, p)


class TestHealthy:
    def test_behaves_like_normal_own1024(self):
        built = build_fault_tolerant_own1024()
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(1024, "UN", 0.008, 4, seed=1, stop_cycle=150),
        )
        sim.run(150)
        assert sim.drain(50_000)
        assert sim.stats.packets_ejected == sim.stats.packets_created
        assert sim.stats.avg_wireless_hops() <= 1.0

    def test_flag(self):
        assert build_fault_tolerant_own1024().params["fault_tolerant"] is True


class TestRelay:
    def test_failed_inter_group_channel_relays(self):
        built = build_fault_tolerant_own1024()
        routing = built.notes["routing"]
        routing.fail_channel(0, 2)
        sim = Simulator(
            built.network,
            traffic=ScriptedTraffic([(0, core(0, 0, 5), core(2, 3, 9), 4)]),
        )
        sim.run(600)
        assert sim.stats.packets_ejected == 1
        assert sim.stats.wireless_hop_sum == 2
        assert routing.relayed_packets >= 1

    def test_relay_group_avoids_failed_legs(self):
        built = build_fault_tolerant_own1024()
        routing = built.notes["routing"]
        routing.fail_channel(0, 2)
        gx = routing._relay_for(0, 2)
        assert routing.alive(0, gx) and routing.alive(gx, 2)
        # Kill that relay's first leg too: a different relay must be found.
        routing.fail_channel(0, gx)
        gx2 = routing._relay_for(0, 2)
        assert gx2 != gx

    def test_unaffected_groups_direct(self):
        built = build_fault_tolerant_own1024()
        built.notes["routing"].fail_channel(0, 2)
        sim = Simulator(
            built.network,
            traffic=ScriptedTraffic([(0, core(1, 0, 5), core(3, 2, 9), 4)]),
        )
        sim.run(400)
        assert sim.stats.packets_ejected == 1
        assert sim.stats.wireless_hop_sum == 1

    def test_restore(self):
        built = build_fault_tolerant_own1024()
        routing = built.notes["routing"]
        routing.fail_channel(0, 2)
        routing.unfail_channel(0, 2)
        sim = Simulator(
            built.network,
            traffic=ScriptedTraffic([(0, core(0, 0, 5), core(2, 3, 9), 4)]),
        )
        sim.run(400)
        assert sim.stats.wireless_hop_sum == 1

    def test_all_traffic_delivered_under_fault(self):
        built = build_fault_tolerant_own1024()
        built.notes["routing"].fail_channel(3, 1)
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(1024, "UN", 0.006, 4, seed=3, stop_cycle=150),
        )
        sim.run(150)
        assert sim.drain(60_000)
        assert sim.stats.packets_ejected == sim.stats.packets_created


class TestDeadlockSafety:
    def test_overload_with_two_failures(self):
        built = build_fault_tolerant_own1024()
        routing = built.notes["routing"]
        routing.fail_channel(0, 2)
        routing.fail_channel(1, 3)
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(1024, "UN", 0.05, 4, seed=7),
            watchdog=1500,
        )
        sim.run(1200)  # raises on deadlock
        assert sim.stats.packets_ejected > 0


class TestUnroutability:
    def test_intra_group_channel_cannot_fail(self):
        built = build_fault_tolerant_own1024()
        with pytest.raises(UnroutableError, match="intra-group"):
            built.notes["routing"].fail_channel(2, 2)

    def test_isolated_group_detected(self):
        built = build_fault_tolerant_own1024()
        routing = built.notes["routing"]
        routing.fail_channel(0, 1)
        routing.fail_channel(0, 2)
        with pytest.raises(UnroutableError, match="no live relay"):
            routing.fail_channel(0, 3)

    def test_unroutable_failure_is_rolled_back(self):
        # The rejected failure must not stay in failed_pairs: the channel
        # remains in service, so the next g0 -> g1 packet still relays
        # through g3 instead of raising inside compute() mid-run.
        built = build_fault_tolerant_own1024()
        routing = built.notes["routing"]
        routing.fail_channel(0, 1)
        routing.fail_channel(0, 2)
        with pytest.raises(UnroutableError):
            routing.fail_channel(0, 3)
        assert routing.failed_pairs == {(0, 1), (0, 2)}
        sim = Simulator(
            built.network,
            traffic=ScriptedTraffic([(0, core(0, 0, 5), core(1, 3, 9), 4)]),
        )
        sim.run(600)
        assert sim.stats.packets_ejected == 1
        assert sim.stats.wireless_hop_sum == 2


class TestChurn:
    """Every fault-set transition flushes pending routes at this scale too.

    Before the OWN-256 and OWN-1024 fault sets were one class, PR 10's
    stale-route flush lived only in the 256 copy: toggling inter-group
    channels under load left WAITING_VC heads aimed at routes planned
    against different topologies, and the network wedged.
    """

    PAIRS = [(gs, gd) for gs in range(4) for gd in range(4) if gs != gd]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fail_unfail_churn_drains(self, seed):
        built = build_fault_tolerant_own1024()
        routing = built.notes["routing"]
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(1024, "UN", 0.008, 4, seed=seed, stop_cycle=1200),
            watchdog=1500,  # raises SimulationDeadlock on a wedge
        )
        rng = random.Random(seed)
        for _ in range(1200 // 40):
            sim.run(40)
            pair = rng.choice(self.PAIRS)
            if not routing.unfail_channel(*pair):
                try:
                    routing.fail_channel(*pair)
                except UnroutableError:
                    pass  # rolled back: the channel stays in service
        assert sim.drain(60_000)
        assert sim.stats.packets_ejected == sim.stats.packets_created

    def test_static_failures_steady_state_is_pinned(self):
        """Two static failures pin one whole ``SyntheticTraffic`` sample path.

        The numbers date from the re-baseline that moved ``SyntheticTraffic``
        from NumPy to stdlib scalar draws (the second, after the one from
        per-cycle Bernoulli draws to the arrival clock): same process,
        different sample path for a given seed.
        """
        built = build_fault_tolerant_own1024()
        routing = built.notes["routing"]
        routing.fail_channel(0, 2)
        routing.fail_channel(3, 1)
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(1024, "UN", 0.008, 4, seed=1, stop_cycle=1200),
        )
        sim.run(1200)
        assert sim.drain(30_000)
        assert sim.now == 2833
        assert sim.stats.packets_created == sim.stats.packets_ejected == 2500
        assert routing.relayed_packets == 295
        assert sim.stats.summary(sim.now)["latency_mean"] == 249.8952
        assert sum(r.vca_grants for r in built.network.routers) == 9642
