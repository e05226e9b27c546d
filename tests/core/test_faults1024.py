"""Group-level fault tolerance for OWN-1024."""

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
        routing.restore_channel(0, 2)
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
