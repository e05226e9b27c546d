"""Fault-tolerant OWN-256 routing: relay paths, VC safety, unroutability."""

import pytest

from repro.core import OWN256_DIMS, UnroutableError, build_fault_tolerant_own256
from repro.noc import Simulator
from repro.traffic import ScriptedTraffic, SyntheticTraffic


def core(c, t, p=0):
    return OWN256_DIMS.quad_to_core(0, c, t, p)


class TestHealthyOperation:
    def test_matches_normal_own_behaviour(self):
        built = build_fault_tolerant_own256()
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(256, "UN", 0.02, 4, seed=1, stop_cycle=300),
        )
        sim.run(300)
        assert sim.drain(30_000)
        assert sim.stats.packets_ejected == sim.stats.packets_created
        # Without faults nothing relays: max 1 wireless hop per packet.
        assert sim.stats.avg_wireless_hops() <= 1.0

    def test_params_flag(self):
        built = build_fault_tolerant_own256()
        assert built.params["fault_tolerant"] is True


class TestRelaying:
    def test_failed_channel_relays_two_wireless_hops(self):
        built = build_fault_tolerant_own256()
        routing = built.notes["routing"]
        routing.fail_channel(0, 2)
        sim = Simulator(
            built.network,
            traffic=ScriptedTraffic([(0, core(0, 5), core(2, 9), 4)]),
        )
        sim.run(400)
        assert sim.stats.packets_ejected == 1
        assert sim.stats.wireless_hop_sum == 2
        assert routing.relayed_packets >= 1

    def test_unaffected_pairs_unchanged(self):
        built = build_fault_tolerant_own256()
        built.notes["routing"].fail_channel(0, 2)
        sim = Simulator(
            built.network,
            traffic=ScriptedTraffic([(0, core(1, 5), core(3, 9), 4)]),
        )
        sim.run(200)
        assert sim.stats.packets_ejected == 1
        assert sim.stats.wireless_hop_sum == 1

    def test_restore_channel(self):
        built = build_fault_tolerant_own256()
        routing = built.notes["routing"]
        routing.fail_channel(0, 2)
        routing.unfail_channel(0, 2)
        sim = Simulator(
            built.network,
            traffic=ScriptedTraffic([(0, core(0, 5), core(2, 9), 4)]),
        )
        sim.run(200)
        assert sim.stats.wireless_hop_sum == 1  # direct again

    def test_relay_selection_deterministic_and_live(self):
        built = build_fault_tolerant_own256()
        routing = built.notes["routing"]
        routing.fail_channel(0, 2)
        cx = routing._relay_for(0, 2)
        assert cx in (1, 3)
        assert routing.alive(0, cx) and routing.alive(cx, 2)

    def test_all_traffic_delivered_with_fault(self):
        built = build_fault_tolerant_own256()
        built.notes["routing"].fail_channel(0, 2)
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(256, "UN", 0.015, 4, seed=3, stop_cycle=300),
        )
        sim.run(300)
        assert sim.drain(40_000)
        assert sim.stats.packets_ejected == sim.stats.packets_created


class TestDeadlockSafetyUnderFaults:
    def test_overload_with_multiple_failures(self):
        built = build_fault_tolerant_own256()
        routing = built.notes["routing"]
        routing.fail_channel(0, 2)
        routing.fail_channel(1, 3)
        routing.fail_channel(2, 1)
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(256, "UN", 0.2, 4, seed=7),
            watchdog=1500,
        )
        sim.run(2000)  # raises SimulationDeadlock on a VC cycle
        assert sim.stats.packets_ejected > 0


class TestUnroutability:
    def test_isolating_a_cluster_detected(self):
        built = build_fault_tolerant_own256()
        routing = built.notes["routing"]
        routing.fail_channel(0, 1)
        routing.fail_channel(0, 2)
        with pytest.raises(UnroutableError):
            routing.fail_channel(0, 3)

    def test_error_message_lists_failures(self):
        built = build_fault_tolerant_own256()
        routing = built.notes["routing"]
        routing.fail_channel(0, 1)
        routing.fail_channel(0, 2)
        with pytest.raises(UnroutableError, match="failed="):
            routing.fail_channel(0, 3)
