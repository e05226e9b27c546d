"""Health monitor + online failover: permanent faults end in rerouted
traffic, not deadlocks."""

import pytest

from repro.core.faults import UnroutableError, build_fault_tolerant_own256
from repro.core.own256 import make_reconfig_controller
from repro.faults import FaultCampaign, FaultLayer, HealthMonitor, PermanentFault
from repro.noc import Simulator
from repro.noc.invariants import audit_network
from repro.traffic import SyntheticTraffic

DEAD_LINK = "wch1.A0->B2"  # channel 1 carries the (0, 2) cluster pair


def _run_death(with_reconfig, cycles=800, at=200):
    built = build_fault_tolerant_own256(with_reconfiguration=with_reconfig)
    routing = built.notes["routing"]
    campaign = FaultCampaign([PermanentFault(at=at, target=DEAD_LINK)])
    layer = FaultLayer(built.network, campaign=campaign, seed=5)
    sim = Simulator(
        built.network,
        traffic=SyntheticTraffic(256, "UN", 0.02, 4, seed=7),
        warmup_cycles=100,
        faults=layer,
    )
    ctrl = None
    if with_reconfig:
        ctrl = make_reconfig_controller(built, epoch_cycles=200)
        sim.add_hook(ctrl)
    monitor = HealthMonitor(
        layer, routing=routing, reconfig=ctrl, epoch_cycles=100
    )
    sim.add_hook(monitor)
    sim.run(cycles)
    assert sim.drain(30_000)
    return built, sim, layer, monitor, ctrl


class TestFailover:
    def test_transceiver_death_fails_over_to_relay(self):
        built, sim, layer, monitor, _ = _run_death(with_reconfig=False)
        # Nothing lost, no deadlock, conservation intact.
        assert sim.stats.packets_ejected == sim.stats.packets_created
        audit_network(sim)
        # The monitor declared exactly the dead channel.
        assert len(monitor.failovers) == 1
        _, name, pair = monitor.failovers[0]
        assert name == DEAD_LINK and pair == (0, 2)
        assert built.notes["routing"].failed_pairs == {(0, 2)}
        assert sim.stats.channels_failed_over == 1
        # In-flight traffic on the dead channel was recovered + re-injected.
        assert sim.stats.packets_recovered > 0
        # Post-failover (0,2) traffic relays: extra wireless hops appear.
        assert built.notes["routing"].relayed_packets > 0

    def test_failover_quiesces_the_dead_link(self):
        built, sim, layer, _, _ = _run_death(with_reconfig=False)
        dead = next(l for l in built.network.links if l.name == DEAD_LINK)
        assert dead.fault.dead and dead.fault.failed_over
        # Quiesced: no replay entries or retransmit jobs left behind.
        assert not layer._replay.get(dead)
        assert not layer._retx.get(dead)

    def test_failover_pins_a_spare_when_available(self):
        built, sim, _, monitor, ctrl = _run_death(with_reconfig=True)
        assert sim.stats.packets_ejected == sim.stats.packets_created
        audit_network(sim)
        assert monitor.failovers
        assert (0, 2) in ctrl.pinned
        # The pinned spare actually carried the failed pair's traffic.
        spare = ctrl.assignments[(0, 2)].link
        assert spare.flits_carried > 0

    def test_throughput_recovers_after_failover(self):
        """Post-failover steady state keeps accepting the offered load:
        the failure lands early, yet every packet injected over the whole
        window (including long after it) is delivered."""
        _, sim, _, monitor, _ = _run_death(with_reconfig=False, cycles=1200)
        fail_cycle = monitor.failovers[0][0]
        assert fail_cycle < 600
        assert sim.stats.packets_created > 0
        assert sim.stats.packets_ejected == sim.stats.packets_created


class TestMonitorValidation:
    def test_epoch_cycles_positive(self):
        built = build_fault_tolerant_own256()
        layer = FaultLayer(built.network)
        with pytest.raises(ValueError):
            HealthMonitor(layer, epoch_cycles=0)

    def test_corruption_threshold_bounded(self):
        built = build_fault_tolerant_own256()
        layer = FaultLayer(built.network)
        with pytest.raises(ValueError):
            HealthMonitor(layer, corruption_threshold=1.5)

    @pytest.mark.parametrize("name", ["min_attempts", "patience", "timeout_threshold"])
    def test_counts_below_one_rejected(self, name):
        # Each used to be accepted: on a fault-free own256_ft run,
        # min_attempts=0 divided by a zero attempt count on the first idle
        # link, and patience=0 or timeout_threshold=0 failed healthy
        # channels over.
        built = build_fault_tolerant_own256()
        layer = FaultLayer(built.network)
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got 0"):
            HealthMonitor(layer, **{name: 0})
        HealthMonitor(layer, **{name: 1})

    def test_summary_shape(self):
        built = build_fault_tolerant_own256()
        layer = FaultLayer(built.network)
        monitor = HealthMonitor(layer)
        s = monitor.summary()
        assert "failovers" in s


class TestFailOverErrors:
    """Only UnroutableError means "no reroute"; anything else is a bug."""

    class _Routing:
        pair_of_channel = {1: (0, 2)}

        def __init__(self, error):
            self.error = error

        def fail_channel(self, src, dst):
            raise self.error

    def _fail_over(self, error):
        built = build_fault_tolerant_own256()
        layer = FaultLayer(built.network)
        link = next(l for l in built.network.links if l.name == DEAD_LINK)
        monitor = HealthMonitor(layer, routing=self._Routing(error))
        return monitor.fail_over(Simulator(built.network), link)

    def test_unroutable_channel_stays_in_degraded_service(self):
        assert self._fail_over(UnroutableError("no live relay")) is False

    def test_route_verification_bug_propagates(self):
        with pytest.raises(KeyError):
            self._fail_over(KeyError((0, 2)))
