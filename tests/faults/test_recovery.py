"""Probe recovery in the health monitor: its epoch schedule, the decision
log, a transient failure probed back to service end to end, and the one
re-pin a recovery makes possible."""

import pytest

from repro.core.faults import build_fault_tolerant_own256
from repro.core.own256 import make_reconfig_controller
from repro.core.reconfig import canonical_crc
from repro.faults import FaultCampaign, FaultLayer, HealthMonitor, TransientFault
from repro.faults.monitor import PROBE_OK_NEEDED
from repro.noc import Simulator
from repro.noc.invariants import audit_network
from repro.traffic import SyntheticTraffic

BURST_LINK = "wch1.A0->B2"  # channel 1 carries the (0, 2) cluster pair
EPOCH = 250


def make_plant(campaign=None, recover=True):
    built = build_fault_tolerant_own256(with_reconfiguration=True)
    layer = FaultLayer(built.network, campaign=campaign, seed=11)
    ctrl = make_reconfig_controller(built, epoch_cycles=EPOCH)
    monitor = HealthMonitor(
        layer, routing=built.notes["routing"], reconfig=ctrl, epoch_cycles=100,
        recover=recover,
    )  # fmt: skip
    return built, layer, ctrl, monitor


class TestScheduling:
    def test_next_wake_steps_classify_and_recovery_epochs(self):
        *_, monitor = make_plant()
        cycles = (0, 1, 100, 101, 201, 250, 251, 400, 401)
        assert [monitor.next_wake(n) for n in cycles] == [
            100, 100, 100, 200, 250, 250, 300, 400, 500,
        ]  # fmt: skip
        *_, static = make_plant(recover=False)
        assert static.next_wake(201) == 300

    def test_the_log_mirrors_the_controllers_transitions(self):
        """The controller keeps choosing the spares; each of its phase
        transitions lands in the monitor's decision log."""
        _, _, ctrl, monitor = make_plant()
        ctrl.primary_links[(0, 2)].flits_carried += 1
        ctrl.reassign()
        assert ctrl.boosted(0, 2) is not None
        assert monitor.decisions == [
            {"cycle": 0, "epoch": 0, "action": "spare_install", "pair": [0, 2], "channel": 13}
        ]

    def test_static_monitors_report_no_recovery_metrics(self):
        *_, monitor = make_plant(recover=False)
        assert monitor.summary_metrics() == {}

    def test_recovery_needs_routing_and_a_controller(self):
        built, layer, ctrl, _ = make_plant()
        with pytest.raises(ValueError, match="recover=True"):
            HealthMonitor(layer, reconfig=ctrl, recover=True)
        with pytest.raises(ValueError, match="recover=True"):
            HealthMonitor(layer, routing=built.notes["routing"], recover=True)


class TestProbeRecovery:
    def test_transient_failure_is_probed_back_to_service(self):
        """A burst condemns channel 1; once it clears, consecutive probe
        successes un-fail the pair, unpin the spare, and reset the
        monitor -- the transient costs a window, not the rest of the run."""
        campaign = FaultCampaign(
            [TransientFault(at=200, duration=600, snr_penalty_db=14.0, target=BURST_LINK)]
        )
        built, layer, ctrl, monitor = make_plant(campaign)
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(256, "UN", 0.03, 4, seed=7),
            warmup_cycles=100,
            faults=layer,
        )
        sim.add_hook(ctrl)
        sim.add_hook(monitor)
        sim.run(3000)
        assert sim.drain(30_000)
        audit_network(sim)

        assert sim.stats.channels_failed_over >= 1, "burst never condemned"
        assert sim.stats.channels_recovered >= 1
        assert built.notes["routing"].failed_pairs == set()
        assert (0, 2) not in ctrl.pinned
        actions = [r["action"] for r in monitor.decisions]
        assert actions.count("probe") >= PROBE_OK_NEEDED
        assert actions.count("unfail") == sim.stats.channels_recovered
        metrics = monitor.summary_metrics()
        assert metrics["channels_recovered_ctl"] == sim.stats.channels_recovered
        assert metrics["control_log_crc"] == canonical_crc(monitor.decisions)
        assert metrics["control_epochs"] == sim.now // EPOCH
        # The healed link carries traffic again after recovery.
        link = next(l for l in built.network.links if l.name == BURST_LINK)
        assert not link.fault.failed_over and not link.fault.dead


class TestRepinOnRecovery:
    def test_a_refused_pin_lands_at_the_freeing_recovery(self):
        built, layer, ctrl, monitor = make_plant()
        sim = Simulator(built.network, faults=layer)
        healing, dead = ctrl.primary_links[(0, 2)], ctrl.primary_links[(0, 3)]
        sim.now = 100
        assert monitor.fail_over(sim, healing) and monitor.fail_over(sim, dead)
        # Both pairs need cluster 0's one outgoing spare: (0, 3) is refused.
        assert ctrl.pinned == [(0, 2)]
        dead.fault.dead = True
        for sim.now in (250, 500):
            monitor(sim)
        assert ctrl.pinned == [(0, 3)]
        assert built.notes["routing"].failed_pairs == {(0, 3)}
        assert [
            (r["cycle"], r["action"], r["pair"])
            for r in monitor.decisions
            if r["action"] in ("unfail", "pin")
        ] == [(500, "unfail", [0, 2]), (500, "pin", [0, 3])]
