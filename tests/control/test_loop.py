"""ControlLoop unit tests: scheduling, recovery probing, pin retry.

The epoch-driven pin backoff is exercised against the
real OWN-256 plant (routing + reconfiguration controller) but with a
minimal fake simulator clock, so each decision boundary is a direct call
rather than thousands of simulated cycles. The probe/recovery path runs
the real simulator end to end -- it needs genuine link-layer fault state.
"""

from types import SimpleNamespace

import pytest

from repro.control import ControlLoop
from repro.core.faults import build_fault_tolerant_own256
from repro.core.own256 import make_reconfig_controller
from repro.faults import FaultCampaign, FaultLayer, HealthMonitor, TransientFault
from repro.faults.models import LinkFaultState
from repro.noc import Simulator
from repro.noc.invariants import audit_network
from repro.traffic import SyntheticTraffic
from repro.utils.rng import RngStreams

BURST_LINK = "wch1.A0->B2"  # channel 1 carries the (0, 2) cluster pair
EPOCH = 250


class FakeSim:
    """Just enough simulator surface for a ControlLoop epoch step."""

    def __init__(self):
        self.now = 0
        self.stats = SimpleNamespace(channels_recovered=0)
        self._tracer = None


def make_plant(**loop_kwargs):
    built = build_fault_tolerant_own256(with_reconfiguration=True)
    routing = built.notes["routing"]
    ctrl = make_reconfig_controller(built, epoch_cycles=EPOCH)
    loop = ControlLoop(
        routing, ctrl, epoch_cycles=EPOCH, rng=RngStreams(23), **loop_kwargs
    )
    return built, routing, ctrl, loop


def step_epochs(loop, sim, start, stop):
    for epoch in range(start, stop):
        sim.now = epoch * EPOCH
        loop(sim)


class TestScheduling:
    def test_next_wake_epoch_schedule(self):
        _, _, _, loop = make_plant()
        assert loop.next_wake(0) == EPOCH
        assert loop.next_wake(1) == EPOCH
        assert loop.next_wake(EPOCH) == EPOCH  # boundary: fire now
        assert loop.next_wake(EPOCH + 1) == 2 * EPOCH

    def test_loop_takes_ownership_of_the_controller(self):
        """The loop owns the controller's transition log, not its
        placement: the utilisation re-pointer keeps choosing the spares,
        and each of its transitions lands in the decision log."""
        _, _, ctrl, loop = make_plant()
        assert loop.epochs == 0 and len(loop.log) == 0
        ctrl.primary_links[(0, 2)].flits_carried += 1
        ctrl.reassign()
        assert ctrl.boosted(0, 2) is not None
        assert loop.log.counts == {"spare_install": 1}

    def test_validation(self):
        built, routing, ctrl, _ = make_plant()
        with pytest.raises(ValueError):
            ControlLoop(routing, ctrl, epoch_cycles=0)
        with pytest.raises(ValueError):
            ControlLoop(routing, ctrl, probe_ok_needed=0)


class TestProbeRecovery:
    def test_transient_failure_is_probed_back_to_service(self):
        """A burst condemns channel 1; once it clears, consecutive probe
        successes un-fail the pair, unpin the spare, and reset the
        monitor -- the transient costs a window, not the rest of the run."""
        built = build_fault_tolerant_own256(with_reconfiguration=True)
        routing = built.notes["routing"]
        campaign = FaultCampaign(
            [TransientFault(at=200, duration=600, snr_penalty_db=14.0,
                            target=BURST_LINK)]
        )
        layer = FaultLayer(built.network, campaign=campaign, rng=RngStreams(11))
        ctrl = make_reconfig_controller(built, epoch_cycles=EPOCH)
        monitor = HealthMonitor(layer, routing=routing, reconfig=ctrl,
                                epoch_cycles=100)
        loop = ControlLoop(routing, ctrl, layer=layer, monitor=monitor,
                           epoch_cycles=EPOCH, probe_ok_needed=2,
                           rng=RngStreams(23))
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(256, "UN", 0.03, 4, seed=7),
            warmup_cycles=100,
            faults=layer,
        )
        sim.add_hook(monitor)
        sim.add_hook(loop)
        sim.run(3000)
        assert sim.drain(30_000)
        audit_network(sim)

        assert sim.stats.channels_failed_over >= 1, "burst never condemned"
        assert loop.recovered_channels >= 1
        assert sim.stats.channels_recovered == loop.recovered_channels
        assert routing.failed_pairs == set()
        assert (0, 2) not in ctrl.pinned
        assert loop.log.counts.get("probe", 0) >= loop.probe_ok_needed
        assert loop.log.counts.get("unfail", 0) == loop.recovered_channels
        # The healed link carries traffic again after recovery.
        link = next(l for l in built.network.links if l.name == BURST_LINK)
        assert not link.fault.failed_over and not link.fault.dead


class TestPinRetry:
    def test_pin_lands_when_spare_is_healthy(self):
        _, routing, ctrl, loop = make_plant()
        routing.fail_channel(0, 2)
        sim = FakeSim()
        step_epochs(loop, sim, 1, 2)
        assert (0, 2) in ctrl.pinned
        assert loop.log.counts.get("pin") == 1
        assert (0, 2) not in loop._pin_retry

    def test_backoff_doubles_and_gives_up(self):
        _, routing, ctrl, loop = make_plant()
        loop.retry_base_epochs = 1
        loop.retry_cap_epochs = 4
        loop.max_pin_attempts = 3
        routing.fail_channel(0, 2)
        # Kill the spare hardware so every pin attempt finds it unusable.
        spare = ctrl.spare_links[(0, 2)]
        spare.fault = LinkFaultState()
        spare.fault.dead = True

        sim = FakeSim()
        step_epochs(loop, sim, 1, 12)
        events = [
            (r["epoch"], r["action"], r["attempts"])
            for r in loop.log.records
            if r["action"] in ("pin_retry", "pin_giveup")
        ]
        # Retry at epoch 1 (wait 1), epoch 2 (wait 2), give up at epoch 4.
        assert events == [
            (1, "pin_retry", 1),
            (2, "pin_retry", 2),
            (4, "pin_giveup", 3),
        ]
        assert (0, 2) not in ctrl.pinned
        assert loop._pin_retry[(0, 2)].given_up
        # Degraded, not dead: the failed pair still routes via relay.
        assert routing._next_domain(0, 2) != 2

    def test_faulty_pinned_spare_is_evicted(self):
        _, routing, ctrl, loop = make_plant()
        ctrl.pin((0, 2))
        spare = ctrl.spare_links[(0, 2)]
        spare.fault = LinkFaultState()
        spare.fault.dead = True

        sim = FakeSim()
        step_epochs(loop, sim, 1, 2)
        assert (0, 2) not in ctrl.pinned
        assert loop.log.counts.get("unpin_faulty") == 1
