"""The link layer and the health monitor pay per event, and lose nothing.

Production services a link holding only un-ACKed replay entries at its
timeout deadline, and the monitor classifies only the links that moved
(marked by an attempt, NACK or timeout) plus those it watches. Each is
checked against the naive rules it replaced, inside
``tests.reference.naive_schedule()``: every link with replay state serviced
every cycle, every protected link classified every epoch, every cycle
stepped. On OWN-256 with bursty and death faults, a one-entry replay buffer
(the full-buffer stall every send) and failover + recovery churn, the
two schedules must agree exactly: the delivery log, every per-link protocol
counter, the failover log and the run summary (``control_log_crc``
included).
"""

from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import FaultCampaign, FaultLayer, HealthMonitor, PermanentFault
from repro.faults import linklayer
from repro.faults.linklayer import ACK_EVENT, LinkLayerConfig
from repro.faults.models import LOST, LinkFaultState
from repro.noc import Simulator
from repro.runtime.executor import execute_inline
from repro.runtime.registry import build_topology
from repro.runtime.spec import ControlSpec, FaultSpec, RunSpec
from repro.traffic.generator import ScriptedTraffic
from tests.reference import naive_schedule
from tests.runtime.test_fastforward_property import delivery_log

# Short monitor epochs: many epochs see a link's NACK or timeout but no
# new attempt on it, or a noisy link's strike followed by a quiet epoch.
BURSTY = FaultSpec(
    kind="bursty", burst_rate=0.01, burst_duration=60, snr_penalty_db=14.0,
    max_channel=4, failover=True, monitor_epoch=20,
)  # fmt: skip
SCENARIOS = {
    "bursty": dict(faults=BURSTY),
    "death": dict(faults=FaultSpec(kind="death", at=150, failover=True, monitor_epoch=20)),
    # Light load: a dead link's timeouts land in epochs with no new attempt
    # on it, and the network idles (fast-forward) with a lost attempt
    # outstanding.
    "death-light": dict(
        faults=FaultSpec(kind="death", at=150, failover=True, monitor_epoch=20),
        rate=0.002, cycles=3000,
    ),
    "bursty-light": dict(faults=BURSTY, rate=0.004, cycles=3000),
    "replay-capacity-1": dict(faults=BURSTY, replay_capacity=1),
    "control-churn": dict(
        faults=FaultSpec(kind="bursty", burst_rate=0.004, burst_duration=200,
                         snr_penalty_db=14.0, max_channel=4),
        control=ControlSpec(epoch_cycles=250),
        cycles=1500,
    ),
}  # fmt: skip


def _run(scenario):
    kwargs = dict(SCENARIOS[scenario])
    config = LinkLayerConfig(replay_capacity=kwargs.pop("replay_capacity", 8))
    spec = RunSpec.create(
        "own256_ft", topology_kwargs={"with_reconfiguration": True},
        pattern="UN", warmup=100, drain=20_000, seed=5,
        **{"rate": 0.02, "cycles": 800, **kwargs},
    )  # fmt: skip
    with mock.patch.object(linklayer, "LinkLayerConfig", lambda: config):
        with delivery_log() as log:
            _, sim, result = execute_inline(spec)
    layer = sim._faults
    monitor = next(h for h in sim._hooks if isinstance(h, HealthMonitor))
    counters = sorted(
        (link.name, tuple(getattr(state, f) for f in LinkFaultState.__slots__))
        for link, state in layer.protected.items()
    )
    return {
        "log": log,
        "counters": counters,
        "failovers": list(monitor.failovers),
        "summary": result.summary,
        "pending": layer.pending_work(),
    }


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_event_driven_hooks_match_the_naive_rules(scenario):
    fast = _run(scenario)
    summary = fast["summary"]
    assert fast["log"] and summary["drained"] == 1.0 and not fast["pending"]
    if scenario.startswith("death"):
        assert summary["timeouts"] > 0 and fast["failovers"]
    else:
        assert summary["nacks"] > 0
    if scenario == "control-churn":
        assert summary["channels_failed_over"] > 0 and summary["channels_recovered"] > 0
        assert "control_log_crc" in summary
    if scenario == "replay-capacity-1":  # back-pressure moved the sample path
        assert fast["log"] != _run("bursty")["log"]
    with naive_schedule():
        assert _run(scenario) == fast


DEAD = "wch1.A0->B2"  # channel 1: the route from core 0 to core 130 crosses it


def _dead_link_sim():
    built = build_topology("own256_ft")
    campaign = FaultCampaign([PermanentFault(at=0, target=DEAD)])
    layer = FaultLayer(built.network, campaign=campaign)
    # Three packets into a dead link, far apart: between attempts the
    # network idles (fast-forward) with only lost attempts outstanding.
    traffic = ScriptedTraffic([(0, 0, 130, 4), (700, 1, 131, 4), (1500, 2, 132, 4)])
    sim = Simulator(built.network, traffic=traffic, faults=layer)
    return sim, layer, next(l for l in built.network.links if l.name == DEAD)


def test_a_lost_attempt_times_out_on_its_deadline_cycle():
    runs = []
    for schedule in (nullcontext, naive_schedule):
        sim, _, dead = _dead_link_sim()
        due, fired = {}, []
        finish, requeue = FaultLayer._finish_attempt, FaultLayer._requeue

        def finishing(self, link, packet, fate, now):
            if fate is LOST:
                due[link.name, packet.pid] = now + self.config.timeout
            return finish(self, link, packet, fate, now)

        def requeueing(self, link, packet, attempts, now):
            # No NACKs without corruption: every requeue is a timeout.
            fired.append((due.pop((link.name, packet.pid)), now))
            return requeue(self, link, packet, attempts, now)

        with schedule(), \
                mock.patch.object(FaultLayer, "_finish_attempt", finishing), \
                mock.patch.object(FaultLayer, "_requeue", requeueing):
            sim.run(2500)
        assert len(fired) == sim.stats.timeouts == dead.fault.timeouts > 16
        assert all(deadline == now for deadline, now in fired)
        runs.append((fired, sim.stats.packets_recovered))
    assert runs[0] == runs[1]
    assert sim.stats.packets_recovered > 0  # max_retries exhausted, re-injected


def test_the_layer_marks_every_attempt_nack_and_timeout():
    sim, layer, dead = _dead_link_sim()
    while not dead.fault.attempts:
        sim.step()
    assert dead in layer.marked
    layer.marked.clear()
    while not dead.fault.timeouts:
        sim.step()
    assert layer.marked == {dead}
    layer.marked.clear()
    other = next(link for link in layer.protected if link is not dead)
    layer.handle_event((ACK_EVENT, other, -1, True), sim.now)
    assert not layer.marked
    layer.handle_event((ACK_EVENT, other, -1, False), sim.now)
    assert layer.marked == {other}


EVENTS = ("clean", "corrupt", "lost", "nack", "timeout", "ack", "unfail", "recover", "epoch")


def _drive(events):
    """Hand-drive a monitor: each event updates one link's counters (and
    marks it) exactly as the link layer would; ``epoch`` runs a verdict."""
    built = build_topology("own256_ft")
    layer = FaultLayer(built.network)
    routing = built.notes["routing"]
    monitor = HealthMonitor(
        layer, routing=routing, epoch_cycles=1, timeout_threshold=2,
        patience=2, min_attempts=1, audit=False,
    )  # fmt: skip
    sim = Simulator(built.network, faults=layer)
    links = [link for link in layer.protected if link.kind == "wireless"][:6]
    for k, event in events:
        link = links[k]
        state = link.fault
        if event == "epoch":
            sim.now += 1
            monitor(sim)
        elif event in ("clean", "corrupt", "lost"):
            state.attempts += 1
            state.corrupt_attempts += event == "corrupt"
            layer.marked.add(link)
        elif event in ("nack", "timeout"):
            state.consecutive_failures += 1
            layer.marked.add(link)
        elif event == "ack":
            state.consecutive_failures = 0
        elif state.failed_over:  # unfail, with or without telling the monitor
            layer.unquiesce_link(link, sim.now)
            routing.unfail_channel(*routing.pair_of_channel[link.channel_id])
            if event == "recover":
                monitor.notice_recovery(link)
    names = {link: link.name for link in layer.protected}
    return (
        monitor.failovers,
        {names[link]: s for link, s in monitor._strikes.items() if s},
        {names[link]: monitor._snap.get(link, (0, 0)) for link in layer.protected},
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.sampled_from(EVENTS)), max_size=150))
# A failed-over link un-failed behind the monitor's back: its stale strikes
# must be cleared at the next epoch, though nothing marked it.
@example([(1, "corrupt"), (1, "epoch"), (1, "corrupt"), (1, "epoch"), (1, "epoch"),
          (1, "unfail"), (1, "epoch"), (1, "corrupt"), (1, "epoch")])
# Failing link 4 after links 0 and 3 is unroutable, so it stays silent in
# service; once link 0 recovers, the next epoch must retry its failover.
@example([(0, "nack"), (0, "nack"), (3, "nack"), (3, "nack"), (0, "epoch"),
          (4, "nack"), (4, "nack"), (0, "epoch"), (0, "recover"), (0, "epoch")])
def test_monitor_verdicts_match_classifying_every_link(events):
    production = _drive(events)
    with naive_schedule():
        assert _drive(events) == production
