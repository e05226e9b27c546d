"""Two-phase draining spare re-assignment (open-loop safety).

The utilisation-driven :class:`ReconfigurationController`
re-points spares every epoch. Before the drain protocol this stranded
in-flight packets under a sustained hotspot (the seed tree deadlocked
bit-for-bit at cycle 5329 in the regression config below). Re-assignment
is now two-phase -- DRAINING stops new steers, the channel re-points
once the leg empties or a bounded timeout expires, and stragglers take
the escape path (store-and-forward restarts over the primary plan).

Covers:

* the drain state machine (retire / resurrect / complete / timeout /
  deferred install / escape), unit-level;
* the seed-tree stranding regression, reproduced at the exact config
  that used to deadlock;
* ``unpin``/``reassign`` on a pair with in-flight packets routing
  through the drain path instead of instant revocation;
* exactly-once delivery under arbitrary open-loop re-pointing schedules
  (hypothesis), with the fast-forwarded slot sweep, traced active-set
  ``stage_sa`` and the naive schedule (every cycle stepped, every waiting
  head polled) bit-identical to each other;
* a churn schedule that reaches the default drain timeout, the reason the
  escape path exists.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.faults import build_fault_tolerant_own256
from repro.core.own256 import make_reconfig_controller
from repro.core.reconfig import (
    DEFAULT_DRAIN_TIMEOUT,
    PHASE_ACTIVE,
    PHASE_DRAINING,
    canonical_crc,
    epoch_wake,
)
from repro.noc.simulator import Simulator
from repro.noc.stats import StatsCollector
from repro.telemetry import Tracer
from repro.traffic import SyntheticTraffic, TrafficPattern
from tests.reference import naive_schedule


def hotspot_traffic(rate=0.05, seed=2, stop=None):
    # Cluster 2 (cores 128-191) as the hot destination region.
    pat = TrafficPattern("HOT", 256, hotspot_fraction=0.6,
                        hotspots=list(range(128, 192)))
    return SyntheticTraffic(256, pat, rate, 4, seed=seed, stop_cycle=stop)


class _Clock:
    """Minimal stand-in for the simulator in unit-level hook calls."""

    def __init__(self, now):
        self.now = now


def place(ctrl, pair):
    """Point a spare at ``pair`` through the controller's own ranking: it
    becomes the only primary channel that carried flits since the last
    reassign, so it is the whole utilisation-ranked placement."""
    ctrl.primary_links[pair].flits_carried += 1
    ctrl.reassign()


# --------------------------------------------------------------------- #
# Drain state machine, unit level
# --------------------------------------------------------------------- #


class TestDrainStateMachine:
    def _controller(self, **kwargs):
        built = build_fault_tolerant_own256(with_reconfiguration=True)
        return built, make_reconfig_controller(built, epoch_cycles=100, **kwargs)

    def test_retire_empty_leg_revokes_instantly(self):
        _, ctrl = self._controller()
        place(ctrl, (0, 1))
        assert ctrl.boosted(0, 1) is not None
        place(ctrl, (2, 3))
        # No committed packets: the old assignment is gone immediately
        # (pre-PR single-phase behaviour, which keeps reassignment-free
        # runs bit-identical).
        assert ctrl.assignment_for((0, 1)) is None
        assert ctrl.boosted(2, 3) is not None
        assert ctrl.drains_started == 0

    def test_retire_with_inflight_drains_first(self):
        _, ctrl = self._controller()
        place(ctrl, (0, 1))
        ctrl.track_steer(7, (0, 1))
        place(ctrl, (2, 3))
        a = ctrl.assignment_for((0, 1))
        assert a is not None and a.phase == PHASE_DRAINING
        assert ctrl.boosted(0, 1) is None  # no new steers
        assert ctrl.steerable(0, 1) is False
        assert ctrl.drains_started == 1

    def test_drain_completes_on_arrival(self):
        _, ctrl = self._controller()
        place(ctrl, (0, 1))
        ctrl.track_steer(7, (0, 1))
        place(ctrl, (2, 3))
        ctrl.note_arrival(7, 1)  # reached the destination cluster
        ctrl(_Clock(1))  # per-cycle drain advancement
        assert ctrl.assignment_for((0, 1)) is None
        assert ctrl.drains_completed == 1
        assert ctrl.escapes == 0

    def test_blocked_install_lands_when_drain_completes(self):
        _, ctrl = self._controller()
        place(ctrl, (0, 1))
        ctrl.track_steer(7, (0, 1))
        # (0, 2) needs the src-0 D antenna still held by the draining
        # (0, 1) assignment: the install is deferred, not dropped.
        place(ctrl, (0, 2))
        assert ctrl.boosted(0, 2) is None
        ctrl.note_arrival(7, 1)
        ctrl(_Clock(1))
        assert ctrl.boosted(0, 2) is not None

    def test_drain_timeout_revokes_and_strays_escape(self):
        _, ctrl = self._controller(drain_timeout=5)
        place(ctrl, (0, 1))
        ctrl.track_steer(7, (0, 1))
        place(ctrl, (2, 3))
        ctrl(_Clock(5))
        assert ctrl.drain_timeouts == 1
        assert ctrl.assignment_for((0, 1)) is None
        # The straggler stays tracked until the routing layer sees it at
        # the D gateway (or its destination) and resolves it.
        assert ctrl.committed_pair(7) == (0, 1)

        class _Pkt:
            escaped = False

        pkt = _Pkt()
        ctrl.note_escape(7, pkt)
        assert pkt.escaped is True
        assert ctrl.escapes == 1
        assert ctrl.committed_pair(7) is None
        assert ctrl.occupancy((0, 1)) == 0

    def test_rechosen_draining_pair_is_resurrected(self):
        _, ctrl = self._controller()
        place(ctrl, (0, 1))
        ctrl.track_steer(7, (0, 1))
        place(ctrl, (2, 3))
        assert ctrl.boosted(0, 1) is None
        place(ctrl, (0, 1))
        a = ctrl.assignment_for((0, 1))
        assert a is not None and a.phase == PHASE_ACTIVE
        assert ctrl.boosted(0, 1) is not None
        events = [t["event"] for t in ctrl.transitions]
        assert "drain_cancel" in events

    def test_transition_log_is_byte_stable(self):
        crcs = []
        for _ in range(2):
            _, ctrl = self._controller(drain_timeout=5)
            place(ctrl, (0, 1))
            ctrl.track_steer(7, (0, 1))
            place(ctrl, (2, 3))
            ctrl(_Clock(5))
            ctrl.note_escape(7)
            crcs.append(canonical_crc(ctrl.transitions))
        assert crcs[0] == crcs[1]
        _, ctrl = self._controller()
        assert canonical_crc(ctrl.transitions) != crcs[0]  # empty log differs

    def test_summary_exposes_drain_state(self):
        _, ctrl = self._controller()
        place(ctrl, (0, 1))
        ctrl.track_steer(7, (0, 1))
        place(ctrl, (2, 3))
        s = ctrl.summary()
        assert s["draining_pairs"] == [(0, 1)]
        assert s["drains_started"] == 1
        assert s["in_flight"] == 1
        by_pair = {tuple(d["pair"]): d for d in s["drain_state"]}
        assert by_pair[(0, 1)]["phase"] == PHASE_DRAINING
        assert by_pair[(0, 1)]["in_flight"] == 1
        m = ctrl.summary_metrics()
        assert m["spare_drains_started"] == 1.0
        assert m["drain_log_crc"] == float(canonical_crc(ctrl.transitions))


# --------------------------------------------------------------------- #
# Seed-tree stranding regression
# --------------------------------------------------------------------- #


def _open_loop_sim(rate, epoch, seed, drain_timeout=None, tracer=None):
    built = build_fault_tolerant_own256(with_reconfiguration=True)
    kwargs = {} if drain_timeout is None else {"drain_timeout": drain_timeout}
    ctrl = make_reconfig_controller(built, epoch_cycles=epoch, **kwargs)
    sim = Simulator(
        built.network,
        traffic=hotspot_traffic(rate=rate, seed=seed),
        warmup_cycles=400,
        tracer=tracer,
    )
    sim.add_hook(ctrl)
    return built, ctrl, sim


class TestSeedTreeStrandingRegression:
    def test_sustained_hotspot_open_loop_drains_fully(self):
        # The exact config that deadlocked on the seed tree (watchdog at
        # cycle 5329): open-loop re-pointer every 50 cycles under a
        # sustained hotspot at rate 0.05, seed 2. With two-phase draining
        # every injected packet is delivered exactly once.
        _, ctrl, sim = _open_loop_sim(rate=0.05, epoch=50, seed=2)
        sim.run(3000)
        assert sim.drain(60_000)
        assert sim.stats.packets_created == sim.stats.packets_ejected > 0
        assert sim.network.total_occupancy() == 0
        # The hazard is real in this config: spares were re-pointed with
        # packets in flight (otherwise this test proves nothing).
        assert ctrl.drains_started > 0

    def test_forced_timeouts_escape_instead_of_stranding(self):
        # drain_timeout=1 forces the escape path on every contested
        # re-assignment; deliveries must still be exactly-once.
        _, ctrl, sim = _open_loop_sim(rate=0.05, epoch=50, seed=2,
                                      drain_timeout=1)
        sim.run(3000)
        assert sim.drain(60_000)
        assert sim.stats.packets_created == sim.stats.packets_ejected > 0
        assert ctrl.drain_timeouts > 0
        assert ctrl.escapes > 0
        assert ctrl.summary()["in_flight"] == 0

    def test_unpin_with_inflight_packets_drains(self):
        built, ctrl, sim = _open_loop_sim(rate=0.05, epoch=10_000, seed=2)
        routing = built.notes["routing"]
        routing.fail_channel(0, 2)
        ctrl.pin((0, 2))
        sim.run(300)
        if ctrl.occupancy((0, 2)) == 0:  # pragma: no cover - load-dependent
            pytest.skip("no packets committed to the pinned spare")
        routing.unfail_channel(0, 2)
        ctrl.unpin((0, 2))
        a = ctrl.assignment_for((0, 2))
        assert a is not None and a.phase == PHASE_DRAINING
        assert ctrl.boosted(0, 2) is None
        sim.run(3000)
        assert sim.drain(60_000)
        assert sim.stats.packets_created == sim.stats.packets_ejected


# --------------------------------------------------------------------- #
# Exactly-once delivery under arbitrary re-pointing schedules
# --------------------------------------------------------------------- #


@contextmanager
def delivery_log():
    """Record every (cycle, packet id) ejection, in delivery order."""
    events = []
    orig = StatsCollector.on_packet_ejected

    def patched(self, packet, now):
        events.append((now, packet.pid))
        return orig(self, packet, now)

    StatsCollector.on_packet_ejected = patched
    try:
        yield events
    finally:
        StatsCollector.on_packet_ejected = orig


class ScheduleHook:
    """Deterministic open-loop churn: reassign / pin / unpin / fail /
    unfail at every schedule epoch, driven only by the cycle count.

    Fault actions mirror the production failover contract
    (:class:`~repro.faults.HealthMonitor`, failover and recovery): a
    failed channel is immediately pinned onto a spare when feasible
    (else it rides relays, validated routable by ``fail_channel``), and
    recovery unfails *then* unpins so the pair is alive before its spare
    drains away. At most two pairs are failed concurrently -- beyond
    that the fixed relay plan itself runs out, which is an unroutable
    topology, not a reconfiguration hazard.
    """

    PAIRS = [(0, 2), (1, 3), (2, 0), (3, 1), (0, 1), (2, 3)]

    def __init__(self, built, ctrl, schedule_seed, epoch=60):
        import random

        self.routing = built.notes["routing"]
        self.ctrl = ctrl
        self.epoch = epoch
        self.rng = random.Random(schedule_seed)

    def next_wake(self, now):
        return epoch_wake(now, self.epoch)

    def __call__(self, sim):
        if sim.now <= 0 or sim.now % self.epoch != 0:
            return
        action = self.rng.choice(
            ["noop", "pin", "unpin", "fail", "unfail", "reassign"]
        )
        pair = self.rng.choice(self.PAIRS)
        try:
            if action == "pin":
                self.ctrl.pin(pair)
            elif action == "unpin":
                self.ctrl.unpin(pair)
            elif action == "fail":
                if (
                    pair not in self.routing.failed_pairs
                    and len(self.routing.failed_pairs) < 2
                ):
                    self.routing.fail_channel(*pair)
                    try:
                        self.ctrl.pin(pair)
                    except ValueError:
                        pass  # no feasible spare: relays carry the pair
            elif action == "unfail":
                if self.routing.unfail_channel(*pair):
                    self.ctrl.unpin(pair)
            elif action == "reassign":
                self.ctrl.reassign()
        except ValueError:
            pass  # infeasible pin / unroutable fail: legal no-ops


def _churn_run(rate, seed, schedule_seed, faulty, tracer=None):
    built, ctrl, sim = _open_loop_sim(rate=rate, epoch=50, seed=seed,
                                      drain_timeout=30, tracer=tracer)
    hook = ScheduleHook(built, ctrl, schedule_seed)
    if faulty:
        sim.add_hook(hook)
    with delivery_log() as events:
        sim.run(1200)
        drained = sim.drain(60_000)
    return {
        "sa_kernel": sim._sa_kernel,
        "events": events,
        "drained": drained,
        "created": sim.stats.packets_created,
        "ejected": sim.stats.packets_ejected,
        "occupancy": sim.network.total_occupancy(),
        "drain_crc": canonical_crc(ctrl.transitions),
        "summary": ctrl.summary_metrics(),
    }


@settings(max_examples=4, deadline=None)
@given(
    rate=st.sampled_from([0.04, 0.06]),
    seed=st.integers(min_value=0, max_value=2**16 - 1),
    schedule_seed=st.integers(min_value=0, max_value=2**16 - 1),
    faulty=st.booleans(),
)
def test_exactly_once_and_path_identity_under_churn(
    rate, seed, schedule_seed, faulty
):
    kernel = _churn_run(rate, seed, schedule_seed, faulty)
    assert kernel["sa_kernel"]
    # Exactly-once: every created packet ejected exactly once, nothing
    # stranded and nothing duplicated, network fully drained.
    assert kernel["drained"]
    assert kernel["occupancy"] == 0
    pids = [pid for _, pid in kernel["events"]]
    assert len(pids) == len(set(pids)) == kernel["created"] > 0
    assert kernel["ejected"] == kernel["created"]
    assert kernel["summary"]["spare_drains_started"] >= 0.0

    # The object path (a metrics-only tracer selects Router.stage_sa)
    # delivers bit-identically to the fast slot sweep, drain transitions
    # included.
    objects = _churn_run(rate, seed, schedule_seed, faulty,
                         tracer=Tracer(record_events=False))
    assert not objects["sa_kernel"]
    assert objects["events"] == kernel["events"]
    assert objects["drain_crc"] == kernel["drain_crc"]
    assert objects["summary"] == kernel["summary"]

    # Re-routes (invalidate_pending_routes) pull heads out of the endpoint
    # request queues mid-wait; stepping every cycle and polling every
    # waiting head every cycle must still find nothing the fast-forward or
    # the event-driven VCA missed.
    with naive_schedule():
        assert _churn_run(rate, seed, schedule_seed, faulty) == kernel


def test_default_drain_timeout_fires_under_churn():
    """Why the escape path exists: the default timeout is reached.

    The argument for deleting the path was that a draining leg keeps its
    channel and so empties long before ``DEFAULT_DRAIN_TIMEOUT`` unless
    the network is deadlocked. This churn schedule refutes it with no
    timeout override: one leg still holds committed packets 1 000 cycles
    after it stopped taking steers, in a run that is not deadlocked (it
    drains completely). The timeout revokes the spare, its stragglers
    escape over the primary plan, and every packet is still delivered
    exactly once. The path bounds how long a busy leg can hold a spare.
    """
    built, ctrl, sim = _open_loop_sim(rate=0.06, epoch=50, seed=49756)
    sim.add_hook(ScheduleHook(built, ctrl, schedule_seed=27519))
    with delivery_log() as events:
        sim.run(1200)
        assert sim.drain(60_000)
    assert ctrl.drain_timeout == DEFAULT_DRAIN_TIMEOUT
    assert ctrl.drain_timeouts >= 1
    assert ctrl.escapes > 0
    pids = [pid for _, pid in events]
    assert len(pids) == len(set(pids)) == sim.stats.packets_created > 0
    assert sim.stats.packets_ejected == sim.stats.packets_created
    assert sim.network.total_occupancy() == 0
