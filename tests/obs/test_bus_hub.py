"""Event schema, bus transports, hub folding, and stall detection."""

import logging
import multiprocessing

import pytest

from repro.obs import (
    HEARTBEAT,
    OBS_SCHEMA,
    RUN_FINISHED,
    RUN_STARTED,
    STALL,
    BusDrain,
    ObservationHub,
    QueueBus,
    is_event,
    make_event,
    run_id,
)
from repro.obs.log import configure_logging


@pytest.fixture(autouse=True)
def _human_logging():
    configure_logging(json_mode=False, level=logging.INFO, force=True)


def beat(run="abcdef123456", seq=1, **data):
    data.setdefault("phase", "run")
    data.setdefault("cycle", 500)
    data.setdefault("target_cycles", 1000)
    return make_event(
        HEARTBEAT, run=run, label="own256/UN@0.03", tag="", worker=1,
        seq=seq, **data,
    )


class TestEvents:
    def test_make_event_shape(self):
        ev = beat()
        assert ev["event"] == HEARTBEAT
        assert ev["obs_schema"] == OBS_SCHEMA
        assert ev["run"] == "abcdef123456"
        assert ev["ts"] > 0
        assert is_event(ev)

    def test_is_event_rejects_junk(self):
        assert not is_event(None)
        assert not is_event("stop")
        assert not is_event({"event": "nonsense"})
        assert not is_event({"run": "x"})

    def test_run_id_is_digest_prefix(self):
        assert run_id("ab" * 32) == ("ab" * 32)[:12]


class TestQueueBus:
    def test_publish_never_raises(self):
        class Broken:
            def put_nowait(self, item):
                raise RuntimeError("torn down")

        bus = QueueBus(Broken())
        bus.publish(beat())  # must not raise
        assert bus.dropped == 1 and bus.published == 0

    def test_drain_pumps_events_to_handler(self):
        ctx = multiprocessing.get_context()
        queue = ctx.Queue()
        got = []
        drain = BusDrain(queue, got.append).start()
        bus = QueueBus(queue)
        for seq in (1, 2, 3):
            bus.publish(beat(seq=seq))
        queue.put("not an event")
        drain.stop()
        assert [e["seq"] for e in got] == [1, 2, 3]
        assert drain.drained == 3
        assert drain.malformed == 1


class TestHubFolding:
    def make_hub(self, **kwargs):
        kwargs.setdefault("stall_after_s", 0)  # no watchdog thread in tests
        return ObservationHub(**kwargs)

    def test_lifecycle_counts(self):
        hub = self.make_hub()
        rid = "abcdef123456"
        hub.handle(make_event(
            RUN_STARTED, run=rid, label="l", tag="", worker=1, seq=1,
            phase="build", target_cycles=1000,
        ))
        hub.handle(beat(run=rid, seq=2, cycle=400))
        hub.handle(beat(run=rid, seq=3, cycle=900, phase="drain"))
        st = hub.snapshot()["runs"][rid]
        assert st["phase"] == "drain" and st["cycle"] == 900
        assert st["heartbeats"] == 2 and hub.heartbeats == 2
        hub.handle(make_event(
            RUN_FINISHED, run=rid, label="l", tag="", worker=1, seq=4,
            phase="finished", wall_s=1.5, cache_hit=False,
        ))
        assert hub.done == 1
        st = hub.snapshot()["runs"][rid]
        assert st["phase"] == "finished" and st["progress"] == 1.0

    def test_duplicate_finish_counted_once(self):
        hub = self.make_hub()
        fin = make_event(
            RUN_FINISHED, run="aa" * 6, label="l", tag="", worker=1,
            seq=1, phase="finished", wall_s=0.1,
        )
        hub.handle(fin)
        hub.handle(dict(fin))
        assert hub.done == 1

    def test_progress_ratio_clamped(self):
        hub = self.make_hub()
        hub.handle(beat(run="bb" * 6, cycle=1500, target_cycles=1000))
        assert hub.snapshot()["runs"]["bb" * 6]["progress"] == 1.0

    def test_snapshot_strict_json(self):
        import json

        hub = self.make_hub()
        hub.handle(beat(cycle=100, cycles_per_sec=float("inf")))
        json.dumps(hub.snapshot(), allow_nan=False)

    def test_run_row_is_the_status_document_row(self):
        hub = self.make_hub()
        hub.handle(beat(active_routers=3, seq=4))
        (row,) = hub.snapshot()["runs"].values()
        assert list(row) == [
            "run", "label", "tag", "worker", "phase", "cycle", "target_cycles",
            "progress", "injected", "ejected", "occupancy", "heartbeats",
            "wall_s", "cycles_per_sec", "eta_s", "cache_hit", "stalled",
            "started_ts", "last_ts", "latency_mean", "throughput",
            "spare_escapes", "drain_timeouts", "windows",
        ]  # fmt: skip
        assert row["progress"] == 0.5

    def test_end_closes_every_consumer_on_the_final_snapshot(self):
        class Recorder:
            def __init__(self):
                self.calls = []

            def update(self, snap):
                self.calls.append(("update", snap["done"]))

            def close(self, snap):
                self.calls.append(("close", snap["done"]))

        first, second = Recorder(), Recorder()
        hub = self.make_hub(consumers=[first, second])
        hub.handle(make_event(
            RUN_FINISHED, run="aa" * 6, label="l", phase="finished", wall_s=0.1,
        ))
        hub.end()
        assert first.calls == second.calls == [("update", 1), ("close", 1)]

    def test_snapshot_counts(self):
        hub = self.make_hub()
        hub.handle(beat(run="aa" * 6))
        hub.handle(beat(run="bb" * 6))
        snap = hub.snapshot()
        assert snap["inflight"] == 2 and snap["done"] == 0
        assert set(snap["runs"]) == {"aa" * 6, "bb" * 6}

    def test_exporter_failure_does_not_break_handling(self):
        class Exploding:
            def update(self, snap):
                raise RuntimeError("disk full")

        hub = self.make_hub(consumers=[Exploding()])
        hub.handle(beat())  # must not raise
        assert hub.events_handled == 1

    def test_subscribers_see_every_event(self):
        hub = self.make_hub()
        got = []
        hub.subscribe(got.append)
        hub.handle(beat(seq=1))
        hub.handle(beat(seq=2))
        assert [e["seq"] for e in got] == [1, 2]


class TestStallDetection:
    def test_quiet_run_flagged_and_warned(self, capsys):
        clock = [1000.0]
        hub = ObservationHub(stall_after_s=5.0, clock=lambda: clock[0])
        hub.handle(beat(run="cc" * 6, cycle=100))
        assert hub.check_stalls() == []  # fresh beat, not stalled
        clock[0] += 10.0
        newly = hub.check_stalls()
        assert newly == ["cc" * 6]
        assert hub.snapshot()["runs"]["cc" * 6]["stalled"]
        err = capsys.readouterr().err
        assert "warning: no heartbeat from own256/UN@0.03 for 5s" in err

    def test_stall_warned_once_until_next_beat(self, capsys):
        clock = [1000.0]
        hub = ObservationHub(stall_after_s=5.0, clock=lambda: clock[0])
        hub.handle(beat(run="dd" * 6))
        clock[0] += 10.0
        assert hub.check_stalls() == ["dd" * 6]
        assert hub.check_stalls() == []  # already flagged
        # A new heartbeat clears the flag; going quiet again re-warns.
        hub.handle(beat(run="dd" * 6, seq=2))
        assert not hub.snapshot()["runs"]["dd" * 6]["stalled"]
        clock[0] += 10.0
        assert hub.check_stalls() == ["dd" * 6]

    def test_finished_runs_never_stall(self):
        clock = [1000.0]
        hub = ObservationHub(stall_after_s=5.0, clock=lambda: clock[0])
        hub.handle(make_event(
            RUN_FINISHED, run="ee" * 6, label="l", tag="", worker=1,
            seq=1, phase="finished", wall_s=0.5,
        ))
        clock[0] += 100.0
        assert hub.check_stalls() == []

    def test_stall_event_reaches_subscribers(self, capsys):
        clock = [1000.0]
        hub = ObservationHub(stall_after_s=5.0, clock=lambda: clock[0])
        got = []
        hub.subscribe(got.append)
        hub.handle(beat(run="ff" * 6))
        clock[0] += 10.0
        hub.check_stalls()
        kinds = [e["event"] for e in got]
        assert kinds == [HEARTBEAT, STALL]

    def test_watchdog_thread_flags_a_quiet_run(self, capsys):
        import threading

        from repro.runtime import RunSpec

        spec = RunSpec.create("own256", rate=0.01, cycles=200, warmup=50)
        rid = run_id(spec.digest())
        hub = ObservationHub(stall_after_s=0.4)
        stalled = threading.Event()
        hub.subscribe(lambda ev: ev["event"] == STALL and stalled.set())
        hub.begin([spec])
        try:
            hub.handle(beat(run=rid))
            assert stalled.wait(2.0), "watchdog raised no stall within 2 s"
        finally:
            hub.end()
        assert hub.snapshot()["runs"][rid]["stalled"]
        assert "warning: no heartbeat from own256/UN@0.03" in capsys.readouterr().err

    def test_zero_disables_watchdog(self):
        hub = ObservationHub(stall_after_s=0)
        hub.begin([])
        assert hub._watchdog is None
        hub.end()
