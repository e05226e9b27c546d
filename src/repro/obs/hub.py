"""The parent-side observation hub: fleet state, stall detection, fan-out.

One :class:`ObservationHub` per executor invocation. Every bus event --
whether it arrived inline (serial) or over the multiprocessing queue --
lands in :meth:`handle`, which folds it into the run's status-document
row and fans the fresh snapshot out to every snapshot consumer (the
exporters and the live view) and the event out to every
:meth:`~ObservationHub.subscribe` callback. A background watchdog thread
-- the one stall clock, serial or pooled -- ages the in-flight runs
against ``stall_after_s`` and raises a structured warning naming the spec
when a worker goes quiet: the wall-clock complement to the in-sim
deadlock watchdog (which cannot fire if the worker process itself is
wedged or the host is thrashing).

Everything is observation plumbing: the hub never feeds anything back
into the executing simulations.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

from repro.obs.events import (
    HEARTBEAT,
    RUN_FINISHED,
    RUN_STARTED,
    STALL,
    json_safe,
    make_event,
    run_finished_payload,
    run_id,
)
from repro.obs.log import get_logger
from repro.obs.sampler import DEFAULT_SAMPLE_EVERY

#: Default wall-seconds without a heartbeat before a run is called stalled.
DEFAULT_STALL_AFTER_S = 30.0

#: Event payload keys a run's row takes over whenever an event carries
#: them (not ``None``); every other row key is the hub's own bookkeeping.
_FOLDED = (
    "label", "tag", "worker", "phase", "cycle", "target_cycles", "injected",
    "ejected", "occupancy", "wall_s", "cycles_per_sec", "eta_s", "cache_hit",
    "latency_mean", "throughput", "spare_escapes", "drain_timeouts", "windows",
)  # fmt: skip


def _new_row(rid: str, label: str = "", tag: str = "") -> Dict[str, object]:
    """A run's state before its first event: its status-document row."""
    return {
        "run": rid, "label": label, "tag": tag, "worker": None,
        "phase": "pending", "cycle": 0, "target_cycles": 0, "progress": None,
        "injected": 0, "ejected": 0, "occupancy": 0, "heartbeats": 0,
        "wall_s": None, "cycles_per_sec": None, "eta_s": None,
        "cache_hit": False, "stalled": False, "started_ts": None,
        "last_ts": None, "latency_mean": None, "throughput": None,
        "spare_escapes": None, "drain_timeouts": None, "windows": None,
    }  # fmt: skip


def _progress(row: Dict[str, object]) -> Optional[float]:
    if row["phase"] == "finished":
        return 1.0
    if row["target_cycles"] > 0:
        return min(1.0, row["cycle"] / row["target_cycles"])
    return None


class ObservationHub:
    """Aggregates observation events for one executor batch.

    Parameters
    ----------
    sample_every:
        Heartbeat stride (cycles) handed to worker-side observers.
    stall_after_s:
        Wall-seconds without a heartbeat before an in-flight run is
        flagged stalled (a structured warning naming the spec). ``0``
        disables the watchdog.
    consumers:
        Snapshot consumers (OpenMetrics textfile, JSON status document,
        :class:`repro.obs.live.LiveView`): ``update(snapshot_dict)`` on
        every handled event, ``close(snapshot_dict)`` once in :meth:`end`.
    clock:
        Injectable wall clock (tests).
    """

    def __init__(
        self,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
        stall_after_s: float = DEFAULT_STALL_AFTER_S,
        consumers=(),
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.sample_every = int(sample_every)
        self.stall_after_s = float(stall_after_s)
        self.consumers = list(consumers)
        self.clock = clock
        self.log = get_logger("repro.obs")
        #: run id -> the run's status-document row (``progress`` is filled
        #: in by :meth:`snapshot`).
        self.runs: Dict[str, Dict[str, object]] = {}
        self.total = 0
        self.done = 0
        self.heartbeats = 0
        self.events_handled = 0
        self._subscribers: List[Callable[[Dict[str, object]], None]] = []
        self._lock = threading.RLock()
        self._watchdog: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------ #
    # Batch lifecycle (driven by the executor)
    # ------------------------------------------------------------------ #

    def begin(self, specs) -> None:
        """Register the batch's distinct runs (idempotent across executor
        invocations: ``total`` counts each run id once, as ``done`` does)
        and start the watchdog."""
        with self._lock:
            for spec in specs:
                rid = run_id(spec.digest())
                if rid not in self.runs:
                    self.total += 1
                    self.runs[rid] = _new_row(rid, spec.label(), spec.tag)
        if self.stall_after_s > 0 and self._watchdog is None:
            self._stop.clear()
            self._watchdog = threading.Thread(
                target=self._watchdog_loop, name="repro-obs-watchdog",
                daemon=True,
            )
            self._watchdog.start()

    def end(self) -> None:
        """Stop the watchdog and close every consumer on a final snapshot."""
        if self._watchdog is not None:
            self._stop.set()
            self._watchdog.join(2.0)
            self._watchdog = None
        self._fan_out("close", self.snapshot())

    def subscribe(self, fn: Callable[[Dict[str, object]], None]) -> None:
        """Call ``fn(event)`` on every handled event, in-flight ones included.

        The one route to ``run_started`` / ``heartbeat`` events for caller
        code: ``Executor(progress=)`` reports completions only.
        """
        self._subscribers.append(fn)

    # ------------------------------------------------------------------ #
    # Event intake
    # ------------------------------------------------------------------ #

    def handle(self, ev: Dict[str, object]) -> None:
        """Fold one bus event into its run's row and fan out the snapshot."""
        with self._lock:
            self.events_handled += 1
            rid = str(ev.get("run"))
            row = self.runs.get(rid)
            if row is None:
                row = self.runs[rid] = _new_row(rid)
            kind = ev.get("event")
            if kind == RUN_FINISHED and row["phase"] != "finished":
                self.done += 1
            row.update((key, ev[key]) for key in _FOLDED if ev.get(key) is not None)
            # Stamp arrival with the hub's own clock (not the event's
            # worker-side ``ts``): staleness must be measured in one clock
            # domain, immune to worker clock skew.
            row["last_ts"] = self.clock()
            if kind == RUN_STARTED:
                row["started_ts"] = row["last_ts"]
            elif kind == HEARTBEAT:
                self.heartbeats += 1
                row["heartbeats"] += 1
            row["stalled"] = kind == STALL
        self._publish(ev)

    def note_finished(self, result) -> None:
        """Parent-side completion (cache hits never touch a worker)."""
        self.handle(
            make_event(
                RUN_FINISHED,
                run=run_id(result.digest),
                label=result.spec.label(),
                tag=result.spec.tag,
                **run_finished_payload(
                    result.wall_s, result.summary, result.cache_hit
                ),
            )
        )

    # ------------------------------------------------------------------ #
    # Stall detection
    # ------------------------------------------------------------------ #

    def check_stalls(self) -> List[str]:
        """Flag in-flight runs whose last beat is older than the budget.

        Returns the run ids *newly* flagged this call; each gets one
        structured warning (re-flagging waits for the run to beat again).
        """
        if self.stall_after_s <= 0:
            return []
        now = self.clock()
        newly: List[str] = []
        with self._lock:
            for rid, row in self.runs.items():
                if row["phase"] in ("pending", "finished") or row["stalled"]:
                    continue
                last = row["last_ts"] or row["started_ts"]
                if last is not None and now - last > self.stall_after_s:
                    row["stalled"] = True
                    newly.append(rid)
        for rid in newly:
            row = self.runs[rid]
            self.log.warning(
                f"no heartbeat from {row['label'] or rid} for "
                f"{self.stall_after_s:g}s (worker {row['worker']}, "
                f"phase {row['phase']}, cycle {row['cycle']})",
                extra={
                    **{k: row[k] for k in ("run", "label", "tag", "worker", "phase", "cycle")},
                    "stall_after_s": self.stall_after_s,
                },
            )
            self._publish(
                make_event(
                    STALL,
                    run=rid,
                    label=row["label"],
                    tag=row["tag"],
                    worker=row["worker"],
                    idle_s=round(now - (row["last_ts"] or now), 1),
                )
            )
        return newly

    def _watchdog_loop(self) -> None:
        interval = max(0.2, min(1.0, self.stall_after_s / 4.0))
        while not self._stop.wait(interval):
            try:
                self.check_stalls()
            except Exception:  # pragma: no cover - must never kill the run
                pass

    # ------------------------------------------------------------------ #
    # Snapshot + fan-out
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, object]:
        """The JSON status payload (strict-JSON safe)."""
        with self._lock:
            rows = self.runs.values()
            return json_safe(
                {
                    "ts": self.clock(),
                    "total": self.total,
                    "done": self.done,
                    "inflight": sum(
                        row["phase"] not in ("pending", "finished") for row in rows
                    ),
                    "stalled": sum(row["stalled"] for row in rows),
                    "heartbeats": self.heartbeats,
                    "runs": {
                        rid: {**row, "progress": _progress(row)}
                        for rid, row in self.runs.items()
                    },
                }
            )

    def _publish(self, event: Dict[str, object]) -> None:
        """Fan a fresh snapshot out to the consumers, ``event`` to the
        subscribers."""
        if self.consumers:
            self._fan_out("update", self.snapshot())
        for fn in self._subscribers:
            try:
                fn(event)
            except Exception:
                pass

    def _fan_out(self, method: str, snap: Dict[str, object]) -> None:
        for consumer in self.consumers:
            try:
                getattr(consumer, method)(snap)
            except Exception:
                self.log.warning(
                    f"observability consumer {consumer!r} failed",
                    exc_info=True,
                )
