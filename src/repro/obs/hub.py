"""The parent-side observation hub: fleet state, stall detection, fan-out.

One :class:`ObservationHub` per executor invocation. Every bus event --
whether it arrived inline (serial) or over the multiprocessing queue --
lands in :meth:`handle`, which folds it into per-run state and fans the
fresh snapshot out to the exporters, the live view, and every
:meth:`~ObservationHub.subscribe` callback. A background watchdog thread ages the in-flight
runs against ``stall_after_s`` and raises a structured warning naming
the spec when a worker goes quiet -- the wall-clock complement to the
in-sim deadlock watchdog (which cannot fire if the worker process itself
is wedged or the host is thrashing).

Everything is observation plumbing: the hub never feeds anything back
into the executing simulations.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.obs.events import (
    HEARTBEAT,
    RUN_FINISHED,
    RUN_STARTED,
    STALL,
    json_safe,
    make_event,
    run_id,
)
from repro.obs.log import get_logger
from repro.obs.sampler import DEFAULT_SAMPLE_EVERY

#: Default wall-seconds without a heartbeat before a run is called stalled.
DEFAULT_STALL_AFTER_S = 30.0


@dataclass
class RunState:
    """Last known in-flight state of one run (keyed by digest prefix)."""

    run: str
    label: str = ""
    tag: str = ""
    worker: Optional[int] = None
    phase: str = "pending"
    cycle: int = 0
    target_cycles: int = 0
    injected: int = 0
    ejected: int = 0
    occupancy: int = 0
    heartbeats: int = 0
    wall_s: Optional[float] = None
    cycles_per_sec: Optional[float] = None
    eta_s: Optional[float] = None
    cache_hit: bool = False
    stalled: bool = False
    started_ts: Optional[float] = None
    last_ts: Optional[float] = None
    latency_mean: Optional[float] = None
    throughput: Optional[float] = None
    spare_escapes: Optional[float] = None
    drain_timeouts: Optional[float] = None
    windows: Optional[Dict[str, object]] = None
    last_seq: int = 0

    @property
    def progress(self) -> Optional[float]:
        if self.phase == "finished":
            return 1.0
        if self.target_cycles > 0:
            return min(1.0, self.cycle / self.target_cycles)
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "run": self.run,
            "label": self.label,
            "tag": self.tag,
            "worker": self.worker,
            "phase": self.phase,
            "cycle": self.cycle,
            "target_cycles": self.target_cycles,
            "progress": self.progress,
            "injected": self.injected,
            "ejected": self.ejected,
            "occupancy": self.occupancy,
            "heartbeats": self.heartbeats,
            "wall_s": self.wall_s,
            "cycles_per_sec": self.cycles_per_sec,
            "eta_s": self.eta_s,
            "cache_hit": self.cache_hit,
            "stalled": self.stalled,
            "started_ts": self.started_ts,
            "last_ts": self.last_ts,
            "latency_mean": self.latency_mean,
            "throughput": self.throughput,
            "spare_escapes": self.spare_escapes,
            "drain_timeouts": self.drain_timeouts,
            "windows": self.windows,
        }


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
    live:
        Optional :class:`repro.obs.live.LiveView` re-rendered per event.
    exporters:
        Objects with ``update(snapshot_dict)`` -- regenerated on every
        bus event (OpenMetrics textfile, JSON status document, ...).
    clock:
        Injectable wall clock (tests).
    """

    def __init__(
        self,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
        stall_after_s: float = DEFAULT_STALL_AFTER_S,
        live=None,
        exporters=(),
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.sample_every = int(sample_every)
        self.stall_after_s = float(stall_after_s)
        self.live = live
        self.exporters = list(exporters)
        self.clock = clock
        self.log = get_logger("repro.obs")
        self.states: Dict[str, RunState] = {}
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
        invocations: ``total`` counts each run id once, as ``done`` does)."""
        with self._lock:
            for spec in specs:
                rid = run_id(spec.digest())
                if rid not in self.states:
                    self.total += 1
                    self.states[rid] = RunState(
                        run=rid, label=spec.label(), tag=spec.tag
                    )
        if self.stall_after_s > 0 and self._watchdog is None:
            self._stop.clear()
            self._watchdog = threading.Thread(
                target=self._watchdog_loop, name="repro-obs-watchdog",
                daemon=True,
            )
            self._watchdog.start()

    def end(self) -> None:
        """Stop the watchdog and flush a final snapshot."""
        if self._watchdog is not None:
            self._stop.set()
            self._watchdog.join(2.0)
            self._watchdog = None
        snap = self.snapshot()
        for exporter in self.exporters:
            try:
                exporter.update(snap)
            except Exception:
                self.log.warning(
                    f"observability exporter {exporter!r} failed",
                    exc_info=True,
                )
        if self.live is not None:
            self.live.close(snap)

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
        """Fold one bus event into fleet state and fan out the snapshot."""
        with self._lock:
            self.events_handled += 1
            rid = str(ev.get("run"))
            st = self.states.get(rid)
            if st is None:
                st = self.states[rid] = RunState(run=rid)
            if ev.get("label"):
                st.label = str(ev["label"])
            if ev.get("tag"):
                st.tag = str(ev["tag"])
            if ev.get("worker") is not None:
                st.worker = ev["worker"]
            seq = int(ev.get("seq") or 0)
            if seq:
                st.last_seq = max(st.last_seq, seq)
            # Stamp arrival with the hub's own clock (not the event's
            # worker-side ``ts``): staleness must be measured in one clock
            # domain, immune to worker clock skew.
            ts = self.clock()
            st.last_ts = ts
            kind = ev.get("event")
            if kind == RUN_STARTED:
                st.phase = str(ev.get("phase") or "build")
                st.started_ts = ts
                st.target_cycles = int(ev.get("target_cycles") or 0)
                st.stalled = False
            elif kind == HEARTBEAT:
                self.heartbeats += 1
                st.phase = str(ev.get("phase") or "run")
                st.heartbeats += 1
                st.stalled = False
                for attr in (
                    "cycle", "target_cycles", "injected", "ejected",
                    "occupancy",
                ):
                    if ev.get(attr) is not None:
                        setattr(st, attr, int(ev[attr]))
                for attr in ("wall_s", "cycles_per_sec", "eta_s"):
                    if ev.get(attr) is not None:
                        setattr(st, attr, float(ev[attr]))
                if ev.get("windows") is not None:
                    st.windows = ev["windows"]
            elif kind == RUN_FINISHED:
                if st.phase != "finished":
                    self.done += 1
                st.phase = "finished"
                st.stalled = False
                st.cache_hit = bool(ev.get("cache_hit"))
                if ev.get("wall_s") is not None:
                    st.wall_s = float(ev["wall_s"])
                if ev.get("latency_mean") is not None:
                    st.latency_mean = float(ev["latency_mean"])
                if ev.get("throughput") is not None:
                    st.throughput = float(ev["throughput"])
                if ev.get("spare_escapes") is not None:
                    st.spare_escapes = float(ev["spare_escapes"])
                if ev.get("drain_timeouts") is not None:
                    st.drain_timeouts = float(ev["drain_timeouts"])
                st.eta_s = 0.0
            elif kind == STALL:
                st.stalled = True
        self._refresh(event=ev)

    def note_finished(self, result, wall_s: Optional[float] = None) -> None:
        """Parent-side completion (cache hits never touch a worker)."""
        summary = result.summary or {}
        self.handle(
            make_event(
                RUN_FINISHED,
                run=run_id(result.digest),
                label=result.spec.label(),
                tag=result.spec.tag,
                worker=None,
                phase="finished",
                wall_s=wall_s if wall_s is not None else result.wall_s,
                cache_hit=result.cache_hit,
                latency_mean=summary.get("latency_mean"),
                throughput=summary.get("throughput"),
                spare_escapes=summary.get("spare_escapes"),
                drain_timeouts=summary.get("spare_drain_timeouts"),
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
            for st in self.states.values():
                if st.phase in ("pending", "finished") or st.stalled:
                    continue
                last = st.last_ts or st.started_ts
                if last is None:
                    continue
                idle = now - last
                if idle > self.stall_after_s:
                    st.stalled = True
                    newly.append(st.run)
        for rid in newly:
            st = self.states[rid]
            self.log.warning(
                f"no heartbeat from {st.label or rid} for "
                f"{self.stall_after_s:g}s (worker {st.worker}, "
                f"phase {st.phase}, cycle {st.cycle})",
                extra={
                    "run": rid,
                    "label": st.label,
                    "tag": st.tag,
                    "worker": st.worker,
                    "phase": st.phase,
                    "cycle": st.cycle,
                    "stall_after_s": self.stall_after_s,
                },
            )
            self._refresh(
                event=make_event(
                    STALL,
                    run=rid,
                    label=st.label,
                    tag=st.tag,
                    worker=st.worker,
                    idle_s=round(now - (st.last_ts or now), 1),
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
            inflight = sum(
                1
                for st in self.states.values()
                if st.phase not in ("pending", "finished")
            )
            stalled = sum(1 for st in self.states.values() if st.stalled)
            return json_safe(
                {
                    "ts": self.clock(),
                    "total": self.total,
                    "done": self.done,
                    "inflight": inflight,
                    "stalled": stalled,
                    "heartbeats": self.heartbeats,
                    "runs": {
                        rid: st.to_dict() for rid, st in self.states.items()
                    },
                }
            )

    def _refresh(
        self, event: Optional[Dict[str, object]] = None, force: bool = False
    ) -> None:
        snap = self.snapshot() if (self.exporters or self.live) else None
        if snap is not None:
            for exporter in self.exporters:
                try:
                    exporter.update(snap)
                except Exception:
                    self.log.warning(
                        f"observability exporter {exporter!r} failed",
                        exc_info=True,
                    )
            if self.live is not None:
                self.live.render(snap, force=force)
        if event is not None:
            for fn in self._subscribers:
                try:
                    fn(event)
                except Exception:
                    pass
