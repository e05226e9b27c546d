"""The in-loop sampling hook: per-run heartbeats from inside the cycle loop.

A :class:`RunObserver` is an end-of-cycle hook
(:meth:`repro.noc.simulator.Simulator.add_hook`), registered last so each
heartbeat sees the cycle's plant decisions and occupancy sample. It is
**read-only** -- it looks at the clock, the stats counters, the active
sets and the network occupancy, and never touches simulation state or
any RNG stream. An observed run is therefore bit-identical to an
unobserved one by construction (and the test suite locks it).

Sampling is cycle-strided (``every`` cycles) with a ``>=`` threshold
rather than a modulo, so idle fast-forward jumps cannot starve the
heartbeat: the first stepped cycle at or past the due point emits.
The observer is *not* a wake source (its ``next_wake`` is ``None``) -- a
quiescent network fast-forwards exactly as it would unobserved (skips are
wall-clock-instant, so no heartbeat gap a stall detector would care about
can accumulate).
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, Optional

from repro.obs.events import (
    HEARTBEAT,
    RUN_FINISHED,
    RUN_STARTED,
    make_event,
    run_finished_payload,
    run_id,
)

#: Default heartbeat stride in cycles (CLI: ``--heartbeat-cycles``).
DEFAULT_SAMPLE_EVERY = 1000


class RunObserver:
    """Emits the lifecycle of one executed spec onto an event bus.

    Parameters
    ----------
    publish:
        ``publish(event_dict)`` -- :meth:`ObservationHub.handle
        <repro.obs.hub.ObservationHub.handle>` (serial) or
        :meth:`QueueBus.publish <repro.obs.bus.QueueBus.publish>` (pool).
    digest, label, tag:
        Run identity (correlation fields on every event).
    every:
        Heartbeat stride in simulated cycles (>= 1).
    target_cycles:
        The run's cycle budget (measurement window + drain budget) used
        for progress ratios and ETA; ``0`` disables both.
    """

    def __init__(
        self,
        publish: Callable[[Dict[str, object]], None],
        digest: str,
        label: str,
        tag: str = "",
        every: int = DEFAULT_SAMPLE_EVERY,
        target_cycles: int = 0,
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.publish = publish
        self.run = run_id(digest)
        self.label = label
        self.tag = tag
        self.every = every
        self.target_cycles = int(target_cycles)
        self.worker = os.getpid()
        #: Next cycle at which a heartbeat is due (``now >= next_cycle``).
        self.next_cycle = every
        self.seq = 0
        self.heartbeats = 0
        #: Optional :class:`repro.telemetry.windows.WindowedAggregator`
        #: whose running snapshot rides along in each heartbeat.
        self.windows = None
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------------ #

    def _emit(self, kind: str, **data) -> None:
        self.seq += 1
        self.publish(
            make_event(
                kind,
                run=self.run,
                label=self.label,
                tag=self.tag,
                worker=self.worker,
                seq=self.seq,
                **data,
            )
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def on_run_started(self, spec) -> None:
        """Announce the run before topology build (phase ``build``)."""
        self._t0 = time.perf_counter()
        self._emit(
            RUN_STARTED,
            phase="build",
            topology=spec.topology,
            pattern=spec.traffic.pattern,
            rate=spec.traffic.rate,
            cycles=spec.cycles,
            target_cycles=self.target_cycles,
        )

    def next_wake(self, now: int) -> Optional[int]:
        """Not a wake source: heartbeats never stop a fast-forward."""
        return None

    def __call__(self, sim) -> None:
        """End-of-cycle hook: once the stride is due, one heartbeat of
        in-flight progress, read-only by contract."""
        now = sim.now
        if now < self.next_cycle:
            return
        self.next_cycle = now + self.every
        wall = time.perf_counter() - self._t0
        self.heartbeats += 1
        stats = sim.stats
        cps = now / wall if wall > 0 else None
        target = self.target_cycles
        eta = None
        if cps and target > now:
            eta = round((target - now) / cps, 1)
        # Draining <=> the traffic process is parked on the side.
        phase = "drain" if sim._paused_traffic is not None else "run"
        occupancy = [router.occupancy() for router in sim.network.routers]
        data: Dict[str, object] = {
            "phase": phase,
            "cycle": now,
            "target_cycles": target,
            "injected": stats.packets_created,
            "ejected": stats.packets_ejected,
            "occupancy": sum(occupancy),
            "active_routers": len(occupancy) - occupancy.count(0),
            "active_nis": len(sim._active_nis),
            "wall_s": round(wall, 3),
            "cycles_per_sec": round(cps, 1) if cps else None,
            "eta_s": eta,
        }
        if self.windows is not None:
            data["windows"] = self.windows.snapshot()
        self._emit(HEARTBEAT, **data)

    def on_run_finished(
        self, wall_s: float, summary: Optional[Dict[str, object]] = None
    ) -> None:
        self._emit(
            RUN_FINISHED,
            **run_finished_payload(wall_s, summary, heartbeats=self.heartbeats),
        )
