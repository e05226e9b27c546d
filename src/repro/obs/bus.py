"""The worker -> parent event bus.

Two transports, one contract (``publish(event_dict)``):

* the serial path needs no bus object: the executor hands the hub's own
  :meth:`~repro.obs.hub.ObservationHub.handle` to the run as ``publish``,
  so events are dispatched synchronously in the executing process; no
  threads, no queues, deterministic ordering.
* :class:`QueueBus` -- the multiprocessing path. Workers ``put_nowait``
  onto a shared :class:`multiprocessing.Queue`; the parent pumps it with
  a :class:`BusDrain` thread. Publishing is fire-and-forget: a full or
  broken queue **drops** the event (and counts it) rather than ever
  blocking -- or worse, failing -- the simulation. Observability must
  not be able to take a run down.

The pool-worker side has no handle on the executor object, so the queue
is smuggled in via the pool initializer (:func:`install_worker_bus`) and
picked up by ``repro.runtime.executor._pool_worker`` through
:func:`worker_bus`.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Tuple

from repro.obs.events import is_event

#: Parent-side sentinel pushed to unblock and stop the drain thread.
_STOP = "__obs_stop__"


class QueueBus:
    """Worker-side wrapper over a shared ``multiprocessing.Queue``."""

    def __init__(self, mp_queue) -> None:
        self.queue = mp_queue
        self.published = 0
        self.dropped = 0

    def publish(self, event: Dict[str, object]) -> None:
        try:
            self.queue.put_nowait(event)
            self.published += 1
        except Exception:
            # Full queue / torn-down manager: observation is best-effort,
            # the simulation result must never depend on it.
            self.dropped += 1


class BusDrain:
    """Parent-side pump: queue -> ``handle(event)`` on a daemon thread.

    It only moves events: stall detection runs on the hub's own watchdog
    thread, whose clock keeps advancing while no worker says anything.
    """

    def __init__(
        self, mp_queue, handle: Callable[[Dict[str, object]], None]
    ) -> None:
        self.queue = mp_queue
        self.handle = handle
        self.drained = 0
        self.malformed = 0
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "BusDrain":
        self._thread = threading.Thread(
            target=self._loop, name="repro-obs-drain", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Flush remaining events, then join the pump thread."""
        if self._thread is None:
            return
        try:
            self.queue.put(_STOP)
        except Exception:
            pass
        self._thread.join(timeout)
        self._thread = None

    def _loop(self) -> None:
        while True:
            try:
                item = self.queue.get()
            except (OSError, EOFError):  # torn-down queue: nothing more to drain
                break
            if item == _STOP:
                break
            if not is_event(item):
                self.malformed += 1
                continue
            self.drained += 1
            try:
                self.handle(item)
            except Exception:
                # A broken exporter/renderer must not kill the pump.
                self.malformed += 1


# --------------------------------------------------------------------- #
# Pool-worker plumbing
# --------------------------------------------------------------------- #

#: (publish callable, sample_every cycles) for the current pool worker.
_worker_bus: Optional[Tuple[Callable[[Dict[str, object]], None], int]] = None


def install_worker_bus(mp_queue, sample_every: int) -> None:
    """Pool initializer: bind this worker process to the shared queue."""
    global _worker_bus
    _worker_bus = (QueueBus(mp_queue).publish, int(sample_every))


def clear_worker_bus() -> None:
    """Drop the worker binding (tests; fork-inherited state hygiene)."""
    global _worker_bus
    _worker_bus = None


def worker_bus() -> Optional[Tuple[Callable[[Dict[str, object]], None], int]]:
    """The worker's ``(publish, sample_every)`` pair, if observing."""
    return _worker_bus
