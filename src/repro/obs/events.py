"""The observation event schema: what workers tell the parent.

Events are plain JSON-safe dicts (cheap to pickle through a
``multiprocessing.Queue``, trivially serialisable into the status
document). Every event carries the correlation envelope:

``event``    one of :data:`EVENT_KINDS`
``run``      the spec digest prefix (:data:`RUN_ID_LEN` hex chars)
``label``    human-readable spec label (``topology/pattern@rate x cycles``)
``tag``      the spec's variant tag (may be empty)
``worker``   OS pid of the emitting process
``seq``      per-run monotone sequence number (gap detection)
``ts``       unix wall-clock time at emission

plus a per-kind payload:

``run_started``   ``topology``, ``pattern``, ``rate``, ``cycles``,
                  ``target_cycles`` (cycles + drain budget)
``heartbeat``     ``cycle``, ``target_cycles``, ``phase`` (``run`` /
                  ``drain``), ``injected`` / ``ejected`` packet counts,
                  ``occupancy`` (flits buffered network-wide),
                  ``active_routers`` / ``active_nis`` (active-set sizes),
                  ``wall_s``, ``cycles_per_sec``, ``eta_s``, and --
                  when windowed telemetry is attached -- a ``windows``
                  snapshot (:meth:`WindowedAggregator.snapshot`)
``run_finished``  ``phase`` (``finished``), ``wall_s``, ``cache_hit``,
                  ``heartbeats`` (emitted by the run), ``eta_s`` (0),
                  ``latency_mean``, ``throughput``, ``spare_escapes``,
                  ``drain_timeouts`` (``None`` when unavailable; the last
                  two surface the spare-channel drain state machine for
                  runs with a reconfiguration controller); built by
                  :func:`run_finished_payload` for executed and
                  cache-served runs alike
``stall``         ``idle_s`` since the last heartbeat (parent-emitted)

The schema is versioned (:data:`OBS_SCHEMA`) and additive by convention:
consumers must ignore keys they do not know.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Optional

#: Bump on breaking changes to the event envelope.
OBS_SCHEMA = 1

#: Hex digits of the spec digest used as the run correlation id.
RUN_ID_LEN = 12

RUN_STARTED = "run_started"
HEARTBEAT = "heartbeat"
RUN_FINISHED = "run_finished"
STALL = "stall"

EVENT_KINDS = (RUN_STARTED, HEARTBEAT, RUN_FINISHED, STALL)


def run_id(digest: str) -> str:
    """The correlation id for a spec digest (stable truncation)."""
    return digest[:RUN_ID_LEN]


def make_event(
    kind: str,
    run: str,
    label: str,
    tag: str = "",
    worker: Optional[int] = None,
    seq: int = 0,
    **data,
) -> Dict[str, object]:
    """Assemble one observation event (envelope + payload)."""
    if kind not in EVENT_KINDS:
        raise ValueError(f"unknown observation event kind {kind!r}")
    ev: Dict[str, object] = {
        "event": kind,
        "obs_schema": OBS_SCHEMA,
        "run": run,
        "label": label,
        "tag": tag,
        "worker": worker,
        "seq": seq,
        "ts": time.time(),
    }
    ev.update(data)
    return ev


def run_finished_payload(
    wall_s: float,
    summary: Optional[Dict[str, object]] = None,
    cache_hit: bool = False,
    heartbeats: int = 0,
) -> Dict[str, object]:
    """The ``run_finished`` payload of one run, executed or served from
    the result cache."""
    summary = summary or {}
    return {
        "phase": "finished",
        "wall_s": round(wall_s, 4),
        "cache_hit": cache_hit,
        "heartbeats": heartbeats,
        "eta_s": 0.0,
        "latency_mean": summary.get("latency_mean"),
        "throughput": summary.get("throughput"),
        "spare_escapes": summary.get("spare_escapes"),
        "drain_timeouts": summary.get("spare_drain_timeouts"),
    }


def json_safe(value):
    """Recursively replace non-finite floats (NaN/Inf) with ``None``, so
    log lines, status files and run records stay strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return value


def is_event(obj: object) -> bool:
    """Cheap structural check used by the parent-side drain loop."""
    return (
        isinstance(obj, dict)
        and obj.get("event") in EVENT_KINDS
        and "run" in obj
    )
