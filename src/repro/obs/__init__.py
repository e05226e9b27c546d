"""Live run observability: event bus, structured logging, exporters.

``repro.obs`` turns the execution engine from a black box into a fleet
you can watch while it runs:

- **event bus** (:mod:`repro.obs.bus`) -- workers publish per-run
  lifecycle events (:mod:`repro.obs.events`): ``run_started``,
  in-flight ``heartbeat``\\ s (cycle, packets, active-set size, ETA,
  windowed-telemetry snapshots), ``run_finished``. Serial runs publish
  inline; pool workers publish over a ``multiprocessing.Queue`` pumped
  by a parent drain thread.
- **sampling hook** (:mod:`repro.obs.sampler`) -- a
  :class:`RunObserver` rides the simulator's step loop behind the same
  zero-overhead ``is not None`` guard as the tracer and is strictly
  read-only: observed runs are bit-identical to unobserved ones (CI
  locks this with a golden ``repro diff`` at 0%).
- **structured logging** (:mod:`repro.obs.log`) -- JSON-lines with
  correlation fields, opt-in via ``--log-json`` / ``REPRO_LOG=json``;
  the default human mode renders exactly like the stderr prints it
  replaced.
- **hub + exporters + live view** (:mod:`repro.obs.hub`,
  :mod:`repro.obs.exporters`, :mod:`repro.obs.live`) -- fleet state with
  heartbeat-based stall detection, an OpenMetrics textfile and a JSON
  status document regenerated on every bus event (the payload a future
  SSE endpoint will stream), and the ``--live`` in-place progress table.

See ``docs/observability.md`` ("Live observability") for the full tour.
"""

from repro.obs.bus import (
    BusDrain,
    QueueBus,
    clear_worker_bus,
    install_worker_bus,
    worker_bus,
)
from repro.obs.events import (
    EVENT_KINDS,
    HEARTBEAT,
    OBS_SCHEMA,
    PHASES,
    RUN_FINISHED,
    RUN_STARTED,
    STALL,
    is_event,
    make_event,
    run_id,
)
from repro.obs.exporters import OpenMetricsExporter, StatusExporter
from repro.obs.hub import DEFAULT_STALL_AFTER_S, ObservationHub, RunState
from repro.obs.live import LiveView
from repro.obs.log import (
    ContextLogger,
    HumanFormatter,
    JsonLinesFormatter,
    configure_logging,
    get_logger,
)
from repro.obs.sampler import DEFAULT_SAMPLE_EVERY, RunObserver

__all__ = [
    "BusDrain",
    "ContextLogger",
    "DEFAULT_SAMPLE_EVERY",
    "DEFAULT_STALL_AFTER_S",
    "EVENT_KINDS",
    "HEARTBEAT",
    "HumanFormatter",
    "JsonLinesFormatter",
    "LiveView",
    "OBS_SCHEMA",
    "ObservationHub",
    "OpenMetricsExporter",
    "PHASES",
    "QueueBus",
    "RUN_FINISHED",
    "RUN_STARTED",
    "RunObserver",
    "RunState",
    "STALL",
    "StatusExporter",
    "clear_worker_bus",
    "configure_logging",
    "get_logger",
    "install_worker_bus",
    "is_event",
    "make_event",
    "run_id",
    "worker_bus",
]
