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
  :class:`RunObserver` is the last end-of-cycle hook on the simulator's
  one seam (``Simulator.add_hook``), after the fault plant's hooks and
  the tracer's occupancy sampler, and is strictly read-only: observed
  runs are bit-identical to unobserved ones (CI locks this with golden
  ``repro diff`` gates at 0%).
- **structured logging** (:mod:`repro.obs.log`) -- JSON-lines with
  correlation fields, opt-in via ``--log-json`` / ``REPRO_LOG=json``;
  the default human mode renders exactly like the stderr prints it
  replaced.
- **hub + snapshot consumers** (:mod:`repro.obs.hub`,
  :mod:`repro.obs.exporters`, :mod:`repro.obs.live`) -- a fold of the
  events into one status-document row per run, with a watchdog thread
  for stall detection, fanned out on every bus event to the OpenMetrics
  textfile, the JSON status document (the payload a future SSE endpoint
  will stream) and the ``--live`` in-place progress table.

See ``docs/observability.md`` ("Live observability") for the full tour.

The names below resolve on first use (PEP 562): a run imports the bus and
the sampler, never the hub, exporters or live view it does not drive.
"""

import importlib

#: Re-exported name -> the module that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ("BusDrain", "QueueBus", "clear_worker_bus", "install_worker_bus", "worker_bus"),
        "repro.obs.bus",
    ),
    **dict.fromkeys(
        ("EVENT_KINDS", "HEARTBEAT", "OBS_SCHEMA", "RUN_FINISHED", "RUN_STARTED",
         "STALL", "is_event", "make_event", "run_id"),
        "repro.obs.events",
    ),  # fmt: skip
    **dict.fromkeys(("OpenMetricsExporter", "StatusExporter"), "repro.obs.exporters"),
    **dict.fromkeys(("DEFAULT_STALL_AFTER_S", "ObservationHub"), "repro.obs.hub"),
    "LiveView": "repro.obs.live",
    **dict.fromkeys(
        ("ContextLogger", "HumanFormatter", "JsonLinesFormatter", "configure_logging",
         "get_logger"),
        "repro.obs.log",
    ),  # fmt: skip
    **dict.fromkeys(("DEFAULT_SAMPLE_EVERY", "RunObserver"), "repro.obs.sampler"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
