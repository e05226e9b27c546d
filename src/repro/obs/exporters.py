"""Snapshot exporters: OpenMetrics textfile + JSON status document.

Both exporters consume the same input -- the hub's *status snapshot*
(:meth:`repro.obs.hub.ObservationHub.snapshot`) -- and regenerate their
whole artifact on every bus event; ``close`` (the hub's final snapshot)
is their last ``update``. Writes are atomic
(:func:`repro.utils.files.write_atomic`), so a Prometheus node-exporter textfile collector or a polling
dashboard never sees a torn file. The JSON status document is exactly
the payload a future SSE/WebSocket endpoint would push per event, which
is the point: the service layer only has to stream what the CLI already
materialises on disk.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Dict, Iterable, List, Tuple, Union

from repro.utils.files import write_atomic

#: Prefix of every exported metric family.
METRIC_PREFIX = "repro"


def _escape_label(value: str) -> str:
    """OpenMetrics label-value escaping (backslash, quote, newline)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


class OpenMetricsExporter:
    """Prometheus/OpenMetrics textfile snapshot of the run fleet.

    Families (all ``{METRIC_PREFIX}_`` prefixed; see
    ``docs/observability.md`` for the full catalogue):

    - ``runs`` / ``runs_done`` / ``runs_inflight`` / ``runs_stalled``
      -- fleet-level gauges;
    - ``heartbeats_total`` -- events drained so far (counter);
    - per-run gauges labelled ``{run=..., label=...}``: ``run_cycle``,
      ``run_target_cycles``, ``run_progress_ratio``,
      ``run_packets_injected``, ``run_packets_ejected``,
      ``run_occupancy_flits``, ``run_cycles_per_sec``,
      ``run_eta_seconds``, ``run_spare_escapes``,
      ``run_drain_timeouts``, ``run_heartbeat_age_seconds``,
      ``run_stalled``.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def update(self, snap: Dict[str, object]) -> None:
        write_atomic(self.path, self.render(snap))

    close = update

    def render(self, snap: Dict[str, object]) -> str:
        p = METRIC_PREFIX
        now = snap.get("ts") or time.time()
        lines: List[str] = []

        def gauge(name: str, value) -> None:
            if _finite(value):
                lines.append(f"{p}_{name} {value:g}")

        lines.append(f"# TYPE {p}_runs gauge")
        gauge("runs", snap.get("total", 0))
        lines.append(f"# TYPE {p}_runs_done gauge")
        gauge("runs_done", snap.get("done", 0))
        lines.append(f"# TYPE {p}_runs_inflight gauge")
        gauge("runs_inflight", snap.get("inflight", 0))
        lines.append(f"# TYPE {p}_runs_stalled gauge")
        gauge("runs_stalled", snap.get("stalled", 0))
        lines.append(f"# TYPE {p}_heartbeats_total counter")
        gauge("heartbeats_total", snap.get("heartbeats", 0))

        runs: Dict[str, Dict[str, object]] = snap.get("runs") or {}
        labels = {
            rid: f'{{run="{_escape_label(rid)}",'
            f'label="{_escape_label(st.get("label", ""))}"}}'
            for rid, st in runs.items()
        }

        def family(name: str, values: Iterable[Tuple[str, object]]) -> None:
            """A per-run gauge family; its ``# TYPE`` line only when at
            least one run has a finite value."""
            finite = [(rid, v) for rid, v in values if _finite(v)]
            if finite:
                lines.append(f"# TYPE {p}_{name} gauge")
                lines.extend(f"{p}_{name}{labels[rid]} {v:g}" for rid, v in finite)

        for name, key in (
            ("run_cycle", "cycle"),
            ("run_target_cycles", "target_cycles"),
            ("run_progress_ratio", "progress"),
            ("run_packets_injected", "injected"),
            ("run_packets_ejected", "ejected"),
            ("run_occupancy_flits", "occupancy"),
            ("run_cycles_per_sec", "cycles_per_sec"),
            ("run_eta_seconds", "eta_s"),
            ("run_spare_escapes", "spare_escapes"),
            ("run_drain_timeouts", "drain_timeouts"),
        ):
            family(name, ((rid, st.get(key)) for rid, st in runs.items()))
        family(
            "run_heartbeat_age_seconds",
            (
                (rid, max(0.0, now - st["last_ts"]))
                for rid, st in runs.items()
                if _finite(st.get("last_ts")) and st.get("phase") != "finished"
            ),
        )
        family(
            "run_stalled",
            ((rid, 1 if st.get("stalled") else 0) for rid, st in runs.items()),
        )

        lines.append("# EOF")
        return "\n".join(lines) + "\n"


class StatusExporter:
    """The live JSON status document (the future SSE payload).

    The file is the hub snapshot verbatim: fleet counters plus the last
    known state of every run, strict JSON (non-finite floats already
    scrubbed by the hub).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def update(self, snap: Dict[str, object]) -> None:
        write_atomic(
            self.path,
            json.dumps(snap, sort_keys=True, default=str, allow_nan=False)
            + "\n",
        )

    close = update
