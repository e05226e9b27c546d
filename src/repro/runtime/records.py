"""Structured run records: one JSONL line per executed simulation.

Every run the executor performs (or serves from cache) appends a record
with the spec digest, wall time, simulation speed and summary metrics.
The log is the observability surface for long sweeps -- greppable,
streamable, and machine-readable for regression dashboards. Schema::

    {
      "ts": 1730000000.0,          # unix time the run finished
      "schema": 4,                 # record schema version (spec.SCHEMA_VERSION)
      "digest": "ab12...",         # RunSpec content address
      "label": "own256/UN@0.03x1200",
      "topology": "own256",
      "pattern": "UN", "rate": 0.03,
      "cycles": 1200, "warmup": 400,
      "cache_hit": false,
      "wall_s": 2.31,              # build + simulate + measure
      "cycles_per_sec": 519.5,     # simulated cycles per wall second
      "summary": {...},            # StatsCollector.summary() + protocol counters
      "metrics": {...},            # telemetry (only when spec.telemetry)
      "power": {...},              # breakdowns for spec.power's pairs (if any)
      "profile": {...},            # per-phase wall time + sim cycles/sec
      "engine": {...},             # executor cache/run counters at write time
      "meta": {...}                # network name, core count, ...
    }

Schema history: v1 had none of ``schema``/``power``/``profile``/``engine``;
:func:`read_runlog` keeps accepting v1 lines (the new keys are additive),
and ``repro diff`` treats their absent fields as unavailable. v3 adds no
record key: the cached result carries the run's activity record instead of
its power, the digest no longer covers ``RunSpec.power``, and ``power``
holds the pairs of the spec that asked, folded from that record (on a
cache hit too).

Records are *strict* JSON: every line must parse under ``allow_nan=False``
consumers. Python's ``json`` would otherwise emit bare ``NaN`` tokens for
empty-sample latency stats (``LatencyStats.from_samples([])``), which is
not JSON and breaks ``jq`` and other strict parsers --
:func:`~repro.obs.events.json_safe` (re-exported here) renders non-finite
floats as ``null`` at this boundary.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.events import json_safe
from repro.runtime.spec import SCHEMA_VERSION


class RunLog:
    """Append-only JSONL writer for run records."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self.records_written = 0

    def write(self, record: Dict[str, object]) -> None:
        line = json.dumps(
            json_safe(record), sort_keys=True, default=str, allow_nan=False
        )
        with open(self.path, "a") as fh:
            fh.write(line + "\n")
        self.records_written += 1


def make_record(
    result: "RunResult",  # noqa: F821
    engine: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Build the JSONL record for one executor result.

    ``engine`` is an optional executor-state snapshot (run and result-cache
    hit/miss counters at write time) folded in under the ``"engine"`` key
    so cache effectiveness is visible straight from the log.
    """
    spec = result.spec
    wall = result.wall_s
    record = {
        "ts": time.time(),
        "schema": SCHEMA_VERSION,
        "digest": result.digest,
        "label": spec.label(),
        "variant": spec.tag or None,
        "topology": spec.topology,
        "pattern": spec.traffic.pattern,
        "rate": spec.traffic.rate,
        "cycles": spec.cycles,
        "warmup": spec.warmup,
        "cache_hit": result.cache_hit,
        "wall_s": round(wall, 4),
        # Cache hits report lookup time, so cycles/wall-second would be a
        # meaningless (and enormous) figure; the record says "not simulated".
        "cycles_per_sec": (
            round(spec.cycles / wall, 1)
            if wall > 0 and not result.cache_hit
            else None
        ),
        "summary": result.summary,
        "meta": result.meta,
    }
    if result.metrics:
        record["metrics"] = result.metrics
    if result.power:
        record["power"] = result.power
    if result.profile:
        record["profile"] = result.profile
    if engine is not None:
        record["engine"] = engine
    return json_safe(record)


def read_runlog(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Parse a JSONL run log (skipping any malformed lines)."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                continue
    return records
