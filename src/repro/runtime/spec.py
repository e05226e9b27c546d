"""Declarative run specifications.

A :class:`RunSpec` is a frozen, hashable value object that *fully
determines* one simulation: which topology to build (registry key +
builder kwargs), what traffic to offer (pattern / rate / seed), how long
to run (cycles / warmup / drain), and which fault campaign (if any) to
inject. Because a spec is pure data, it can be

- **digested** into a content address (:meth:`RunSpec.digest`) for the
  on-disk result cache,
- **pickled** across process boundaries for the multiprocessing executor,
- **serialised** to JSON for run records and later re-execution.

The digest also folds in a fingerprint of the ``repro`` source tree, so
editing any simulator code invalidates every cached result (conservative
but safe: stale physics never leaks out of the cache).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.utils.rng import sha256

#: Bumped when the result payload layout changes (invalidates the cache
#: even if no source file changed).
#:
#: v2: results carry a ``profile`` dict (per-phase wall time + simulator
#: cycles/sec) and run records additionally surface ``power``, ``engine``
#: cache counters and this schema number (see docs/observability.md).
#:
#: v3: results carry the run's exact activity record (``activity``, see
#: :class:`repro.power.ActivityRecord`) and no ``power``: breakdowns are
#: folded from the record for the pairs of the spec that asks, so the
#: digest no longer covers ``RunSpec.power``.
#:
#: v4: each activity link row ends with its source router's index, so a
#: cached record can be placed on the floorplan (the thermal map).
SCHEMA_VERSION = 4

_code_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """Content hash of every ``.py`` file in the installed ``repro`` package.

    Hashes each file :func:`fingerprint_files` lists, path then content.
    Computed once per process. ``REPRO_CODE_VERSION`` overrides it (useful
    in CI to share a cache across checkouts known to be equivalent).
    """
    global _code_fingerprint
    override = os.environ.get("REPRO_CODE_VERSION")
    if override:
        return override
    if _code_fingerprint is None:
        import repro
        from repro.obs.log import get_logger

        root = os.path.dirname(os.path.abspath(repro.__file__))
        files = fingerprint_files()
        h = sha256()
        for rel in files:
            h.update(rel.encode())
            with open(os.path.join(root, rel), "rb") as fh:
                h.update(fh.read())
        _code_fingerprint = h.hexdigest()[:16]
        get_logger("repro.runtime.spec").debug(
            f"code fingerprint {_code_fingerprint} over {len(files)} files",
            extra={"fingerprint": _code_fingerprint, "n_files": len(files)},
        )
    return _code_fingerprint


def fingerprint_files() -> Tuple[str, ...]:
    """Package-relative paths hashed by :func:`code_fingerprint`, in order.

    Audit companion to the fingerprint: the hash itself is opaque, so
    tests assert coverage against this list instead (e.g. that hot-path
    modules like ``noc/kernels.py`` invalidate the cache when edited).
    """
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    out = []
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for fname in sorted(filenames):
            if not fname.endswith(".py"):
                continue
            out.append(os.path.relpath(os.path.join(dirpath, fname), root))
    return tuple(out)


def freeze_kwargs(kwargs: Optional[Mapping[str, object]]) -> Tuple[Tuple[str, object], ...]:
    """Normalise builder kwargs into a sorted, hashable tuple of pairs.

    Lists become tuples (recursively) so the result is hashable; insertion
    order is irrelevant to the digest.
    """

    def _freeze(v: object) -> object:
        if isinstance(v, (list, tuple)):
            return tuple(_freeze(x) for x in v)
        if isinstance(v, dict):
            return tuple(sorted((str(k), _freeze(x)) for k, x in v.items()))
        return v

    if not kwargs:
        return ()
    return tuple(sorted((str(k), _freeze(v)) for k, v in dict(kwargs).items()))


def check_window(cycles: int, warmup: int) -> None:
    """Reject a measurement window ``[warmup, cycles)`` that measures nothing."""
    if not 0 <= warmup < cycles:
        raise ValueError(
            f"need 0 <= warmup < cycles, got warmup={warmup} and cycles={cycles}: "
            f"no packet would be measured"
        )


def _thaw(value: object) -> object:
    """JSON round-trip turns tuples into lists; re-freeze on load."""
    if isinstance(value, list):
        return tuple(_thaw(v) for v in value)
    return value


@dataclass(frozen=True)
class TrafficSpec:
    """Open-loop traffic fully described by value.

    ``kind`` selects the generator class: ``"synthetic"`` (Bernoulli,
    :class:`~repro.traffic.generator.SyntheticTraffic`), ``"bursty"``
    (Markov-modulated, :class:`~repro.traffic.bursty.BurstyTraffic`) or
    ``"workload"`` (an application model from :mod:`repro.workloads`,
    compiled to a deterministic trace and replayed through
    :class:`~repro.traffic.trace.TraceTraffic`).
    ``hotspot_fraction`` / ``hotspots`` parameterise the ``HOT`` pattern
    (an empty ``hotspots`` tuple keeps the pattern's default, core 0).

    For ``kind="workload"``, ``workload`` names the generator in
    :data:`repro.workloads.WORKLOADS`, ``workload_params`` carries its
    frozen builder kwargs, ``rate`` maps onto the family's intensity
    knob, and ``pattern`` is a free-form label (convention:
    ``"wl-<name>"``) used only for run-record keying.
    """

    pattern: str = "UN"
    rate: float = 0.01
    packet_size: int = 4
    seed: int = 1
    kind: str = "synthetic"
    burst_factor: float = 1.0
    mean_burst_cycles: float = 20.0
    hotspot_fraction: float = 0.2
    hotspots: Tuple[int, ...] = ()
    workload: str = ""
    workload_params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("synthetic", "bursty", "workload"):
            raise ValueError(f"unknown traffic kind {self.kind!r}")
        if self.kind == "workload" and not self.workload:
            raise ValueError('kind="workload" requires a workload name')
        if self.workload and self.kind != "workload":
            raise ValueError(f'workload={self.workload!r} requires kind="workload"')
        if not 0.0 <= self.hotspot_fraction <= 1.0:
            raise ValueError("hotspot_fraction must be in [0, 1]")
        # JSON round-trips deliver lists; re-freeze for hashability.
        object.__setattr__(
            self, "hotspots", tuple(int(c) for c in self.hotspots)
        )
        object.__setattr__(
            self, "workload_params", freeze_kwargs(dict(self.workload_params))
        )


@dataclass(frozen=True)
class FaultSpec:
    """A deterministic fault campaign, by value.

    ``kind="bursty"`` draws transient interference bursts on the wireless
    data channels (channel index <= ``max_channel``) from a dedicated RNG
    stream seeded with ``seed``; ``kind="death"`` kills the
    ``target_index``-th data channel permanently at cycle ``at``.
    ``failover`` additionally wires the reconfiguration controller and
    health monitor so dead channels fail over onto pinned spares (requires
    a fault-tolerant topology, e.g. ``own256_ft``); ``monitor_epoch`` is
    the monitor's classification window.
    """

    kind: str = "bursty"
    seed: int = 7
    layer_seed: int = 11
    burst_rate: float = 0.0
    burst_duration: int = 50
    snr_penalty_db: float = 5.0
    at: int = 0
    target_index: int = 0
    max_channel: int = 12
    failover: bool = False
    reconfig_epoch: int = 250
    monitor_epoch: int = 100

    def __post_init__(self) -> None:
        if self.kind not in ("bursty", "death"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.target_index < 0:
            raise ValueError(f"target_index must be >= 0, got {self.target_index}")
        if self.max_channel < 1:
            raise ValueError(
                f"max_channel must be >= 1 (data channels are numbered from 1), "
                f"got {self.max_channel}"
            )


@dataclass(frozen=True)
class ControlSpec:
    """Channel recovery, by value (``docs/fault-tolerance.md``, "Recovery").

    Attaching a ``ControlSpec`` to a :class:`RunSpec` with a
    :class:`FaultSpec` wires the failover plant -- the reconfiguration
    controller re-pointing the spares by utilisation every
    ``epoch_cycles`` and the health monitor -- whether or not
    ``FaultSpec.failover`` is set, and the monitor additionally probes
    failed-over channels back to service on the same epoch. Requires a
    fault-tolerant reconfigurable topology (``own256_ft`` with
    ``with_reconfiguration=True``). The decision log the monitor produces
    is byte-stable per digest.
    """

    epoch_cycles: int = 250

    def __post_init__(self) -> None:
        if self.epoch_cycles < 1:
            raise ValueError(f"epoch_cycles must be >= 1, got {self.epoch_cycles}")


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one simulation point.

    Parameters
    ----------
    topology:
        Key into :mod:`repro.runtime.registry` (e.g. ``"own256"``,
        ``"cmesh"``).
    topology_kwargs:
        Frozen builder kwargs (use :meth:`RunSpec.create` to pass a dict).
    traffic:
        The offered-load description.
    cycles, warmup:
        Measurement window (warmup packets excluded from statistics);
        ``0 <= warmup < cycles``.
    drain:
        If > 0, pause traffic after ``cycles`` and run up to ``drain``
        extra cycles until the network empties (exactly-once studies).
    faults:
        Optional fault campaign.
    control:
        Optional channel recovery (:class:`ControlSpec`; needs ``faults``):
        the spare-channel plant plus a :class:`repro.faults.HealthMonitor`
        that probes failed-over channels back to service. Its decision log
        is folded into the run record (``summary["control_log_crc"]``,
        ``meta["control"]``).
    power:
        ``(config_id, scenario)`` pairs to price the run at; breakdowns
        land in ``RunResult.power`` keyed ``"cfg{c}_s{s}"``. Power is
        folded from the run's activity record, not simulated, so this
        field is not part of the :meth:`digest`: specs differing only in
        their pairs share one simulation and one cache entry.
    telemetry:
        Attach a metrics-only :class:`repro.telemetry.Tracer` to the run;
        its flat metric dict lands in ``RunResult.metrics`` (and the JSONL
        record). Event buffering / Chrome traces are an executor concern
        (``Executor(trace_dir=...)``), not a spec knob, because the event
        stream is not cacheable payload.
    tag:
        Free-form variant label (e.g. ``"hot+burst/adaptive"``). Part of
        the digest (two variants never share a cache entry), appended to
        :meth:`label`, and written to run records as ``"variant"`` so
        :mod:`repro.analysis.diffing` can join per-variant across logs --
        without it, arms of a study that share topology/pattern/rate/
        cycles/warmup would collapse into one noise group.
    """

    topology: str
    cycles: int
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    topology_kwargs: Tuple[Tuple[str, object], ...] = ()
    warmup: int = 0
    drain: int = 0
    faults: Optional[FaultSpec] = None
    control: Optional[ControlSpec] = None
    power: Tuple[Tuple[int, int], ...] = ()
    telemetry: bool = False
    tag: str = ""

    def __post_init__(self) -> None:
        check_window(self.cycles, self.warmup)
        if self.control is not None and self.faults is None:
            raise ValueError(
                "control requires faults: recovery probes channels that failed "
                "over (a calm campaign is FaultSpec(burst_rate=0.0))"
            )

    @classmethod
    def create(
        cls,
        topology: str,
        pattern: str = "UN",
        rate: float = 0.01,
        cycles: int = 1200,
        warmup: int = 0,
        packet_size: int = 4,
        seed: int = 1,
        topology_kwargs: Optional[Mapping[str, object]] = None,
        traffic_kind: str = "synthetic",
        burst_factor: float = 1.0,
        mean_burst_cycles: float = 20.0,
        hotspot_fraction: float = 0.2,
        hotspots: Tuple[int, ...] = (),
        workload: str = "",
        workload_params: Optional[Mapping[str, object]] = None,
        drain: int = 0,
        faults: Optional[FaultSpec] = None,
        control: Optional[ControlSpec] = None,
        power: Tuple[Tuple[int, int], ...] = (),
        telemetry: bool = False,
        tag: str = "",
    ) -> "RunSpec":
        """Ergonomic constructor taking plain dicts/kwargs."""
        return cls(
            topology=topology,
            topology_kwargs=freeze_kwargs(topology_kwargs),
            traffic=TrafficSpec(
                pattern=pattern,
                rate=rate,
                packet_size=packet_size,
                seed=seed,
                kind=traffic_kind,
                burst_factor=burst_factor,
                mean_burst_cycles=mean_burst_cycles,
                hotspot_fraction=hotspot_fraction,
                hotspots=tuple(hotspots),
                workload=workload,
                workload_params=freeze_kwargs(workload_params),
            ),
            cycles=cycles,
            warmup=warmup,
            drain=drain,
            faults=faults,
            control=control,
            power=tuple((int(c), int(s)) for c, s in power),
            telemetry=telemetry,
            tag=tag,
        )

    def with_(self, **changes) -> "RunSpec":
        """Functional update (``dataclasses.replace`` wrapper)."""
        if "topology_kwargs" in changes:
            changes["topology_kwargs"] = freeze_kwargs(changes["topology_kwargs"])
        return replace(self, **changes)

    # ------------------------------------------------------------------ #
    # Serialisation + content addressing
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        d = asdict(self)
        d["topology_kwargs"] = [list(pair) for pair in self.topology_kwargs]
        d["power"] = [list(pair) for pair in self.power]
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "RunSpec":
        traffic = TrafficSpec(**d["traffic"])
        faults = FaultSpec(**d["faults"]) if d.get("faults") else None
        control = ControlSpec(**d["control"]) if d.get("control") else None
        kwargs = tuple(
            (str(k), _thaw(v)) for k, v in (d.get("topology_kwargs") or ())
        )
        power = tuple((int(c), int(s)) for c, s in (d.get("power") or ()))
        return cls(
            topology=str(d["topology"]),
            topology_kwargs=kwargs,
            traffic=traffic,
            cycles=int(d["cycles"]),
            warmup=int(d.get("warmup", 0)),
            drain=int(d.get("drain", 0)),
            faults=faults,
            control=control,
            power=power,
            telemetry=bool(d.get("telemetry", False)),
            tag=str(d.get("tag", "")),
        )

    def canonical_json(self) -> str:
        """Stable JSON encoding of the whole spec."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """Content address of what is simulated: the spec except ``power``,
        plus code fingerprint and schema version."""
        h = sha256()
        h.update(replace(self, power=()).canonical_json().encode())
        h.update(f"|code={code_fingerprint()}|schema={SCHEMA_VERSION}".encode())
        return h.hexdigest()

    def label(self) -> str:
        """Short human-readable tag for progress lines and records."""
        base = (
            f"{self.topology}/{self.traffic.pattern}"
            f"@{self.traffic.rate:g}x{self.cycles}"
        )
        return f"{base}#{self.tag}" if self.tag else base
