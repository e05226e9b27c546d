"""The execution engine: run specs serially or across worker processes.

All simulation-driving code (sweeps, experiments, design-space
exploration, benchmarks) funnels through :class:`Executor`. One code path
means one set of guarantees:

- **Isolation** -- every run builds a fresh network and its simulator
  numbers its own packets from 0, so two runs never share mutable state
  regardless of interleaving.
- **Determinism** -- all randomness derives from seeds carried by the
  spec, so a spec's simulation is a pure function of its digest and its
  power a pure fold of that simulation's activity record. Parallel
  (``jobs=N``) results are bit-identical to serial ones, and cached
  results are bit-identical to fresh ones.
- **Observability** -- each run emits a JSONL record (spec digest, wall
  time, cycles/sec, summary metrics, cache hit/miss) and an optional
  ``progress(done, total, result)`` callback fires as results land.
  In-flight events (run started, heartbeats) have one route: subscribe to
  the :class:`repro.obs.ObservationHub` passed as ``observe=``.

The multiprocessing backend prefers the ``fork`` start method (workers
inherit dynamically registered topologies); on platforms without it the
``spawn`` method is used and only statically registered topologies are
available to workers.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.bus import BusDrain, install_worker_bus, worker_bus
from repro.obs.sampler import DEFAULT_SAMPLE_EVERY, RunObserver
from repro.runtime.cache import ResultCache
from repro.runtime.records import RunLog, make_record
from repro.runtime.registry import build_topology
from repro.runtime.spec import FaultSpec, RunSpec, TrafficSpec

if TYPE_CHECKING:
    from repro.power import ActivityRecord

#: Progress callback: ``(completed, total, result)``, fired once per
#: completed (or cache-served) run.
ProgressFn = Callable[[int, int, "RunResult"], None]


@dataclass
class RunResult:
    """Outcome of one executed (or cache-served) :class:`RunSpec`.

    ``spec`` is the spec the result answers: a cache hit or a batch
    duplicate carries its requester's spec, not the one first simulated.
    ``power`` holds that spec's pairs, folded from ``activity``, the run's
    :class:`~repro.power.ActivityRecord`.
    """

    spec: RunSpec
    digest: str
    summary: Dict[str, float]
    power: Dict[str, Dict[str, float]] = field(default_factory=dict)
    activity: Optional[ActivityRecord] = None
    meta: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)
    profile: Dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0
    cache_hit: bool = False

    def to_payload(self) -> Dict[str, object]:
        """Serialisable form stored in the result cache."""
        return {
            "spec": self.spec.to_dict(),
            "summary": self.summary,
            "activity": self.activity.to_dict(),
            "meta": self.meta,
            "metrics": self.metrics,
            "profile": self.profile,
            "wall_s": self.wall_s,
        }

    @classmethod
    def from_payload(
        cls, payload: Dict[str, object], spec: Optional[RunSpec] = None, cache_hit: bool = False
    ) -> "RunResult":
        """The stored result, answering ``spec`` (default: the stored one)."""
        from repro.power import ActivityRecord

        if spec is None:
            spec = RunSpec.from_dict(payload["spec"])
        activity = ActivityRecord.from_dict(payload["activity"])
        return cls(
            spec=spec,
            digest=spec.digest(),
            summary=dict(payload.get("summary") or {}),
            power=_fold_power(activity, spec.power),
            activity=activity,
            meta=dict(payload.get("meta") or {}),
            metrics=dict(payload.get("metrics") or {}),
            profile=dict(payload.get("profile") or {}),
            wall_s=float(payload.get("wall_s", 0.0)),
            cache_hit=cache_hit,
        )

    # Convenience accessors -------------------------------------------- #

    def power_for(self, config_id: int, scenario: int) -> Dict[str, float]:
        return self.power[f"cfg{config_id}_s{scenario}"]


def _fold_power(
    activity: ActivityRecord, pairs: Sequence[Tuple[int, int]]
) -> Dict[str, Dict[str, float]]:
    """Breakdowns of one activity record for ``(config, scenario)`` pairs."""
    from repro.power import SCENARIOS, PowerModel

    return {
        f"cfg{c}_s{s}": PowerModel(config_id=c, scenario=SCENARIOS[s]).measure(activity).as_dict()
        for c, s in pairs
    }


# --------------------------------------------------------------------- #
# Single-run execution
# --------------------------------------------------------------------- #


def _make_traffic(
    spec: TrafficSpec,
    n_cores: int,
    stop_cycle: Optional[int],
    cycles: Optional[int] = None,
):
    if spec.kind == "workload":
        from repro.workloads import build_workload_traffic

        # The application model compiles to a deterministic trace covering
        # the run's measured window (params may override the duration).
        return build_workload_traffic(
            spec, n_cores, stop_cycle, default_duration=cycles
        )
    pattern = spec.pattern
    if pattern.upper() == "HOT" and (spec.hotspots or spec.hotspot_fraction != 0.2):
        from repro.traffic.patterns import TrafficPattern

        pattern = TrafficPattern(
            "HOT",
            n_cores,
            hotspot_fraction=spec.hotspot_fraction,
            hotspots=list(spec.hotspots) or None,
        )
    if spec.kind == "bursty":
        from repro.traffic.bursty import BurstyTraffic

        return BurstyTraffic(
            n_cores,
            pattern,
            spec.rate,
            spec.packet_size,
            seed=spec.seed,
            burst_factor=spec.burst_factor,
            mean_burst_cycles=spec.mean_burst_cycles,
            stop_cycle=stop_cycle,
        )
    from repro.traffic.generator import SyntheticTraffic

    return SyntheticTraffic(
        n_cores,
        pattern,
        spec.rate,
        spec.packet_size,
        seed=spec.seed,
        stop_cycle=stop_cycle,
    )


def _make_faults(spec: RunSpec, built) -> Tuple[Optional[object], List[object], Dict[str, object]]:
    """Instantiate the fault layer + plant hooks described by ``spec.faults``.

    Failover (``FaultSpec.failover``) or recovery (``spec.control``) wires
    the plant: the reconfiguration controller (its utilisation re-pointer
    on its own epoch), then the health monitor, so failover verdicts and
    recoveries land after the re-point of the same cycle. With
    ``spec.control`` the controller's epoch is ``epoch_cycles`` and the
    monitor also probes failed-over channels back to service.
    """
    fs = spec.faults
    if fs is None:
        return None, [], {}
    from repro.faults import FaultCampaign, FaultLayer, HealthMonitor, PermanentFault

    data_links = [
        link.name
        for link in built.network.links
        if link.kind == "wireless"
        and link.channel_id is not None
        and link.channel_id <= fs.max_channel
    ]
    meta: Dict[str, object] = {}
    if fs.kind == "bursty":
        campaign = FaultCampaign.bursty(
            data_links,
            spec.cycles,
            fs.seed,
            fs.burst_rate,
            burst_duration=fs.burst_duration,
            snr_penalty_db=fs.snr_penalty_db,
        )
    else:  # "death"
        if fs.target_index >= len(data_links):
            raise ValueError(
                f"target_index {fs.target_index} is out of range: {spec.topology} has "
                f"{len(data_links)} data channels with index <= {fs.max_channel}"
            )
        target = data_links[fs.target_index]
        campaign = FaultCampaign([PermanentFault(at=fs.at, target=target)])
        meta["dead_link"] = target
    layer = FaultLayer(built.network, campaign=campaign, seed=fs.layer_seed)
    hooks: List[object] = []
    if fs.failover or spec.control is not None:
        from repro.core.faults import RelayRouting
        from repro.core.own256 import make_reconfig_controller

        routing = built.notes.get("routing")
        if not isinstance(routing, RelayRouting):
            raise ValueError(
                "failover and recovery require a fault-tolerant reconfigurable "
                "topology (e.g. own256_ft with with_reconfiguration=True)"
            )
        epoch = fs.reconfig_epoch if spec.control is None else spec.control.epoch_cycles
        ctrl = make_reconfig_controller(built, epoch_cycles=epoch)
        monitor = HealthMonitor(
            layer,
            routing=routing,
            reconfig=ctrl,
            epoch_cycles=fs.monitor_epoch,
            recover=spec.control is not None,
        )
        hooks = [ctrl, monitor]
    return layer, hooks, meta


def execute_inline(
    spec: RunSpec,
    tracer: Optional[object] = None,
    publish: Optional[Callable[[Dict[str, object]], None]] = None,
    sample_every: int = DEFAULT_SAMPLE_EVERY,
):
    """Run ``spec`` in-process and return ``(built, sim, result)``.

    Called in ``src/`` only by :mod:`repro.runtime` and by
    :mod:`repro.analysis.diagnose`, whose tracer's event stream is not
    cacheable. Shares the engine's isolation and determinism guarantees
    but bypasses cache and workers (the objects are not serialisable).

    ``tracer`` attaches a caller-owned :class:`repro.telemetry.Tracer`
    (the caller keeps the event stream, e.g. for Chrome export). Without
    one, ``spec.telemetry`` spins up a metrics-only tracer whose flat
    dict lands in ``result.metrics``.

    ``publish`` attaches a :class:`repro.obs.RunObserver` emitting
    ``run_started`` / ``heartbeat`` (every ``sample_every`` cycles) /
    ``run_finished`` events onto an observation bus; its heartbeat is the
    last end-of-cycle hook. Observation is read-only: the observed run is
    bit-identical to an unobserved one.
    """
    t0 = time.perf_counter()
    observer = None
    if publish is not None:
        observer = RunObserver(
            publish,
            digest=spec.digest(),
            label=spec.label(),
            tag=spec.tag,
            every=sample_every,
            target_cycles=spec.cycles + max(0, spec.drain),
        )
        observer.on_run_started(spec)
    built = build_topology(spec.topology, **dict(spec.topology_kwargs))
    stop = spec.cycles if spec.drain else None
    traffic = _make_traffic(spec.traffic, built.n_cores, stop, cycles=spec.cycles)
    layer, hooks, fault_meta = _make_faults(spec, built)
    if tracer is None and spec.telemetry:
        from repro.telemetry import Tracer

        tracer = Tracer(record_events=False)
    if observer is not None and tracer is not None:
        # Periodic windowed-telemetry snapshots ride along in heartbeats
        # whenever the run is traced anyway (sinks see the stream even in
        # metrics-only mode).
        from repro.telemetry.windows import WindowedAggregator

        observer.windows = WindowedAggregator()
        tracer.add_sink(observer.windows)
    from repro.noc.simulator import Simulator

    sim = Simulator(
        built.network,
        traffic=traffic,
        warmup_cycles=spec.warmup,
        faults=layer,
        tracer=tracer,
        hooks=hooks,
    )
    if observer is not None:
        sim.add_hook(observer)
    t_built = time.perf_counter()
    sim.run(spec.cycles)
    drained = True
    if spec.drain:
        drained = sim.drain(spec.drain)
    t_simulated = time.perf_counter()

    summary = dict(sim.stats.summary(spec.cycles))
    summary.update(
        {k: float(v) for k, v in sim.stats.retransmission_summary().items()}
    )
    summary["drained"] = float(drained)
    # Any hook exposing flat metrics folds them into the summary (the
    # recovering monitor's decision-log CRC, and the reconfiguration
    # controller's drain counters + transition-log CRC). Absent-side
    # metrics are skipped by ``repro diff``, so new keys are golden-safe.
    for hook in hooks:
        metrics_fn = getattr(hook, "summary_metrics", None)
        if metrics_fn is not None:
            summary.update(metrics_fn())
    from repro.power import record_of

    activity = record_of(built, sim)
    meta: Dict[str, object] = {
        "network_name": built.name,
        "n_cores": built.n_cores,
        "kind": built.kind,
    }
    meta.update(fault_meta)
    if spec.control is not None:
        meta["control"] = hooks[-1].meta_payload()  # the recovering monitor
    from repro.core.reconfig import ReconfigurationController

    for hook in hooks:
        if isinstance(hook, ReconfigurationController):
            meta["reconfig"] = hook.meta_payload()
    metrics: Dict[str, object] = {}
    if tracer is not None:
        tracer.finalize(sim)
        metrics = tracer.metrics_dict()
    t_end = time.perf_counter()
    # Simulator self-profiling: per-phase wall time plus the substrate's
    # own speed (simulated cycles per wall second of pure cycle-loop
    # time, drain included). Folded into run records so engine perf
    # regressions surface in `repro diff` next to the physics.
    sim_s = t_simulated - t_built
    profile = {
        "build_s": round(t_built - t0, 4),
        "sim_s": round(sim_s, 4),
        "measure_s": round(t_end - t_simulated, 4),
        "sim_cycles": sim.now,
        "sim_cycles_per_sec": round(sim.now / sim_s, 1) if sim_s > 0 else None,
    }
    result = RunResult(
        spec=spec,
        digest=spec.digest(),
        summary=summary,
        power=_fold_power(activity, spec.power),
        activity=activity,
        meta=meta,
        metrics=metrics,
        profile=profile,
        wall_s=t_end - t0,
    )
    if observer is not None:
        observer.on_run_finished(result.wall_s, summary=summary)
    return built, sim, result


def run_spec(
    spec: RunSpec,
    publish: Optional[Callable[[Dict[str, object]], None]] = None,
    sample_every: int = DEFAULT_SAMPLE_EVERY,
) -> RunResult:
    """Execute one spec in-process and return only its (serialisable) result."""
    _, _, result = execute_inline(
        spec, publish=publish, sample_every=sample_every
    )
    return result


def _pool_worker(payload: Dict[str, object]) -> Dict[str, object]:
    """Worker entry point: spec dict in, result payload out.

    When the pool was started with an observation queue (see
    :func:`repro.obs.bus.install_worker_bus`), lifecycle events stream
    back to the parent while the run is still in flight.
    """
    bus = worker_bus()
    publish, sample_every = bus if bus is not None else (None, DEFAULT_SAMPLE_EVERY)
    result = run_spec(
        RunSpec.from_dict(payload), publish=publish, sample_every=sample_every
    )
    return result.to_payload()


# --------------------------------------------------------------------- #
# The executor
# --------------------------------------------------------------------- #


class Executor:
    """Runs batches of specs with optional parallelism, caching and logging.

    Parameters
    ----------
    jobs:
        Worker processes. ``1`` (default) runs in-process; ``N > 1`` uses a
        ``multiprocessing`` pool. Results are ordered and bit-identical to
        a serial run either way.
    cache:
        A :class:`~repro.runtime.cache.ResultCache` (or a path, coerced);
        ``None`` disables caching.
    runlog:
        A :class:`~repro.runtime.records.RunLog` (or a path, coerced);
        ``None`` disables run records.
    progress:
        Optional ``(done, total, result)`` callback fired per completion.
    telemetry:
        Rewrite every incoming spec with ``telemetry=True`` so results
        (and run records) carry per-channel-class metrics. Changes spec
        digests, so telemetry-on and telemetry-off results cache
        separately.
    trace_dir:
        Directory for Chrome ``trace_event`` JSON files, one per unique
        executed spec (named ``{label}-{digest8}.json``). Implies
        ``telemetry`` and forces in-process execution for traced runs
        (the event stream does not cross process or cache boundaries).
    observe:
        Optional :class:`repro.obs.ObservationHub`. Runs then emit
        ``run_started`` / ``heartbeat`` / ``run_finished`` events -- over
        the worker queue when ``jobs > 1``, inline otherwise -- feeding
        the hub's snapshot consumers (exporters, live view), its stall
        watchdog and :meth:`~repro.obs.ObservationHub.subscribe` callbacks.
        Observation is read-only: observed results are bit-identical to
        unobserved ones.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[Union[ResultCache, str]] = None,
        runlog: Optional[Union[RunLog, str]] = None,
        progress: Optional[ProgressFn] = None,
        telemetry: bool = False,
        trace_dir: Optional[Union[str, "Path"]] = None,
        observe: Optional[object] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        if isinstance(cache, (str, bytes)) or hasattr(cache, "__fspath__"):
            cache = ResultCache(cache)
        self.cache = cache
        if isinstance(runlog, (str, bytes)) or hasattr(runlog, "__fspath__"):
            runlog = RunLog(runlog)
        self.runlog = runlog
        self.progress = progress
        self.telemetry = telemetry or trace_dir is not None
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.observe = observe
        # Simulations run and results served from the cache; a batch
        # duplicate is answered from its first copy and counts as neither.
        self.runs_executed = 0
        self.runs_from_cache = 0
        self._done = 0
        self._total = 0

    # ------------------------------------------------------------------ #

    def run_one(self, spec: RunSpec) -> RunResult:
        return self.run([spec])[0]

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Execute ``specs``, returning results in input order."""
        specs = list(specs)
        if not specs:
            return []
        if self.telemetry:
            specs = [
                s if s.telemetry else s.with_(telemetry=True) for s in specs
            ]
        hub = self.observe
        if hub is not None:
            hub.begin(specs)
        try:
            return self._run_batch(specs, hub)
        finally:
            if hub is not None:
                hub.end()

    def _run_batch(self, specs: List[RunSpec], hub) -> List[RunResult]:
        total = len(specs)
        self._total += total
        results: List[Optional[RunResult]] = [None] * total

        def _finish(i: int, result: RunResult) -> None:
            results[i] = result
            self._done += 1
            if self.runlog is not None:
                self.runlog.write(make_record(result, engine=self.engine_snapshot()))
            if self.progress is not None:
                self.progress(self._done, self._total, result)

        publish = hub.handle if hub is not None else None
        sample_every = hub.sample_every if hub is not None else DEFAULT_SAMPLE_EVERY

        # Serve cache hits first (and dedupe identical pending specs).
        pending: List[int] = []
        digests = [spec.digest() for spec in specs]
        for i, spec in enumerate(specs):
            if self.cache is not None:
                t0 = time.perf_counter()
                payload = self.cache.get(digests[i])
                if payload is not None:
                    result = RunResult.from_payload(payload, spec, cache_hit=True)
                    # Lookup time, not simulation time: well-defined (and
                    # near-zero) even when every spec in the batch hits.
                    result.wall_s = max(0.0, time.perf_counter() - t0)
                    self.runs_from_cache += 1
                    if hub is not None:
                        hub.note_finished(result)
                    _finish(i, result)
                    continue
            pending.append(i)

        first_by_digest: Dict[str, int] = {}
        unique: List[int] = []
        for i in pending:
            if digests[i] in first_by_digest:
                continue
            first_by_digest[digests[i]] = i
            unique.append(i)

        if self.trace_dir is not None:
            computed = [
                self._run_traced(specs[i], publish, sample_every)
                for i in unique
            ]
        elif self.jobs > 1 and len(unique) > 1:
            computed = self._run_pool([specs[i] for i in unique], hub)
        else:
            computed = [
                run_spec(specs[i], publish=publish, sample_every=sample_every)
                for i in unique
            ]

        self.runs_executed += len(unique)
        by_digest = {digests[i]: r for i, r in zip(unique, computed)}
        for i in pending:
            result = by_digest[digests[i]]
            if i != first_by_digest[digests[i]]:
                result = RunResult.from_payload(result.to_payload(), specs[i])
                result.wall_s = 0.0
            elif self.cache is not None:
                self.cache.put(digests[i], result.to_payload())
            _finish(i, result)
        return results  # type: ignore[return-value]

    def _run_traced(
        self,
        spec: RunSpec,
        publish: Optional[Callable[[Dict[str, object]], None]] = None,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
    ) -> RunResult:
        """Execute one spec with full event recording + Chrome export."""
        from repro.telemetry import Tracer
        from repro.telemetry.export import write_chrome_trace

        tracer = Tracer()
        _, _, result = execute_inline(
            spec, tracer=tracer, publish=publish, sample_every=sample_every
        )
        stem = re.sub(r"[^A-Za-z0-9._-]+", "-", spec.label())
        path = self.trace_dir / f"{stem}-{result.digest[:8]}.json"
        write_chrome_trace(tracer, path)
        result.meta["trace_path"] = str(path)
        return result

    def _run_pool(self, specs: List[RunSpec], hub=None) -> List[RunResult]:
        # Imported here: a serial run never starts a worker.
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = multiprocessing.get_context("spawn")
        payloads = [spec.to_dict() for spec in specs]
        jobs = min(self.jobs, len(payloads))
        queue = drain = None
        initializer = initargs = None
        if hub is not None:
            # Workers publish onto an inherited queue; a parent-side drain
            # thread pumps events into the hub while the pool is mapping.
            queue = ctx.Queue()
            drain = BusDrain(queue, hub.handle)
            drain.start()
            initializer = install_worker_bus
            initargs = (queue, hub.sample_every)
        try:
            pool = ctx.Pool(
                processes=jobs, initializer=initializer, initargs=initargs or ()
            )
            try:
                outputs = pool.map(_pool_worker, payloads)
            except BaseException:
                pool.terminate()
                raise
            # close + join, not terminate: a worker killed while its queue
            # feeder thread still writes loses its last events and can leave
            # the queue's write lock held, hanging this process's exit.
            pool.close()
            pool.join()
        finally:
            if drain is not None:
                drain.stop()
        return [RunResult.from_payload(p) for p in outputs]

    def engine_snapshot(self) -> Dict[str, object]:
        """Flat executor-state counters folded into each run record.

        Surfaces result-cache effectiveness (hit/miss counts at the moment
        the record is written) so a run log alone answers "did the cache
        actually serve anything?".
        """
        snap: Dict[str, object] = {
            "runs_executed": self.runs_executed,
            "runs_from_cache": self.runs_from_cache,
        }
        if self.cache is not None:
            snap["cache_hits"] = self.cache.hits
            snap["cache_misses"] = self.cache.misses
        return snap

    def stats(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "jobs": self.jobs,
            "runs_executed": self.runs_executed,
            "runs_from_cache": self.runs_from_cache,
        }
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        return out


#: Module-level serial executor used as the default substrate when a call
#: site does not supply one (no cache, no log, in-process).
DEFAULT_EXECUTOR = Executor(jobs=1)


def get_executor(executor: Optional[Executor]) -> Executor:
    return executor if executor is not None else DEFAULT_EXECUTOR
