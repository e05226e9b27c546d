"""Load sweeps and saturation detection (the x-axes of Figs. 7-8).

The standard open-loop methodology: for each injection rate run warmup +
measurement, record mean latency and accepted throughput; the saturation
point is the largest offered load where latency stays below a multiple of
the zero-load latency *and* the network still accepts ~the offered load.

All simulation points are submitted to the :mod:`repro.runtime` execution
engine as :class:`~repro.runtime.spec.RunSpec` values, so sweeps pick up
parallel workers, result caching and run records from whatever
:class:`~repro.runtime.executor.Executor` the caller supplies. Topologies
are named by registry reference only (``"own256"`` or ``("cmesh",
{"n_cores": 256})``); a topology the registry does not ship joins through
:func:`repro.runtime.register_topology`.

There is one dispatch, :func:`compare_saturation`; :func:`load_sweep` is its
one-topology case. It simulates lazily (stopping at the first saturated
point) when the executor is serial and uncached, and otherwise submits every
point as one batch and discards what lies past saturation -- the kept
points are identical either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.runtime import (
    Executor,
    RunResult,
    RunSpec,
    TopologyRef,
    get_executor,
    resolve_ref,
)

#: Early-stop rule: a point is post-saturation when latency blows past 4x
#: zero-load or acceptance drops below 80 % of offered.
_STOP_LATENCY_FACTOR = 4.0
_STOP_ACCEPT_FRACTION = 0.8


def past_knee(
    latency: float,
    zero_latency: float,
    accepted_fraction: Optional[float] = None,
    latency_factor: float = 3.0,
    accept_threshold: float = 0.88,
) -> bool:
    """The saturation-knee rule of :meth:`SweepResult.knee` and
    :meth:`SweepResult.saturation_offered`.

    A point is past the knee unless its latency is below ``latency_factor``
    times zero-load *and* its accepted fraction is above ``accept_threshold``
    (NaN, nothing offered, is past; ``None`` skips the acceptance test).
    """
    if not latency < latency_factor * zero_latency:
        return True
    return accepted_fraction is not None and not accepted_fraction > accept_threshold


@dataclass
class SweepPoint:
    """One (offered load, measured behaviour) sample."""

    offered: float
    latency: float
    throughput: float
    packets: int

    @property
    def accepted_fraction(self) -> float:
        return self.throughput / self.offered if self.offered > 0 else float("nan")


@dataclass
class SweepResult:
    """A full load sweep for one (topology, pattern) pair."""

    name: str
    pattern: str
    points: List[SweepPoint] = field(default_factory=list)

    def zero_load_latency(self) -> float:
        """Latency of the first point that measured a packet (NaN if none)."""
        return next(
            (p.latency for p in self.points if math.isfinite(p.latency)),
            float("nan"),
        )

    def _around_knee(
        self, latency_factor: float, accept_threshold: float
    ) -> Tuple[Optional[SweepPoint], Optional[SweepPoint]]:
        """The last measured point before the saturation knee and the first
        one past it (``None`` where there is none). A point that measured no
        packet is neither: it is skipped."""
        zero = self.zero_load_latency()
        before = None
        for p in self.points:
            if not math.isfinite(p.latency):
                continue
            if past_knee(
                p.latency, zero, p.accepted_fraction, latency_factor, accept_threshold
            ):
                return before, p
            before = p
        return before, None

    def knee(
        self, latency_factor: float = 3.0, accept_threshold: float = 0.88
    ) -> Optional[float]:
        """First offered load past the saturation knee (``None``: the sweep
        never saturated)."""
        past = self._around_knee(latency_factor, accept_threshold)[1]
        return None if past is None else past.offered

    def saturation_offered(
        self, latency_factor: float = 3.0, accept_threshold: float = 0.88
    ) -> Optional[float]:
        """Largest offered load that is still pre-saturation: the measured
        point before :meth:`knee`."""
        before = self._around_knee(latency_factor, accept_threshold)[0]
        return None if before is None else before.offered

    def saturation_throughput(self) -> float:
        """Peak accepted throughput across the sweep (Fig. 7a's metric)."""
        return max((p.throughput for p in self.points), default=float("nan"))


def point_spec(
    topology: TopologyRef,
    pattern: str,
    rate: float,
    cycles: int = 1200,
    warmup: int = 400,
    packet_size: int = 4,
    seed: int = 3,
) -> RunSpec:
    """The :class:`RunSpec` for one sweep point."""
    key, kwargs = resolve_ref(topology)
    return RunSpec.create(
        key,
        pattern=pattern,
        rate=rate,
        cycles=cycles,
        warmup=warmup,
        packet_size=packet_size,
        seed=seed,
        topology_kwargs=kwargs,
    )


def _point_from_result(result: RunResult) -> SweepPoint:
    latency = result.summary["latency_mean"]  # None: no packet measured
    return SweepPoint(
        offered=result.spec.traffic.rate,
        latency=float("nan") if latency is None else latency,
        throughput=result.summary["throughput"],
        packets=int(result.summary["packets_measured"]),
    )


def run_point(
    topology: TopologyRef,
    pattern: str,
    rate: float,
    cycles: int = 1200,
    warmup: int = 400,
    packet_size: int = 4,
    seed: int = 3,
    executor: Optional[Executor] = None,
) -> SweepPoint:
    """Run one simulation point on a freshly built network."""
    spec = point_spec(topology, pattern, rate, cycles, warmup, packet_size, seed)
    return _point_from_result(get_executor(executor).run_one(spec))


def _is_saturated(point: SweepPoint, zero_latency: float) -> bool:
    """A point that measured no packet (NaN latency) never ends a sweep."""
    return math.isfinite(point.latency) and (
        point.latency >= _STOP_LATENCY_FACTOR * zero_latency
        or point.accepted_fraction < _STOP_ACCEPT_FRACTION
    )


def _assemble_sweep(
    name: str, pattern: str, runs: Iterable[RunResult], stop: bool
) -> SweepResult:
    """Fold ``runs`` into a sweep, ending (if ``stop``) at the first saturated point.

    ``runs`` is consumed one result at a time and never past the stop, so a
    generator that simulates on demand stops simulating there, while a
    finished batch merely has its post-saturation points discarded. An
    empty ``name`` is replaced by the built network's own name.
    """
    sweep = SweepResult(name, pattern)
    for run in runs:
        if not sweep.name:
            sweep.name = str(run.meta.get("network_name", run.spec.topology))
        point = _point_from_result(run)
        sweep.points.append(point)
        if stop and _is_saturated(point, sweep.zero_load_latency()):
            break
    return sweep


def compare_saturation(
    topologies: Dict[str, TopologyRef],
    pattern: str,
    rates: Sequence[float],
    cycles: int = 1200,
    warmup: int = 400,
    packet_size: int = 4,
    seed: int = 3,
    stop_at_saturation: bool = True,
    executor: Optional[Executor] = None,
) -> Dict[str, SweepResult]:
    """Sweep offered load on several topologies (Fig. 7b/c data).

    A serial, uncached executor simulates each topology lazily and stops at
    its first clearly saturated point. Any other executor receives every
    (topology, rate) point as one batch -- the pool stays full even while
    one topology is deep into saturation -- and the stop rule is applied to
    the assembled points: the kept points are identical, the extra
    post-saturation ones are discarded (and live on in the cache).
    """
    ex = get_executor(executor)
    grid = {
        name: [
            point_spec(ref, pattern, rate, cycles, warmup, packet_size, seed)
            for rate in rates
        ]
        for name, ref in topologies.items()
    }
    if stop_at_saturation and ex.jobs == 1 and ex.cache is None:
        runs = {
            name: (ex.run_one(spec) for spec in specs)
            for name, specs in grid.items()
        }
    else:
        batch = iter(ex.run([spec for specs in grid.values() for spec in specs]))
        runs = {name: [next(batch) for _ in specs] for name, specs in grid.items()}
    return {
        name: _assemble_sweep(name, pattern, topology_runs, stop_at_saturation)
        for name, topology_runs in runs.items()
    }


def load_sweep(
    topology: TopologyRef,
    pattern: str,
    rates: Sequence[float],
    name: Optional[str] = None,
    **kwargs,
) -> SweepResult:
    """Sweep one topology: the single-entry case of :func:`compare_saturation`.

    Takes the same keyword arguments; an unnamed sweep is labelled with the
    built network's name.
    """
    name = name or ""
    return compare_saturation({name: topology}, pattern, rates, **kwargs)[name]
