"""Run instrumented simulations and diagnose where the cycles go.

This is the orchestration layer of ``repro.analysis``'s observability
stack: it executes runs in-process with a metrics-only tracer plus a
streaming :class:`~repro.telemetry.WindowedAggregator` sink, then folds
the outputs through :mod:`~repro.analysis.attribution` (latency
decomposition + bottleneck verdict) and
:mod:`~repro.analysis.congestion` (occupancy heatmaps).

Two entry points:

:func:`diagnose_point`
    One (topology, pattern, rate) point -> :class:`PointDiagnosis` with
    summary stats, stage attribution, heatmaps and the simulator's
    self-profile.

:func:`diagnose_sweep`
    A load sweep -> :class:`SweepDiagnosis` with per-point verdicts, the
    saturation knee, and the verdict flip across it (on OWN-256
    uniform-random: token-wait below the knee, wireless-occupancy above).

Instrumented runs use :func:`repro.runtime.executor.execute_inline`
directly (no cache): the aggregator holds live per-window state that is
not cacheable payload. The simulation results themselves are unchanged
by tracing -- the tracer is observation-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.attribution import NO_VERDICT, Attribution, attribute_metrics
from repro.analysis.congestion import Heatmap, heatmaps_from_aggregator
from repro.analysis.sweep import SweepPoint, SweepResult, _point_from_result, point_spec
from repro.runtime import TopologyRef, resolve_ref
from repro.runtime.executor import execute_inline
from repro.runtime.spec import RunSpec
from repro.telemetry import Tracer, WindowedAggregator


@dataclass
class PointDiagnosis:
    """Everything measured about one instrumented run."""

    label: str
    topology: str
    pattern: str
    #: The run as a load-sweep sample (offered rate, latency -- NaN when
    #: no packet was measured -- and accepted throughput).
    point: SweepPoint
    summary: Dict[str, float]
    attribution: Optional[Attribution]
    heatmaps: List[Heatmap] = field(default_factory=list)
    profile: Dict[str, object] = field(default_factory=dict)

    @property
    def rate(self) -> float:
        return self.point.offered

    @property
    def latency(self) -> float:
        return self.point.latency

    @property
    def verdict(self) -> str:
        return self.attribution.verdict if self.attribution else NO_VERDICT

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "topology": self.topology,
            "pattern": self.pattern,
            "rate": self.rate,
            "summary": self.summary,
            "attribution": (
                self.attribution.to_json_dict() if self.attribution else None
            ),
            "heatmaps": [h.to_json_dict() for h in self.heatmaps],
            "profile": self.profile,
        }


@dataclass
class SweepDiagnosis:
    """A diagnosed load sweep: per-point verdicts plus the knee."""

    topology: str
    pattern: str
    points: List[PointDiagnosis]
    #: First offered load past the saturation knee (``None``: never
    #: saturated within the sweep).
    knee: Optional[float]

    def verdict_flip(self) -> Optional[Dict[str, object]]:
        """The pre/post-knee verdict change, if the sweep crossed one.

        Returns ``{"at": knee_load, "before": v, "after": v}`` or ``None``
        when the sweep never saturated or the verdict never changed. Only
        points with an attribution take part: a point with no verdict
        cannot flip one.
        """
        if self.knee is None:
            return None
        judged = [p for p in self.points if p.attribution]
        before = [p.verdict for p in judged if p.rate < self.knee]
        after = [p.verdict for p in judged if p.rate >= self.knee]
        if not before or not after or before[-1] == after[0]:
            return None
        return {"at": self.knee, "before": before[-1], "after": after[0]}

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "topology": self.topology,
            "pattern": self.pattern,
            "knee": self.knee,
            "verdict_flip": self.verdict_flip(),
            "points": [p.to_json_dict() for p in self.points],
        }


def diagnose_point(
    spec: RunSpec,
    window_cycles: int = 64,
    sample_every: int = 16,
    heatmaps: bool = True,
) -> PointDiagnosis:
    """Execute ``spec`` with full instrumentation and diagnose it.

    The tracer runs metrics-only (no event buffering): the windowed
    aggregator consumes the stream as it is produced, so memory stays at
    ``components x windows`` regardless of run length.
    """
    agg = WindowedAggregator(window_cycles=window_cycles)
    tracer = Tracer(
        record_events=False,
        sample_every=sample_every,
        sinks=[agg] if heatmaps else None,
    )
    _, _, result = execute_inline(spec, tracer=tracer)
    return PointDiagnosis(
        label=spec.label(),
        topology=spec.topology,
        pattern=spec.traffic.pattern,
        point=_point_from_result(result),
        summary=dict(result.summary),
        attribution=attribute_metrics(result.metrics),
        heatmaps=heatmaps_from_aggregator(agg) if heatmaps else [],
        profile=dict(result.profile),
    )


def diagnose_sweep(
    topology: TopologyRef,
    pattern: str = "UN",
    rates: Sequence[float] = (0.01, 0.03, 0.05, 0.07),
    cycles: int = 800,
    warmup: int = 200,
    seed: int = 3,
    window_cycles: int = 64,
    sample_every: int = 16,
    heatmap_points: int = 2,
) -> SweepDiagnosis:
    """Diagnose a full load sweep and locate its saturation knee.

    Each point is :func:`~repro.analysis.sweep.point_spec` with telemetry
    on, and the knee is the one :meth:`SweepResult.knee
    <repro.analysis.sweep.SweepResult.knee>` finds in the measured points.
    Every point gets attribution; heatmaps are kept only for the
    ``heatmap_points`` highest loads (the interesting, congested end)
    to bound report size -- pass ``heatmap_points=len(rates)`` to keep
    them all.
    """
    rates = sorted(rates)
    keep_heat = set(rates[-heatmap_points:]) if heatmap_points > 0 else set()
    points = [
        diagnose_point(
            point_spec(topology, pattern, rate, cycles, warmup, seed=seed).with_(
                telemetry=True
            ),
            window_cycles=window_cycles,
            sample_every=sample_every,
            heatmaps=rate in keep_heat,
        )
        for rate in rates
    ]
    key = resolve_ref(topology)[0]
    knee = SweepResult(key, pattern, [p.point for p in points]).knee()
    return SweepDiagnosis(topology=key, pattern=pattern, points=points, knee=knee)
