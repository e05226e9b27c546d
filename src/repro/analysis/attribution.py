"""Bottleneck attribution: where did each packet's latency actually go?

Consumes the flat telemetry metrics of one run (``RunResult.metrics`` or
the ``"metrics"`` object of a JSONL run record) and decomposes mean
end-to-end latency into the tracer's breakdown stages, per channel class
and overall. Because the per-packet breakdown is exact (the tracer's
``other`` stage absorbs the remainder), the stage *totals* sum to the
end-to-end total exactly -- :class:`StageBreakdown` carries that check.

On top of the decomposition sits a **dominant-bottleneck verdict** per
(topology, load) point, with rules calibrated on measured OWN-256
uniform-random sweeps:

* pre-saturation the largest contention term is **token wait** at the
  shared media (home-waveguide MWSR tokens, the paper's Sec. III-A cost);
* past the saturation knee the wireless channels run at high occupancy
  and latency moves into in-network blocking + source queueing, so the
  verdict flips to **wireless occupancy** -- the C2C/E2E/SR capacity
  trade the paper's Fig. 7/8 evaluation turns on.

:meth:`repro.analysis.sweep.SweepResult.knee` finds that saturation knee;
a diagnosed sweep reads it from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.telemetry.tracer import BREAKDOWN_STAGES

#: Stages whose latency is *attributable* contention: a specific shared
#: resource was measured making the packet wait. ``serialization`` and
#: ``flight`` are structural path costs; ``other`` mixes the fixed router
#: pipeline with switch blocking and so is never a verdict on its own
#: unless nothing attributable registers.
CONTENTION_STAGES = ("queueing", "token_wait", "retx")

#: Minimum share of mean latency an attributable contention stage needs
#: to be named the bottleneck (below it the run is essentially
#: contention-free).
ATTRIBUTABLE_MIN = 0.10

#: Wireless occupancy (busy fraction of a distance class's channels) at or
#: above which the class is considered saturated. Calibrated on OWN-256
#: uniform-random sweeps: pre-knee loads measure <= ~0.5, post-knee
#: loads measure >= ~0.65.
OCCUPANCY_SATURATED = 0.6

#: What a run with no packet breakdown (no telemetry, or no measured
#: packet) reports in place of a verdict. It is never one side of a flip.
NO_VERDICT = "no-data"

#: Verdict labels for the dominant contention stage.
_STAGE_VERDICT = {
    "queueing": "injection-queueing",
    "token_wait": "token-wait",
    "retx": "retransmission",
}


@dataclass
class StageBreakdown:
    """Mean latency decomposition for one channel class (or overall)."""

    cls: str
    count: int
    total_mean: float
    #: stage -> mean cycles contributed (sums to ``total_mean``).
    stages: Dict[str, float] = field(default_factory=dict)
    #: Do the integer stage totals sum exactly to the end-to-end total?
    exact: bool = True

    def share(self, stage: str) -> float:
        """Fraction of mean end-to-end latency spent in ``stage``."""
        if not self.total_mean:
            return 0.0
        return self.stages.get(stage, 0.0) / self.total_mean

    def shares(self) -> Dict[str, float]:
        return {s: self.share(s) for s in BREAKDOWN_STAGES}

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "class": self.cls,
            "count": self.count,
            "total_mean": self.total_mean,
            "stages": dict(self.stages),
            "shares": self.shares(),
            "exact": self.exact,
        }


@dataclass
class Attribution:
    """Full bottleneck attribution of one run's telemetry metrics."""

    overall: StageBreakdown
    per_class: Dict[str, StageBreakdown]
    #: distance class -> busy fraction of its wireless channels.
    wireless_occupancy: Dict[str, float]
    verdict: str
    #: Share of mean latency (or occupancy) backing the verdict.
    verdict_share: float

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "verdict": self.verdict,
            "verdict_share": self.verdict_share,
            "wireless_occupancy": dict(self.wireless_occupancy),
            "overall": self.overall.to_json_dict(),
            "per_class": {
                c: b.to_json_dict() for c, b in sorted(self.per_class.items())
            },
        }


def _hist_stat(metrics: Mapping[str, object], name: str, cls: str, stat: str):
    return metrics.get(f"{name}[{cls}].{stat}")


def _class_breakdown(metrics: Mapping[str, object], cls: str) -> Optional[StageBreakdown]:
    count = _hist_stat(metrics, "pkt_total", cls, "count")
    if not count:
        return None
    total = _hist_stat(metrics, "pkt_total", cls, "total")
    if total is None:
        # Pre-v2 records expose only the mean; reconstruct a total (the
        # exactness check is then best-effort).
        total = (_hist_stat(metrics, "pkt_total", cls, "mean") or 0.0) * count
    stages: Dict[str, float] = {}
    stage_sum = 0.0
    for stage in BREAKDOWN_STAGES:
        st = _hist_stat(metrics, f"pkt_{stage}", cls, "total")
        if st is None:
            st = (_hist_stat(metrics, f"pkt_{stage}", cls, "mean") or 0.0) * count
        stages[stage] = st / count
        stage_sum += st
    return StageBreakdown(
        cls=cls,
        count=int(count),
        total_mean=total / count,
        stages=stages,
        exact=stage_sum == total,
    )


def packet_classes(metrics: Mapping[str, object]) -> List[str]:
    """Channel classes with at least one measured packet."""
    out = []
    for key in metrics:
        if key.startswith("pkt_total[") and key.endswith("].count"):
            if metrics[key]:
                out.append(key[len("pkt_total["):-len("].count")])
    return sorted(out)


def wireless_occupancies(metrics: Mapping[str, object]) -> Dict[str, float]:
    """Per-distance-class wireless busy fractions from the gauge metrics."""
    prefix = "wireless_occupancy["
    out = {}
    for key, value in metrics.items():
        if key.startswith(prefix) and key.endswith("]") and value is not None:
            out[key[len(prefix):-1]] = float(value)
    return out


def attribute_metrics(metrics: Mapping[str, object]) -> Optional[Attribution]:
    """Bottleneck attribution for one run's flat metrics dict.

    Returns ``None`` when the metrics carry no packet breakdown (run
    without telemetry, or zero measured packets).
    """
    per_class: Dict[str, StageBreakdown] = {}
    for cls in packet_classes(metrics):
        bd = _class_breakdown(metrics, cls)
        if bd is not None:
            per_class[cls] = bd
    if not per_class:
        return None

    # Count-weighted overall decomposition (exact: totals add across
    # classes because every measured packet lands in exactly one class).
    count = sum(b.count for b in per_class.values())
    total = sum(b.total_mean * b.count for b in per_class.values())
    stages = {
        s: sum(b.stages[s] * b.count for b in per_class.values()) / count
        for s in BREAKDOWN_STAGES
    }
    overall = StageBreakdown(
        cls="all",
        count=count,
        total_mean=total / count,
        stages=stages,
        exact=all(b.exact for b in per_class.values()),
    )

    occupancy = wireless_occupancies(metrics)
    verdict, share = _verdict(overall, occupancy)
    return Attribution(
        overall=overall,
        per_class=per_class,
        wireless_occupancy=occupancy,
        verdict=verdict,
        verdict_share=share,
    )


def _verdict(overall: StageBreakdown, occupancy: Mapping[str, float]):
    """Dominant-bottleneck rule (see module docstring for calibration).

    A saturated wireless plan (any distance class at or above
    :data:`OCCUPANCY_SATURATED` busy fraction) whose congestion latency
    (in-network blocking + source queueing) outweighs token wait reads as
    *wireless-occupancy*. Otherwise the largest *attributable* contention
    stage wins (``other`` is excluded: it mixes the fixed router pipeline
    with blocking, so at low load it is structural baseline, not
    contention). With no attributable stage above
    :data:`ATTRIBUTABLE_MIN`, heavy ``other`` reads as
    *switch-contention* and anything else as *structural* (the packet
    mostly paid serialization/flight/pipeline).
    """
    max_occ = max(occupancy.values(), default=0.0)
    congestion = overall.share("other") + overall.share("queueing")
    if max_occ >= OCCUPANCY_SATURATED and congestion > overall.share("token_wait"):
        return "wireless-occupancy", max_occ
    dominant = max(CONTENTION_STAGES, key=overall.share)
    share = overall.share(dominant)
    if share >= ATTRIBUTABLE_MIN:
        return _STAGE_VERDICT[dominant], share
    if overall.share("other") > 0.4:
        return "switch-contention", overall.share("other")
    return "structural", overall.share("serialization") + overall.share("flight")

