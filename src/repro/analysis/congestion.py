"""Congestion heatmaps: time-windowed occupancy matrices of the fabric.

Turns a :class:`repro.telemetry.WindowedAggregator` (a streaming sink fed
by the tracer during a run) into :class:`Heatmap` value objects -- one per
aggregation kind -- with the normalisation each kind needs:

``link_busy``    busy fraction in [0, 1] per medium per window (the
                 occupancy picture of every waveguide and wireless
                 channel over time)
``token_wait``   mean token-wait cycles charged per window per shared
                 medium (where MWSR arbitration hurts, and when)
``vc_stall``     stalled-VC observations per router per window
``buffer_occ``   mean buffered flits per router per window (needs
                 ``Tracer(sample_every=N)``)

Heatmaps are plain data (components x windows) ready for JSON export and
the SVG renderer in :mod:`repro.analysis.htmlreport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.telemetry.windows import WindowedAggregator

#: Per-kind presentation metadata: (title, unit, use per-window mean,
#: normalise by window width).
_KIND_META = {
    "link_busy": ("Link occupancy", "busy fraction", False, True),
    "token_wait": ("Token wait", "wait cycles / event", True, False),
    "vc_stall": ("VC stalls", "stalls / window", False, False),
    "buffer_occ": ("Buffer occupancy", "mean buffered flits", True, False),
}


@dataclass
class Heatmap:
    """One components-by-windows matrix with presentation metadata."""

    kind: str
    title: str
    unit: str
    window_cycles: int
    components: List[str]
    #: ``rows[i][w]`` = value of ``components[i]`` in window ``w``.
    rows: List[List[float]] = field(default_factory=list)

    @property
    def n_windows(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def vmax(self) -> float:
        """Largest cell value (colour-scale upper bound; 0.0 if empty)."""
        return max((v for row in self.rows for v in row), default=0.0)

    def top_rows(self, n: int) -> "Heatmap":
        """Copy keeping only the ``n`` busiest components (by row total).

        Used by the HTML renderer so a 256-router matrix stays legible;
        the JSON export always carries the full matrix.
        """
        if n >= len(self.components):
            return self
        order = sorted(
            range(len(self.components)),
            key=lambda i: sum(self.rows[i]),
            reverse=True,
        )[:n]
        order.sort()  # keep original component order among the survivors
        return Heatmap(
            kind=self.kind,
            title=f"{self.title} (top {n} of {len(self.components)})",
            unit=self.unit,
            window_cycles=self.window_cycles,
            components=[self.components[i] for i in order],
            rows=[self.rows[i] for i in order],
        )

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "title": self.title,
            "unit": self.unit,
            "window_cycles": self.window_cycles,
            "components": list(self.components),
            "rows": [list(r) for r in self.rows],
            "vmax": self.vmax,
        }


def heatmaps_from_aggregator(
    agg: WindowedAggregator, kinds: Optional[List[str]] = None
) -> List[Heatmap]:
    """Build one :class:`Heatmap` per aggregation kind with data.

    ``link_busy`` sums are divided by the window width so cells read as
    busy fractions; ``token_wait`` and ``buffer_occ`` use per-window
    means; ``vc_stall`` stays a raw count.
    """
    out: List[Heatmap] = []
    for kind in agg.kinds():
        if kinds is not None and kind not in kinds:
            continue
        title, unit, use_mean, per_cycle = _KIND_META.get(
            kind, (kind, "value", False, False)
        )
        components, rows = agg.matrix(kind, mean=use_mean)
        if per_cycle:
            width = float(agg.window_cycles)
            rows = [[min(1.0, v / width) for v in row] for row in rows]
        out.append(
            Heatmap(
                kind=kind,
                title=title,
                unit=unit,
                window_cycles=agg.window_cycles,
                components=components,
                rows=rows,
            )
        )
    return out
