"""Mixed and adversarial workload blends.

Real chips never run one clean pattern: a latency-critical microservice
shares the fabric with a background batch job, or a collective's barrier
lands exactly when a bursty phase peaks. :class:`BlendWorkload` merges
the traces of any component workloads and can layer a Markov-modulated
background on top -- recorded from :class:`repro.traffic.bursty.
BurstyTraffic` through the standard ``TrafficTrace.record`` path, so the
background's statistics are exactly those of the existing bursty
generator at the same knobs.

The ``adversarial`` preset aims that background at the blend's own hot
cores (hotspot pattern over the busiest destinations of the foreground
trace), producing the worst-case interference mix the fault/control
studies want to stress.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.traffic.bursty import BurstyTraffic
from repro.traffic.patterns import TrafficPattern
from repro.traffic.trace import TrafficTrace
from repro.utils.validation import check_probability
from repro.workloads.base import WorkloadModel

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def merge_traces(traces: Sequence[TrafficTrace]) -> TrafficTrace:
    """Concatenate traces into one schedule.

    Within a cycle, packets keep component order (trace 0's packets
    first): the stable sort in :class:`TrafficTrace` preserves
    concatenation order, so merging is deterministic.
    """
    if not traces:
        raise ValueError("need at least one trace to merge")
    import numpy as np

    return TrafficTrace(
        np.concatenate([t.cycles for t in traces]),
        np.concatenate([t.srcs for t in traces]),
        np.concatenate([t.dsts for t in traces]),
        np.concatenate([t.sizes for t in traces]),
    )


class BlendWorkload(WorkloadModel):
    """Foreground application models + optional bursty background.

    Parameters
    ----------
    components:
        The foreground :class:`~repro.workloads.base.WorkloadModel`
        instances. Their own durations/seeds stand; the blend's
        ``duration`` only bounds the background and the merged horizon.
    background_rate:
        Mean offered load of the bursty background (0 disables it).
    background_burst_factor / background_burst_cycles:
        Burstiness knobs forwarded to :class:`BurstyTraffic`.
    adversarial:
        Aim the background at the foreground's hottest destinations
        (hotspot pattern over the top ``n_hotspots`` destination cores)
        instead of uniform -- interference lands exactly where the
        application already queues.
    n_hotspots:
        Hot-core count for the adversarial background.
    """

    name = "blend"

    def __init__(
        self,
        components: Sequence[WorkloadModel],
        duration: int = 2000,
        seed: int = 1,
        background_rate: float = 0.0,
        background_burst_factor: float = 4.0,
        background_burst_cycles: float = 20.0,
        adversarial: bool = False,
        n_hotspots: int = 4,
    ) -> None:
        super().__init__(duration=duration, seed=seed)
        if not components:
            raise ValueError("a blend needs at least one component workload")
        check_probability("background_rate", background_rate)
        self.components: List[WorkloadModel] = list(components)
        self.background_rate = float(background_rate)
        self.background_burst_factor = float(background_burst_factor)
        self.background_burst_cycles = float(background_burst_cycles)
        self.adversarial = bool(adversarial)
        self.n_hotspots = int(n_hotspots)

    # ------------------------------------------------------------------ #

    @staticmethod
    def hot_destinations(trace: TrafficTrace, n: int) -> List[int]:
        """The ``n`` most-targeted destination cores of a trace (by flits),
        ties broken by core id for determinism."""
        if len(trace) == 0:
            return []
        import numpy as np

        flits = np.bincount(trace.dsts, weights=trace.sizes.astype(np.float64))
        order = np.lexsort((np.arange(flits.size), -flits))
        return [int(c) for c in order[:n] if flits[c] > 0]

    def _background(
        self, n_cores: int, hotspots: Optional[List[int]]
    ) -> Optional[TrafficTrace]:
        if self.background_rate <= 0.0:
            return None
        if hotspots:
            pattern = TrafficPattern(
                "HOT", n_cores, hotspot_fraction=0.6, hotspots=hotspots
            )
        else:
            pattern = TrafficPattern("UN", n_cores)
        source = BurstyTraffic(
            n_cores,
            pattern,
            self.background_rate,
            packet_size_flits=4,
            seed=int(self.rng("background").integers(0, 2**31 - 1)),
            burst_factor=self.background_burst_factor,
            mean_burst_cycles=self.background_burst_cycles,
        )
        return TrafficTrace.record(source, cycles=self.duration)

    def trace(self, n_cores: int) -> TrafficTrace:
        foreground = merge_traces([c.trace(n_cores) for c in self.components])
        hotspots = (
            self.hot_destinations(foreground, self.n_hotspots)
            if self.adversarial
            else None
        )
        background = self._background(n_cores, hotspots)
        parts = [foreground] + ([background] if background is not None else [])
        merged = merge_traces(parts)
        # Clip to the blend horizon (components may run longer).
        keep = merged.cycles < self.duration
        out = TrafficTrace(
            merged.cycles[keep], merged.srcs[keep], merged.dsts[keep],
            merged.sizes[keep],
        )
        out.validate(n_cores)
        return out
