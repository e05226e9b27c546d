"""Bursty traffic (beyond the paper's five patterns).

The paper evaluates synthetic traffic only and defers "real workloads" to
future work. As a step in that direction this module provides
:class:`BurstyTraffic`, per-core two-state Markov-modulated Bernoulli
(ON/OFF) sources, the standard stand-in for bursty application traffic in
the NoC literature. Burstiness is controlled by the burst factor (ON-state
rate over mean rate) and mean burst length; the long-run offered load
matches ``injection_rate`` exactly, so results are comparable with the
uniform Bernoulli runs at the same x-axis point. (Request-reply
application traffic is the ``coherence`` family of :mod:`repro.workloads`.)

It draws whole-network vectors every cycle, so it draws from NumPy streams;
NumPy is imported with the first one (see :mod:`repro.utils.rng`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.traffic.generator import DrawAheadTraffic
from repro.traffic.patterns import TrafficPattern
from repro.utils.rng import RngStreams
from repro.utils.validation import check_positive, check_probability


class BurstyTraffic(DrawAheadTraffic):
    """Markov-modulated (ON/OFF) Bernoulli sources.

    Parameters
    ----------
    n_cores, pattern, injection_rate, packet_size_flits, seed:
        As in :class:`~repro.traffic.generator.SyntheticTraffic`; the
        *long-run* offered load equals ``injection_rate``.
    burst_factor:
        Ratio of the ON-state rate to the mean rate (>= 1). A factor of 1
        degenerates to plain Bernoulli.
    mean_burst_cycles:
        Expected ON-period length; the OFF-period length follows from the
        duty cycle needed to hit the mean rate.
    """

    def __init__(
        self,
        n_cores: int,
        pattern: "TrafficPattern | str",
        injection_rate: float,
        packet_size_flits: int = 4,
        seed: int = 1,
        burst_factor: float = 4.0,
        mean_burst_cycles: float = 20.0,
        stop_cycle: Optional[int] = None,
    ) -> None:
        check_positive("n_cores", n_cores)
        check_probability("injection_rate", injection_rate)
        check_positive("packet_size_flits", packet_size_flits)
        if burst_factor < 1.0:
            raise ValueError(f"burst_factor must be >= 1, got {burst_factor}")
        check_positive("mean_burst_cycles", mean_burst_cycles)
        pattern = TrafficPattern.resolve(pattern, n_cores)
        super().__init__(packet_size_flits, stop_cycle)
        self.n_cores = n_cores
        self.pattern = pattern
        self.injection_rate = injection_rate
        self.burst_factor = burst_factor

        on_rate = min(1.0, injection_rate * burst_factor)
        self._p_start_on = on_rate / packet_size_flits
        duty = injection_rate / on_rate if on_rate > 0 else 0.0
        # Two-state Markov chain: P(stay ON) from the burst length, P(OFF ->
        # ON) from the stationary duty cycle duty = p_on_entry /
        # (p_on_entry + p_on_exit). A duty of 1 (burst_factor 1, or a rate
        # too high to boost) degenerates to always-ON plain Bernoulli.
        if duty >= 1.0:
            self._p_exit_on = 0.0
            self._p_enter_on = 1.0
        else:
            self._p_exit_on = 1.0 / mean_burst_cycles
            self._p_enter_on = min(
                1.0, self._p_exit_on * duty / (1.0 - duty)
            )

        self._rng = RngStreams(seed).get("bursty", pattern.name)
        # Start each source in its stationary state.
        self._on = self._rng.random(n_cores) < duty

    def _draw(self, cycle: int) -> Optional[List[Tuple[int, int]]]:
        """Advance the Markov state and Bernoulli draws by one cycle.

        The ON/OFF state machine flips on every non-stopped cycle, so a
        peek advances it cycle by cycle just as a tick does.
        """
        rng = self._rng
        # State transitions.
        flips = rng.random(self.n_cores)
        turning_off = self._on & (flips < self._p_exit_on)
        turning_on = (~self._on) & (flips < self._p_enter_on)
        self._on ^= turning_off | turning_on
        # ON sources draw at the boosted rate.
        draws = rng.random(self.n_cores)
        sources = (self._on & (draws < self._p_start_on)).nonzero()[0]
        if sources.size == 0:
            return None
        destination = self.pattern.destination
        pairs = []
        for src in sources.tolist():
            dst = destination(src, rng)
            if dst != src:
                pairs.append((src, dst))
        return pairs or None
