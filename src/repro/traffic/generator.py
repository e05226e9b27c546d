"""Open-loop synthetic traffic generation.

Each core is an independent Bernoulli source: every cycle it starts a new
packet with probability ``injection_rate / packet_size_flits`` so that the
*offered load* equals ``injection_rate`` flits/core/cycle -- the x-axis of
the paper's latency/throughput plots (Figs. 7-8).

The per-cycle draw across all cores is vectorised with NumPy (one ``random``
call per cycle) per the hpc-parallel guide's "vectorise the hot loop"
idiom: at 1024 cores this is ~30x faster than per-core Python draws.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.noc.packet import Packet
from repro.traffic.patterns import TrafficPattern
from repro.traffic.trace import TraceTraffic, TrafficTrace
from repro.utils.rng import RngStreams
from repro.utils.validation import check_positive, check_probability


class DrawAheadTraffic:
    """The ``tick`` / ``next_injection_cycle`` pair of every RNG-driven source.

    A subclass supplies ``_draw(cycle)``: consume exactly one cycle's
    randomness and return that cycle's ``(src, dst)`` pairs (``None`` for
    no injection). ``_draw`` is the *only* place a source touches its RNG
    stream, and this class calls it strictly one cycle at a time in dense
    order -- so ticked and peeked cycles interleave into the identical draw
    sequence a dense run performs, and every source fast-forwards.
    """

    def __init__(self, packet_size_flits: int, stop_cycle: Optional[int]) -> None:
        self.packet_size_flits = packet_size_flits
        self.stop_cycle = stop_cycle
        self.packets_generated = 0
        # Last cycle whose randomness has been consumed, and the hits drawn
        # for cycles peeked ahead of the simulator clock.
        self._drawn_until = -1
        self._pending: Dict[int, List[Tuple[int, int]]] = {}

    def _draw(self, cycle: int) -> Optional[List[Tuple[int, int]]]:
        raise NotImplementedError

    def tick(self, now: int) -> List[Packet]:
        """Packets created at cycle ``now``."""
        if self.stop_cycle is not None and now >= self.stop_cycle:
            return []
        if now <= self._drawn_until:
            pairs = self._pending.pop(now, None)
        else:
            # Any gap since the last draw means those cycles were never
            # ticked (paused traffic): neither mode consumes randomness
            # there, so ``_drawn_until`` jumps straight to ``now``.
            self._drawn_until = now
            pairs = self._draw(now)
        if not pairs:
            return []
        packets = [
            Packet(src, dst, self.packet_size_flits, now) for src, dst in pairs
        ]
        self.packets_generated += len(packets)
        return packets

    def next_injection_cycle(self, start: int, limit: int) -> Optional[int]:
        """Earliest cycle in ``[start, limit)`` with an injection, or None.

        Fast-forward wake source: draws the RNG stream forward cycle by
        cycle (caching the hit for the eventual :meth:`tick`), never beyond
        ``limit`` or ``stop_cycle`` -- the horizon the simulator passes in
        is already capped by every other wake source, so no draw happens
        that an equivalent dense run would not also have performed.
        """
        stop = self.stop_cycle
        cycle = start
        while cycle < limit:
            if stop is not None and cycle >= stop:
                return None
            if cycle <= self._drawn_until:
                if cycle in self._pending:
                    return cycle
            else:
                self._drawn_until = cycle
                pairs = self._draw(cycle)
                if pairs:
                    self._pending[cycle] = pairs
                    return cycle
            cycle += 1
        return None


class SyntheticTraffic(DrawAheadTraffic):
    """Bernoulli packet source driving a :class:`repro.noc.simulator.Simulator`.

    Parameters
    ----------
    n_cores:
        Number of traffic sources.
    pattern:
        A :class:`~repro.traffic.patterns.TrafficPattern` (or a name string).
    injection_rate:
        Offered load in flits/core/cycle, in [0, 1].
    packet_size_flits:
        Flits per packet (paper-scale default: 4 flits of 128 bits = 64 B).
    seed:
        Master seed; the generator derives its own independent stream.
    stop_cycle:
        Stop creating packets at this cycle (``None`` = never); used by the
        drain phase of latency measurements.
    """

    def __init__(
        self,
        n_cores: int,
        pattern: "TrafficPattern | str",
        injection_rate: float,
        packet_size_flits: int = 4,
        seed: int = 1,
        stop_cycle: Optional[int] = None,
    ) -> None:
        check_positive("n_cores", n_cores)
        check_probability("injection_rate", injection_rate)
        check_positive("packet_size_flits", packet_size_flits)
        if isinstance(pattern, str):
            pattern = TrafficPattern(pattern, n_cores)
        if pattern.n_cores != n_cores:
            raise ValueError(
                f"pattern sized for {pattern.n_cores} cores, network has {n_cores}"
            )
        super().__init__(packet_size_flits, stop_cycle)
        self.n_cores = n_cores
        self.pattern = pattern
        self.injection_rate = injection_rate
        self._p_start = injection_rate / packet_size_flits
        self._rng = RngStreams(seed).get("traffic", pattern.name)

    def _draw(self, cycle: int) -> Optional[List[Tuple[int, int]]]:
        if self._p_start <= 0.0:
            return None  # a silent source leaves its stream untouched
        draws = self._rng.random(self.n_cores)
        sources = np.nonzero(draws < self._p_start)[0]
        if sources.size == 0:
            return None
        dsts = self.pattern.destinations(sources, self._rng)
        pairs = [
            (src, dst)
            for src, dst in zip(sources.tolist(), dsts.tolist())
            if src != dst  # permutation fixed points / uniform self-draws
        ]
        return pairs or None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SyntheticTraffic({self.pattern.name}, rate={self.injection_rate}, "
            f"size={self.packet_size_flits})"
        )


class ScriptedTraffic(TraceTraffic):
    """Deterministic traffic from an explicit schedule.

    Useful in unit tests: supply ``(cycle, src, dst, size)`` tuples and the
    source replays exactly those packets (same-cycle entries in the order
    given) through :class:`~repro.traffic.trace.TraceTraffic`.
    """

    def __init__(self, schedule: Iterable[tuple]) -> None:
        columns = np.array(list(schedule), dtype=np.int64).reshape(-1, 4).T
        super().__init__(TrafficTrace(*columns))
