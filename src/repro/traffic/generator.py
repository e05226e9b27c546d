"""Open-loop synthetic traffic generation.

Each core is an independent Bernoulli source: every cycle it starts a new
packet with probability ``injection_rate / packet_size_flits`` so that the
*offered load* equals ``injection_rate`` flits/core/cycle -- the x-axis of
the paper's latency/throughput plots (Figs. 7-8).

A Bernoulli(p)-per-cycle source *is* a source whose inter-arrival gaps are
Geometric(p), and :class:`SyntheticTraffic` samples it that way: an
*arrival clock* holds every core's next injection cycle, so a cycle with no
arrival costs one integer compare and the fast-forward peek is a compare
against the earliest entry -- at the low-load end of a sweep, where ~99 %
of cycles have no arrival, nothing is drawn for them at all. The per-cycle
formulation (one ``random(n_cores)`` draw per cycle, hit or not) survives
as the oracle in ``tests/reference.py``; the two are the same process with
a different mapping from seed to sample path, which
``tests/traffic/test_arrival_clock.py`` checks distributionally.

Sources whose per-cycle state genuinely evolves (the ON/OFF chain of
:class:`~repro.traffic.bursty.BurstyTraffic`) keep the per-cycle
:class:`DrawAheadTraffic` pair.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.noc.packet import Packet
from repro.traffic.patterns import TrafficPattern
from repro.traffic.trace import TraceTraffic, TrafficTrace
from repro.utils.rng import RngStreams
from repro.utils.validation import check_positive, check_probability


#: Arrival cycle of a core that will not fire within any run.
_NEVER = 1 << 62


class DrawAheadTraffic:
    """What every RNG-driven source shares, and the per-cycle ``tick`` / peek.

    Owns ``stop_cycle``, ``packets_generated``, :class:`Packet` construction
    and ``_drawn_until`` -- the last cycle accounted for, by a tick or a
    peek; a first look at a later cycle than the next one means the cycles
    between were never shown to the source (paused traffic).

    A subclass supplies ``_draw(cycle)``: consume exactly one cycle's
    randomness and return that cycle's ``(src, dst)`` pairs (``None`` for
    no injection). ``_draw`` is the *only* place such a source touches its
    RNG stream, and this class calls it strictly one cycle at a time in
    cycle order -- so ticked and peeked cycles interleave into the identical
    draw sequence of stepping every cycle, and every source fast-forwards.
    (:class:`SyntheticTraffic` replaces the pair with its arrival clock.)
    """

    def __init__(self, packet_size_flits: int, stop_cycle: Optional[int]) -> None:
        self.packet_size_flits = packet_size_flits
        self.stop_cycle = stop_cycle
        self.packets_generated = 0
        # Last cycle accounted for (ticked, or drawn / vouched for by a
        # peek), and the hits drawn for cycles peeked ahead of the clock.
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
        return self._packets(now, pairs) if pairs else []

    def _packets(self, now: int, pairs: List[Tuple[int, int]]) -> List[Packet]:
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
        that stepping every cycle would not also have performed.
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

    Sampled as an arrival clock: ``_next[core]`` is the cycle of each
    core's next injection. The first gap is ``Geometric(p) - 1`` (a core
    may fire on its very first cycle), every later one ``Geometric(p)``
    drawn when the core fires, with that cycle's destinations drawn first
    and both in ascending-core order. Arrival times therefore do not depend
    on which cycles were ticked and which only peeked, so a fast-forwarded
    run sees the packets of stepping every cycle by construction.

    The clock counts only cycles the source was shown: cycles neither
    ticked nor covered by a peek (a ``drain()`` ... ``resume_traffic()``
    pause, or the life of the simulator before the source was installed)
    push every pending arrival back by their number. That is memoryless,
    consumes no randomness, and is the same in both modes because
    ``Simulator.run`` returns having shown the source every cycle before
    its end, by a tick or by a peek.

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
        pattern = TrafficPattern.resolve(pattern, n_cores)
        super().__init__(packet_size_flits, stop_cycle)
        self.n_cores = n_cores
        self.pattern = pattern
        self.injection_rate = injection_rate
        self._p_start = injection_rate / packet_size_flits
        self._rng = RngStreams(seed).get("traffic", pattern.name)
        if self._p_start > 0.0:
            self._next = self._gaps(n_cores) - 1
            self._next_min = int(self._next.min())
        else:
            # A silent source leaves its stream untouched and never fires.
            self._next = np.full(n_cores, _NEVER)
            self._next_min = _NEVER

    def _gaps(self, count: int) -> np.ndarray:
        # Capped so that ``now + gap`` cannot wrap int64 at rates below ~1e-18.
        return np.minimum(self._rng.geometric(self._p_start, count), _NEVER)

    def _pause(self, cycles: int) -> None:
        """``cycles`` cycles went by unseen: every pending arrival waits them out."""
        self._next += cycles
        self._next_min += cycles

    def tick(self, now: int) -> List[Packet]:
        """Packets created at cycle ``now``."""
        if self.stop_cycle is not None and now >= self.stop_cycle:
            return []
        if now > self._drawn_until:
            unseen = now - self._drawn_until - 1
            self._drawn_until = now
            if unseen:
                self._pause(unseen)
        if now < self._next_min:
            return []
        sources = (self._next == now).nonzero()[0]
        dsts = self.pattern.destinations(sources, self._rng)
        self._next[sources] = now + self._gaps(sources.size)
        self._next_min = int(self._next.min())
        pairs = [
            (src, dst)
            for src, dst in zip(sources.tolist(), dsts.tolist())
            if src != dst  # permutation fixed points / uniform self-draws
        ]
        return self._packets(now, pairs) if pairs else []

    def next_injection_cycle(self, start: int, limit: int) -> Optional[int]:
        """Earliest cycle in ``[start, limit)`` with an injection, or None.

        Fast-forward wake source: a compare against the earliest clock
        entry. Every cycle it vouches for counts as shown to the source.
        """
        if self.stop_cycle is not None and self.stop_cycle < limit:
            limit = self.stop_cycle
        if start > self._drawn_until + 1:
            self._pause(start - self._drawn_until - 1)
            self._drawn_until = start - 1
        cycle = self._next_min
        if cycle < limit:
            self._drawn_until = cycle - 1
            return cycle
        if limit > self._drawn_until:
            self._drawn_until = limit - 1
        return None

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
