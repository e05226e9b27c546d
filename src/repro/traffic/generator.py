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

A firing core draws two scalars (its destination and its next gap), so
the clock draws them from the stdlib ``random`` (a C call each) rather
than NumPy (microseconds of dispatch per call), and a plain synthetic run
never imports NumPy. Sources
whose per-cycle state genuinely evolves (the ON/OFF chain of
:class:`~repro.traffic.bursty.BurstyTraffic`) keep the per-cycle
:class:`DrawAheadTraffic` pair and draw vectors from NumPy, imported on
first use.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Tuple

from repro.noc.packet import Packet
from repro.traffic.patterns import TrafficPattern
from repro.traffic.trace import TraceTraffic, TrafficTrace
from repro.utils.rng import NEVER, derive_seed, geometric_gap, geometric_log_q
from repro.utils.validation import check_positive, check_probability


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

    Sampled as an arrival clock: ``_calendar`` maps a cycle to the cores
    whose next injection falls on it, and the heap ``_heap`` holds those
    cycles. The first gap is ``Geometric(p) - 1`` (a core may fire on its
    very first cycle), every later one ``Geometric(p)`` drawn when the core
    fires. A firing cycle serves its cores in ascending order, each drawing
    its destination and then its next gap. Arrival times therefore do not
    depend on which cycles were ticked and which only peeked, so a
    fast-forwarded run sees the packets of stepping every cycle by
    construction.

    All draws are scalars from a stdlib ``random.Random`` seeded with
    ``derive_seed(seed, "traffic", pattern.name)``, the stream key every
    architecture shares, so two networks offered the same ``(pattern,
    rate, seed)`` see the same packets (common random numbers). A gap is
    ``Geometric(p)`` by inversion of one ``random()``; a destination is one
    more (:meth:`TrafficPattern.destination`), or none for a permutation.

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
        p = injection_rate / packet_size_flits
        self._rng = random.Random(derive_seed(seed, "traffic", pattern.name))
        self._log_q = geometric_log_q(p)
        calendar: Dict[int, List[int]] = {}
        if p > 0.0:
            # A silent source leaves its stream untouched and never fires.
            for core in range(n_cores):
                calendar.setdefault(self._gap() - 1, []).append(core)
        self._calendar = calendar
        self._heap = list(calendar)
        heapify(self._heap)

    def _gap(self) -> int:
        """One ``Geometric(p)`` inter-arrival gap."""
        return geometric_gap(self._rng, self._log_q)

    def _pause(self, cycles: int) -> None:
        """``cycles`` cycles went by unseen: every pending arrival waits them out."""
        self._calendar = {at + cycles: cores for at, cores in self._calendar.items()}
        # Adding a constant keeps the heap ordered.
        self._heap = [at + cycles for at in self._heap]

    def tick(self, now: int) -> List[Packet]:
        """Packets created at cycle ``now``."""
        if self.stop_cycle is not None and now >= self.stop_cycle:
            return []
        if now > self._drawn_until:
            unseen = now - self._drawn_until - 1
            self._drawn_until = now
            if unseen:
                self._pause(unseen)
        heap = self._heap
        if not heap or heap[0] > now:
            return []
        calendar = self._calendar
        cores = calendar.pop(heappop(heap))
        cores.sort()
        destination = self.pattern.destination
        rng = self._rng
        pairs = []
        for src in cores:
            dst = destination(src, rng)
            if dst != src:  # permutation fixed points / uniform self-draws
                pairs.append((src, dst))
            at = now + self._gap()
            later = calendar.get(at)
            if later is None:
                calendar[at] = [src]
                heappush(heap, at)
            else:
                later.append(src)
        return self._packets(now, pairs) if pairs else []

    def next_injection_cycle(self, start: int, limit: int) -> Optional[int]:
        """Earliest cycle in ``[start, limit)`` with an injection, or None.

        Fast-forward wake source: a compare against the calendar's earliest
        entry. Every cycle it vouches for counts as shown to the source.
        """
        if self.stop_cycle is not None and self.stop_cycle < limit:
            limit = self.stop_cycle
        if start > self._drawn_until + 1:
            self._pause(start - self._drawn_until - 1)
            self._drawn_until = start - 1
        cycle = self._heap[0] if self._heap else NEVER
        if cycle < limit:
            self._drawn_until = cycle - 1
            return cycle
        if limit > self._drawn_until:
            self._drawn_until = limit - 1
        return None


class ScriptedTraffic(TraceTraffic):
    """Deterministic traffic from an explicit schedule.

    Useful in unit tests: supply ``(cycle, src, dst, size)`` tuples and the
    source replays exactly those packets (same-cycle entries in the order
    given) through :class:`~repro.traffic.trace.TraceTraffic`.
    """

    def __init__(self, schedule: Iterable[tuple]) -> None:
        import numpy as np

        columns = np.array(list(schedule), dtype=np.int64).reshape(-1, 4).T
        super().__init__(TrafficTrace(*columns))
