"""Fault-injection scheduling: deterministic campaigns of fault events.

A :class:`FaultCampaign` is an ordered collection of fault events
(:mod:`repro.faults.models`) applied to the network at fixed cycles. The
campaign is fully determined at construction -- either explicitly (tests,
targeted failure scenarios) or drawn from per-link streams keyed on an
integer seed (degradation sweeps), so the same seed always reproduces the
same fault timeline regardless of what the traffic generator draws.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.utils.rng import ScalarStreams, geometric_gap, geometric_log_q

from repro.faults.models import (
    FaultEvent,
    PermanentFault,
    TransientFault,
)

#: Expanded schedule actions: penalty deltas at burst start/end, plus the
#: permanent events verbatim.
_PENALTY = "penalty"


class FaultCampaign:
    """A deterministic, cycle-stamped schedule of fault events.

    Parameters
    ----------
    events:
        Fault events in any order; the campaign expands transient bursts
        into (start, +penalty) / (end, -penalty) actions keyed by cycle.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self.events: List[FaultEvent] = list(events)
        self._actions: Dict[int, List[Tuple]] = {}
        for ev in self.events:
            self._expand(ev)

    def _expand(self, ev: FaultEvent) -> None:
        if ev.at < 0:
            raise ValueError(f"fault event scheduled before cycle 0: {ev!r}")
        if isinstance(ev, TransientFault):
            self._actions.setdefault(ev.at, []).append(
                (_PENALTY, ev.target, ev.snr_penalty_db)
            )
            self._actions.setdefault(ev.at + ev.duration, []).append(
                (_PENALTY, ev.target, -ev.snr_penalty_db)
            )
        else:
            self._actions.setdefault(ev.at, []).append((type(ev).__name__, ev))

    def add(self, ev: FaultEvent) -> None:
        self.events.append(ev)
        self._expand(ev)

    def actions_at(self, cycle: int) -> Optional[List[Tuple]]:
        """Actions taking effect this cycle (``None`` when there are none).

        The fault layer pops entries as it consumes them, so each action
        fires exactly once.
        """
        return self._actions.pop(cycle, None)

    @property
    def is_empty(self) -> bool:
        return not self._actions

    def next_cycle(self, start: int) -> Optional[int]:
        """Earliest cycle >= ``start`` with pending actions, if any.

        The simulator's fast-forward uses this as a wake source so a clock
        skip never jumps over a scheduled fault action.
        """
        future = [c for c in self._actions if c >= start]
        return min(future) if future else None

    def last_cycle(self) -> int:
        """Cycle after which the campaign has no further effect."""
        return max(self._actions) if self._actions else 0

    # ------------------------------------------------------------------ #
    # Generators
    # ------------------------------------------------------------------ #

    @classmethod
    def bursty(
        cls,
        link_names: Sequence[str],
        cycles: int,
        seed: int,
        burst_rate: float,
        burst_duration: int = 50,
        snr_penalty_db: float = 5.0,
        stream_key: object = "campaign",
    ) -> "FaultCampaign":
        """Random interference bursts, Bernoulli per link per cycle.

        Each cycle in ``[0, cycles)``, each named link independently starts
        a burst with probability ``burst_rate``. A link's starts are the
        ticks of a geometric-gap clock (:func:`repro.utils.rng.geometric_gap`)
        on its own stream ``("faults", stream_key, link)`` of ``seed``: about
        ``cycles * burst_rate`` draws per link, no link's schedule depends
        on which other links are listed, and changing the campaign never
        perturbs traffic randomness.
        """
        if not 0.0 <= burst_rate <= 1.0:
            raise ValueError(f"burst_rate must be in [0, 1], got {burst_rate}")
        events: List[FaultEvent] = []
        if burst_rate > 0.0:
            log_q = geometric_log_q(burst_rate)
            streams = ScalarStreams(seed, "faults", stream_key)
            for name in link_names:
                rnd = streams[name]
                at = geometric_gap(rnd, log_q) - 1
                while at < cycles:
                    events.append(
                        TransientFault(
                            at=at,
                            duration=burst_duration,
                            snr_penalty_db=snr_penalty_db,
                            target=name,
                        )
                    )
                    at += geometric_gap(rnd, log_q)
        return cls(events)
