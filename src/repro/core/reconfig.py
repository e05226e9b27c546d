"""Adaptive reconfiguration channels (the paper's forward-looking feature).

Table III reserves channels 13-16 as "reconfiguration channels that could
adaptively be utilized to improve performance" (Sec. IV). This module
implements that mechanism for OWN-256:

* The four **D antennas** -- unused by the static Table I plan -- host four
  spare transceivers (one per cluster).
* Spare channels run D_src -> D_dst for an ordered cluster pair; a D
  antenna can drive at most one outgoing and one incoming spare at a time,
  so up to four spare channels are live concurrently.
* A :class:`ReconfigurationController` samples per-channel utilisation over
  fixed epochs and re-assigns the spares to the hottest cluster pairs; the
  routing layer then splits that pair's traffic across the primary gateway
  and the D gateway (packet-id interleaving keeps per-packet ordering
  intact since each packet still uses a single path).

Deadlock safety: a spare path is photonic-ascending -> wireless ->
photonic-descending, exactly like a primary path, so the VC ordering of
:mod:`repro.core.routing` continues to hold.

Two-phase draining re-assignment
--------------------------------
Re-pointing a spare channel is not atomic for the packets already steered
at it: a packet past the ascend decision is committed to the D gateway,
and yanking the channel from under it used to strand the packet there
(the D gateway re-ascent traffic then coupled the two gateways' home
waveguides into a mid-packet token-hold cycle -- an observed watchdog
deadlock under sustained hotspots). Re-assignment is therefore two-phase:

1. **DRAINING** -- the assignment stays installed but
   :meth:`ReconfigurationController.boosted` stops advertising it, so the
   routing layer steers no *new* packets at the D gateway. Packets already
   committed (tracked per-pid via :meth:`track_steer`) keep their path;
   the controller watches the leg's in-flight occupancy every cycle.
2. **Revoke** -- once the leg is empty the channel is re-pointed (and any
   deferred target installs land). A bounded :attr:`drain_timeout` caps
   the wait: on expiry the channel is revoked anyway and the stragglers
   take the *escape path* -- :meth:`note_escape` latches
   ``packet.escaped`` and the routing layer restarts them over the
   primary plan store-and-forward (see
   :meth:`FaultTolerantOwn256Routing.hold_for_full`).

Every phase transition is recorded in :attr:`transitions` (byte-stable
canonical JSON, CRC-gated by :func:`canonical_crc`) and mirrored into the
decision log of a recovering :class:`~repro.faults.HealthMonitor` when one
rides on this controller.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.noc.links import Link
from repro.noc.network import Network

#: Number of spare (reconfiguration) channels: Table III rows 13-16.
N_SPARE_CHANNELS = 4

#: Assignment phases (two-phase draining re-assignment).
PHASE_ACTIVE = "active"
PHASE_DRAINING = "draining"

#: Default bound on how long a revoked spare may sit in DRAINING before the
#: channel is re-pointed anyway and stragglers take the escape path.
DEFAULT_DRAIN_TIMEOUT = 1_000

Pair = Tuple[int, int]


def epoch_wake(now: int, epoch_cycles: int) -> int:
    """The first epoch boundary at or after ``now`` (cycle 0 is none).

    The ``next_wake`` of an epoch hook: the clock may fast-forward over
    quiescent stretches but steps every boundary the hook acts on.
    """
    if now <= 0:
        return epoch_cycles
    return -(-now // epoch_cycles) * epoch_cycles


def canonical_crc(records: List[Dict[str, object]]) -> int:
    """CRC-32 of the canonical JSON (sorted keys, no whitespace) of a log
    of JSON-safe records: any reordered, added, dropped or altered record
    changes it."""
    return zlib.crc32(json.dumps(records, sort_keys=True, separators=(",", ":")).encode())


@dataclass
class SpareAssignment:
    """One live spare channel: which pair it boosts and its link.

    ``phase`` is :data:`PHASE_ACTIVE` while the assignment accepts new
    packets and :data:`PHASE_DRAINING` once it has been retired but still
    carries committed in-flight packets; ``drain_from`` is the cycle the
    drain began (``-1`` while active).
    """

    pair: Pair
    channel_index: int
    link: Link
    phase: str = PHASE_ACTIVE
    drain_from: int = -1


class ReconfigurationController:
    """Epoch-based manager of the four spare wireless channels.

    Parameters
    ----------
    network:
        An OWN-256 network built with ``with_reconfiguration=True`` (the
        builder pre-creates the 12 candidate D->D spare links; only the
        assigned subset is routed onto).
    spare_links:
        Ordered map ``(src_cluster, dst_cluster) -> Link`` of candidates.
    primary_links:
        ``(src_cluster, dst_cluster) -> Link`` of the Table I channels,
        whose per-epoch utilisation drives placement.
    epoch_cycles:
        Utilisation sampling window.
    drain_timeout:
        Upper bound (cycles) on the DRAINING phase of a retired spare.
    """

    def __init__(
        self,
        network: Network,
        spare_links: Dict[Pair, Link],
        primary_links: Dict[Pair, Link],
        epoch_cycles: int = 500,
        drain_timeout: int = DEFAULT_DRAIN_TIMEOUT,
    ) -> None:
        if epoch_cycles < 1:
            raise ValueError(f"epoch_cycles must be >= 1, got {epoch_cycles}")
        if drain_timeout < 1:
            raise ValueError(f"drain_timeout must be >= 1, got {drain_timeout}")
        self.network = network
        self.spare_links = spare_links
        self.primary_links = primary_links
        self.epoch_cycles = epoch_cycles
        self.drain_timeout = drain_timeout
        self.assignments: Dict[Pair, SpareAssignment] = {}
        #: Pairs permanently holding a spare (failover; see :meth:`pin`).
        #: Assigned before utilisation-ranked candidates on every epoch.
        self.pinned: List[Pair] = []
        self._last_counts: Dict[Pair, int] = {pair: 0 for pair in primary_links}
        self.epochs = 0
        self.reassignments = 0
        # --- drain state machine ------------------------------------- #
        #: Wanted placement from the last :meth:`reassign`; pairs blocked
        #: by a draining antenna install as soon as the drain completes.
        self._target: List[Pair] = []
        #: Committed in-flight packets: pid -> pair it was steered for.
        self._pid_pair: Dict[int, Pair] = {}
        #: Per-pair committed-packet count (the drain occupancy signal).
        self._leg_load: Dict[Pair, int] = {}
        #: Number of assignments currently in DRAINING (cheap per-cycle guard).
        self._n_draining = 0
        #: Clock as of the last end-of-cycle hook invocation.
        self._now = 0
        self.drains_started = 0
        self.drains_completed = 0
        self.drain_timeouts = 0
        #: Committed packets forced onto the escape path (revocation beat
        #: them to the D gateway).
        self.escapes = 0
        #: Byte-stable phase-transition records (dicts of JSON-safe values).
        self.transitions: List[Dict[str, object]] = []
        #: Optional observer called with each transition record -- a
        #: recovering :class:`~repro.faults.HealthMonitor` uses this to
        #: mirror drain transitions into its decision log.
        self.on_transition: Optional[Callable[[Dict[str, object]], None]] = None
        #: Routing-layer callback flushing cached-but-uncommitted route
        #: decisions (wired by ``Own256Routing.attach_reconfiguration``).
        #: Every phase transition except ``escape`` changes which paths
        #: route computation may pick, so heads parked on a stale decision
        #: must re-route; see ``invalidate_pending_routes``.
        self.invalidate_routes: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------ #

    def utilisation_last_epoch(self) -> Dict[Pair, int]:
        """Flits carried per primary channel during the last epoch."""
        out = {}
        for pair, link in self.primary_links.items():
            out[pair] = link.flits_carried - self._last_counts[pair]
        return out

    def _feasible(self, chosen: List[Pair], pair: Pair) -> bool:
        """D-antenna constraint: one outgoing + one incoming spare per
        cluster."""
        src, dst = pair
        for (s, d) in chosen:
            if s == src or d == dst:
                return False
        return True

    def pin(self, pair: Pair) -> None:
        """Permanently dedicate a spare channel to ``pair`` (failover).

        Pinned pairs take precedence over utilisation-ranked candidates on
        every reassignment, and the spare is installed immediately rather
        than waiting for the next epoch boundary -- the health monitor
        calls this when a primary channel dies mid-run. If the needed D
        antenna is still draining a retired assignment, the install is
        deferred until that drain completes (bounded by
        :attr:`drain_timeout`); relay routes cover the pair meanwhile.

        Raises
        ------
        ValueError
            If ``pair`` has no spare link or the D-antenna constraint
            (one outgoing + one incoming spare per cluster) cannot be met
            against already pinned pairs.
        """
        if pair in self.pinned:
            return
        if pair not in self.spare_links:
            raise ValueError(f"no spare D->D link for cluster pair {pair}")
        if not self._feasible(self.pinned, pair):
            raise ValueError(
                f"pinning {pair} violates the D-antenna constraint against "
                f"pinned pairs {self.pinned}"
            )
        self.pinned.append(pair)
        self.reassign()

    def unpin(self, pair: Pair) -> bool:
        """Release a failover pin (the pair's channel recovered).

        Returns ``True`` when the pair was pinned. The freed spare goes
        back into the placement pool on the immediate reassign; if packets
        are still committed to it the assignment drains first instead of
        being revoked under them.
        """
        if pair not in self.pinned:
            return False
        self.pinned.remove(pair)
        self.reassign()
        return True

    # ---------------- in-flight commitment tracking ---------------- #

    def occupancy(self, pair: Pair) -> int:
        """Packets committed to ``pair``'s spare leg and not yet home."""
        return self._leg_load.get(pair, 0)

    def committed_pair(self, pid: int) -> Optional[Pair]:
        """The spare pair packet ``pid`` is committed to, if any."""
        return self._pid_pair.get(pid)

    def track_steer(self, pid: int, pair: Pair) -> None:
        """Record that packet ``pid`` was steered onto ``pair``'s spare.

        Called by the routing layer at the ascend decision; idempotent
        (route computation may be re-run for a held packet).
        """
        if pid not in self._pid_pair:
            self._pid_pair[pid] = pair
            self._leg_load[pair] = self._leg_load.get(pair, 0) + 1

    def note_arrival(self, pid: int, cluster: int) -> None:
        """A tracked packet reached cluster ``cluster``: release its leg."""
        pair = self._pid_pair.get(pid)
        if pair is not None and pair[1] == cluster:
            del self._pid_pair[pid]
            self._leg_load[pair] -= 1

    def note_escape(self, pid: int, packet=None) -> None:
        """A committed packet lost its spare before crossing: escape path.

        Untracks the packet, latches ``packet.escaped`` (so it is never
        steered onto a spare again and restarts store-and-forward), and
        records the activation. Idempotent on untracked pids.
        """
        pair = self._pid_pair.pop(pid, None)
        if pair is None:
            return
        self._leg_load[pair] -= 1
        self.escapes += 1
        if packet is not None:
            packet.escaped = True
        self._emit("escape", pair, pid=pid)

    # ---------------- placement ---------------- #

    def _emit(self, event: str, pair: Pair, **detail) -> None:
        record: Dict[str, object] = {
            "cycle": self._now,
            "event": event,
            "pair": list(pair),
        }
        record.update(detail)
        self.transitions.append(record)
        if self.on_transition is not None:
            self.on_transition(record)
        if event != "escape" and self.invalidate_routes is not None:
            # Spare install/retire/revoke changes the route set; flush
            # heads still waiting on a VC so they re-route against the
            # new state ("escape" affects a single already-tracked packet
            # and is emitted mid-route-computation, so it is exempt).
            self.invalidate_routes()

    def _active_pairs(self) -> frozenset:
        return frozenset(
            pair
            for pair, a in self.assignments.items()
            if a.phase == PHASE_ACTIVE
        )

    def _revoke(self, a: SpareAssignment, event: str, **detail) -> None:
        del self.assignments[a.pair]
        a.link.channel_id = None  # back to an inert candidate
        self._emit(event, a.pair, channel=a.channel_index, **detail)

    def _retire(self, a: SpareAssignment) -> None:
        """Take an active assignment out of service (phase 1)."""
        if self.occupancy(a.pair) == 0:
            self._revoke(a, "revoke")  # leg already empty: re-point now
            return
        a.phase = PHASE_DRAINING
        a.drain_from = self._now
        self._n_draining += 1
        self.drains_started += 1
        self._emit(
            "drain_start",
            a.pair,
            channel=a.channel_index,
            in_flight=self.occupancy(a.pair),
        )

    def _advance_drains(self) -> bool:
        """Complete empty / timed-out drains. Returns True when any ended."""
        if not self._n_draining:
            return False
        ended = False
        for pair in sorted(self.assignments):
            a = self.assignments[pair]
            if a.phase != PHASE_DRAINING:
                continue
            waited = self._now - a.drain_from
            if self.occupancy(pair) == 0:
                self._n_draining -= 1
                self.drains_completed += 1
                self._revoke(a, "drain_complete", cycles=waited)
                ended = True
            elif waited >= self.drain_timeout:
                # Bounded wait expired: re-point anyway. Committed
                # stragglers stay tracked and resolve through
                # note_escape/note_arrival as they reach the D gateway or
                # their destination cluster.
                self._n_draining -= 1
                self.drain_timeouts += 1
                self._revoke(
                    a, "drain_timeout", cycles=waited,
                    in_flight=self.occupancy(pair),
                )
                ended = True
        return ended

    def _install_target(self) -> None:
        """Install wanted pairs into free antenna slots (phase 2)."""
        for pair in self._target:
            if pair in self.assignments:
                continue
            if len(self.assignments) >= N_SPARE_CHANNELS:
                break
            # Draining assignments still hold their D antennas, so a
            # blocked install simply waits for _advance_drains to free it.
            if not self._feasible(list(self.assignments), pair):
                continue
            used = {a.channel_index for a in self.assignments.values()}
            channel_index = min(
                i for i in range(13, 13 + N_SPARE_CHANNELS) if i not in used
            )
            link = self.spare_links[pair]
            link.channel_id = channel_index
            self.assignments[pair] = SpareAssignment(pair, channel_index, link)
            self._emit("install", pair, channel=channel_index)

    def reassign(self) -> None:
        """Give the spares to the hottest cluster pairs (greedy, feasible).

        Pinned (failover) pairs are assigned first, unconditionally, then
        the primary channels that carried the most flits since the last
        reassign.

        Re-assignment is two-phase: an active assignment that falls out of
        the target set is revoked immediately only when its leg carries no
        committed packets; otherwise it enters DRAINING (new packets stop
        steering at it via :meth:`boosted`) and the channel is re-pointed
        by :meth:`_advance_drains` once the leg empties or
        :attr:`drain_timeout` expires. A draining pair re-selected by the
        target is resurrected in place.
        """
        usage = self.utilisation_last_epoch()
        ranked = sorted(usage.items(), key=lambda kv: kv[1], reverse=True)
        chosen: List[Pair] = list(self.pinned)
        for pair, flits in ranked:
            if flits == 0 or len(chosen) >= N_SPARE_CHANNELS:
                break
            if pair not in chosen and self._feasible(chosen, pair):
                chosen.append(pair)
        before_active = self._active_pairs()
        self._target = chosen
        for pair in sorted(self.assignments):
            a = self.assignments[pair]
            if pair in self._target:
                if a.phase == PHASE_DRAINING:
                    # Re-chosen before the drain finished: resurrect.
                    a.phase = PHASE_ACTIVE
                    a.drain_from = -1
                    self._n_draining -= 1
                    self._emit("drain_cancel", pair, channel=a.channel_index)
            elif a.phase == PHASE_ACTIVE:
                self._retire(a)
        self._advance_drains()
        self._install_target()
        if self._active_pairs() != before_active:
            self.reassignments += 1
        # Snapshot counters for the next epoch.
        for pair, link in self.primary_links.items():
            self._last_counts[pair] = link.flits_carried

    # ------------------------------------------------------------------ #

    def __call__(self, sim) -> None:
        """Simulator end-of-cycle hook.

        Epoch boundaries trigger :meth:`reassign`; while any assignment is
        draining, every stepped cycle also advances the drain state machine
        so the channel is re-pointed the moment its leg empties (or the
        timeout expires), not at the next epoch boundary.
        """
        now = sim.now
        self._now = now
        if self._n_draining:
            before_active = self._active_pairs()
            if self._advance_drains():
                self._install_target()
                if self._active_pairs() != before_active:
                    self.reassignments += 1
        if now > 0 and now % self.epoch_cycles == 0:
            self.epochs += 1
            self.reassign()

    def next_wake(self, now: int) -> int:
        """Next epoch boundary (a scheduled fast-forward wake source).

        The clock may skip quiescent stretches but must step every epoch
        boundary, where :meth:`__call__` acts. While a drain is in progress
        the controller wakes every cycle, so drain completion/timeout
        checks run stepping every cycle (in
        practice a draining leg has buffered flits and the network is not
        quiescent anyway; this keeps the guarantee explicit).
        """
        if self._n_draining:
            return now + 1
        return epoch_wake(now, self.epoch_cycles)

    def boosted(self, src_cluster: int, dst_cluster: int) -> Optional[SpareAssignment]:
        """The ACTIVE assignment for a pair -- the steer-new-packets API.

        Draining assignments are deliberately invisible here: that is the
        mechanism by which phase 1 stops new traffic at the old spare.
        Use :meth:`assignment_for` for the committed-continuation view.
        """
        a = self.assignments.get((src_cluster, dst_cluster))
        if a is not None and a.phase == PHASE_ACTIVE:
            return a
        return None

    def steerable(self, src_cluster: int, dst_cluster: int) -> bool:
        """May *new* packets still be steered onto this pair's spare?"""
        return self.boosted(src_cluster, dst_cluster) is not None

    def assignment_for(self, pair: Pair) -> Optional[SpareAssignment]:
        """Active *or draining* assignment: committed packets may finish
        crossing a draining spare even though new packets no longer may."""
        return self.assignments.get(pair)

    def summary(self) -> Dict[str, object]:
        draining = sorted(
            pair
            for pair, a in self.assignments.items()
            if a.phase == PHASE_DRAINING
        )
        return {
            "epochs": self.epochs,
            "reassignments": self.reassignments,
            "active_pairs": sorted(self._active_pairs()),
            "draining_pairs": draining,
            "pinned_pairs": list(self.pinned),
            "spare_flits": sum(
                a.link.flits_carried for a in self.assignments.values()
            ),
            "drains_started": self.drains_started,
            "drains_completed": self.drains_completed,
            "drain_timeouts": self.drain_timeouts,
            "escapes": self.escapes,
            "in_flight": len(self._pid_pair),
            "drain_state": [
                {
                    "pair": list(pair),
                    "phase": a.phase,
                    "cycles_in_drain": (
                        self._now - a.drain_from
                        if a.phase == PHASE_DRAINING
                        else 0
                    ),
                    "in_flight": self.occupancy(pair),
                }
                for pair, a in sorted(self.assignments.items())
            ],
        }

    def summary_metrics(self) -> Dict[str, float]:
        """Flat metrics folded into run summaries (diff-gateable)."""
        return {
            "spare_drains_started": float(self.drains_started),
            "spare_drains_completed": float(self.drains_completed),
            "spare_drain_timeouts": float(self.drain_timeouts),
            "spare_escapes": float(self.escapes),
            "drain_log_crc": float(canonical_crc(self.transitions)),
        }

    def meta_payload(self) -> Dict[str, object]:
        """Drain state machine + transition log for ``RunResult.meta``."""
        return {
            "summary": self.summary(),
            "transitions": [dict(t) for t in self.transitions],
        }


def validate_spare_topology(spare_links: Dict[Pair, Link]) -> None:
    """Sanity checks the builder output: 12 ordered pairs, all wireless."""
    pairs = {(s, d) for s in range(4) for d in range(4) if s != d}
    if set(spare_links) != pairs:
        raise ValueError(
            f"spare links must cover all 12 ordered cluster pairs, got "
            f"{sorted(spare_links)}"
        )
    for link in spare_links.values():
        if link.kind != "wireless":
            raise ValueError(f"spare link {link.name} is not wireless")
