"""Link-layer CRC + ACK/NACK retransmission over faulty channels.

The :class:`FaultLayer` sits between the cycle loop and the wireless /
photonic links. It plays three roles:

* **injection** -- applies the :class:`~repro.faults.campaign.FaultCampaign`
  schedule to per-link :class:`~repro.faults.models.LinkFaultState`, and
  samples each transmission attempt's CRC outcome
  from the link's effective OOK error probability, on the link's own
  ``("linklayer", link)`` stream of the layer's seed;
* **protocol** -- tracks every packet sent over a protected link in a
  bounded replay buffer until the receiver's ACK retires it; a NACK
  (CRC failure) or timeout (dead transceiver: no reply at all) schedules a
  retransmission with exponential backoff;
* **recovery** -- when the health monitor retires a channel
  (``state.failed_over``), packets stranded in the replay/retransmit
  machinery are re-injected at the sender-side router's network interface
  so they re-route over the surviving paths (no packet is ever lost).

Corruption model: an attempt's CRC outcome is decided once, at head-flit
send time, and every flit of the attempt shares the fate. Under virtual
cut-through a downstream router may forward early flits before the tail's
CRC could be checked, so per-flit sampling would let corrupt packets leak
past the link layer; deciding per *attempt* is statistically identical for
a packet-level CRC (P[any bit of the packet flips]) and keeps corrupt data
out of downstream buffers entirely. Receivers discard fated flits at
delivery (returning the buffer credit immediately), so timing and credit
accounting stay exact.

Transparency guarantee: on a fault-free run (empty campaign) no link ever
has a positive error probability, so no RNG is consumed, no ACK ever turns
into a NACK, and the retransmit engine never activates -- the simulator
reproduces unprotected latency/throughput numbers bit-exactly.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.noc.links import Link, PHOTONIC, WIRELESS
from repro.utils.rng import ScalarStreams

from repro.faults.campaign import FaultCampaign
from repro.faults.models import CORRUPT, LOST, LinkFaultState, Target


def _link_name(link: Link) -> str:
    return link.name

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.packet import Packet
    from repro.noc.simulator import Simulator

#: Event tag used in the simulator's event queue for ACK/NACK arrivals.
ACK_EVENT = "llack"


@dataclass(frozen=True)
class LinkLayerConfig:
    """Protocol parameters for the link-layer retransmission engine.

    Attributes
    ----------
    replay_capacity:
        Outstanding (sent, not yet acknowledged) packets a sender buffers
        per link. When full, the link back-pressures new packets.
    ack_latency:
        Reverse-channel cycles for an ACK/NACK to reach the sender after
        the tail flit arrives.
    timeout:
        Cycles after the tail flit is sent before the sender presumes the
        attempt lost. Must exceed the ACK round trip of every protected
        link (validated at install), otherwise a slow ACK would race its
        own timeout and duplicate the packet.
    backoff_base, backoff_cap:
        Retransmission delay is ``min(cap, base * 2**(attempts-1))``.
    max_retries:
        Attempts before the sender gives up on the link and escalates to
        network-layer recovery (re-injection, which re-routes).
    protect_kinds:
        Link kinds the protocol covers; electrical mesh links are assumed
        reliable (as in the paper).
    """

    replay_capacity: int = 8
    ack_latency: int = 1
    timeout: int = 64
    backoff_base: int = 4
    backoff_cap: int = 64
    max_retries: int = 16
    protect_kinds: Tuple[str, ...] = (WIRELESS, PHOTONIC)

    def __post_init__(self) -> None:
        if self.replay_capacity < 1:
            raise ValueError("replay_capacity must be >= 1")
        if self.ack_latency < 1:
            raise ValueError("ack_latency must be >= 1")
        if self.backoff_base < 1 or self.backoff_cap < self.backoff_base:
            raise ValueError("need 1 <= backoff_base <= backoff_cap")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")


class _ReplayEntry:
    """A sent-but-unacknowledged packet in a link's replay buffer."""

    __slots__ = ("packet", "attempts", "deadline", "fate")

    def __init__(self, packet: "Packet", attempts: int, deadline: int,
                 fate: Optional[str]) -> None:
        self.packet = packet
        self.attempts = attempts
        self.deadline = deadline
        self.fate = fate


class _RetxJob:
    """A packet queued for retransmission (after NACK/timeout + backoff)."""

    __slots__ = ("packet", "attempts", "not_before")

    def __init__(self, packet: "Packet", attempts: int, not_before: int) -> None:
        self.packet = packet
        self.attempts = attempts
        self.not_before = not_before


class _CurrentTx:
    """An in-progress engine retransmission (one flit serialised per cycle;
    ``idx`` is the position of the next flit to send)."""

    __slots__ = ("packet", "idx", "endpoint", "out_vc", "attempts")

    def __init__(self, packet: "Packet", endpoint, out_vc: int,
                 attempts: int) -> None:
        self.packet = packet
        self.idx = 0
        self.endpoint = endpoint
        self.out_vc = out_vc
        self.attempts = attempts


class FaultLayer:
    """Fault injection + link-layer retransmission for one simulation.

    Usage::

        layer = FaultLayer(network, campaign=campaign, seed=seed)
        sim = Simulator(network, traffic=..., faults=layer)

    Parameters
    ----------
    network:
        The finalized network whose wireless/photonic links to protect.
    campaign:
        Fault schedule; ``None`` or an empty campaign means the protocol
        runs transparently (see module docstring).
    config:
        Protocol parameters.
    seed:
        Master seed of the CRC-outcome draws: each link samples from its
        own ``random.Random`` on stream ``("linklayer", link.name)``, so a
        link's outcomes never depend on another link's traffic.
    """

    def __init__(
        self,
        network,
        campaign: Optional[FaultCampaign] = None,
        config: Optional[LinkLayerConfig] = None,
        seed: int = 0,
    ) -> None:
        self.network = network
        self.campaign = campaign
        self.config = config or LinkLayerConfig()
        self._rngs = ScalarStreams(seed, "linklayer")
        self.sim: Optional["Simulator"] = None
        self._tracer = None  # set at install() from the simulator
        self._flit_bits = network.flit_width_bits

        #: Protected links and their health state (also set as link.fault).
        self.protected: Dict[Link, LinkFaultState] = {}
        self._by_name: Dict[str, Link] = {}
        for link in network.links:
            if link.kind in self.config.protect_kinds:
                state = LinkFaultState()
                link.fault = state
                self.protected[link] = state
                self._by_name[link.name] = link

        # Protocol state, all keyed per link:
        self._in_transit: Dict[Tuple[int, int], Optional[str]] = {}
        self._attempt_no: Dict[Tuple[int, int], int] = {}
        self._replay: Dict[Link, "OrderedDict[int, _ReplayEntry]"] = {}
        self._retx: Dict[Link, Deque[_RetxJob]] = {}
        self._current: Dict[Link, _CurrentTx] = {}
        #: Links serviced every cycle: an engine retransmission in flight,
        #: a queued retransmission, a full replay buffer (its back-pressure
        #: stall re-arms every cycle), or a link quiesced since the last tick.
        self._active: Set[Link] = set()
        #: Links holding only un-ACKed replay entries are serviced at their
        #: deadlines instead: slot ``d % (timeout + 1)`` lists the (link,
        #: entry) pairs due at cycle ``d`` (the timeout is a constant delay).
        self._deadlines: List[list] = [[] for _ in range(self.config.timeout + 1)]
        self._outstanding = 0  # replay entries on all links
        #: Links with an attempt, NACK or timeout since the health monitor
        #: last looked (it clears the set).
        self.marked: Set[Link] = set()
        self._reentry: Dict[int, int] = {}  # rid -> a core attached there

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def install(self, sim: "Simulator") -> None:
        """Attach to a simulator (called by ``Simulator.__init__``)."""
        self.sim = sim
        self._tracer = sim._tracer
        cfg = self.config
        for link in self.protected:
            rtt = link.latency + cfg.ack_latency
            if cfg.timeout <= rtt:
                raise ValueError(
                    f"timeout {cfg.timeout} must exceed the ACK round trip "
                    f"{rtt} of protected link {link.name}; a slow ACK would "
                    f"race its own timeout and duplicate the packet"
                )

    # ------------------------------------------------------------------ #
    # Send-path tap (called from Simulator._send_fn on protected links)
    # ------------------------------------------------------------------ #

    def note_send(self, link: Link, packet: "Packet", seq: int, is_tail: bool,
                  now: int) -> Optional[str]:
        """Return the fate of flit ``seq`` of ``packet``: its attempt's,
        decided at the head. Finalise the attempt at the tail."""
        state = link.fault
        key = (id(link), packet.pid)
        if not seq:
            if state.dead or state.failed_over:
                fate: Optional[str] = LOST
                state.lost_attempts += 1
            else:
                p = state.attempt_error_prob(self._flit_bits, packet.size_flits)
                fate = CORRUPT if p > 0.0 and self._rngs[link.name].random() < p else None
                if fate is CORRUPT:
                    state.corrupt_attempts += 1
            state.attempts += 1
            self.marked.add(link)
            self._in_transit[key] = fate
        else:
            fate = self._in_transit[key]
        if fate is not None:
            state.crc_drop_flits += 1
        if is_tail:
            del self._in_transit[key]
            self._finish_attempt(link, packet, fate, now)
        return fate

    def _finish_attempt(self, link: Link, packet: "Packet",
                        fate: Optional[str], now: int) -> None:
        state = link.fault
        attempts = self._attempt_no.pop((id(link), packet.pid), 1)
        if fate is LOST and state.failed_over:
            # Channel already retired: skip the pointless timeout wait and
            # escalate straight to network-layer recovery.
            self._recover(link, packet, now)
            return
        deadline = now + self.config.timeout
        entries = self._replay.setdefault(link, OrderedDict())
        entry = entries[packet.pid] = _ReplayEntry(packet, attempts, deadline, fate)
        self._outstanding += 1
        self._deadlines[deadline % len(self._deadlines)].append((link, entry))
        if len(entries) >= self.config.replay_capacity:
            self._active.add(link)
        if fate is not LOST:
            # The receiver sees the tail at now + latency and replies on the
            # reverse channel: ACK for a clean CRC, NACK for a corrupt one.
            # A dead transceiver stays silent; the replay deadline handles it.
            ok = fate is None
            when = now + link.latency + self.config.ack_latency
            self.sim._schedule(when, (ACK_EVENT, link, packet.pid, ok))

    # ------------------------------------------------------------------ #
    # Delivery tap (called from phase 1 of Simulator.step for fated flits)
    # ------------------------------------------------------------------ #

    def note_drop(self, endpoint, vc: int, packet: "Packet", fate: str,
                  now: int) -> None:
        """Receiver-side discard of a flit of ``packet`` fated ``fate``.

        The buffer slot the sender reserved is freed immediately (the flit
        never enters the downstream VC queue), keeping credit accounting
        exact.
        """
        endpoint.return_credit(vc)
        self.sim.stats.flits_dropped += 1
        if self._tracer is not None:
            self._tracer.on_flit_dropped(endpoint, packet, fate, now)

    # ------------------------------------------------------------------ #
    # ACK/NACK arrivals (delegated from the simulator's event loop)
    # ------------------------------------------------------------------ #

    def handle_event(self, ev: Tuple, now: int) -> None:
        _, link, pid, ok = ev
        link.control_msgs += 1
        state = link.fault
        entries = self._replay.get(link)
        entry = entries.pop(pid, None) if entries else None
        if entry is not None:
            self._outstanding -= 1
        if ok:
            self.sim.stats.acks += 1
            state.acks += 1
            state.consecutive_failures = 0
            return
        self.sim.stats.nacks += 1
        state.nacks += 1
        state.consecutive_failures += 1
        self.marked.add(link)
        if entry is not None:
            # entry is None when the attempt already timed out or the
            # channel was quiesced; the packet is being handled elsewhere.
            self._requeue(link, entry.packet, entry.attempts, now)

    def _backoff(self, attempts: int) -> int:
        return min(self.config.backoff_cap,
                   self.config.backoff_base * (1 << (attempts - 1)))

    def _requeue(self, link: Link, packet: "Packet", attempts: int,
                 now: int) -> None:
        state = link.fault
        if state.failed_over or attempts >= self.config.max_retries:
            self._recover(link, packet, now)
            return
        job = _RetxJob(packet, attempts, now + self._backoff(attempts))
        self._retx.setdefault(link, deque()).append(job)
        self._active.add(link)
        if self._tracer is not None:
            self._tracer.on_retx_queued(link, packet, now)

    # ------------------------------------------------------------------ #
    # Per-cycle phase (between medium arbitration and switch allocation)
    # ------------------------------------------------------------------ #

    def tick(self, sim: "Simulator", now: int) -> int:
        """Apply scheduled faults and run the retransmit engines.

        Runs after token arbitration so freshly granted engines can
        transmit, and before switch allocation so retransmissions have
        priority over new packets (the engine's send marks the link busy).
        Returns the number of flits moved (for the progress watchdog).
        """
        if self.campaign is not None and not self.campaign.is_empty:
            actions = self.campaign.actions_at(now)
            if actions:
                self._apply_actions(actions, now)
        links = self._active
        due = self._deadlines[now % len(self._deadlines)]
        if due:
            # A deadline whose entry left the replay buffer meanwhile is moot.
            replay = self._replay
            links = links.union([l for l, e in due if replay[l].get(e.packet.pid) is e])
            due.clear()
        if not links:
            return 0
        moved = 0
        # Sorted by link name: service order is observable (two links can
        # recover packets into the same NI queue), and id-based set order
        # would differ between otherwise identical simulations.
        for link in sorted(links, key=_link_name):
            moved += self._service(sim, link, now)
        return moved

    def next_action_cycle(self, start: int) -> Optional[int]:
        """Earliest campaign action cycle >= ``start`` (fast-forward wake).

        Only the *campaign schedule* needs surfacing here: all other
        protocol activity (timeouts, backoffs, replays) keeps
        :meth:`pending_work` true, which already keeps the simulator
        stepping every cycle.
        """
        if self.campaign is None:
            return None
        return self.campaign.next_cycle(start)

    def pending_work(self) -> bool:
        """Protocol state that must settle before a drain can finish.

        Some link holds a replay entry (awaiting ACK/timeout), a queued
        retransmission (possibly waiting out its backoff with an otherwise
        idle network -- no events, no buffered flits), an in-progress
        retransmit, or was quiesced since the last tick.
        ``Simulator._pending_work`` consults this so
        :meth:`Simulator.drain` cannot strand a NACKed packet in a backoff
        window.
        """
        return bool(self._active) or self._outstanding > 0

    def _apply_actions(self, actions: List[Tuple], now: int) -> None:
        for act in actions:
            if act[0] == "penalty":
                _, target, delta = act
                for link in self._resolve(target):
                    state = link.fault
                    state.snr_penalty_db = max(0.0, state.snr_penalty_db + delta)
            else:  # PermanentFault
                ev = act[1]
                for link in self._resolve(ev.target):
                    if ev.kind == "transceiver_death":
                        link.fault.dead = True
                    else:  # trim_drift
                        link.fault.snr_penalty_db += ev.drift_db

    def _resolve(self, target: Target) -> List[Link]:
        if target is None:
            return list(self.protected)
        if isinstance(target, str):
            link = self._by_name.get(target)
            if link is not None:
                return [link]
            by_kind = [l for l in self.protected if l.kind == target]
            if not by_kind:
                raise ValueError(f"fault target {target!r} matches no protected link")
            return by_kind
        return [self._by_name[name] for name in target]

    def _service(self, sim: "Simulator", link: Link, now: int) -> int:
        state = link.fault
        entries = self._replay.get(link)
        # Timeouts: deadlines are monotonic per link (FIFO sends, constant
        # timeout), so only the oldest entry can expire each cycle.
        while entries:
            pid, entry = next(iter(entries.items()))
            if entry.deadline > now:
                break
            del entries[pid]
            self._outstanding -= 1
            self.marked.add(link)
            sim.stats.timeouts += 1
            state.timeouts += 1
            state.consecutive_failures += 1
            self._requeue(link, entry.packet, entry.attempts, now)

        capacity = self.config.replay_capacity
        tx = self._current.get(link)
        # Bounded replay: with the buffer full and the engine idle, stall
        # the link so the router cannot launch packets we could not track.
        if tx is None and entries and len(entries) >= capacity:
            if link.busy_until <= now:
                link.busy_until = now + 1
        elif tx is None and self._retx.get(link):
            tx = self._try_start(link, now)

        moved = 0
        if tx is not None and link.ready(now):
            moved = self._send_next_flit(sim, link, tx, now)

        # Replay entries alone come back at their deadlines.
        entries = self._replay.get(link)
        if not (self._current.get(link) or self._retx.get(link)
                or (entries and len(entries) >= capacity)):
            self._active.discard(link)
        return moved

    def _try_start(self, link: Link, now: int) -> Optional[_CurrentTx]:
        """Begin the front retransmit job if its backoff elapsed and a
        downstream VC with whole-packet room is free (``Endpoint.admit``,
        the virtual cut-through admission the router's VCA performs)."""
        queue = self._retx[link]
        job = queue[0]
        if job.not_before > now:
            return None
        packet = job.packet
        endpoint = link.resolve_endpoint(packet)
        router = link.src_router
        if router is not None and router.routing is not None:
            candidates = router.routing.allowed_vcs(router, link.out_port, packet)
        else:
            candidates = range(endpoint.num_vcs)
        cand = endpoint.admit(candidates, packet.size_flits)
        if cand is None:
            return None
        queue.popleft()
        if link.medium is not None:
            link.pending_requests += 1
            link.medium.note_request(link)
        tx = _CurrentTx(packet, endpoint, cand, job.attempts + 1)
        self._current[link] = tx
        self._attempt_no[(id(link), packet.pid)] = tx.attempts
        self.sim.stats.packets_retransmitted += 1
        link.fault.retransmissions += 1
        if self._tracer is not None:
            self._tracer.on_retx_start(link, packet, tx.attempts, now)
            if link.medium is not None:
                self._tracer.on_medium_request(link.medium, link, packet, now)
        return tx

    def _send_next_flit(self, sim: "Simulator", link: Link,
                        tx: _CurrentTx, now: int) -> int:
        packet = tx.packet
        seq = tx.idx
        tx.idx += 1
        is_tail = seq == packet.size_flits - 1
        endpoint = tx.endpoint
        if not seq:
            packet.hops += 1
            if link.kind == PHOTONIC:
                packet.photonic_hops += 1
            elif link.kind == WIRELESS:
                packet.wireless_hops += 1
        endpoint.take_credit(tx.out_vc)
        sim._send_fn(link, endpoint, packet, seq, is_tail, tx.out_vc, now)
        sim.stats.flits_retransmitted += 1
        link.bits_retransmitted += self._flit_bits
        if is_tail:
            endpoint.release_vc(tx.out_vc)
            if link.medium is not None:
                link.pending_requests -= 1
                if link.pending_requests <= 0:
                    link.medium.drop_request(link)
            del self._current[link]
        return 1

    # ------------------------------------------------------------------ #
    # Network-layer recovery (failover support)
    # ------------------------------------------------------------------ #

    def _reentry_core(self, link: Link, packet: "Packet") -> int:
        router = link.src_router
        if router is None:
            return packet.src_core
        core = self._reentry.get(router.rid)
        if core is None:
            for c, rid in enumerate(self.network.core_router):
                if rid == router.rid:
                    core = c
                    break
            else:
                core = packet.src_core
            self._reentry[router.rid] = core
        return core

    def _recover(self, link: Link, packet: "Packet", now: int) -> None:
        """Re-inject a packet the link layer could not deliver.

        The packet re-enters at the NI of a core attached to the sending
        router, so route computation runs again from where the packet got
        stuck -- after a failover the routing function now steers it around
        the retired channel.
        """
        ni = self.network.interfaces[self._reentry_core(link, packet)]
        ni.enqueue_packet(packet)
        self.sim.stats.packets_recovered += 1
        self.sim.stats.flits_retransmitted += packet.size_flits
        link.fault.recovered += 1

    def quiesce_link(self, link: Link, now: int) -> None:
        """Retire a channel: stop retrying, drain stranded packets.

        The quiesce-and-drain handshake on failover:

        * queued retransmissions are re-injected immediately (they are not
          in flight, so there is no duplication risk);
        * replay entries whose attempt was *lost* (dead transceiver) are
          likewise re-injected now -- the receiver provably saw nothing;
        * entries with a clean or corrupt attempt stay until their pending
          ACK retires them or their NACK funnels them into recovery -- an
          in-flight clean attempt will be delivered by the receiver, so
          re-injecting it here would duplicate the packet;
        * an engine transmission already serialising finishes its flits;
          its tail-time bookkeeping routes it to recovery (fate ``lost``).
        """
        state = link.fault
        state.failed_over = True
        if self._tracer is not None:
            self._tracer.on_failover(link, now)
        queue = self._retx.pop(link, None)
        if queue:
            for job in queue:
                self._recover(link, job.packet, now)
        entries = self._replay.get(link)
        if entries:
            for pid in [p for p, e in entries.items() if e.fate is LOST]:
                entry = entries.pop(pid)
                self._outstanding -= 1
                self._recover(link, entry.packet, now)
        self._active.add(link)

    def unquiesce_link(self, link: Link, now: int) -> None:
        """Return a retired channel to service (the fault healed).

        The inverse of :meth:`quiesce_link` for *transient* outages: the
        health monitor's probes confirmed the transceiver answers again, so
        new attempts may use the link. Protocol counters that feed the
        health monitor's silent-channel verdict are reset; cumulative
        statistics (attempts, retransmissions, ...) are kept.
        """
        state = link.fault
        state.failed_over = False
        state.consecutive_failures = 0
        if self._tracer is not None:
            self._tracer.on_recovery(link, now)
