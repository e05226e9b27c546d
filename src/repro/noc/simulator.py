"""The cycle loop: phase-ordered execution of the whole network.

Each simulated cycle executes, in order:

1. **Deliveries** -- flits whose link traversal completes this cycle enter
   downstream buffers (or eject at sinks); credits return upstream.
2. **Medium arbitration** -- free MWSR/SWMR media grant their token to one
   requesting writer (round-robin, ``arb_latency`` cycles of token flight).
3. **SA/ST** -- separable switch allocation over every input VC that holds
   an allocated packet; winners start link traversal.
4. **VCA** then 5. **RC** -- so a head flit arriving at cycle *t* routes at
   *t*, allocates a VC at *t+1* and first competes for the switch at *t+2*:
   a 3-cycle router pipeline, our uniform abstraction of the paper's 5-stage
   router (RC/VCA overlapped with lookahead, SA+ST combined).
6. **Injection** -- NIs move queued flits into local input ports; the
   traffic process creates new packets.

Because every phase runs network-wide before the next begins, results are
independent of router iteration order (output ports belong to exactly one
router; cross-router contention exists only on shared media, resolved in
phase 2, and on downstream VCs, resolved in ascending slot order in
phase 4).

**Active-set scheduling.** Work registers where it arises and each phase
visits only what registered, in a fixed sorted order, so results are
deterministic and independent of how the sets were populated. Phases 3-5
are one sweep each over the input-VC *slots* with work in that stage
(:mod:`repro.noc.kernels`); there is one SA work set, ``sa_slots``, which
the untraced sweep walks whole and the traced ``stage_sa`` router by router.
A head waiting for a downstream VC costs nothing until that endpoint has a
VC to give, a VC waiting for a medium token nothing until its link is
granted. Media and network interfaces sit in active sets while they hold
token requests / queued injections; of the routers the scheduler reads
only the network's buffered-flit count (``KernelState.buffered``), to
decide quiescence and drain.

**Events.** The two per-hop events -- a flit landing ``link.latency`` cycles
after it was sent, a credit returning ``credit_latency`` cycles after the
buffer slot was freed -- are filed in two calendar rings indexed
``cycle & mask`` (a flit as a bare tuple, a credit as the VC it left) and
drained by two typed loops in phase 1. The
rings are sized at construction to the power of two above the longest such
delay, so a slot never holds two cycles' events. Anything else (the link
layer's ACK/NACK arrivals, of arbitrary delay) goes through ``_schedule``
into buckets by cycle with a heap over their keys.

**Fast-forward.** When every active set is empty the network is
*quiescent* -- nothing can happen until the next scheduled event -- and
:meth:`Simulator.run` fast-forwards the clock to the earliest wake source:
the next scheduled delivery/credit/ACK, the next fault-campaign action, the
next hook wake point (a control epoch, a tracer sampling cycle), or the next
traffic injection. The traffic source is ticked on that arrival clock while
stepping too: after each tick the simulator peeks its next injection,
capped at the end of the current ``run`` / ``drain``, and steps the cycles
before it without a tick. A traffic
process answers that peek without letting it change what it will inject: the
Bernoulli arrival clock of ``SyntheticTraffic`` reads its earliest pending
arrival, a trace replayer its next record, and the per-cycle bursty source
pre-draws its RNG stream in the order stepping every cycle would. A skipped
cycle or tick is a no-op by construction; ``tests/reference.py``'s
``naive_schedule()`` steps and ticks every cycle to check that.

The jump also crosses a packet that is alone in the network (the
*lone-packet express*, :meth:`Simulator._express`). When the quiescent
clock lands on an arrival with nothing scheduled at all, on a run with no
fault layer, tracer or hook, and the tick creates one packet, that packet's
timing is the per-flit recurrence of the pipeline, and nothing can meet it
before the next arrival. If its whole life ends before that arrival (capped
at the run's end), it is booked in one step -- every grant, pointer, timer,
credit and ejection written as stepping would leave it -- and the clock
jumps past it; else it keeps the flit path. ``naive_schedule()`` never
finds the network quiescent, so it never takes the express.

A deadlock watchdog aborts the run if buffered flits stop moving for a
configurable number of cycles -- misrouted VC partitioning shows up as a
loud error instead of a silent hang. Cycles with anything still scheduled
are *not* counted as stalled: a long-latency wireless link legitimately
keeps the network motionless for many cycles while its flits are in flight.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.noc.buffers import ACTIVE, WAITING_VC, VirtualChannel
from repro.noc.kernels import KernelState
from repro.noc.links import Endpoint, Link, SharedMedium
from repro.noc.network import Network, NetworkInterface, walk_route
from repro.noc.packet import Packet
from repro.noc.router import Router
from repro.noc.stats import StatsCollector

#: Deterministic iteration orders for the active sets (C-level key lookups).
_medium_key = attrgetter("index")
_ni_key = attrgetter("core")


class SimulationDeadlock(RuntimeError):
    """Raised when buffered flits make no progress for ``watchdog`` cycles."""


class Simulator:
    """Drives a :class:`~repro.noc.network.Network` cycle by cycle.

    Parameters
    ----------
    network:
        A finalized network (builder output).
    traffic:
        Object with ``tick(now) -> list[Packet]``; the simulator numbers
        the packets it returns (``pid`` 0, 1, 2, ... in tick order). ``None``
        means packets are injected manually via
        :meth:`network.inject_packet`.
    warmup_cycles:
        Statistics warmup (see :class:`repro.noc.stats.StatsCollector`).
    credit_latency:
        Cycles for a credit to travel upstream (1 = next-cycle visibility).
    watchdog:
        Zero-progress cycle budget before :class:`SimulationDeadlock`.
    faults:
        Optional :class:`repro.faults.linklayer.FaultLayer` adding fault
        injection + link-layer retransmission. Its engine runs as an extra
        phase between medium arbitration and switch allocation, and
        ACK/NACK events are delegated to it from the event loop. ``None``
        (the default) leaves the cycle loop untouched.
    tracer:
        Optional :class:`repro.telemetry.Tracer` collecting cycle-level
        events and per-component metrics. ``None`` keeps every hot path
        telemetry-free beyond a single ``is not None`` check per site.
    hooks:
        End-of-cycle hooks registered first, in order (:meth:`add_hook`).
    """

    def __init__(
        self,
        network: Network,
        traffic: Optional[object] = None,
        warmup_cycles: int = 0,
        credit_latency: int = 1,
        watchdog: int = 2000,
        faults: Optional[object] = None,
        tracer: Optional[object] = None,
        hooks: Sequence[Callable[["Simulator"], None]] = (),
    ) -> None:
        if credit_latency < 1:
            raise ValueError(f"credit_latency must be >= 1, got {credit_latency}")
        self.network = network
        self.traffic = traffic
        self.credit_latency = credit_latency
        self.watchdog = watchdog
        self.now = 0
        self.stats = StatsCollector(network.n_cores, warmup_cycles)
        # The two calendar rings of the per-hop events (module docstring,
        # "Events"): longer than every link and credit delay, so at the
        # start of cycle ``now`` every filed event is due in
        # ``[now, now + mask]`` and slot ``now & mask`` holds those due now.
        size = 1 << max(
            [credit_latency] + [link.latency for link in network.links]
        ).bit_length()
        self._ring_mask = size - 1
        self._flit_ring: List[List[Tuple]] = [[] for _ in range(size)]
        self._credit_ring: List[List[VirtualChannel]] = [[] for _ in range(size)]
        #: The credit-ring slot for ``now + credit_latency``, resolved by
        #: :meth:`step` before the SA phase, the only one that transmits;
        #: ``Router._transmit`` appends the departing flit's VC to it.
        self._credits_due: List[VirtualChannel] = self._credit_ring[credit_latency]
        #: :meth:`_schedule`'s buckets by cycle, plus a min-heap over their
        #: keys whose stale entries (cycles whose bucket was already
        #: consumed) are dropped lazily on inspection.
        self._events: Dict[int, List[Tuple]] = {}
        self._event_cycles: List[int] = []
        self._last_progress = 0
        #: Packets the lone-packet express booked whole (:meth:`_express`).
        self.express_packets = 0
        # Active sets: components registered here have (potential) work this
        # cycle. Media and NIs add themselves on their empty->non-empty
        # transitions; the cycle loop prunes them as it visits them.
        self._active_media: Set[SharedMedium] = set()
        self._active_nis: Set[NetworkInterface] = set()
        # A network is simulated once (its links keep the run's clock): no
        # medium holds a request yet; NIs may hold packets.
        for medium in network.mediums:
            medium._active = self._active_media
        for ni in network.interfaces:
            if ni is not None:
                ni._active = self._active_nis
                if ni.queue:
                    self._active_nis.add(ni)
        self._hooks: List[Callable[["Simulator"], None]] = []
        for hook in hooks:
            self.add_hook(hook)
        self._paused_traffic: Optional[object] = None
        #: The current :meth:`_advance`'s end (0 outside one), and the cycle
        #: :meth:`step` next ticks the traffic source at (:meth:`_next_arrival`).
        self._end = self._traffic_due = 0
        self._faults = faults
        if not network._finalized:
            network.finalize()
        self._tracer = tracer
        # Flat slot layout over the network's input VCs (repro.noc.kernels):
        # RC, VCA and untraced SA run as sweeps over it. A tracer needs the
        # per-VC stall records of ``Router.stage_sa``, which traced SA runs
        # router by router.
        self.kernels = KernelState.build(network, size)
        self._sa_kernel = tracer is None
        if tracer is not None:
            tracer.bind(self)
        if faults is not None:
            faults.install(self)

    def add_hook(self, hook: Callable[["Simulator"], None]) -> None:
        """Register a callable invoked at the end of every stepped cycle.

        The one end-of-cycle seam. Hooks run in registration order: the
        constructor's ``hooks`` (the fault plant's reconfiguration
        controller in :mod:`repro.core.reconfig`, then the health monitor in
        :mod:`repro.faults.monitor`), then the tracer's occupancy sampler,
        then whatever the caller adds -- the run observer's heartbeat, so
        it sees the cycle's failovers and ``buffer_sample`` already made.

        The hook must expose ``next_wake(now) -> Optional[int]``: the
        earliest cycle >= ``now`` at which it must observe a stepped cycle.
        Those boundaries are fast-forward wake sources, so the clock never
        jumps over a control epoch. A hook without one raises
        :class:`TypeError`.
        """
        if not callable(getattr(hook, "next_wake", None)):
            name = getattr(hook, "__qualname__", type(hook).__qualname__)
            raise TypeError(
                f"hook {name} has no callable next_wake(now): the clock "
                "could skip the cycles it acts on"
            )
        self._hooks.append(hook)

    # ------------------------------------------------------------------ #
    # Event plumbing
    # ------------------------------------------------------------------ #

    def _schedule(self, cycle: int, event: Tuple) -> None:
        bucket = self._events.get(cycle)
        if bucket is None:
            self._events[cycle] = [event]
            heapq.heappush(self._event_cycles, cycle)
        else:
            bucket.append(event)

    def _next_event_cycle(self) -> Optional[int]:
        """Earliest cycle >= ``now`` holding scheduled events: the first
        non-empty ring slot, or the heap top (lazy heap cleanup) if sooner."""
        heap = self._event_cycles
        events = self._events
        while heap and heap[0] not in events:
            heapq.heappop(heap)
        now = self.now
        mask = self._ring_mask
        flit_ring = self._flit_ring
        credit_ring = self._credit_ring
        limit = now + mask + 1  # one ring revolution
        if heap and heap[0] < limit:
            limit = heap[0]
        for cycle in range(now, limit):
            if flit_ring[cycle & mask] or credit_ring[cycle & mask]:
                return cycle
        return heap[0] if heap else None

    def _events_pending(self) -> bool:
        """Anything scheduled at all: guaranteed future progress."""
        return (
            bool(self._events) or any(self._flit_ring) or any(self._credit_ring)
        )

    def _send_fn(
        self, link: Link, endpoint: Endpoint, packet: Packet, seq: int,
        is_tail: bool, out_vc: int, now: int,
    ) -> None:
        """Start the traversal of flit ``seq`` of ``packet``: the one place a
        send is booked (``Router._transmit`` and the link layer's
        retransmissions), counted in ``link.flits_carried``. The flit in
        flight is a ring entry ``(endpoint, out_vc, packet, is_tail, fate)``;
        ``fate`` is the link layer's verdict on the attempt, ``None`` off
        protected links."""
        link.busy_until = now + link.cycles_per_flit
        link.flits_carried += 1
        if link.medium is not None:
            link.medium.on_flit_sent(now, link.cycles_per_flit, is_tail)
        fate = None
        if link.fault is not None:
            fate = self._faults.note_send(link, packet, seq, is_tail, now)
        if self._tracer is not None:
            self._tracer.on_flit_sent(link, packet, seq, now)
        self._flit_ring[(now + link.latency) & self._ring_mask].append(
            (endpoint, out_vc, packet, is_tail, fate)
        )

    # ------------------------------------------------------------------ #
    # The cycle
    # ------------------------------------------------------------------ #

    def step(self) -> int:
        """Execute one cycle; return the number of flits that moved."""
        now = self.now
        moved = 0

        # Phase 1: deliveries, then credit returns, due this cycle. (The
        # two never read each other's state, so draining them apart leaves
        # every result as when they shared one queue.)
        mask = self._ring_mask
        due = self._flit_ring[now & mask]
        if due:
            tracer_ = self._tracer
            for endpoint, v, packet, is_tail, fate in due:
                if fate is not None:
                    # CRC failure / dead transceiver: the receiver
                    # discards the flit (repro.faults handles credit
                    # return and NACK scheduling).
                    self._faults.note_drop(endpoint, v, packet, fate, now)
                    continue
                if tracer_ is not None:
                    tracer_.on_flit_delivered(endpoint, packet, now)
                if endpoint.is_sink:
                    self.stats.on_flit_ejected(now, packet)
                    if is_tail:
                        packet.t_eject = now
                        self.stats.on_packet_ejected(packet, now)
                        if tracer_ is not None:
                            tracer_.on_packet_ejected(packet, now)
                else:
                    endpoint.router.deliver_flit(endpoint.vcs[v], packet)
            moved = len(due)
            due.clear()
        due = self._credit_ring[now & mask]
        if due:
            active_nis = self._active_nis
            # Endpoint.return_credit, inlined (one per flit-hop, to the
            # input VC the flit left; never to a sink).
            for vc in due:
                endpoint = vc.upstream
                v = vc.index
                c = endpoint.credits[v] + 1
                endpoint.credits[v] = c
                ni = endpoint.ni
                if ni is not None and ni.parked:
                    ni.parked = False
                    active_nis.add(ni)
                if c >= endpoint.min_size and not endpoint.vc_busy[v]:
                    endpoint.wake()
            due.clear()
        if self._events:
            # Link-layer ACK/NACK arrivals.
            for ev in self._events.pop(now, ()):
                self._faults.handle_event(ev, now)

        # Phase 2: shared-medium (token) arbitration (event-driven request
        # sets; O(active media) per cycle, not O(all media)).
        tracer = self._tracer
        active_media = self._active_media
        if active_media:
            # (A lone member needs no sort: ``sorted`` with a key costs
            # more than the visit.)
            for medium in (
                sorted(active_media, key=_medium_key)
                if len(active_media) > 1 else [*active_media]
            ):
                if not medium.requesters:
                    active_media.discard(medium)
                    continue
                if medium.holder is None:
                    granted = medium.try_grant(now)
                    if tracer is not None and granted is not None:
                        tracer.on_token_grant(medium, granted, now)

        # Phase 2.5: fault injection + link-layer retransmission engines.
        # Placed after token arbitration (a freshly granted engine transmits
        # this cycle) and before SA (retransmissions pre-empt new packets by
        # marking the link busy).
        if self._faults is not None:
            moved += self._faults.tick(self, now)

        # Phases 3-5: switch allocation + traversal, VC allocation, route
        # computation -- each one network-wide sweep over the slots holding
        # work for it (repro.noc.kernels), so a router with nothing to do
        # in a stage is never visited. A tracer needs ``stage_sa``'s per-VC
        # stall callbacks: traced SA hands each router its run of the
        # sorted slots (bit-identical to the sweep).
        kern = self.kernels
        if kern.sa_slots:
            self._credits_due = self._credit_ring[(now + self.credit_latency) & mask]
            if self._sa_kernel:
                moved += kern.sa_sweep(now, self)
            else:
                slots = sorted(kern.sa_slots)
                slot_router = kern.slot_router
                slot_rtop = kern.slot_rtop
                i, n = 0, len(slots)
                while i < n:
                    s = slots[i]
                    j = bisect_left(slots, slot_rtop[s], i + 1)
                    moved += slot_router[s].stage_sa(now, slots[i:j], self)
                    i = j
        if kern.vca_fresh or kern.vca_woken:
            kern.vca_sweep(now, tracer)
        if kern.rc_slots:
            kern.rc_sweep()

        # Phase 6: traffic generation + NI injection. The source is ticked
        # on its arrival clock: a cycle before ``_traffic_due`` has no
        # arrival, and a tick there would return nothing.
        if now >= self._traffic_due and self.traffic is not None:
            self._tick(now)
        active_nis = self._active_nis
        if active_nis:
            for ni in (
                sorted(active_nis, key=_ni_key)
                if len(active_nis) > 1 else [*active_nis]
            ):
                # Every NI here is backlogged: it joins on the empty ->
                # backlogged transition or on a re-arm from parked, and
                # leaves when its last flit is pumped.
                if ni.pump(now):
                    moved += 1
                    if not ni.queue:
                        active_nis.discard(ni)
                else:
                    # Blocked on the endpoint (no free/funded VC): park
                    # until a credit return re-arms it. Failed pumps have
                    # no side effects, so skipping the re-polls is
                    # invisible to the simulation result.
                    ni.parked = True
                    active_nis.discard(ni)

        # End-of-cycle hooks, in registration order (see add_hook).
        if self._hooks:
            for hook in self._hooks:
                hook(self)

        # Watchdog: flits buffered but nothing moved for too long -> deadlock.
        # Scheduled events (deliveries in flight on long-latency links,
        # pending credits, link-layer ACKs) are guaranteed future progress,
        # so the watchdog only trips when nothing is scheduled either --
        # otherwise a C2C wireless hop slower than the watchdog budget would
        # raise a false deadlock.
        if moved:
            self._last_progress = now
        elif (
            now - self._last_progress > self.watchdog
            and not self._events_pending()
            and self.kernels.buffered
        ):
            if tracer is not None:
                tracer.on_deadlock(now, self.network.total_occupancy())
            raise SimulationDeadlock(self._deadlock_report(now))

        self.now = now + 1
        return moved

    def _tick(self, now: int) -> None:
        """Phase 6's arrivals: accept what the traffic source creates at
        ``now`` into the NIs' queues, then peek its next arrival."""
        stats = self.stats
        tracer = self._tracer
        for packet in self.traffic.tick(now):
            # A packet's id is its acceptance index: whichever traffic
            # object is installed, ids count from 0 in tick order.
            packet.pid = stats.packets_created
            stats.on_packet_created(packet)
            if tracer is not None:
                tracer.on_packet_created(packet, now)
            self.network.inject_packet(packet)
        self._traffic_due = self._next_arrival(now + 1)

    def _express(self, now: int) -> int:
        """The lone-packet express: book a packet alone in the network in
        one step; return the flits it moved (0: nothing booked).

        Asked only from :meth:`_advance`'s quiescent branch, at the cycle
        the traffic source is due. It applies when nothing is scheduled at
        all, the run has no fault layer, tracer or hook, and the tick
        creates one packet. That packet is then alone, so its timing is
        the per-flit recurrence of the pipeline: flit *j* enters the first
        router at ``now + 1 + j``; at each hop the head leaves at
        ``max(arrival + 2 + arb_latency, link / medium busy_until)`` and
        a body flit at ``max(arrival, previous flit + cycles_per_flit)``,
        and each reaches the next router ``latency`` cycles later. If its
        life -- ejection, the last credit return, the token release --
        ends before the next arrival (``_traffic_due``, capped at the
        run's end), every counter, pointer and timer is written to the
        value stepping would leave, and the clock moves past the life.
        Else the packet keeps the flit path: the caller steps the cycle,
        which pumps it without ticking again.

        The route is the production walk (:func:`walk_route`: ``compute``
        and ``resolve_endpoint``), and each downstream VC the first of
        ``allowed_vcs`` (asked after the walk: a VC class depends on the
        route and the cores, not on the packet's progress), which
        ``Endpoint.admit`` grants on an idle endpoint. A route that revisits a router or a medium keeps the flit
        path, and so does a routing that relays around failed channels: its
        ``compute`` counts relays, and would count one twice if the
        express declined after walking.
        """
        if (
            self._faults is not None
            or self._tracer is not None
            or self._hooks
            or self._events_pending()
        ):
            return 0
        stats = self.stats
        created = stats.packets_created
        self._tick(now)
        if stats.packets_created != created + 1:
            return 0
        (ni,) = self._active_nis
        packet = ni.queue[0]
        inject = ni.endpoint
        size = packet.size_flits
        routing = inject.router.routing
        if size > inject.vc_depth or routing.failed_pairs:
            return 0  # (the NI's pump raises for a packet that cannot fit)
        hops = walk_route(self.network, routing, packet.src_core, packet.dst_core, packet)

        # The recurrence: each hop's grant_at and tail departure. The life
        # ends with the sink arrivals ``arrive`` and the credit for the
        # tail's last departure ``t``.
        arrive = range(now + 1, now + 1 + size)
        seen = set()
        plan = []
        last = self._traffic_due  # (declined unless the life ends before)
        for router, port, link, endpoint in hops:
            medium = link.medium
            if router in seen or medium in seen:
                break
            seen.add(router)
            t = grant_at = arrive[0] + 2
            if medium is not None:
                seen.add(medium)
                t = grant_at = t + medium.arb_latency
                if t < medium.busy_until:
                    t = medium.busy_until
            if t < link.busy_until:
                t = link.busy_until
            lat = link.latency
            cpf = link.cycles_per_flit
            departs = [t + lat]
            for a in arrive[1:]:
                t += cpf
                if t < a:
                    t = a
                departs.append(t + lat)
            plan.append((router, port, link, endpoint, grant_at, t))
            arrive = departs
        else:
            last = max(arrive[-1], t + self.credit_latency)
        if last >= self._traffic_due:
            packet.hops = packet.wireless_hops = packet.photonic_hops = 0
            packet.electrical_hops = 0
            return 0

        kern = self.kernels
        V = kern.num_vcs
        in_ptr = kern.in_ptr
        out_ptr = kern.out_ptr
        out_n = kern.out_n
        base = kern.vslot_base
        in_port = inject.in_port
        v = 0  # the NI admits on its idle endpoint: the first of range(V)
        for router, port, link, endpoint, grant_at, tail in plan:
            pb = base[router.rid] + in_port * V
            in_ptr[pb] = (v + 1) % V
            li = link.index
            out_ptr[li] = (in_port + 1) % out_n[li]
            router.vca_grants += 1
            router.sa_grants += size
            link.busy_until = tail + link.cycles_per_flit
            link.flits_carried += size
            medium = link.medium
            if medium is not None:
                medium.grant_at = grant_at
                medium.busy_until = link.busy_until
                medium._rr_next = (link.member_index + 1) % len(medium.members)
                medium.grants += 1
                medium.token_wait_cycles += medium.arb_latency
            if not endpoint.is_sink:
                cands = routing.allowed_vcs(router, port, packet)
                mask = 0
                for c in cands:
                    mask |= 1 << c
                kern.slot_vc[pb + v].cand_mask = mask
                in_port = endpoint.in_port
                v = cands[0]
        for t in arrive:
            stats.on_flit_ejected(t, packet)
        packet.t_inject = now
        packet.t_eject = t
        stats.on_packet_ejected(packet, t)
        del ni.queue[0]
        ni.flits_injected += size
        self._active_nis.discard(ni)
        self._last_progress = t
        self.now = last + 1
        self.express_packets += 1
        return size * (2 * len(plan) + 1)

    def _deadlock_report(self, now: int) -> str:
        """Deadlock diagnostics: invariant audit + where the flits sit.

        Everything needed to debug a VC-partitioning mistake lands in the
        exception message: whether a conservation law broke (pointing to a
        simulator bug) or the audit is clean (pointing to a protocol-level
        cycle), plus the per-router occupancy of the stuck flits.
        """
        from repro.noc.invariants import audit_network

        lines = [
            f"{self.network.name}: no progress for {self.watchdog} cycles "
            f"at cycle {now} with {self.network.total_occupancy()} flits buffered"
        ]
        try:
            summary = audit_network(self)
        except AssertionError as exc:
            lines.append(f"invariant audit FAILED: {exc}")
        else:
            lines.append(f"invariant audit clean: {summary}")
        stuck = []
        for router in self.network.routers:
            occ = router.occupancy()
            if occ:
                vcs = []
                for port in router.input_ports:
                    for vc in port.vcs:
                        if vc.queue:
                            vcs.append(
                                f"in{port.index}.vc{vc.index}[{len(vc.queue)} "
                                f"flits, {vc.state.name}, pid={vc.queue[0].pid}"
                                f"->out{vc.out_port}{self._waits_on(router, port, vc)}]"
                            )
                stuck.append(f"  r{router.rid} ({occ} flits): " + ", ".join(vcs))
        shown = stuck[:20]
        lines.append(f"stuck flits by router ({len(stuck)} routers):")
        lines.extend(shown)
        if len(stuck) > len(shown):
            lines.append(f"  ... and {len(stuck) - len(shown)} more routers")
        return "\n".join(lines)

    @staticmethod
    def _waits_on(router: Router, port, vc) -> str:
        """One edge of the wait-for graph: what a stuck VC is queued behind."""
        if vc.state is WAITING_VC:
            ep = vc.cand_endpoint
            if ep.is_sink:
                return f", granted by the next VC allocation at {ep.name}"
            rank = ep.requests.index(vc.gslot) + 1 if vc.gslot in ep.requests else "?"
            return (
                f", request {rank} of {len(ep.requests)} at {ep.name}: "
                f"vc_busy={ep.vc_busy} credits={ep.credits}"
            )
        if vc.state is ACTIVE:
            link = router.out_links[vc.out_port]
            if vc.gslot in link.sa_token_waiters:
                holder = link.medium.holder
                return (
                    f", parked for the token of {link.medium.name}, held by "
                    f"{holder.name if holder else 'no link'}"
                )
        return ""

    def _quiescent(self) -> bool:
        """No component holds work and no delivery or credit is due this
        cycle: nothing can happen until a later wake source.

        Events scheduled for later cycles and future fault-campaign actions
        / traffic injections do *not* count -- they are precisely the wake
        sources the fast-forward jumps to. (One due now would make the jump
        zero cycles long.) A quiescent network is also the only one the
        lone-packet express (:meth:`_express`) books a packet into: patched
        to ``False`` (``tests/reference.py``), it turns both off.
        """
        slot = self.now & self._ring_mask
        return (
            not self.kernels.buffered
            and not self._active_nis
            and not self._active_media
            and not self._flit_ring[slot]
            and not self._credit_ring[slot]
            and (self._faults is None or not self._faults.pending_work())
        )

    def _next_wake(self, limit: int) -> int:
        """Earliest cycle in ``[now, limit]`` at which anything can happen.

        Consulted only while quiescent. Wake sources: scheduled events
        (deliveries / credits / ACKs), fault-campaign actions, hook wake
        points (control epochs, the tracer's occupancy-sampling grid), and
        the traffic source's next arrival, ``_traffic_due``.
        """
        now = self.now
        target = limit
        cycle = self._next_event_cycle()
        if cycle is not None and cycle < target:
            target = cycle
        if self._faults is not None:
            cycle = self._faults.next_action_cycle(now)
            if cycle is not None and cycle < target:
                target = cycle
        # Hook wake points are scheduled events: a skip may never jump over
        # a control epoch or a sampling cycle, or a hook would silently
        # diverge from stepping every cycle (where it observes each one).
        for hook in self._hooks:
            cycle = hook.next_wake(now)
            if cycle is not None and cycle < target:
                target = cycle
        if self.traffic is not None and self._traffic_due < target:
            target = self._traffic_due
        return target

    def _next_arrival(self, start: int) -> int:
        """The first cycle >= ``start`` at which :meth:`step` must tick the
        traffic source: its next injection before the current advance's
        end, else that end. The peek stops there because the per-cycle
        bursty source pre-draws its stream up to the cycle it returns, and
        later cycles may be paused (``drain()``). A source with no peek, or
        a bare :meth:`step` outside an advance, ticks every cycle.
        """
        end = self._end
        peek = getattr(self.traffic, "next_injection_cycle", None)
        if peek is None or start >= end:
            return start
        cycle = peek(start, end)
        return end if cycle is None else cycle

    def _advance(self, end: int, until_drained: bool) -> int:
        """Move the clock to ``end`` (earlier once drained, if asked);
        return the flits moved.

        The one place cycles are skipped: a quiescent network jumps to its
        next wake source, which is capped at ``end``, and steps the cycle it
        lands on (asked again there, ``_next_wake`` would return that cycle;
        a drain re-checks for pending work first). If that cycle is the
        traffic source's next arrival, the lone-packet express
        (:meth:`_express`) may book the packet it creates and move the clock
        past that packet's life instead. ``_quiescent()`` decides; it is
        asked only once the buffered-flit count and the two active sets, the
        cheap half of its answer, are empty.
        """
        moved = 0
        kern = self.kernels
        nis = self._active_nis
        media = self._active_media
        self._end = end
        try:
            self._traffic_due = self._next_arrival(self.now)
            while self.now < end:
                if until_drained and not self._pending_work():
                    break
                if not (kern.buffered or nis or media) and self._quiescent():
                    target = self._next_wake(end)
                    if target > self.now:
                        self.now = target
                        if until_drained or target == end:
                            continue
                    if target == self._traffic_due and self.traffic is not None:
                        booked = self._express(target)
                        if booked:
                            moved += booked
                            continue
                moved += self.step()
        finally:
            self._end = 0
        return moved

    def run(self, cycles: int) -> None:
        """Advance the simulation by ``cycles`` cycles, fast-forwarding
        idle stretches to the next wake source."""
        self._advance(self.now + cycles, False)

    def drain(self, max_cycles: int = 50_000) -> bool:
        """Pause traffic and run until the network empties.

        Returns ``True`` if fully drained, ``False`` on hitting the budget.
        Skipped idle cycles count against ``max_cycles`` like stepped ones,
        so a drain that runs out has advanced the clock by exactly
        ``max_cycles``. The traffic process is *paused*, not discarded:
        call :meth:`resume_traffic` to restore injection after the drain
        checkpoint.
        """
        if self.traffic is not None:
            self._paused_traffic = self.traffic
            self.traffic = None
        tracer = self._tracer
        if tracer is not None:
            tracer.on_drain_start(
                self.now, self.network.total_occupancy(), self._backlog()
            )
        start_ejected = self.stats.packets_ejected
        moved = self._advance(self.now + max_cycles, True)
        drained = not self._pending_work()
        if tracer is not None:
            tracer.on_drain_end(
                self.now, moved, self.stats.packets_ejected - start_ejected, drained
            )
        return drained

    def resume_traffic(self) -> Optional[object]:
        """Restore the traffic process paused by :meth:`drain`.

        Returns the active traffic process (``None`` if there was none).
        A traffic object installed manually after the drain wins over the
        paused one.
        """
        if self.traffic is None:
            self.traffic = self._paused_traffic
        self._paused_traffic = None
        if self._tracer is not None:
            self._tracer.on_traffic_resumed(self.now, self.traffic is not None)
        return self.traffic

    def _backlog(self) -> int:
        """Flits queued at NIs but not yet injected into the network."""
        return sum(ni.backlog for ni in self.network.interfaces if ni is not None)

    def _pending_work(self) -> bool:
        if self._events_pending() or self.kernels.buffered:
            return True
        if self._faults is not None and self._faults.pending_work():
            return True
        return any(ni is not None and ni.queue for ni in self.network.interfaces)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def summary(self) -> Dict[str, float]:
        return self.stats.summary(self.now)

    def throughput(self) -> float:
        return self.stats.throughput_flits_per_core_cycle(self.now)

    def mean_latency(self) -> float:
        return self.stats.latency_stats().mean
