"""Flat slot layout and the three network-wide sweeps: SA, VCA and RC.

The object model (:mod:`repro.noc.router`, ``buffers``, ``links``) holds
every piece of flow-control state: credits, VC-busy flags and the queue of
VC-allocation requests on the ``Endpoint``, queue / state / route on the
``VirtualChannel``, serialization timers on the ``Link``, token position on
the ``SharedMedium``. This module adds no second copy of any of it. It
numbers the network's input VCs into one flat *slot* space and runs each
router pipeline stage as a single pass over the sorted slots that currently
have work in it, reading the objects directly -- no per-router loop.

Slot layout
-----------
One slot per (router, input port, VC), assigned contiguously in router-id
order, so a sorted slot list is automatically grouped by router and, within
a router, by ascending (in_port, vc) -- the deterministic order every stage
resolves contention in. Every router of a network has the network's
``num_vcs`` and ``vc_depth`` (:meth:`KernelState.build` raises otherwise),
so the layout is arithmetic::

    slot = vslot_base[rid] + in_port * num_vcs + vc

and a port spans ``num_vcs`` consecutive slots from ``slot_pb[slot]``, which
both forms of SA rely on. Each VC carries its own coordinates
(``vc.gslot``, ``vc.in_port``, ``vc.upstream``), bound at layout time, so a
work-set entry is one integer and nothing re-derives a port from a slot on
the hot path; an input endpoint holds its port's VCs (``endpoint.vcs``),
so a sender hands ``Router.deliver_flit`` the VC itself.

State owned here
----------------
* **sa_slots** -- *the* SA work set: slots of ACTIVE VCs that hold a flit
  and are not parked on a link's ``sa_token_waiters`` (slot ids too) until
  that link is granted its medium token. Added by
  ``vca_sweep``, by ``Router.deliver_flit`` when a flit lands in an *empty*
  ACTIVE VC, and by ``SharedMedium.try_grant``; dropped by
  ``Router._transmit`` (VC ran dry / tail left) and when SA parks a VC.
* **rc_slots** -- slots of IDLE VCs with a head flit to route.
* **buffered** -- the flits in the network's VCs (``Router.deliver_flit``
  adds, ``_transmit`` subtracts): fast-forward and drain read it.
* **vca_fresh / vca_woken** -- what the next VCA phase examines: requests RC
  registered last cycle, and endpoints on which a VC became free and funded
  (``Endpoint.wake``). The requests themselves queue on the endpoints; a
  head bound for an ejection sink queues none (a sink refuses nothing) and
  is granted from ``vca_fresh``.
* **in_ptr / out_ptr** -- *the* switch allocator's round-robin pointers:
  one per input port (at the port's first slot) and one per link (``out_n``
  is its requester count, the source router's input ports). ``sa_sweep``
  (untraced runs) and ``Router.stage_sa`` (traced runs, which record every
  stall) read and advance the same entries the same way. They are the one
  piece of state that lives only here: a fresh network starts at zero, and
  a mid-life :meth:`KernelState.build` copies them from the kernel the
  network is bound to.

Every work list is derived state -- :meth:`KernelState.build` recomputes all
of them from the objects -- and ``invariants.check_kernel_coherence`` holds
them to that definition and the pointers to their ranges.

Determinism contract
--------------------
:meth:`KernelState.sa_sweep` reproduces the reference ``Router.stage_sa``
sweep bit-for-bit (property-tested in ``tests/runtime`` and gated by the 0%
golden diffs in CI): eligibility is evaluated lazily per candidate in
ascending slot order, a router's transmits are issued -- grouped by output
port, the order flits are filed for delivery in -- before the next router
is examined, and the round-robin winner is
``argmin (i - ptr) % n`` with the pointer advancing to ``winner + 1``, over
the same pointers ``stage_sa`` uses. A lone candidate, the common case at
low load, is not sorted, and a router's lone input-port winner transmits
without grouping by output port.
:meth:`KernelState.vca_sweep` grants exactly what polling every waiting head
every cycle in ascending slot order would (the reference arm under
``tests/`` does just that): the requests it leaves out are those whose
answer cannot have changed.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.noc.buffers import ACTIVE, IDLE, WAITING_VC

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.network import Network


class KernelState:
    """Slot layout and stage work lists of one :class:`~repro.noc.network.Network`.

    Build with :meth:`build` (the network must be finalized). Binding
    installs ``router._kern`` (through which the objects register RC / VCA /
    SA work here), ``vc.gslot`` / ``vc.in_port`` / ``vc.upstream``,
    ``endpoint.vcs`` and ``link.index``.
    """

    __slots__ = (
        "num_vcs",
        "vslot_base",
        "slot_router",
        "slot_vc",
        "slot_pb",
        "slot_rtop",
        # the switch allocator's round-robin state:
        "in_ptr",
        "out_ptr",
        "out_n",
        # stage work lists (slot ids):
        "sa_slots",
        "rc_slots",
        "vca_fresh",
        "vca_woken",
        "buffered",
    )

    def __init__(self) -> None:
        self.num_vcs = 0
        self.buffered = 0
        self.sa_slots: set = set()
        self.rc_slots: set = set()
        self.vca_fresh: List[int] = []
        self.vca_woken: list = []

    # ------------------------------------------------------------------ #
    # Binding
    # ------------------------------------------------------------------ #

    @classmethod
    def build(cls, network: "Network", ring_size: Optional[int] = None) -> "KernelState":
        """Lay out ``network``'s input VCs as slots and bind the objects.

        Safe to call on a mid-life network: the work lists are derived from
        the current object state (every waiting head is simply examined
        afresh) and the round-robin pointers are copied from the kernel the
        network is bound to. ``ring_size`` is the length of the binding
        simulator's event rings: a flit sent on a link is filed ``latency``
        slots ahead, so a link whose latency does not fit would wrap onto an
        earlier cycle. Every router must have the network's ``num_vcs``
        (SA's port width is arithmetic) and ``vc_depth`` (a packet admitted
        at its NI then fits every VC on its way).
        """
        k = cls()
        routers = network.routers
        bound = routers[0]._kern if routers else None
        k.num_vcs = network.num_vcs
        for r in routers:
            if r.num_vcs != k.num_vcs:
                raise ValueError(
                    f"router {r.rid} has {r.num_vcs} VCs per input port, its "
                    f"network {k.num_vcs}: the slot layout needs one VC count"
                )
            if r.vc_depth != network.vc_depth:
                raise ValueError(
                    f"router {r.rid} has VCs of depth {r.vc_depth}, its network "
                    f"{network.vc_depth}: a packet must fit every VC on its way"
                )

        # --- per-link output arbitration width ---------------------------
        links = network.links
        k.out_n = [1] * len(links)
        parked = set()  # SA work waiting on a medium token, not in sa_slots
        for li, link in enumerate(links):
            if ring_size is not None and link.latency >= ring_size:
                raise ValueError(
                    f"link {link.name}: latency {link.latency} does not fit "
                    f"the simulator's {ring_size}-cycle event rings"
                )
            link.index = li
            parked.update(link.sa_token_waiters)
            src = link.src_router
            if src is not None:
                k.out_n[li] = max(1, len(src.input_ports))

        # --- slot layout -------------------------------------------------
        k.vslot_base = []
        k.slot_router = []
        k.slot_vc = []
        k.slot_pb = []  # first slot of the slot's input port ...
        k.slot_rtop = []  # ... and one past the last slot of its router
        for r in routers:
            r._kern = k
            base = len(k.slot_vc)
            k.vslot_base.append(base)
            for ip, port in enumerate(r.input_ports):
                endpoint = r.input_endpoints[ip]
                endpoint.woken = False
                endpoint.vcs = port.vcs
                pb = len(k.slot_vc)
                for vc in port.vcs:
                    vc.gslot = s = len(k.slot_vc)
                    vc.in_port = ip
                    vc.upstream = endpoint
                    k.buffered += len(vc.queue)
                    k.slot_router.append(r)
                    k.slot_vc.append(vc)
                    k.slot_pb.append(pb)
                    if vc.state is WAITING_VC:
                        k.vca_fresh.append(s)
                    elif vc.state is IDLE:
                        if vc.queue:
                            k.rc_slots.add(s)
                    elif vc.queue and s not in parked:
                        k.sa_slots.add(s)
            k.slot_rtop.extend([len(k.slot_vc)] * (len(k.slot_vc) - base))

        # --- round-robin pointers (a port's lives at its first slot) -----
        if bound is None:
            k.in_ptr = [0] * len(k.slot_vc)
            k.out_ptr = [0] * len(links)
        else:
            k.in_ptr = bound.in_ptr[:]
            k.out_ptr = bound.out_ptr[:]
        return k

    # ------------------------------------------------------------------ #
    # The switch-allocation sweep
    # ------------------------------------------------------------------ #

    def sa_sweep(self, now: int, sim) -> int:
        """One network-wide SA/ST phase over the flat slot space.

        Bit-identical replacement for iterating ``stage_sa`` over the
        routers in id order: a single pass in ascending slot order that
        evaluates eligibility lazily from the objects and finds each
        round-robin winner by inline pointer arithmetic. A port's winner
        is settled when the pass leaves the port; a router's output
        arbitration and traversals when it leaves the router, so a router
        transmits before the next one is examined. Returns the number of
        flits moved.
        """
        V = self.num_vcs
        in_ptr = self.in_ptr
        out_ptr = self.out_ptr
        out_n = self.out_n
        slot_router = self.slot_router
        slot_vc = self.slot_vc
        slot_pb = self.slot_pb
        slot_rtop = self.slot_rtop
        sa = self.sa_slots
        slots = sorted(sa) if len(sa) > 1 else [*sa]
        end = len(slot_vc)
        slots.append(end)  # sentinel: leaves the last port and router
        moved = ptop = rtop = 0
        # The router's first input-port winner, and any later ones: most
        # routers have one, which then needs no list and no grouping.
        win_vc = first = None
        winners: list = []
        for s in slots:
            if s >= ptop:
                # --- leaving an input port: settle its winner ------------
                if win_vc is not None:
                    in_ptr[pb] = (win_vc.index + 1) % V
                    if first is None:
                        first = win_vc
                    else:
                        winners.append(win_vc)
                    win_vc = None
                if s >= rtop:
                    # --- leaving a router: output-port arbitration among
                    # its input-port winners, then the traversals ---------
                    if first is not None:
                        if not winners:
                            li = out_links[first.out_port].index
                            out_ptr[li] = (first.in_port + 1) % out_n[li]
                            r._transmit(now, first, sim)
                            moved += 1
                        else:
                            by_out = {first.out_port: [first]}
                            for vc in winners:
                                by_out.setdefault(vc.out_port, []).append(vc)
                            for out_port, contenders in by_out.items():
                                li = out_links[out_port].index
                                nn = out_n[li]
                                vc = contenders[0]
                                if len(contenders) > 1:
                                    ptr = out_ptr[li]
                                    best = nn
                                    for cand in contenders:
                                        d = (cand.in_port - ptr) % nn
                                        if d < best:
                                            best, vc = d, cand
                                out_ptr[li] = (vc.in_port + 1) % nn
                                r._transmit(now, vc, sim)
                                moved += 1
                            winners = []
                        first = None
                    if s == end:
                        break
                    rtop = slot_rtop[s]
                    r = slot_router[s]
                    out_links = r.out_links
                pb = slot_pb[s]
                ptop = pb + V
                ptr = in_ptr[pb]
                best = V
            # --- input-port arbitration: is this VC eligible, and nearest
            # to the port's pointer so far? -------------------------------
            vc = slot_vc[s]
            link = out_links[vc.out_port]
            if now < link.busy_until:
                continue
            medium = link.medium
            if medium is not None and not (
                medium.holder is link
                and now >= medium.grant_at
                and now >= medium.busy_until
            ):
                if medium.holder is not link:
                    # Token held elsewhere: park on the link (re-armed by
                    # SharedMedium.try_grant), same as the object path.
                    sa.discard(s)
                    link.sa_token_waiters = [*link.sa_token_waiters, s]
                continue
            d = (s - pb - ptr) % V
            if d < best:
                best = d
                win_vc = vc
        return moved

    # ------------------------------------------------------------------ #
    # The VC-allocation and route-computation sweeps
    # ------------------------------------------------------------------ #

    def vca_sweep(self, now: int, tracer) -> None:
        """One network-wide VCA phase, decided at the endpoints.

        A woken endpoint serves its queue in ascending slot order until no
        VC that is free and funded is left (one ``cand_mask`` AND skips the
        heads of other VC classes); a request RC registered last cycle is
        examined alone if nothing woke its endpoint. No other request can
        be granted -- nothing its answer depends on has changed since it
        was last refused -- so this is polling every waiting head every
        cycle in ascending slot order, minus the polls that fail without
        side effects. Grants are applied in ascending slot order too, which
        keeps medium requests and their trace records in that order.
        """
        slot_vc = self.slot_vc
        granted = []
        for s in self.vca_fresh:
            vc = slot_vc[s]
            # (an end-of-cycle re-route may have sent the head back to RC)
            if vc.state is not WAITING_VC:
                continue
            ep = vc.cand_endpoint
            if ep.is_sink:
                vc.out_vc = 0  # a sink takes every packet; nothing queued
                granted.append(s)
            elif not ep.woken:
                v = ep.admit(vc.cand_vcs, vc.queue[0].size_flits)
                if v is not None:
                    vc.out_vc = v
                    granted.append(s)
        for ep in self.vca_woken:
            ep.woken = False
            free = 0
            for v in range(ep.num_vcs):
                if not ep.vc_busy[v] and ep.credits[v] >= ep.min_size:
                    free |= 1 << v
            for s in ep.requests:
                if not free:
                    break
                vc = slot_vc[s]
                if vc.cand_mask & free:
                    v = ep.admit(vc.cand_vcs, vc.queue[0].size_flits)
                    if v is not None:
                        vc.out_vc = v
                        granted.append(s)
                        free &= ~(1 << v)
        self.vca_fresh.clear()
        self.vca_woken.clear()
        granted.sort()
        for s in granted:
            vc = slot_vc[s]
            ep = vc.endpoint = vc.cand_endpoint
            if not ep.is_sink:
                ep.withdraw(s)
            vc.state = ACTIVE
            r = self.slot_router[s]
            r.vca_grants += 1
            self.sa_slots.add(s)
            link = r.out_links[vc.out_port]
            medium = link.medium
            if medium is not None:
                link.pending_requests += 1
                medium.note_request(link)
                if tracer is not None:
                    tracer.on_medium_request(medium, link, vc.queue[0], now)

    def rc_sweep(self) -> None:
        """One network-wide RC phase: route the head of every ``rc_slots`` VC.

        Slots arrive from ``Router.deliver_flit`` and from ``_transmit``
        when a tail departure exposes the next packet's head. The downstream
        endpoint and the admissible VC set are resolved here and cached on
        the VC -- both are functions of (router, out_port, packet) only --
        and the head joins that endpoint's request queue (a sink's grant
        needs none) and ``vca_fresh`` for the next VCA phase.
        """
        slot_vc = self.slot_vc
        rc = self.rc_slots
        slots = sorted(rc) if len(rc) > 1 else [*rc]
        rc.clear()
        for s in slots:
            vc = slot_vc[s]
            queue = vc.queue
            r = self.slot_router[s]
            packet = queue[0]
            if vc.sent:
                raise RuntimeError(
                    f"router {r.rid}: non-head flit at front of IDLE VC "
                    f"(in_port={vc.in_port}, vc={vc.index}): flit "
                    f"{vc.sent} of {packet!r}"
                )
            routing = r.routing
            out_port = routing.compute(r, packet)
            if (
                packet.escaped
                and len(queue) < packet.size_flits <= vc.depth
                and routing.hold_for_full(r, out_port, packet)
            ):
                # Store-and-forward hold (escape-path restarts): leave the
                # VC IDLE -- retaining no route state, per the coherence
                # invariant -- until the whole packet is buffered here.
                # deliver_flit re-adds the VC to rc_slots per flit.
                continue
            vc.out_port = out_port
            ep = vc.cand_endpoint = r.out_links[out_port].resolve_endpoint(packet)
            if not ep.is_sink:
                vc.cand_vcs = tuple(routing.allowed_vcs(r, out_port, packet))
                mask = 0
                for v in vc.cand_vcs:
                    mask |= 1 << v
                vc.cand_mask = mask
                ep.request(s, packet.size_flits)
            vc.state = WAITING_VC
            self.vca_fresh.append(s)
