"""Runtime invariant auditing for the NoC substrate.

The simulator's correctness rests on a handful of conservation laws; this
module checks them against a live network so tests (and debugging sessions)
can assert them at any cycle boundary:

* **flit conservation** — every created flit is buffered, in flight on a
  link, queued at an NI, or already ejected; nothing is lost or duplicated.
  The balance is exact: the ejected count it implies must equal every
  delivery recorded, warm-up epoch included;
* **credit consistency** — for every endpoint, credits + buffered flits +
  in-flight flits == buffer depth, per VC; and every ACTIVE non-sink VC,
  and every NI with a packet in progress, holds at least one credit on the
  VC it was admitted to (``Endpoint.admit`` funds the whole packet, so
  neither switch allocation nor injection tests it);
* **VC-state coherence** — a non-IDLE VC has routing state; an IDLE VC has
  none; a VC's front counter (``vc.sent``) is nonzero only in an ACTIVE VC
  and then lies inside its front packet;
* **medium coherence** — a medium's holder is one of its members, and every
  requester has pending VC-allocated packets;
* **injection endpoints** — no link delivers into the endpoint an NI
  injects through, so only the credit ring re-arms a parked NI.

Every per-VC condition (credits, VC state, the kernel's slot layout and
work lists) is evaluated by one walk over (router, input port, VC), written
once: :func:`audit_network` walks once for all of them and reuses the
buffered total for conservation and its summary; each ``check_*`` walks for
its own. Checks raise :class:`InvariantViolation` with a precise message.
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

from repro.noc.buffers import ACTIVE, IDLE, WAITING_VC

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.network import Network
    from repro.noc.simulator import Simulator


class InvariantViolation(AssertionError):
    """A conservation law of the simulator does not hold."""


def _ring_counts(ring) -> Dict[object, List[int]]:
    """Events of one calendar ring of the simulator (flit deliveries or
    credit returns), counted per endpoint and VC."""
    counts: Dict[object, List[int]] = {}
    for due in ring:
        for endpoint, vc, *_ in due:
            per_vc = counts.get(endpoint)
            if per_vc is None:
                per_vc = counts[endpoint] = [0] * endpoint.num_vcs
            per_vc[vc] += 1
    return counts


def _walk(net: "Network", sim=None, credit=False, vc_state=False, kernel=False) -> int:
    """One pass over every (router, input port, VC): raise on the first
    violated condition of the kinds asked for; return the buffered flits."""
    if credit:
        flying, owed = _ring_counts(sim._flit_ring), _ring_counts(sim._credit_ring)
    if kernel:
        k = sim.kernels
        sa_expect = set()
        parked = {s for link in net.links for s in link.sa_token_waiters}
        fresh = set(k.vca_fresh)
        waiting: Dict[object, list] = {
            ep: [] for router in net.routers for ep in router.input_endpoints
        }
    total = s = 0
    for router in net.routers:
        buffered = 0
        for ip, port in enumerate(router.input_ports):
            endpoint = router.input_endpoints[ip]
            if credit:
                fly, own = flying.get(endpoint), owed.get(endpoint)
            if kernel and not 0 <= k.in_ptr[s] < len(port.vcs):
                raise InvariantViolation(
                    f"kernel: r{router.rid}.in{ip} round-robin pointer "
                    f"{k.in_ptr[s]} outside [0, {len(port.vcs)})"
                )
            for vc in port.vcs:
                n = len(vc.queue)
                buffered += n
                if credit:
                    v = vc.index
                    c = endpoint.credits[v]
                    f, o = fly[v] if fly else 0, own[v] if own else 0
                    if c + n + f + o != endpoint.vc_depth:
                        raise InvariantViolation(
                            f"credit consistency at r{router.rid}.in{ip}.vc{v}: "
                            f"credits={c} buffered={n} in_flight={f} "
                            f"owed={o} != depth={endpoint.vc_depth}"
                        )
                if kernel and (vc.gslot != s or k.slot_vc[s] is not vc):
                    raise InvariantViolation(
                        f"kernel: r{router.rid}.in{ip}.vc{vc.index} slot "
                        f"{vc.gslot} != layout {s}"
                    )
                state = vc.state
                if vc_state and vc.sent and (
                    state is not ACTIVE
                    or n and vc.sent >= vc.queue[0].size_flits
                ):
                    raise InvariantViolation(
                        f"r{router.rid}: VC{vc.index} ({state.name}) front "
                        f"counter {vc.sent} is not inside a packet it is sending"
                    )
                if state is IDLE:
                    if vc_state and (vc.out_port is not None or vc.out_vc is not None):
                        raise InvariantViolation(
                            f"r{router.rid}: IDLE VC{vc.index} retains route state"
                        )
                elif state is WAITING_VC:
                    if vc_state and vc.out_port is None:
                        raise InvariantViolation(
                            f"r{router.rid}: VC{vc.index} in WAITING_VC "
                            f"without a computed out_port"
                        )
                    if kernel and vc.cand_endpoint.is_sink:
                        # A sink refuses nothing, so it queues no request:
                        # the next VCA phase grants the head from vca_fresh.
                        if s not in fresh:
                            raise InvariantViolation(
                                f"kernel: r{router.rid}.in{ip}.vc{vc.index} "
                                f"waits on {vc.cand_endpoint.name} but is not "
                                f"in vca_fresh"
                            )
                    elif kernel:
                        ep = vc.cand_endpoint
                        waiting.setdefault(ep, []).append(s)
                        size = vc.queue[0].size_flits
                        if not (s in fresh or ep.woken) and any(
                            not ep.vc_busy[v] and ep.credits[v] >= size
                            for v in vc.cand_vcs
                        ):
                            raise InvariantViolation(
                                f"kernel: lost wake-up: r{router.rid}.in{ip}."
                                f"vc{vc.index} is grantable at {ep.name} (vc_busy="
                                f"{ep.vc_busy}, credits={ep.credits}) but the "
                                f"endpoint is not woken"
                            )
                else:  # ACTIVE
                    if vc_state and (vc.out_port is None or vc.out_vc is None):
                        raise InvariantViolation(
                            f"r{router.rid}: ACTIVE VC{vc.index} missing allocation"
                        )
                    if credit:
                        ep = vc.endpoint
                        if not ep.is_sink and ep.credits[vc.out_vc] <= 0:
                            raise InvariantViolation(
                                f"credit underflow: ACTIVE r{router.rid}.in{ip}."
                                f"vc{vc.index} holds {ep.credits[vc.out_vc]} "
                                f"credits on {ep.name} vc{vc.out_vc}"
                            )
                    if kernel and n and s not in parked:
                        sa_expect.add(s)
                s += 1
        total += buffered
        if kernel and router._nflits != buffered:
            raise InvariantViolation(
                f"kernel: r{router.rid} counts {router._nflits} flits but "
                f"buffers {buffered}"
            )
    if credit:
        for ni in net.interfaces:
            if ni is None or ni.current_vc is None:
                continue
            v = ni.current_vc
            if ni.endpoint.credits[v] <= 0:
                raise InvariantViolation(
                    f"credit underflow: NI {ni.core} is mid-packet with "
                    f"{ni.endpoint.credits[v]} credits on vc{v}"
                )
    if kernel:
        for ep, slots in waiting.items():
            if ep.requests != slots:
                raise InvariantViolation(
                    f"kernel: {ep.name} queues requests {ep.requests} but the "
                    f"heads waiting for it are {slots}"
                )
        if k.sa_slots != sa_expect:
            raise InvariantViolation(
                f"kernel: sa_slots is not the ACTIVE, occupied, unparked VCs "
                f"(extra={sorted(k.sa_slots - sa_expect)[:8]}, "
                f"missing={sorted(sa_expect - k.sa_slots)[:8]})"
            )
        for s in k.rc_slots:
            vc = k.slot_vc[s]
            if vc.state is not IDLE or not vc.queue:
                raise InvariantViolation(
                    f"kernel: rc_slots holds slot {s}, a {vc.state.name} VC "
                    f"with {len(vc.queue)} flits"
                )
        for link, ptr, n in zip(net.links, k.out_ptr, k.out_n):
            if not 0 <= ptr < n:
                raise InvariantViolation(
                    f"kernel: {link.name} round-robin pointer {ptr} "
                    f"outside [0, {n})"
                )
    return total


def _conservation(sim: "Simulator", buffered: int) -> Dict[str, int]:
    """Flit conservation given the buffered total; returns where flits are."""
    stats = sim.stats
    queued = sum(ni.backlog for ni in sim.network.interfaces if ni is not None)
    in_flight = sum(len(due) for due in sim._flit_ring)
    present = buffered + queued + in_flight
    available = stats.flits_created + stats.flits_retransmitted - stats.flits_dropped
    if present + stats.flits_ejected_total != available:
        raise InvariantViolation(
            f"flit conservation: {present} present + {stats.flits_ejected_total} "
            f"ejected != {available} available (created={stats.flits_created}, "
            f"retransmitted={stats.flits_retransmitted}, dropped={stats.flits_dropped})"
        )
    return {"buffered_flits": buffered, "ni_queued": queued, "in_flight": in_flight}


def check_flit_conservation(sim: "Simulator") -> None:
    """created + retransmitted == ejected + buffered + in-flight + NI-queued
    + CRC-dropped, exactly, with ejected counting every delivery (any epoch).

    On fault-free runs the retransmitted/dropped terms are zero and this is
    the plain conservation law. With a fault layer attached
    (:mod:`repro.faults`), every corrupted or lost flit is recorded in
    ``stats.flits_dropped`` when the receiver discards it, and every replayed
    copy in ``stats.flits_retransmitted`` when the link layer re-serialises
    it -- so the balance still closes exactly at any cycle boundary.
    """
    _conservation(sim, _walk(sim.network))


def check_credit_consistency(sim: "Simulator") -> None:
    """credits + buffered + in-flight (+ pending credit returns) == depth,
    and every sender mid-packet holds a credit on its VC."""
    _walk(sim.network, sim, credit=True)


def check_vc_state_coherence(net: "Network") -> None:
    """Routing state exists exactly for VCs that are mid-packet, and so does
    a nonzero front counter."""
    _walk(net, vc_state=True)


def check_medium_coherence(net: "Network") -> None:
    """Holders are members; requesters have pending packets."""
    for medium in net.mediums:
        if medium.holder is not None and medium.holder not in medium.members:
            raise InvariantViolation(
                f"medium {medium.name}: holder is not a member"
            )
        for link in medium.requesters:
            if link.medium is not medium or medium.members[link.member_index] is not link:
                raise InvariantViolation(
                    f"medium {medium.name}: requester {link.name} not a member"
                )
            if link.pending_requests <= 0:
                raise InvariantViolation(
                    f"medium {medium.name}: requester {link.name} has no "
                    f"pending packets"
                )


def check_injection_endpoints(net: "Network") -> None:
    """No link delivers into an NI's injection endpoint.

    A parked NI waits for a credit: its VCs are released by its own pump,
    which is never parked mid-packet. The simulator's credit ring re-arms
    it; a link into the endpoint would return credits (link-layer drops)
    and release VCs that wake nothing, stranding the NI's backlog.
    """
    for link in net.links:
        for endpoint in link.all_endpoints():
            if endpoint.ni is not None:
                raise InvariantViolation(
                    f"link {link.name} delivers into NI {endpoint.ni.core}'s "
                    f"injection endpoint {endpoint.name}"
                )


def check_kernel_coherence(sim: "Simulator") -> None:
    """The flat slot layout and work lists agree with the object model.

    Every ``vc.gslot`` is the VC's rank in (router, in_port, vc) order;
    **SA work is exactly what the objects say it is**: ``sa_slots`` == the
    slots of ACTIVE VCs holding a flit, minus those parked on some link's
    ``sa_token_waiters`` (re-armed when that link is granted its token);
    every router's ``_nflits`` is its buffered flit count; and **no VCA
    wake-up is lost**: each endpoint's ``requests`` are exactly the slots of
    the heads in WAITING_VC for it, ascending, and on an endpoint that is
    not woken no request VCA has already examined (i.e. not registered by
    this cycle's RC) is grantable right now -- nothing would ever look at it
    again. A head waiting on an ejection sink queues no request there and
    must be in ``vca_fresh``, which the next VCA phase grants. Every
    ``rc_slots`` entry is an IDLE VC with a non-empty queue, so RC never
    skips one.

    The switch allocator's one round-robin state is in range: every
    port's ``in_ptr`` (at the port's first slot) is in ``[0, num_vcs)`` of
    that port, and every ``out_ptr[li]`` in ``[0, out_n[li])``.
    """
    _walk(sim.network, sim, kernel=True)


def audit_network(sim: "Simulator") -> Dict[str, int]:
    """Run every invariant check; return occupancy summary on success."""
    net = sim.network
    buffered = _walk(net, sim, credit=True, vc_state=True, kernel=True)
    where = _conservation(sim, buffered)
    check_medium_coherence(net)
    check_injection_endpoints(net)
    return {
        "cycle": sim.now,
        **where,
        "media_held": sum(1 for m in net.mediums if m.holder is not None),
        "flits_dropped": sim.stats.flits_dropped,
        "flits_retransmitted": sim.stats.flits_retransmitted,
    }
