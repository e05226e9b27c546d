"""Runtime invariant auditing for the NoC substrate.

The simulator's correctness rests on a handful of conservation laws; this
module checks them against a live network so tests (and debugging sessions)
can assert them at any cycle boundary:

* **flit conservation** — every created flit is buffered, in flight on a
  link, queued at an NI, or already ejected; nothing is lost or duplicated;
* **credit consistency** — for every endpoint, credits + buffered flits +
  in-flight flits == buffer depth, per VC;
* **VC-state coherence** — a non-IDLE VC has routing state; an IDLE VC has
  none; ``vc_busy`` flags at endpoints correspond to packets mid-transfer;
* **medium coherence** — a medium's holder is one of its members, and every
  requester has pending VC-allocated packets.

Checks raise :class:`InvariantViolation` with a precise description;
:func:`audit_network` runs them all and returns a summary dict.
"""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

from repro.noc.buffers import VCState

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.network import Network
    from repro.noc.simulator import Simulator


class InvariantViolation(AssertionError):
    """A conservation law of the simulator does not hold."""


def _ring_counts(ring) -> Dict[tuple, int]:
    """Events of one calendar ring of the simulator (flit deliveries or
    credit returns) keyed by (endpoint id, vc)."""
    counts: Dict[tuple, int] = {}
    for due in ring:
        for endpoint, vc, *_ in due:
            counts[(id(endpoint), vc)] = counts.get((id(endpoint), vc), 0) + 1
    return counts


def _in_flight(sim: "Simulator") -> int:
    """Flits travelling on links."""
    return sum(len(due) for due in sim._flit_ring)


def check_flit_conservation(sim: "Simulator") -> None:
    """created + retransmitted == ejected + buffered + in-flight + NI-queued
    + CRC-dropped.

    On fault-free runs the retransmitted/dropped terms are zero and this is
    the plain conservation law. With a fault layer attached
    (:mod:`repro.faults`), every corrupted or lost flit is recorded in
    ``stats.flits_dropped`` when the receiver discards it, and every replayed
    copy in ``stats.flits_retransmitted`` when the link layer re-serialises
    it -- so the balance still closes exactly at any cycle boundary.
    """
    net = sim.network
    created = sim.stats.flits_created
    ejected = sim.stats.flits_ejected
    # Ejected flits are gone; infer them: available - (everything still here).
    buffered = net.total_occupancy()
    queued = sum(len(ni.queue) for ni in net.interfaces if ni is not None)
    accounted = buffered + queued + _in_flight(sim)
    available = created + sim.stats.flits_retransmitted - sim.stats.flits_dropped
    if accounted > available:
        raise InvariantViolation(
            f"flit conservation: {accounted} flits present but only "
            f"{available} available (created={created}, "
            f"retransmitted={sim.stats.flits_retransmitted}, "
            f"dropped={sim.stats.flits_dropped})"
        )
    # The remainder must equal the ejected count implied by packet stats.
    implied_ejected = available - accounted
    # Cross-check with the collector when no warmup filtering hides flits.
    if sim.stats.warmup_cycles == 0 and implied_ejected != ejected:
        raise InvariantViolation(
            f"flit conservation: implied ejected {implied_ejected} != "
            f"recorded ejected {ejected}"
        )


def check_credit_consistency(sim: "Simulator") -> None:
    """credits + buffered + in-flight (+ pending credit returns) == depth."""
    net = sim.network
    in_flight = _ring_counts(sim._flit_ring)
    pending_credits = _ring_counts(sim._credit_ring)
    for router in net.routers:
        for in_port, endpoint in enumerate(router.input_endpoints):
            port = router.input_ports[in_port]
            for vc_idx, vc in enumerate(port.vcs):
                credits = endpoint.credits[vc_idx]
                buffered = len(vc.queue)
                flying = in_flight.get((id(endpoint), vc_idx), 0)
                owed = pending_credits.get((id(endpoint), vc_idx), 0)
                total = credits + buffered + flying + owed
                if total != endpoint.vc_depth:
                    raise InvariantViolation(
                        f"credit consistency at r{router.rid}.in{in_port}.vc{vc_idx}: "
                        f"credits={credits} buffered={buffered} in_flight={flying} "
                        f"owed={owed} != depth={endpoint.vc_depth}"
                    )


def check_vc_state_coherence(net: "Network") -> None:
    """Routing state exists exactly for VCs that are mid-packet."""
    for router in net.routers:
        for port in router.input_ports:
            for vc in port.vcs:
                if vc.state is VCState.IDLE:
                    if vc.out_port is not None or vc.out_vc is not None:
                        raise InvariantViolation(
                            f"r{router.rid}: IDLE VC{vc.index} retains route state"
                        )
                elif vc.state is VCState.WAITING_VC:
                    if vc.out_port is None:
                        raise InvariantViolation(
                            f"r{router.rid}: VC{vc.index} in WAITING_VC "
                            f"without a computed out_port"
                        )
                elif vc.state is VCState.ACTIVE:
                    if vc.out_port is None or vc.out_vc is None:
                        raise InvariantViolation(
                            f"r{router.rid}: ACTIVE VC{vc.index} missing allocation"
                        )


def check_medium_coherence(net: "Network") -> None:
    """Holders are members; requesters have pending packets."""
    for medium in net.mediums:
        if medium.holder is not None and medium.holder not in medium.members:
            raise InvariantViolation(
                f"medium {medium.name}: holder is not a member"
            )
        for link in medium.requesters:
            if link not in medium.member_index:
                raise InvariantViolation(
                    f"medium {medium.name}: requester {link.name} not a member"
                )
            if link.pending_requests <= 0:
                raise InvariantViolation(
                    f"medium {medium.name}: requester {link.name} has no "
                    f"pending packets"
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
    again.

    The sweep's round-robin pointers (``in_ptr`` / ``out_ptr``) are
    deliberately *not* compared against the object arbiters: a run drives
    switch allocation through exactly one of the two paths, so only that
    path's pointers advance (path-local state, see ``repro.noc.kernels``).
    """
    k = sim.kernels
    sa_expect = set()
    parked = {s for link in sim.network.links for s in link.sa_token_waiters}
    fresh = set(k.vca_fresh)
    waiting: Dict[object, list] = {
        ep: [] for router in sim.network.routers for ep in router.input_endpoints
    }
    s = 0
    for router in sim.network.routers:
        buffered = 0
        for ip, port in enumerate(router.input_ports):
            for vc in port.vcs:
                buffered += len(vc.queue)
                if vc.gslot != s or k.slot_vc[s] is not vc:
                    raise InvariantViolation(
                        f"kernel: r{router.rid}.in{ip}.vc{vc.index} slot "
                        f"{vc.gslot} != layout {s}"
                    )
                if vc.state is VCState.ACTIVE:
                    if vc.queue and s not in parked:
                        sa_expect.add(s)
                elif vc.state is VCState.WAITING_VC:
                    ep = vc.cand_endpoint
                    waiting.setdefault(ep, []).append(s)
                    size = vc.queue[0].packet.size_flits
                    if not (s in fresh or ep.woken or ep.is_sink) and any(
                        not ep.vc_busy[v] and ep.credits[v] >= size
                        for v in vc.cand_vcs
                    ):
                        raise InvariantViolation(
                            f"kernel: lost wake-up: r{router.rid}.in{ip}."
                            f"vc{vc.index} is grantable at {ep.name} (vc_busy="
                            f"{ep.vc_busy}, credits={ep.credits}) but the "
                            f"endpoint is not woken"
                        )
                s += 1
        if router._nflits != buffered:
            raise InvariantViolation(
                f"kernel: r{router.rid} counts {router._nflits} flits but "
                f"buffers {buffered}"
            )
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


def audit_network(sim: "Simulator") -> Dict[str, int]:
    """Run every invariant check; return occupancy summary on success."""
    net = sim.network
    check_flit_conservation(sim)
    check_credit_consistency(sim)
    check_vc_state_coherence(net)
    check_medium_coherence(net)
    check_kernel_coherence(sim)
    return {
        "cycle": sim.now,
        "buffered_flits": net.total_occupancy(),
        "ni_queued": sum(len(ni.queue) for ni in net.interfaces if ni is not None),
        "in_flight": _in_flight(sim),
        "media_held": sum(1 for m in net.mediums if m.holder is not None),
        "flits_dropped": sim.stats.flits_dropped,
        "flits_retransmitted": sim.stats.flits_retransmitted,
    }
