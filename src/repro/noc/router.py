"""The virtual-channel router model.

The paper assumes "a regular 5-stage pipelined router (routing computation
(RC), virtual channel allocation (VCA), switch allocation (SA), switch
traversal (ST) and link traversal (LT))" with 4 VCs per input port. We model
the same stages with RC, VCA and SA each taking one cycle and ST folded into
the link-traversal event (uniform across all compared architectures, so
relative results are preserved while keeping kilo-core simulation tractable
in Python).

Switch allocation is *separable*: a per-input-port round-robin arbiter picks
one candidate VC, then a per-output-port round-robin arbiter picks among the
input-port winners, which is the canonical iSLIP-like single-iteration
allocator DSENT models. The arbiters' pointers live once, in the network's
:class:`~repro.noc.kernels.KernelState` (``in_ptr`` / ``out_ptr``), shared
by both forms of the stage: the kernel's sweep on untraced runs,
:meth:`Router.stage_sa` on traced ones.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.noc.buffers import ACTIVE, IDLE, InputPort, VirtualChannel
from repro.noc.links import Endpoint, Link

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.packet import Packet


class RoutingFunction:
    """Topology-supplied routing interface.

    Subclasses (one per topology) implement ``compute(router, packet)`` to
    select the output port for a packet at a router, and may override
    :meth:`allowed_vcs` to restrict downstream VC choice for deadlock
    avoidance (e.g. OWN's photonic/wireless VC partitioning). A routing
    that latches ``packet.escaped`` also implements ``hold_for_full`` (see
    ``FaultTolerantOwn256Routing``): route computation asks it only for
    escaped packets. A routing that relays around failed channels lists
    them in ``failed_pairs``; the simulator's lone-packet express leaves a
    network with any to the flit path.
    """

    failed_pairs: frozenset = frozenset()

    def allowed_vcs(self, router: "Router", out_port: int, packet: "Packet") -> Sequence[int]:
        link = router.out_links[out_port]
        endpoint = link.resolve_endpoint(packet)
        return range(endpoint.num_vcs)


class Router:
    """One network router: input VC buffers, output links, allocators.

    Parameters
    ----------
    rid:
        Router id, unique within its network.
    num_vcs, vc_depth:
        Input-port geometry (the paper uses 4 VCs per input port).
    position_mm:
        (x, y) placement on the die; used to derive link lengths.
    attrs:
        Free-form topology metadata (cluster id, tile id, gateway role...).
    """

    __slots__ = (
        "rid",
        "num_vcs",
        "vc_depth",
        "position_mm",
        "attrs",
        "input_ports",
        "input_endpoints",
        "out_links",
        "routing",
        "_kern",
        "vca_grants",
        "sa_grants",
    )

    def __init__(
        self,
        rid: int,
        num_vcs: int = 4,
        vc_depth: int = 4,
        position_mm: Tuple[float, float] = (0.0, 0.0),
        attrs: Optional[dict] = None,
    ) -> None:
        self.rid = rid
        self.num_vcs = num_vcs
        self.vc_depth = vc_depth
        self.position_mm = position_mm
        self.attrs: dict = attrs or {}
        self.input_ports: List[InputPort] = []
        self.input_endpoints: List[Endpoint] = []
        self.out_links: List[Optional[Link]] = []
        self.routing: Optional[RoutingFunction] = None
        # Slot-sweep binding (repro.noc.kernels.KernelState): set when a
        # simulator binds this network. RC, VCA and SA work is registered
        # there by slot id (``rc_slots``, the endpoints' request lists,
        # ``sa_slots``); so do SA's pointers and the buffered-flit count.
        self._kern = None
        # Activity counters for the power model:
        self.vca_grants = 0
        self.sa_grants = 0

    @property
    def buffer_writes(self) -> int:
        """Each flit written was since read out (``_transmit``) or is here."""
        return self.sa_grants + self.occupancy()

    #: One per SA grant: the winning flit leaves its buffer and crosses the
    #: crossbar.
    buffer_reads = xbar_traversals = property(lambda self: self.sa_grants)

    # ------------------------------------------------------------------ #
    # Construction API (used by Network builders)
    # ------------------------------------------------------------------ #

    def add_input_port(self, kind: str = "electrical") -> Endpoint:
        """Create a new input port and return its endpoint handle.

        The endpoint is what upstream links (or the NI) reference for
        credits and VC-busy state.
        """
        index = len(self.input_ports)
        port = InputPort(index, self.num_vcs, self.vc_depth, kind=kind)
        endpoint = Endpoint(
            self, index, self.num_vcs, self.vc_depth, name=f"r{self.rid}.in{index}"
        )
        self.input_ports.append(port)
        self.input_endpoints.append(endpoint)
        return endpoint

    def add_output_port(self, link: Optional[Link] = None) -> int:
        """Reserve the next output port index; attach ``link`` if given."""
        index = len(self.out_links)
        self.out_links.append(link)
        return index

    def attach_link(self, out_port: int, link: Link) -> None:
        if self.out_links[out_port] is not None:
            raise ValueError(f"router {self.rid} out port {out_port} already linked")
        self.out_links[out_port] = link

    def finalize(self) -> None:
        """Check that every reserved output port has been linked."""
        for i, link in enumerate(self.out_links):
            if link is None:
                raise ValueError(f"router {self.rid}: output port {i} has no link")

    @property
    def radix(self) -> int:
        """Router radix as the paper counts it: total attached ports."""
        return max(len(self.input_ports), len(self.out_links))

    # ------------------------------------------------------------------ #
    # Buffer plumbing
    # ------------------------------------------------------------------ #

    def deliver_flit(self, vc: VirtualChannel, packet: "Packet") -> None:
        """Accept the next flit of ``packet`` into input VC ``vc`` (a link's
        LT stage completing, or the NI pumping; the sender takes the VC from
        ``Endpoint.vcs``): the VC buffers one more reference to it."""
        # Credit flow control makes overflow a simulator bug, hence the
        # hard error.
        queue = vc.queue
        if len(queue) >= vc.depth:
            raise RuntimeError(
                f"VC{vc.index} overflow: depth={vc.depth}; "
                "credit accounting is broken"
            )
        state = vc.state
        kern = self._kern
        if state is IDLE:
            # A head flit (or a body flit queued behind an un-routed head)
            # now sits in an IDLE VC: schedule route computation.
            kern.rc_slots.add(vc.gslot)
        elif state is ACTIVE and not queue:
            # A body flit caught up with its already-switching packet,
            # whose VC had run dry. A VC that still holds flits is in
            # ``sa_slots`` already or parked behind a medium token --
            # re-arming that one would only have it park again.
            kern.sa_slots.add(vc.gslot)
        queue.append(packet)
        kern.buffered += 1

    def occupancy(self) -> int:
        """Total buffered flits (used by the deadlock watchdog)."""
        return sum(p.total_occupancy() for p in self.input_ports)

    # ------------------------------------------------------------------ #
    # Switch allocation on traced runs (RC, VCA and untraced SA are
    # network-wide sweeps in repro.noc.kernels)
    # ------------------------------------------------------------------ #

    def stage_sa(self, now: int, slots: Sequence[int], sim) -> int:
        """Switch allocation + traversal on a traced run; returns the number
        of flits moved.

        ``slots`` is this router's share of ``KernelState.sa_slots``,
        ascending -- which is ascending (in_port, vc), the order the
        tracer's stall records are emitted in. A VC that cannot move
        records why (``link`` or ``token``) and keeps polling:
        nothing parks on a medium token, so the record stream has one entry
        per stalled VC per cycle. Winners traverse through ``_transmit``.

        The arbitration is ``KernelState.sa_sweep``'s, over the kernel's
        pointers -- the winner among request set ``R`` with pointer ``p``
        over ``n`` lines is ``argmin_{i in R} (i - p) % n`` and the pointer
        advances to ``winner + 1``; a port's pointer is ``in_ptr`` at the
        port's first slot, an output's is ``out_ptr`` at its link's index --
        and so are the eligibility checks (link serialization, medium
        token), in the same order. Credit is not one: ``Endpoint.admit``
        funds the whole packet, so an ACTIVE VC holds a credit until its
        tail leaves (``invariants.audit_network`` checks it).
        """
        tracer = sim._tracer
        input_ports = self.input_ports
        out_links = self.out_links
        kern = self._kern
        slot_vc = kern.slot_vc
        slot_pb = kern.slot_pb
        in_ptr = kern.in_ptr
        V = kern.num_vcs

        # --- input-port arbitration: one candidate VC per input port ---- #
        # Keyed by the port's first slot; first insertion is in ascending
        # slot order, so iteration below is ascending-port.
        best_of: Dict[int, Tuple[int, VirtualChannel]] = {}
        for s in slots:
            # sa_slots membership guarantees ACTIVE state and a non-empty
            # queue (maintained by deliver_flit / vca_sweep / _transmit),
            # so neither is re-checked here.
            vc = slot_vc[s]
            link = out_links[vc.out_port]
            if now < link.busy_until:
                tracer.on_vc_stall(self, input_ports[vc.in_port].kind, "link", now)
                continue
            medium = link.medium
            if medium is not None and not (
                medium.holder is link
                and now >= medium.grant_at
                and now >= medium.busy_until
            ):
                tracer.on_vc_stall(self, input_ports[vc.in_port].kind, "token", now)
                continue
            pb = slot_pb[s]
            dist = (vc.index - in_ptr[pb]) % V
            held = best_of.get(pb)
            if held is None or dist < held[0]:
                best_of[pb] = (dist, vc)

        if not best_of:
            return 0
        winners: List[VirtualChannel] = []
        for pb, (_, vc) in best_of.items():
            in_ptr[pb] = (vc.index + 1) % V
            winners.append(vc)

        # --- output-port arbitration among input-port winners ----------- #
        out_ptr = kern.out_ptr
        out_n = kern.out_n
        if len(winners) == 1:
            vc = winners[0]
            li = out_links[vc.out_port].index
            out_ptr[li] = (vc.in_port + 1) % out_n[li]
            self._transmit(now, vc, sim)
            return 1
        by_out: Dict[int, List[VirtualChannel]] = {}
        for vc in winners:
            by_out.setdefault(vc.out_port, []).append(vc)
        moved = 0
        for out_port, contenders in by_out.items():
            li = out_links[out_port].index
            n = out_n[li]
            vc = contenders[0]
            if len(contenders) > 1:
                ptr = out_ptr[li]
                best = n
                for cand in contenders:
                    dist = (cand.in_port - ptr) % n
                    if dist < best:
                        best, vc = dist, cand
            out_ptr[li] = (vc.in_port + 1) % n
            self._transmit(now, vc, sim)
            moved += 1
        return moved

    def _transmit(self, now: int, vc: VirtualChannel, sim) -> None:
        """Move the front flit of ``vc`` onto its output link: the one place
        a flit hop is booked (the send itself in ``Simulator._send_fn``).
        The flit is the front packet at position ``vc.sent``, which walks
        the packet head to tail and resets when the tail leaves."""
        link = self.out_links[vc.out_port]
        endpoint = vc.endpoint
        queue = vc.queue
        packet = queue[0]
        del queue[0]
        seq = vc.sent
        is_tail = seq == packet.size_flits - 1
        kern = self._kern
        kern.buffered -= 1
        if not queue or is_tail:
            # Ran dry, or the next packet's head is now at the front and
            # must re-run RC/VCA before competing in SA again.
            kern.sa_slots.discard(vc.gslot)
        self.sa_grants += 1

        if not seq:
            packet.hops += 1
            if link.kind == "photonic":
                packet.photonic_hops += 1
            elif link.kind == "wireless":
                packet.wireless_hops += 1
            elif not endpoint.is_sink:
                packet.electrical_hops += 1

        out_vc = vc.out_vc
        if not endpoint.is_sink:
            # Endpoint.take_credit, inlined; no underflow guard needed:
            # admission funded the whole packet, so credits[out_vc] > 0.
            endpoint.credits[out_vc] -= 1
        # Link/medium busy and the flit count happen inside _send_fn.
        if is_tail:
            endpoint.release_vc(out_vc)
            vc.release()  # also resets vc.sent
            if queue:
                # The departed tail exposed the next packet's head flit:
                # route it this very cycle (RC runs after SA in step()).
                kern.rc_slots.add(vc.gslot)
            medium = link.medium
            if medium is not None:
                link.pending_requests -= 1
                if link.pending_requests <= 0:
                    medium.drop_request(link)
        else:
            vc.sent = seq + 1
        # Return the freed input-buffer slot upstream, ``credit_latency``
        # cycles from now (the ring slot step() resolved for this cycle):
        sim._credits_due.append(vc)
        sim._send_fn(link, endpoint, packet, seq, is_tail, out_vc, now)
