"""Network container: routers, links, shared media and core attachment.

A :class:`Network` is what topology builders (``repro.topologies.*`` and
``repro.core.own*``) produce and what the :class:`repro.noc.simulator.
Simulator` executes. It owns:

* the router list and every link / shared medium,
* the core attachment maps (which router hosts core *i*, which local input
  port injects for it, which output port ejects to it),
* per-core network-interface (NI) injection queues.

Builders use three connection helpers:

* :meth:`Network.connect` -- point-to-point link (electrical or photonic
  point-to-point as in the p-Clos),
* :meth:`Network.connect_bus` -- MWSR bus: many writers, one reader, token
  arbitration (photonic crossbars; OWN-256 wireless pairs degenerate to a
  single writer),
* :meth:`Network.connect_multicast` -- SWMR channel: token among writers,
  per-packet receiver resolution, multicast receive accounting (OWN-1024
  inter-group wireless).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.noc.links import Endpoint, Link, SharedMedium, ELECTRICAL
from repro.noc.packet import Packet
from repro.noc.router import Router, RoutingFunction

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class NetworkInterface:
    """Per-core injection queue (open-loop source).

    The NI holds an unbounded queue of packets awaiting buffer space at the
    local router input port and performs the upstream half of VC allocation
    for injected packets (grab a free VC for each head flit, follow with the
    body, release on tail) exactly like a link writer would. Like a VC, it
    keeps no flit objects: ``sent`` counts the flits of the front packet
    already pumped, and the packet leaves the queue with its tail. The queue
    is a plain list, as a VC's is: an empty one costs a fraction of an empty
    ``deque``, and ``del queue[0]`` runs once per packet, not per flit.
    """

    __slots__ = (
        "core",
        "endpoint",
        "queue",
        "sent",
        "current_vc",
        "flits_injected",
        "parked",
        "_active",
    )

    def __init__(self, core: int, endpoint: Endpoint) -> None:
        self.core = core
        self.endpoint = endpoint
        self.queue: List[Packet] = []
        self.sent = 0
        # The input VC the front packet was admitted to; ``None`` exactly
        # while ``sent == 0`` (its head has not been pumped).
        self.current_vc: Optional[int] = None
        self.flits_injected = 0
        #: Backlogged but blocked on the endpoint (no free/funded VC): out
        #: of the simulator's active set until a credit return on the
        #: endpoint re-arms it (failed pumps have no side effects, so
        #: skipping them is invisible to the simulation result).
        self.parked = False
        self._active: Optional[set] = None  # the simulator's active NIs
        endpoint.ni = self

    def enqueue_packet(self, packet: Packet) -> None:
        """Queue ``packet`` behind the backlog (new traffic, or a packet the
        link layer re-injects after giving up on a channel)."""
        if not self.queue and self._active is not None:
            self._active.add(self)
        self.queue.append(packet)

    def pump(self, now: int) -> int:
        """Move one flit of the backlog into the router if the endpoint
        admits it; return flits moved. Called only while backlogged."""
        queue = self.queue
        endpoint = self.endpoint
        packet = queue[0]
        vc = self.current_vc
        if vc is None:
            # The head is at the front: claim a free input VC with room for
            # the whole packet (virtual cut-through admission, as a router's
            # VCA does). A packet that can never fit is rejected here, where
            # it enters the network, instead of waiting forever.
            size = packet.size_flits
            if size > endpoint.vc_depth:
                raise ValueError(
                    f"packet of {size} flits can never fit VC depth "
                    f"{endpoint.vc_depth} at {endpoint.name or 'endpoint'}"
                )
            vc = endpoint.admit(range(endpoint.num_vcs), size)
            if vc is None:
                return 0
            self.current_vc = vc
        # Endpoint.take_credit, inlined: admission funded the whole packet,
        # so a packet in progress always holds a credit on its VC.
        endpoint.credits[vc] -= 1
        endpoint.router.deliver_flit(endpoint.vcs[vc], packet)
        self.flits_injected += 1
        seq = self.sent
        if not seq:
            packet.t_inject = now
        if seq == packet.size_flits - 1:
            del queue[0]
            self.sent = 0
            endpoint.release_vc(vc)
            self.current_vc = None
        else:
            self.sent = seq + 1
        return 1

    @property
    def backlog(self) -> int:
        """Flits queued here and not yet pumped into the router."""
        return sum(packet.size_flits for packet in self.queue) - self.sent


class Network:
    """A complete NoC instance ready for simulation."""

    def __init__(
        self,
        name: str,
        n_cores: int,
        num_vcs: int = 4,
        vc_depth: int = 4,
        flit_width_bits: int = 128,
    ) -> None:
        if n_cores < 2:
            raise ValueError(f"need at least 2 cores, got {n_cores}")
        self.name = name
        self.n_cores = n_cores
        self.num_vcs = num_vcs
        self.vc_depth = vc_depth
        self.flit_width_bits = flit_width_bits

        self.routers: List[Router] = []
        self.links: List[Link] = []
        self.mediums: List[SharedMedium] = []
        self.interfaces: List[Optional[NetworkInterface]] = [None] * n_cores

        self.core_router: List[Optional[int]] = [None] * n_cores
        self.core_eject_port: List[Optional[int]] = [None] * n_cores

        self._finalized = False

    # ------------------------------------------------------------------ #
    # Builder API
    # ------------------------------------------------------------------ #

    def add_router(
        self,
        position_mm: Tuple[float, float] = (0.0, 0.0),
        attrs: Optional[dict] = None,
    ) -> Router:
        router = Router(
            rid=len(self.routers),
            num_vcs=self.num_vcs,
            vc_depth=self.vc_depth,
            position_mm=position_mm,
            attrs=attrs,
        )
        self.routers.append(router)
        return router

    def attach_core(self, core: int, rid: int) -> None:
        """Attach core ``core`` to router ``rid`` (inject + eject ports)."""
        if self.core_router[core] is not None:
            raise ValueError(f"core {core} already attached")
        router = self.routers[rid]
        inject_endpoint = router.add_input_port(kind="local")
        self.interfaces[core] = NetworkInterface(core, inject_endpoint)
        self.core_router[core] = rid

        sink = Endpoint(None, core, num_vcs=1, vc_depth=1, is_sink=True, name=f"core{core}.sink")
        out_port = router.add_output_port()
        link = Link(
            name=f"eject.r{rid}.c{core}",
            src_router=router,
            out_port=out_port,
            endpoint=sink,
            kind=ELECTRICAL,
            latency=1,
            length_mm=0.5,
        )
        router.attach_link(out_port, link)
        self.links.append(link)
        self.core_eject_port[core] = out_port

    def connect(
        self,
        src_rid: int,
        dst_rid: int,
        kind: str = ELECTRICAL,
        latency: int = 1,
        cycles_per_flit: int = 1,
        length_mm: Optional[float] = None,
        name: Optional[str] = None,
        channel_id: Optional[int] = None,
    ) -> Tuple[int, int]:
        """Point-to-point link; returns ``(out_port at src, in_port at dst)``."""
        src = self.routers[src_rid]
        dst = self.routers[dst_rid]
        endpoint = dst.add_input_port(kind=kind)
        out_port = src.add_output_port()
        if length_mm is None:
            length_mm = _euclid(src.position_mm, dst.position_mm)
        link = Link(
            name=name or f"{kind}.r{src_rid}->r{dst_rid}",
            src_router=src,
            out_port=out_port,
            endpoint=endpoint,
            kind=kind,
            latency=latency,
            cycles_per_flit=cycles_per_flit,
            length_mm=length_mm,
            channel_id=channel_id,
        )
        src.attach_link(out_port, link)
        self.links.append(link)
        return out_port, endpoint.in_port

    def connect_bus(
        self,
        writer_rids: Sequence[int],
        reader_rid: int,
        kind: str,
        medium: SharedMedium,
        latency: int = 1,
        cycles_per_flit: int = 1,
        length_mm: float = 10.0,
        channel_id: Optional[int] = None,
    ) -> Dict[int, int]:
        """MWSR bus: one shared input port at the reader, one writer link each.

        Returns a map ``writer_rid -> out_port`` at each writer.
        """
        if not writer_rids:
            raise ValueError("bus needs at least one writer")
        reader = self.routers[reader_rid]
        endpoint = reader.add_input_port(kind=kind)
        self._register_medium(medium)
        ports: Dict[int, int] = {}
        for w in writer_rids:
            writer = self.routers[w]
            out_port = writer.add_output_port()
            link = Link(
                name=f"{medium.name}.w{w}",
                src_router=writer,
                out_port=out_port,
                endpoint=endpoint,
                kind=kind,
                latency=latency,
                cycles_per_flit=cycles_per_flit,
                length_mm=length_mm,
                medium=medium,
                channel_id=channel_id,
            )
            writer.attach_link(out_port, link)
            self.links.append(link)
            ports[w] = out_port
        return ports

    def connect_multicast(
        self,
        writer_rids: Sequence[int],
        reader_rids: Sequence[int],
        resolver: Callable[[Packet], object],
        reader_keys: Sequence[object],
        kind: str,
        medium: SharedMedium,
        latency: int = 1,
        cycles_per_flit: int = 1,
        length_mm: float = 30.0,
        channel_id: Optional[int] = None,
    ) -> Dict[int, int]:
        """SWMR channel: every writer can reach every reader; multicast RX.

        ``reader_keys[i]`` is the resolver key selecting ``reader_rids[i]``.
        Returns ``writer_rid -> out_port``.
        """
        if len(reader_rids) != len(reader_keys):
            raise ValueError("reader_rids and reader_keys must align")
        if medium.multicast_degree != len(reader_rids):
            raise ValueError(
                f"medium multicast_degree={medium.multicast_degree} but "
                f"{len(reader_rids)} readers given"
            )
        endpoints: Dict[object, Endpoint] = {}
        for key, rr in zip(reader_keys, reader_rids):
            endpoints[key] = self.routers[rr].add_input_port(kind=kind)
        self._register_medium(medium)
        ports: Dict[int, int] = {}
        for w in writer_rids:
            writer = self.routers[w]
            out_port = writer.add_output_port()
            link = Link(
                name=f"{medium.name}.w{w}",
                src_router=writer,
                out_port=out_port,
                endpoint=None,
                endpoints=endpoints,
                resolver=resolver,
                kind=kind,
                latency=latency,
                cycles_per_flit=cycles_per_flit,
                length_mm=length_mm,
                medium=medium,
                channel_id=channel_id,
            )
            writer.attach_link(out_port, link)
            self.links.append(link)
            ports[w] = out_port
        return ports

    def _register_medium(self, medium: SharedMedium) -> None:
        """Record a shared medium once, assigning its arbitration index.

        A builder may route several buses over one medium object; the
        arbitration phase must still visit it exactly once per cycle, and
        the index gives the simulator a deterministic iteration order over
        whatever subset of media is currently active.
        """
        if medium.index < 0:
            medium.index = len(self.mediums)
            self.mediums.append(medium)

    def set_routing(self, routing: RoutingFunction) -> None:
        for router in self.routers:
            router.routing = routing

    def finalize(self) -> None:
        """Validate construction and size the allocators."""
        for core in range(self.n_cores):
            if self.core_router[core] is None:
                raise ValueError(f"core {core} was never attached to a router")
        for router in self.routers:
            if router.routing is None:
                raise ValueError(f"router {router.rid} has no routing function")
            router.finalize()
        self._finalized = True

    # ------------------------------------------------------------------ #
    # Introspection helpers (tests, power accounting, DESIGN checks)
    # ------------------------------------------------------------------ #

    @property
    def n_routers(self) -> int:
        return len(self.routers)

    def radix_histogram(self) -> Dict[int, int]:
        hist: Dict[int, int] = {}
        for r in self.routers:
            hist[r.radix] = hist.get(r.radix, 0) + 1
        return hist

    def links_by_kind(self, kind: str) -> List[Link]:
        return [l for l in self.links if l.kind == kind]

    def total_occupancy(self) -> int:
        return sum(r.occupancy() for r in self.routers)

    def inject_packet(self, packet: Packet) -> None:
        """Queue a packet at its source core's NI.

        Raises
        ------
        ValueError
            If either core id lies outside ``[0, n_cores)``: a negative id
            would otherwise index a core from the end of the list.
        """
        n = self.n_cores
        if not (0 <= packet.src_core < n and 0 <= packet.dst_core < n):
            raise ValueError(
                f"packet {packet.src_core}->{packet.dst_core}: core ids must "
                f"lie in [0, {n}), the n_cores of {self.name}"
            )
        ni = self.interfaces[packet.src_core]
        if ni is None:
            raise RuntimeError(f"core {packet.src_core} has no network interface")
        ni.enqueue_packet(packet)


def walk_route(
    network: Network,
    routing: RoutingFunction,
    src_core: int,
    dst_core: int,
    packet: Optional[Packet] = None,
) -> List[Tuple[Router, int, Link, Endpoint]]:
    """Every ``(router, out_port, link, endpoint)`` hop of one packet's
    route, up to and including its ejection hop, as the simulator takes it:
    the production ``compute`` and ``resolve_endpoint``, with the packet's
    hop counters booked as ``Router._transmit`` books each head departure
    (relay routing reads ``wireless_hops``). ``packet`` defaults to a fresh
    one-flit packet: a walk given none books no packet of a run."""
    if packet is None:
        packet = Packet(src_core, dst_core, 1, 0, pid=0)
    router = network.routers[network.core_router[src_core]]
    hops = []
    for _ in network.routers:  # a longer route revisits a router
        port = routing.compute(router, packet)
        link = router.out_links[port]
        endpoint = link.resolve_endpoint(packet)
        hops.append((router, port, link, endpoint))
        packet.hops += 1
        kind = link.kind
        if kind == "photonic":
            packet.photonic_hops += 1
        elif kind == "wireless":
            packet.wireless_hops += 1
        elif not endpoint.is_sink:
            packet.electrical_hops += 1
        if endpoint.is_sink:
            return hops
        router = endpoint.router
    raise RuntimeError(f"route {src_core} -> {dst_core} loops: {hops}")


def _euclid(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    return ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) ** 0.5
