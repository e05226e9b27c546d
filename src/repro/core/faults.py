"""Wireless channel fault tolerance: relay routing at either OWN scale.

The paper's lineage (3D-NoC [12], "dynamic reconfiguration ... improving
fault tolerance") motivates surviving transceiver failures. OWN's channel
plan has no path diversity by itself -- each ordered pair of *relay
domains* owns one channel -- so a failed channel must be *relayed*: route
s -> x on one live channel, traverse x's photonic crossbar, then x -> d on
another. The relay domain is the outermost level of the hierarchy: the
cluster at OWN-256, the group at OWN-1024 (four OWN-256 groups behind the
same photonic -> wireless -> photonic route, Sec. III-B).
:class:`RelayRouting` is that mechanism written once -- the fault set, the
relay choice and the VC discipline of :data:`RELAY_VC_ORDER` -- and the two
``FaultTolerantOwn*Routing`` classes add only what is particular to a
scale.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.core.own256 import _build_own256
from repro.core.own1024 import _build_own1024
from repro.core.routing import Own256Routing, Own1024Routing, OwnRoutingBase
from repro.noc.router import Router

Pair = Tuple[int, int]


class UnroutableError(RuntimeError):
    """No live relay path exists for a failed channel's traffic."""


class HopClass(NamedTuple):
    """One row of :data:`RELAY_VC_ORDER`: a hop role and the VCs it may hold."""

    name: str
    link_kind: str
    vcs: Tuple[int, ...]


#: The VC resource order of relay routing, lowest rank first:
#:
#:     ph0 < w{0,1} < ph1 < w{2,3} < ph{2,3} < sink
#:
#: A relayed packet takes up to five hops -- ascent to the first-leg
#: gateway, first leg, *middle* ascent across the relay domain's crossbar,
#: final leg, descent to the destination tile -- and an un-relayed one the
#: last three (its single ascent shares the middle-ascent class; the
#: paper's per-direction wireless classes are collapsed into per-leg
#: classes). Every path is a subsequence of this table, so a packet holding
#: a resource of one rank only ever waits for one of a higher rank or for
#: the ejection sink, which always accepts; no two rows share a
#: (link kind, VC) pair, so ranks never alias. The order is therefore
#: strictly increasing along every path, relayed or not, hence cycle-free.
#: This table is the only place the classes are written down:
#: :meth:`RelayRouting.allowed_vcs` grants exactly one row per hop, and
#: ``tests/core/test_relay_order.py`` walks every route of both scales
#: against it.
RELAY_VC_ORDER: Tuple[HopClass, ...] = (
    HopClass("first-leg ascent", "photonic", (0,)),
    HopClass("first leg", "wireless", (0, 1)),
    HopClass("final ascent", "photonic", (1,)),
    HopClass("final leg", "wireless", (2, 3)),
    HopClass("descent", "photonic", (2, 3)),
)
FIRST_ASCENT, FIRST_LEG, FINAL_ASCENT, FINAL_LEG, DESCENT = RELAY_VC_ORDER


class RelayRouting(OwnRoutingBase):
    """The fault set, the relay choice and the relay VC discipline.

    Mixed in ahead of a plain OWN routing class, whose ``compute`` asks
    :meth:`_leg_target` which domain its wireless leg crosses to. Pairs are
    ordered ``(source domain, destination domain)``; a channel *inside*
    one domain (the OWN-1024 intra-group D-antenna channels) is always a
    final leg with no relay alternative, so it cannot be failed.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # The relay domain is the outermost populated level of (g, c, t).
        self._axis = 0 if self.dims.groups > 1 else 1
        self.relay_domain = ("group", "cluster")[self._axis]
        self.n_domains = (self.dims.groups, self.dims.clusters)[self._axis]
        self.failed_pairs: Set[Pair] = set()
        self.relayed_packets = 0
        #: Primary channel index -> the ordered domain pair it serves.
        self.pair_of_channel: Dict[int, Pair] = {
            a.channel_index: pair for pair, a in self.channel_map.items()
        }
        # With pair_of_channel, the inverse map that lets allowed_vcs()
        # classify a hop from the *chosen out-port* alone (whose photonic
        # link names the neighbour it reaches): gateway rid -> the one
        # channel it transmits.
        self._gateway_channel: Dict[int, int] = {
            rid: channel for rid, channel in self.wireless_port
        }
        #: Routers where a *transit* packet's ascent is a restart and takes
        #: the lowest rank (none here; see FaultTolerantOwn256Routing).
        self._restart_rids: FrozenSet[int] = frozenset()

    # ---------------- fault management ---------------- #

    def fail_channel(self, src: int, dst: int) -> None:
        """Mark the (src, dst) channel dead; traffic relays around it.

        Raises
        ------
        UnroutableError
            For a channel inside one domain (no relay exists), or if the
            failure leaves some pair with no relay (e.g. every channel out
            of a domain dead). The channel is then NOT marked failed --
            the failure is rolled back so routing state stays
            self-consistent and callers can keep the link in degraded
            (retransmitting) service instead.
        """
        if src == dst:
            raise UnroutableError(
                f"intra-{self.relay_domain} channel {src} has no relay alternative"
            )
        pair = (src, dst)
        if pair in self.failed_pairs:
            return
        self.failed_pairs.add(pair)
        try:
            # Verify every ordered pair can still route.
            for s in range(self.n_domains):
                for d in range(self.n_domains):
                    if s != d:
                        self._next_domain(s, d)  # raises if stuck
        except UnroutableError:
            self.failed_pairs.discard(pair)
            raise
        # Heads waiting on a route planned against the healthy channel
        # must re-route onto relays (see invalidate_pending_routes).
        self.invalidate_pending_routes()

    def unfail_channel(self, src: int, dst: int) -> bool:
        """Return a healed channel to service.

        The inverse of :meth:`fail_channel`: subsequent route computations
        use the direct channel again. Returns ``True`` when the pair was
        actually marked failed.
        """
        pair = (src, dst)
        if pair not in self.failed_pairs:
            return False
        self.failed_pairs.discard(pair)
        # Relay-planned heads still waiting for a VC re-route onto the
        # recovered direct channel instead of chasing stale relay legs.
        self.invalidate_pending_routes()
        return True

    def alive(self, src: int, dst: int) -> bool:
        return (src, dst) not in self.failed_pairs

    def live_relays(self, src: int, dst: int) -> List[int]:
        """The relay scan: every domain with both legs alive, ascending."""
        failed = self.failed_pairs
        return [
            via
            for via in range(self.n_domains)
            if via not in (src, dst)
            and (src, via) not in failed
            and (via, dst) not in failed
        ]

    def _relay_for(self, src: int, dst: int) -> Optional[int]:
        """The relay choice: the first live domain."""
        live = self.live_relays(src, dst)
        return live[0] if live else None

    def _direct(self, cur: int, dst: int) -> bool:
        """Does one wireless hop take a packet from ``cur`` to ``dst``?"""
        return self.alive(cur, dst)

    def _next_domain(self, cur: int, dst: int) -> int:
        """The domain a packet in ``cur`` heading to ``dst`` crosses to next."""
        if self._direct(cur, dst):
            return dst
        via = self._relay_for(cur, dst)
        if via is None:
            raise UnroutableError(
                f"no live relay from {self.relay_domain} {cur} to {dst}; "
                f"failed={sorted(self.failed_pairs)}"
            )
        return via

    # ---------------- routing ---------------- #

    def _leg_target(self, router: Router, packet, cur: int, dst: int) -> int:
        if (cur, dst) not in self.failed_pairs:
            return dst  # alive: the hot path, straight across
        nxt = self._next_domain(cur, dst)
        if nxt != dst and (
            self._gateway_channel.get(router.rid)
            == self.channel_map[(cur, nxt)].channel_index
        ):
            self.relayed_packets += 1  # once per packet, at the first-leg gateway
        return nxt

    def allowed_vcs(self, router: Router, out_port: int, packet) -> Sequence[int]:
        """The :data:`RELAY_VC_ORDER` row of the *chosen out-port*.

        The route (``out_port``) is computed once per packet per router,
        but VC allocation can retry for many cycles afterwards. If the
        hop were classified from the *current* ``failed_pairs``, a
        fail/unfail flip between those two moments would hand a first-leg
        packet a final-leg VC (or vice versa), breaking the strictly
        increasing resource order. Classifying the hop from the out-port
        itself -- which channel it is, or which gateway the photonic hop
        ascends to -- keeps every grant consistent with the route the
        packet is actually on. In steady state this is exactly the answer
        the fault set gives; it differs only inside reconfiguration
        windows, where it is the safe one.
        """
        link = router.out_links[out_port]
        dest = self.gct[self.core_router[packet.dst_core]]
        if link.kind == "wireless":
            pair = self.pair_of_channel.get(link.channel_id)
            # A channel that lands outside the destination domain is the
            # first leg of a relay; everything else -- direct, second leg,
            # intra-domain, or a spare (no primary pair) -- is final.
            if pair is not None and pair[1] != dest[self._axis]:
                return FIRST_LEG.vcs
            return FINAL_LEG.vcs
        if link.kind == "photonic":
            rid = router.rid
            if self.gct[rid][:2] == dest[:2]:
                return DESCENT.vcs  # already in the destination cluster
            if rid in self._restart_rids and self.core_router[packet.src_core] != rid:
                return FIRST_ASCENT.vcs
            # An ascent is classified by the gateway it climbs to.
            channel = self._gateway_channel.get(link.resolve_endpoint(packet).router.rid)
            if channel is not None and self.pair_of_channel[channel][1] != dest[self._axis]:
                return FIRST_ASCENT.vcs
            return FINAL_ASCENT.vcs  # single / middle / spare-gateway ascent
        return range(router.num_vcs)


class FaultTolerantOwn256Routing(RelayRouting, Own256Routing):
    """OWN-256 routing that relays around failed wireless channels.

    When a reconfiguration controller is attached (``with_reconfiguration``
    builds + :meth:`attach_reconfiguration`), a failed pair whose spare
    D->D channel has been pinned (:meth:`ReconfigurationController.pin`)
    routes *directly* over the spare -- a single wireless hop, same VC
    discipline as an un-relayed path -- instead of the two-hop relay.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Mid-flight packets forced onto the escape path: a fail/reassign
        #: flip would have sent them onto a *third* wireless first-leg,
        #: beyond the two-leg VC discipline. They restart store-and-forward
        #: instead (see :meth:`hold_for_full`).
        self.reroute_escapes = 0
        # Re-ascent out of a D gateway. A remote packet only sits there
        # because a mid-flight reconfiguration revoked the spare it was
        # routed to; its second photonic ascent must not reuse the
        # final-ascent class its first ascent (and the ascents of packets
        # still heading *toward* D) occupy, or the two directions wait on
        # each other -- observed as a D<->A VC1 cycle after a fail/recover
        # churn. The lowest rank keeps the order strict whether the
        # restart is a relay first leg or a direct hop. Packets
        # *originating* on the D tile keep the final-ascent class --
        # steady state is untouched.
        self._restart_rids = frozenset(self.spare_gateway_rid.values())

    def _spare_active(self, cs: int, cd: int) -> bool:
        """Is an ACTIVE spare D->D channel assigned to (cs, cd)?

        Draining assignments do not count: they accept no new packets, so
        routability decisions (:meth:`_next_domain`) must not rely on
        them. Committed in-flight packets still finish crossing a draining
        spare via the base class's ``_spare_route``.
        """
        return (
            self.reconfig is not None
            and (cs, cd) in self.spare_out_port
            and self.reconfig.steerable(cs, cd)
        )

    def _direct(self, cs: int, cd: int) -> bool:
        return self.alive(cs, cd) or self._spare_active(cs, cd)

    def _steer_new(self, router: Router, packet, c_cur: int, c_dst: int) -> bool:
        if not self.alive(c_cur, c_dst):
            # Dead pair with an active spare: the spare *is* the route, so
            # all its traffic takes the D path wherever it currently sits
            # (escaped packets included -- routability first).
            return self._spare_active(c_cur, c_dst)
        # Alive pair: inherit the parity-interleaved source-only boost.
        return super()._steer_new(router, packet, c_cur, c_dst)

    def _leg_target(self, router: Router, packet, cur: int, dst: int) -> int:
        nxt = super()._leg_target(router, packet, cur, dst)
        if nxt != dst and packet.wireless_hops >= 1 and not packet.escaped:
            # Mid-flight re-relay: this packet already crossed a wireless
            # leg and is now being handed another *first* leg
            # (fail/reassign flipped under it) -- a third hop would exceed
            # the two-leg VC discipline. Latch the escape: the remaining
            # path restarts store-and-forward at every ascent
            # (hold_for_full), so each inter-restart segment is a fresh
            # monotone climb through RELAY_VC_ORDER.
            packet.escaped = True
            self.reroute_escapes += 1
        return nxt

    def hold_for_full(self, router: Router, out_port: int, packet) -> bool:
        """Store-and-forward gate for escape-path restarts.

        An escaped packet (spare revoked under it, or a mid-flight
        re-relay) restarts each remaining photonic *ascent* only once all
        of its flits are buffered locally. By then every upstream resource
        the packet held has been released (the tail has arrived), so the
        restart cannot couple two home waveguides into a mid-packet
        token-hold cycle -- the failure mode behind the open-loop
        re-pointer deadlock. Descents and wireless hops stay wormhole.
        """
        if not packet.escaped:
            return False
        if router.out_links[out_port].kind != "photonic":
            return False
        _, c_cur, _ = self.gct[router.rid]
        _, c_dst, _ = self.gct[self.core_router[packet.dst_core]]
        return c_cur != c_dst  # ascending hop


class FaultTolerantOwn1024Routing(RelayRouting, Own1024Routing):
    """OWN-1024 routing that relays around failed inter-group channels.

    A failed SWMR channel (g_s -> g_d) is relayed through a third group
    g_x: ascent to the (g_s -> g_x) gateway in the source cluster; leg 1 to
    g_x, where the SWMR resolver delivers to the packet's
    destination-cluster antenna (every letter antenna exists in every
    cluster, so no resolver change is needed); a *middle* photonic hop
    inside that cluster to the (g_x -> g_d) gateway; leg 2; descent.
    """


def build_fault_tolerant_own256(**kwargs):
    """Build OWN-256 with relay-capable routing installed.

    Accepts the same keyword arguments as
    :func:`repro.core.own256.build_own256`. Returns the
    :class:`~repro.topologies.base.BuiltTopology`; the routing object is in
    ``built.notes["routing"]`` for fault injection::

        built = build_fault_tolerant_own256()
        built.notes["routing"].fail_channel(0, 2)
    """
    built = _build_own256(FaultTolerantOwn256Routing, **kwargs)
    built.params["fault_tolerant"] = True
    return built


def build_fault_tolerant_own1024(**kwargs):
    """Build OWN-1024 with group-level relay routing installed.

    Mirrors :func:`build_fault_tolerant_own256`; ``fail_channel`` takes
    ordered *group* pairs.
    """
    built = _build_own1024(FaultTolerantOwn1024Routing, **kwargs)
    built.params["fault_tolerant"] = True
    return built
