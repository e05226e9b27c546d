"""OWN hierarchical routing and VC-based deadlock avoidance.

Both OWN instances route in at most three network hops (Sec. V-A):

1. photonic hop within the source cluster to the wireless gateway tile,
2. one wireless hop (inter-cluster for OWN-256; inter-group SWMR multicast
   or intra-group channel for OWN-1024),
3. photonic hop within the destination cluster to the destination tile.

Deadlock avoidance
------------------
The paper allocates "2 VCs for data packet communication over the photonic
link and 2 VCs for wireless link" (OWN-256) and, for OWN-1024, "VC0 for
intra-group communication, VC1 for inter-group vertical, VC2 for inter-group
horizontal and VC3 for inter-group diagonal".

We keep those allocations on the *wireless* ports and refine the photonic
side: photonic input VCs {0,1} carry **ascending** hops (towards a wireless
gateway) and VCs {2,3} carry **descending** hops (towards the destination
tile / ejection; purely intra-cluster packets are descending). This yields a
strict resource order

    ascending photonic VC < wireless VC < descending photonic VC < sink,

which is provably cycle-free; without the role split, the first and last
photonic hops of opposing flows can share a VC class at gateway tiles and
close a credit cycle (the watchdog catches this in the ablation test).
DESIGN.md records this as a documented refinement of the paper's scheme.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.channels import (
    ChannelAssignment,
    GROUP_GRID,
    GROUP_OFFSET_ANTENNA,
)
from repro.core.coords import OwnDims
from repro.noc.buffers import WAITING_VC
from repro.noc.network import Network
from repro.noc.router import Router, RoutingFunction

#: Photonic VC roles (see module docstring).
ASCENDING_VCS: Tuple[int, ...] = (0, 1)
DESCENDING_VCS: Tuple[int, ...] = (2, 3)

#: OWN-256 wireless channels may use VCs {0,1} ("2 VCs for wireless link").
OWN256_WIRELESS_VCS: Tuple[int, ...] = (0, 1)


def group_pair_vc(src_group: int, dst_group: int) -> int:
    """OWN-1024 wireless VC class (Sec. V-A).

    VC0 intra-group, VC1 inter-group vertical, VC2 horizontal, VC3 diagonal.
    """
    if src_group == dst_group:
        return 0
    (sx, sy), (dx, dy) = GROUP_GRID[src_group], GROUP_GRID[dst_group]
    if sx == dx:
        return 1  # vertical
    if sy == dy:
        return 2  # horizontal
    return 3  # diagonal


class OwnRoutingBase(RoutingFunction):
    """Shared machinery for OWN-256 / OWN-1024 routing functions.

    A subclass supplies ``_wireless_vcs(packet)``, the VCs a wireless hop
    may claim.

    Parameters
    ----------
    net, dims:
        The network under construction and its (g, c, t, p) dimensions.
    photonic_port:
        ``photonic_port[writer_rid][reader_tile] -> out_port`` for the
        intra-cluster buses (``None`` at the writer's own tile).
    wireless_port:
        ``(gateway_rid, channel_index) -> out_port``.
    gateway_rid:
        ``channel_index -> transmitting router`` (OWN-256) or
        ``(channel_index, src_cluster) -> transmitting router`` (OWN-1024).
    """

    def __init__(
        self,
        net: Network,
        dims: OwnDims,
        photonic_port: List[List[Optional[int]]],
        wireless_port: Dict[Tuple[int, int], int],
    ) -> None:
        self.net = net
        self.dims = dims
        self.photonic_port = photonic_port
        self.wireless_port = wireless_port
        # Router coordinates are static: ``gct[rid]`` is (g, c, t), and
        # ``core_router`` is the network's own core -> router list, so the
        # route path indexes lists instead of redoing divmod arithmetic.
        self.gct: List[Tuple[int, int, int]] = [
            dims.router_to_gct(rid) for rid in range(dims.n_routers)
        ]
        self.core_router = net.core_router

    def allowed_vcs(self, router: Router, out_port: int, packet) -> Sequence[int]:
        link = router.out_links[out_port]
        if link.kind == "photonic":
            g_dst, c_dst, _ = self.gct[self.core_router[packet.dst_core]]
            g_cur, c_cur, _ = self.gct[router.rid]
            descending = (g_dst, c_dst) == (g_cur, c_cur)
            return DESCENDING_VCS if descending else ASCENDING_VCS
        if link.kind == "wireless":
            return self._wireless_vcs(packet)
        return range(router.num_vcs)

    def _leg_target(self, router: Router, packet, cur: int, dst: int) -> int:
        """Relay hook: the domain the wireless leg out of ``cur`` crosses to.

        Domains are clusters at OWN-256 and groups at OWN-1024. Plain
        routing always crosses straight to the destination;
        :class:`repro.core.faults.RelayRouting` goes around failed channels.
        """
        return dst

    def invalidate_pending_routes(self) -> None:
        """Force re-routing of every head still waiting for a VC grant.

        Routes are computed once per packet per router and cached on the
        input VC; a head in WAITING_VC then queues on that *cached*
        downstream endpoint. When channel fault state or the
        spare plan flips underneath it, those cached decisions can aim
        opposing flows at each other's gateway waveguides -- two full
        ascents each waiting on the other's input VC is a stable cycle
        that no VC-class ordering breaks, because both decisions were
        legal when taken but against different topologies. Flushing
        WAITING_VC heads back to IDLE makes them re-run route computation
        against the live state, so stale-route cycles cannot persist past
        the reconfiguration event that created them. ACTIVE packets are
        already streaming into a granted VC and drain normally; runs with
        no fault or spare churn never reach this path, keeping them
        bit-identical.
        """
        kern = self.net.routers[0]._kern
        if kern is None:
            return  # no simulator bound yet: nothing waits
        # Each waiting head is on its endpoint's requests, or in
        # ``vca_fresh`` if bound for a sink (which queues none).
        heads = [
            s for r in self.net.routers for ep in r.input_endpoints for s in ep.requests
        ]
        for s in heads + kern.vca_fresh:
            vc = kern.slot_vc[s]
            if vc.state is WAITING_VC:
                if not vc.cand_endpoint.is_sink:
                    vc.cand_endpoint.withdraw(s)
                vc.release()
                kern.rc_slots.add(s)


class Own256Routing(OwnRoutingBase):
    """OWN-256: photonic -> dedicated inter-cluster wireless -> photonic.

    When built ``with_reconfiguration=True`` the routing additionally knows
    the spare D->D channels; packets of a boosted cluster pair interleave
    (by packet-id parity, keeping each packet on a single path) between the
    primary gateway and the D-antenna gateway. See
    :mod:`repro.core.reconfig`.
    """

    def __init__(
        self,
        net: Network,
        dims: OwnDims,
        photonic_port: List[List[Optional[int]]],
        wireless_port: Dict[Tuple[int, int], int],
        channel_map: Dict[Tuple[int, int], ChannelAssignment],
        gateway_rid: Dict[int, int],
        spare_gateway_rid: Dict[int, int] | None = None,
        spare_out_port: Dict[Tuple[int, int], int] | None = None,
    ) -> None:
        super().__init__(net, dims, photonic_port, wireless_port)
        self.channel_map = channel_map  # (src_cluster, dst_cluster) -> channel
        self.gateway_rid = gateway_rid  # channel_index -> tx router
        self.spare_gateway_rid = spare_gateway_rid or {}  # cluster -> D router
        self.spare_out_port = spare_out_port or {}  # (src, dst cluster) -> port
        self.reconfig = None  # ReconfigurationController, set via attach

    def attach_reconfiguration(self, controller) -> None:
        self.reconfig = controller
        controller.invalidate_routes = self.invalidate_pending_routes

    def _steer_new(self, router: Router, packet, c_cur: int, c_dst: int) -> bool:
        """Should a not-yet-committed packet be steered at the D gateway?"""
        if packet.escaped:
            # Escape path: a packet already forced off a revoked spare (or
            # off a failed relay leg) never re-enters the spare plan.
            return False
        if not self.reconfig.steerable(c_cur, c_dst):
            return False
        if self.core_router[packet.src_core] != router.rid:
            # The steer is the *ascend decision*, taken once at the source
            # router. A packet already past it keeps its path: diverting
            # it at the primary gateway would bounce it back toward D --
            # a second ascent in the same VC class, which couples the two
            # gateways' home waveguides into exactly the mutual-wait
            # cycle the drain protocol exists to prevent.
            return False
        # Per-packet stickiness: parity splits the pair's load ~50/50 while
        # every flit of a packet follows one path.
        return packet.pid % 2 == 1

    def _spare_route(self, router: Router, packet, c_cur: int, c_dst: int):
        """Spare-channel leg of route computation; ``None`` means primary.

        New packets are steered only while the pair's assignment is ACTIVE
        (:meth:`ReconfigurationController.steerable`) and the steer is
        recorded per-pid (:meth:`track_steer`) so the controller can drain
        the leg before re-pointing the channel. A *committed* packet keeps
        its path through the D gateway while the assignment is active or
        draining; if a drain timeout revoked it first, the packet escapes
        (:meth:`note_escape`) onto the primary plan.
        """
        ctrl = self.reconfig
        if ctrl is None:
            return None
        rid = router.rid
        pair = (c_cur, c_dst)
        if ctrl._pid_pair and ctrl.committed_pair(packet.pid) == pair:
            if ctrl.assignment_for(pair) is not None:
                d_gateway = self.spare_gateway_rid[c_cur]
                if rid == d_gateway:
                    return self.spare_out_port[pair]
                return self.photonic_port[rid][self.gct[d_gateway][2]]
            ctrl.note_escape(packet.pid, packet)
            return None
        if self._steer_new(router, packet, c_cur, c_dst):
            ctrl.track_steer(packet.pid, pair)
            d_gateway = self.spare_gateway_rid[c_cur]
            if rid == d_gateway:
                return self.spare_out_port[pair]
            return self.photonic_port[rid][self.gct[d_gateway][2]]
        return None

    def compute(self, router: Router, packet) -> int:
        rid = router.rid
        dst_rid = self.core_router[packet.dst_core]
        gct = self.gct
        ctrl = self.reconfig
        if dst_rid == rid:
            if ctrl is not None and ctrl._pid_pair:
                ctrl.note_arrival(packet.pid, gct[rid][1])
            return self.net.core_eject_port[packet.dst_core]
        _, c_cur, _ = gct[rid]
        _, c_dst, t_dst = gct[dst_rid]
        if c_cur == c_dst:
            if ctrl is not None and ctrl._pid_pair:
                ctrl.note_arrival(packet.pid, c_cur)
            return self.photonic_port[rid][t_dst]
        port = self._spare_route(router, packet, c_cur, c_dst)
        if port is not None:
            return port
        c_next = self._leg_target(router, packet, c_cur, c_dst)
        channel = self.channel_map[(c_cur, c_next)]
        gateway = self.gateway_rid[channel.channel_index]
        if rid == gateway:
            return self.wireless_port[(rid, channel.channel_index)]
        return self.photonic_port[rid][gct[gateway][2]]

    def _wireless_vcs(self, packet) -> Sequence[int]:
        return OWN256_WIRELESS_VCS


class Own1024Routing(OwnRoutingBase):
    """OWN-1024: adds inter-group SWMR multicast and intra-group channels."""

    def __init__(
        self,
        net: Network,
        dims: OwnDims,
        photonic_port: List[List[Optional[int]]],
        wireless_port: Dict[Tuple[int, int], int],
        channel_map: Dict[Tuple[int, int], ChannelAssignment],
        gateway_rid: Dict[Tuple[int, int], int],
    ) -> None:
        super().__init__(net, dims, photonic_port, wireless_port)
        self.channel_map = channel_map  # (src_group, dst_group) -> channel
        self.gateway_rid = gateway_rid  # (channel_index, cluster) -> tx router

    def compute(self, router: Router, packet) -> int:
        rid = router.rid
        dst_rid = self.core_router[packet.dst_core]
        if dst_rid == rid:
            return self.net.core_eject_port[packet.dst_core]
        gct = self.gct
        g_cur, c_cur, _ = gct[rid]
        g_dst, c_dst, t_dst = gct[dst_rid]
        if (g_cur, c_cur) == (g_dst, c_dst):
            return self.photonic_port[rid][t_dst]
        # Wireless is needed: intra-group (D antennas) or inter-group SWMR.
        g_next = self._leg_target(router, packet, g_cur, g_dst)
        channel = self.channel_map[(g_cur, g_next)]
        gateway = self.gateway_rid[(channel.channel_index, c_cur)]
        if rid == gateway:
            return self.wireless_port[(rid, channel.channel_index)]
        return self.photonic_port[rid][gct[gateway][2]]

    def _wireless_vcs(self, packet) -> Sequence[int]:
        gct, core_router = self.gct, self.core_router
        g_src = gct[core_router[packet.src_core]][0]
        g_dst = gct[core_router[packet.dst_core]][0]
        return (group_pair_vc(g_src, g_dst),)
