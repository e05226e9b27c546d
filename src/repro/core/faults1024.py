"""Wireless channel fault tolerance for OWN-1024 (group-level relay).

Extends :mod:`repro.core.faults` to kilo-core scale. A failed inter-group
SWMR channel (g_s -> g_d) is relayed through an intermediate group g_x:

1. photonic ascent to the (g_s -> g_x) gateway in the source cluster,
2. wireless leg 1 to group g_x -- the SWMR resolver delivers to the
   packet's destination-cluster antenna inside g_x, where every letter
   antenna exists, so no resolver change is needed,
3. a *middle* photonic hop inside that cluster to the (g_x -> g_d) gateway,
4. wireless leg 2 to the destination group,
5. photonic descent to the destination tile.

VC discipline (mirrors the OWN-256 fault scheme; the paper's per-direction
wireless classes are collapsed into per-leg classes while faults are
present): photonic VC0 first ascent / VC1 middle ascent / VCs {2,3}
descent; wireless VCs {0,1} leg 1 / {2,3} final leg. The order

    ph0 < w{0,1} < ph1 < w{2,3} < ph{2,3} < sink

is strictly increasing along direct (3-hop) and relayed (5-hop) paths
alike, hence deadlock-free; the overload tests exercise it with multiple
simultaneous failures.

Intra-group (D-antenna) channels have no relay alternative inside this
scheme -- failing one raises :class:`~repro.core.faults.UnroutableError`
immediately rather than producing undeliverable traffic.
"""

from __future__ import annotations

from typing import Sequence, Set, Tuple

from repro.core.faults import UnroutableError
from repro.core.routing import Own1024Routing
from repro.noc.router import Router


class FaultTolerantOwn1024Routing(Own1024Routing):
    """OWN-1024 routing that relays around failed inter-group channels."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.failed_pairs: Set[Tuple[int, int]] = set()
        self.relayed_packets = 0

    # ---------------- fault management ---------------- #

    def fail_channel(self, src_group: int, dst_group: int) -> None:
        """Mark the inter-group channel dead.

        Raises
        ------
        UnroutableError
            For intra-group channels (no relay exists) or when the failure
            leaves some ordered group pair without a two-leg alternative.
            The channel is then NOT marked failed -- the failure is rolled
            back so routing state stays self-consistent, as in
            :meth:`FaultTolerantOwn256Routing.fail_channel
            <repro.core.faults.FaultTolerantOwn256Routing.fail_channel>`.
        """
        if src_group == dst_group:
            raise UnroutableError(
                f"intra-group channel g{src_group} has no relay alternative"
            )
        pair = (src_group, dst_group)
        already = pair in self.failed_pairs
        self.failed_pairs.add(pair)
        try:
            for gs in range(4):
                for gd in range(4):
                    if gs != gd:
                        self._next_group(gs, gd)  # raises if stuck
        except UnroutableError:
            if not already:
                self.failed_pairs.discard(pair)
            raise

    def restore_channel(self, src_group: int, dst_group: int) -> None:
        self.failed_pairs.discard((src_group, dst_group))

    def alive(self, gs: int, gd: int) -> bool:
        return gs == gd or (gs, gd) not in self.failed_pairs

    def _relay_for(self, gs: int, gd: int) -> int:
        for gx in range(4):
            if gx in (gs, gd):
                continue
            if self.alive(gs, gx) and self.alive(gx, gd):
                return gx
        raise UnroutableError(
            f"no live relay from group {gs} to {gd}; "
            f"failed={sorted(self.failed_pairs)}"
        )

    def _next_group(self, gs: int, gd: int) -> int:
        if self.alive(gs, gd):
            return gd
        return self._relay_for(gs, gd)

    def _legs_remaining(self, g_cur: int, g_dst: int) -> int:
        if g_cur == g_dst:
            return 0  # any remaining wireless is the intra-group final leg
        return 1 if self.alive(g_cur, g_dst) else 2

    # ---------------- routing ---------------- #

    def compute(self, router: Router, packet) -> int:
        rid = router.rid
        dst_rid = self._dst_rid(packet)
        if dst_rid == rid:
            return self.net.core_eject_port[packet.dst_core]
        g_cur, c_cur, _ = self._gct(rid)
        g_dst, c_dst, _ = self._gct(dst_rid)
        if (g_cur, c_cur) == (g_dst, c_dst):
            return self.photonic_port[(rid, dst_rid)]
        if g_cur == g_dst:
            # Intra-group cluster change: the D-antenna channel, as normal.
            channel = self.channel_map[(g_cur, g_dst)]
        else:
            g_next = self._next_group(g_cur, g_dst)
            channel = self.channel_map[(g_cur, g_next)]
            if g_next != g_dst:
                gateway_probe = self.gateway_rid[(channel.channel_index, c_cur)]
                if rid == gateway_probe:
                    self.relayed_packets += 1
        gateway = self.gateway_rid[(channel.channel_index, c_cur)]
        if rid == gateway:
            return self.wireless_port[(rid, channel.channel_index)]
        return self.photonic_port[(rid, gateway)]

    def allowed_vcs(self, router: Router, out_port: int, packet) -> Sequence[int]:
        link = router.out_links[out_port]
        dst_rid = self._dst_rid(packet)
        g_dst, c_dst, _ = self._gct(dst_rid)
        g_cur, c_cur, _ = self._gct(router.rid)
        if g_cur == g_dst and c_cur != c_dst:
            legs = 1  # intra-group wireless hop still ahead
        else:
            legs = self._legs_remaining(g_cur, g_dst)
        if link.kind == "photonic":
            if legs == 0 and (g_cur, c_cur) == (g_dst, c_dst):
                return (2, 3)
            if legs <= 1:
                return (1,)
            return (0,)
        if link.kind == "wireless":
            return (2, 3) if legs <= 1 else (0, 1)
        return range(router.num_vcs)


def build_fault_tolerant_own1024(**kwargs):
    """Build OWN-1024 with group-level relay routing installed.

    Mirrors :func:`repro.core.faults.build_fault_tolerant_own256`; the
    routing object is exposed in ``built.notes["routing"]``.
    """
    from repro.core.own1024 import build_own1024

    built = build_own1024(**kwargs)
    net = built.network
    # Rebuild the routing function with the same port maps.
    old_routing = net.routers[0].routing
    routing = FaultTolerantOwn1024Routing(
        old_routing.net,
        old_routing.dims,
        old_routing.photonic_port,
        old_routing.wireless_port,
        old_routing.channel_map,
        old_routing.gateway_rid,
    )
    net.set_routing(routing)
    built.notes["routing"] = routing
    built.params["fault_tolerant"] = True
    return built
