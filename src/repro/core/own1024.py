"""OWN-1024 builder (Fig. 2 of the paper).

Four OWN-256 groups. Intra-cluster photonics is unchanged; wireless becomes
SWMR: each of the 12 inter-group channels is written (under a circulating
token) by the matching antenna of *any* cluster of the source group and
received by that antenna in *all four* clusters of the destination group --
"the intended destination cluster will simply forward the signal and the
rest will discard it" (Sec. III-B). Four intra-group channels on the D
antennas handle cluster-to-cluster traffic within a group.

Receiver energy for the three discarding clusters is charged through the
medium's ``multicast_degree`` (Sec. III-B: "receiver power is consumed since
the data has to be analyzed before discarding it").
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.core.channels import own1024_channel_map, own1024_channels
from repro.core.coords import OWN1024_DIMS
from repro.core.floorplan import antenna, tile_position_mm, CLUSTER_EDGE_MM
from repro.core.own256 import (
    PHOTONIC_LINK_LATENCY,
    PHOTONIC_TOKEN_LATENCY,
    SNAKE_LENGTH_MM,
)
from repro.core.routing import Own1024Routing
from repro.noc.links import SharedMedium
from repro.noc.network import Network
from repro.topologies.base import BuiltTopology, CONCENTRATION, attach_concentrated_cores

#: Token hand-off latency among the four cluster transmitters of a group.
WIRELESS_TOKEN_LATENCY = 2

#: Group origin offsets in the 2x2 assembly of 50 mm groups.
GROUP_EDGE_MM = 2 * CLUSTER_EDGE_MM


def _group_origin(group: int) -> Tuple[float, float]:
    from repro.core.channels import GROUP_GRID

    gx, gy = GROUP_GRID[group]
    return (gx * GROUP_EDGE_MM, gy * GROUP_EDGE_MM)


def _build_own1024(
    routing_cls,
    num_vcs: int = 4,
    vc_depth: int = 8,
    wireless_cycles_per_flit: int = 1,
    wireless_latency: int = 1,
) -> BuiltTopology:
    """Build the OWN-1024 network, routed by a ``routing_cls`` instance (see
    :func:`repro.core.own256.build_own256` for the parameter semantics)."""
    dims = OWN1024_DIMS
    net = Network("own1024", dims.n_cores, num_vcs=num_vcs, vc_depth=vc_depth)

    channels = own1024_channels()
    gateway_tiles: Dict[Tuple[int, int], str] = {}
    for cluster in range(dims.clusters):
        for letter in "ABCD":
            ant = antenna(cluster, letter)
            gateway_tiles[(cluster, ant.tile)] = letter

    for rid in range(dims.n_routers):
        g, c, t = dims.router_to_gct(rid)
        ox, oy = _group_origin(g)
        tx, ty = tile_position_mm(c, t)
        is_gateway = (c, t) in gateway_tiles
        net.add_router(
            position_mm=(ox + tx, oy + ty),
            attrs={
                "group": g,
                "cluster": c,
                "tile": t,
                "gateway": gateway_tiles.get((c, t)),
                # Sec. V-A: "The maximum radix is 22 (15 photonic, 3
                # wireless and 4 cores)" at gateway tiles.
                "paper_radix": 22 if is_gateway else 19,
            },
        )
    for rid in range(dims.n_routers):
        attach_concentrated_cores(net, rid, rid * CONCENTRATION)

    # Intra-cluster photonic crossbars (16 clusters x 16 waveguides),
    # indexed as at OWN-256: photonic_port[writer][reader_tile].
    photonic_port: List[List[Optional[int]]] = [[None] * dims.tiles for _ in net.routers]
    for g in range(dims.groups):
        for cluster in range(dims.clusters):
            tiles = [dims.gct_to_router(g, cluster, t) for t in range(dims.tiles)]
            for t_reader, reader in enumerate(tiles):
                medium = SharedMedium(
                    f"g{g}c{cluster}.wg{reader}",
                    kind="photonic",
                    arb_latency=PHOTONIC_TOKEN_LATENCY,
                )
                writers = [w for w in tiles if w != reader]
                ports = net.connect_bus(
                    writers,
                    reader,
                    kind="photonic",
                    medium=medium,
                    latency=PHOTONIC_LINK_LATENCY,
                    length_mm=SNAKE_LENGTH_MM,
                )
                for w, port in ports.items():
                    photonic_port[w][t_reader] = port

    # Wireless channels: 12 inter-group SWMR + 4 intra-group.
    wireless_port: Dict[Tuple[int, int], int] = {}
    gateway_rid: Dict[Tuple[int, int], int] = {}

    def antenna_rid(group: int, cluster: int, letter: str) -> int:
        return dims.gct_to_router(group, cluster, antenna(cluster, letter).tile)

    core_cluster = [dims.core_to_quad(core)[1] for core in range(dims.n_cores)]

    def cluster_resolver(packet):
        return core_cluster[packet.dst_core]

    for ch in channels:
        letter = ch.tx
        writers = [antenna_rid(ch.src_group, c, letter) for c in range(dims.clusters)]
        readers = [antenna_rid(ch.dst_group, c, letter) for c in range(dims.clusters)]
        medium = SharedMedium(
            f"wch{ch.channel_index}.{ch.name}",
            kind="wireless",
            arb_latency=WIRELESS_TOKEN_LATENCY,
            multicast_degree=dims.clusters,
        )
        ports = net.connect_multicast(
            writers,
            readers,
            resolver=cluster_resolver,
            reader_keys=list(range(dims.clusters)),
            kind="wireless",
            medium=medium,
            latency=wireless_latency,
            cycles_per_flit=wireless_cycles_per_flit,
            length_mm=ch.distance_mm,
            channel_id=ch.channel_index,
        )
        for cluster, w in enumerate(writers):
            wireless_port[(w, ch.channel_index)] = ports[w]
            gateway_rid[(ch.channel_index, cluster)] = w

    routing = routing_cls(
        net, dims, photonic_port, wireless_port, own1024_channel_map(), gateway_rid
    )
    net.set_routing(routing)
    net.finalize()
    return BuiltTopology(
        network=net,
        kind="own",
        params={
            "n_cores": dims.n_cores,
            "wireless_cycles_per_flit": wireless_cycles_per_flit,
            "channels": len(channels),
        },
        notes={
            "max_radix_paper": 22,
            "diameter_hops": 3,
            "waveguides": dims.groups * dims.clusters * dims.tiles,
            "routing": routing,
        },
    )


#: The paper's OWN-1024 (:func:`repro.core.faults.build_fault_tolerant_own1024`
#: binds the relay-capable routing class instead).
build_own1024 = partial(_build_own1024, Own1024Routing)
