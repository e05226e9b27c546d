"""OWN-256 builder (Fig. 1 of the paper).

4 clusters x 16 tiles x 4 cores. Within a cluster every tile owns a home
waveguide written MWSR by the other 15 tiles under token arbitration
("we need 16 waveguides with one home waveguide per tile and 16 tokens",
Sec. III-A). The 12 wireless channels of Table I connect cluster pairs as
dedicated unidirectional links at the gateway (corner) tiles.

Router radix bookkeeping matches Sec. V-A: wireless gateway routers have
radix 20 (15 photonic + 1 wireless + 4 cores), plain tiles 19; these feed
the DSENT-style router power model via ``attrs["paper_radix"]``.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.core.channels import own256_channel_map, own256_channels
from repro.core.coords import OWN256_DIMS, OwnDims
from repro.core.floorplan import antenna, tile_position_mm, CLUSTER_EDGE_MM
from repro.core.routing import Own256Routing
from repro.noc.links import SharedMedium
from repro.noc.network import Network
from repro.topologies.base import BuiltTopology, CONCENTRATION, attach_concentrated_cores

#: Cycles for the MWSR token to reach a granted writer within a cluster
#: (optical tokens circulate fast over the 25 mm cluster: 1 cycle).
PHOTONIC_TOKEN_LATENCY = 1

#: Light propagation along the snake waveguide, in cycles.
PHOTONIC_LINK_LATENCY = 2

#: Snake waveguide length within one 25 mm cluster [mm] (serpentine through
#: a 4x4 tile grid: ~4 passes of the cluster edge).
SNAKE_LENGTH_MM = 4 * CLUSTER_EDGE_MM


#: Centre tiles of the 4x4 grid, used by the antenna-placement ablation
#: ("If all the wireless transceivers were located in close proximity
#: (center of the cluster), then all inter-cluster traffic will be directed
#: to the center which could lead to load and thermal imbalance", Sec. III-A).
CENTER_ANTENNA_TILES: Dict[str, int] = {"A": 5, "D": 6, "B": 9, "C": 10}


def _build_own256(
    routing_cls,
    num_vcs: int = 4,
    vc_depth: int = 8,
    wireless_cycles_per_flit: int = 1,
    wireless_latency: int = 1,
    antenna_placement: str = "corners",
    with_reconfiguration: bool = False,
) -> BuiltTopology:
    """Build the OWN-256 network, routed by a ``routing_cls`` instance.

    Parameters
    ----------
    wireless_cycles_per_flit:
        1 under the ideal scenario (32 GHz channels); 2 under the
        conservative scenario (16 GHz halves every channel's bandwidth,
        Table III).
    wireless_latency:
        Propagation + transceiver latency of a wireless hop in cycles
        (mm-wave time-of-flight is sub-cycle; serialization dominates).
    antenna_placement:
        ``"corners"`` (the paper's design) or ``"center"`` (the rejected
        alternative, kept for the load-balance ablation).
    with_reconfiguration:
        Additionally build the 12 candidate D->D spare links that the
        reconfiguration channels 13-16 can be mapped onto
        (:mod:`repro.core.reconfig`). The spares are inert until a
        :class:`~repro.core.reconfig.ReconfigurationController` is attached
        via :func:`make_reconfig_controller`.
    """
    if antenna_placement not in ("corners", "center"):
        raise ValueError(f"unknown antenna placement {antenna_placement!r}")
    dims = OWN256_DIMS
    net = Network("own256", dims.n_cores, num_vcs=num_vcs, vc_depth=vc_depth)

    channels = own256_channels()
    gateway_tiles: Dict[Tuple[int, int], str] = {}  # (cluster, tile) -> letter
    def antenna_tile(cluster: int, letter: str) -> int:
        if antenna_placement == "center":
            return CENTER_ANTENNA_TILES[letter]
        return antenna(cluster, letter).tile

    for cluster in range(dims.clusters):
        for letter in "ABCD":
            gateway_tiles[(cluster, antenna_tile(cluster, letter))] = letter

    # Routers: one per tile.
    for rid in range(dims.n_routers):
        _, c, t = dims.router_to_gct(rid)
        is_gateway = (c, t) in gateway_tiles
        net.add_router(
            position_mm=tile_position_mm(c, t),
            attrs={
                "cluster": c,
                "tile": t,
                "gateway": gateway_tiles.get((c, t)),
                # Sec. V-A radix accounting for the power model:
                "paper_radix": 20 if is_gateway else 19,
            },
        )
    for rid in range(dims.n_routers):
        attach_concentrated_cores(net, rid, rid * CONCENTRATION)

    # Photonic MWSR crossbar per cluster: one home waveguide per tile.
    # photonic_port[writer][reader_tile] is the writer's port onto it.
    photonic_port: List[List[Optional[int]]] = [[None] * dims.tiles for _ in net.routers]
    for cluster in range(dims.clusters):
        tiles = [dims.gct_to_router(0, cluster, t) for t in range(dims.tiles)]
        for t_reader, reader in enumerate(tiles):
            medium = SharedMedium(
                f"c{cluster}.wg{reader}",
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

    # Wireless inter-cluster channels (Table I).
    wireless_port: Dict[Tuple[int, int], int] = {}
    gateway_rid: Dict[int, int] = {}
    for ch in channels:
        tx_rid = dims.gct_to_router(0, ch.src_cluster, antenna_tile(ch.src_cluster, ch.tx))
        rx_rid = dims.gct_to_router(0, ch.dst_cluster, antenna_tile(ch.dst_cluster, ch.rx))
        out_port, _ = net.connect(
            tx_rid,
            rx_rid,
            kind="wireless",
            latency=wireless_latency,
            cycles_per_flit=wireless_cycles_per_flit,
            length_mm=ch.distance_mm,
            name=f"wch{ch.channel_index}.{ch.name}",
            channel_id=ch.channel_index,
        )
        wireless_port[(tx_rid, ch.channel_index)] = out_port
        gateway_rid[ch.channel_index] = tx_rid

    # Optional reconfiguration spares: D -> D candidate links for every
    # ordered cluster pair (at most 4 are active at a time; see
    # repro.core.reconfig).
    spare_gateway_rid: Dict[int, int] = {}
    spare_out_port: Dict[Tuple[int, int], int] = {}
    spare_links: Dict[Tuple[int, int], object] = {}
    primary_links: Dict[Tuple[int, int], object] = {}
    if with_reconfiguration:
        for cluster in range(dims.clusters):
            spare_gateway_rid[cluster] = dims.gct_to_router(
                0, cluster, antenna_tile(cluster, "D")
            )
        from repro.core.floorplan import distance_mm as _dist, antenna as _ant

        for cs in range(dims.clusters):
            for cd in range(dims.clusters):
                if cs == cd:
                    continue
                d_mm = _dist(_ant(cs, "D"), _ant(cd, "D"))
                out_port, _ = net.connect(
                    spare_gateway_rid[cs],
                    spare_gateway_rid[cd],
                    kind="wireless",
                    latency=wireless_latency,
                    cycles_per_flit=wireless_cycles_per_flit,
                    length_mm=d_mm,
                    name=f"spare.D{cs}->D{cd}",
                    channel_id=None,
                )
                spare_out_port[(cs, cd)] = out_port
                spare_links[(cs, cd)] = net.routers[spare_gateway_rid[cs]].out_links[out_port]
        cmap = own256_channel_map()
        for (cs, cd), ch in cmap.items():
            tx_rid2 = gateway_rid[ch.channel_index]
            port = wireless_port[(tx_rid2, ch.channel_index)]
            primary_links[(cs, cd)] = net.routers[tx_rid2].out_links[port]

    routing = routing_cls(
        net,
        dims,
        photonic_port,
        wireless_port,
        own256_channel_map(),
        gateway_rid,
        spare_gateway_rid=spare_gateway_rid,
        spare_out_port=spare_out_port,
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
            "antenna_placement": antenna_placement,
        },
        notes={
            "max_radix_paper": 20,
            "diameter_hops": 3,
            "waveguides": dims.clusters * dims.tiles,
            "spare_links": spare_links,
            "primary_links": primary_links,
            "routing": routing,
        },
    )


#: The paper's OWN-256: :func:`_build_own256` with the plain routing class
#: (:func:`repro.core.faults.build_fault_tolerant_own256` binds the relay one).
build_own256 = partial(_build_own256, Own256Routing)


def make_reconfig_controller(
    built: BuiltTopology,
    epoch_cycles: int = 500,
    drain_timeout: int | None = None,
):
    """Create + attach a reconfiguration controller to an OWN-256 network.

    The returned controller must also be registered as a simulator hook::

        built = build_own256(with_reconfiguration=True)
        ctrl = make_reconfig_controller(built, epoch_cycles=500)
        sim = Simulator(built.network, traffic=...)
        sim.add_hook(ctrl)

    Raises
    ------
    ValueError
        If the topology was not built ``with_reconfiguration=True``.
    """
    from repro.core.reconfig import (
        DEFAULT_DRAIN_TIMEOUT,
        ReconfigurationController,
        validate_spare_topology,
    )

    spare_links = built.notes.get("spare_links")
    if not spare_links:
        raise ValueError(
            "topology was not built with_reconfiguration=True; no spare links"
        )
    validate_spare_topology(spare_links)
    controller = ReconfigurationController(
        built.network,
        spare_links,
        built.notes["primary_links"],
        epoch_cycles=epoch_cycles,
        drain_timeout=(
            DEFAULT_DRAIN_TIMEOUT if drain_timeout is None else drain_timeout
        ),
    )
    built.notes["routing"].attach_reconfiguration(controller)
    return controller
