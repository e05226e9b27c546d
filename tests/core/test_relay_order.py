"""RELAY_VC_ORDER is executable: every relay route climbs it strictly.

No simulation: each route is walked on a built network by the production
route walker (``repro.noc.network.walk_route``, i.e. ``compute``) and
each hop's grant read from ``allowed_vcs``, for OWN-256 (relay domain:
cluster) and OWN-1024 (relay domain: group), under no failure, every single
failure and a fixed sample of routable double failures.
"""

import itertools

import pytest

from repro.analysis.model import walk_route
from repro.core import (
    RELAY_VC_ORDER,
    build_fault_tolerant_own256,
    build_fault_tolerant_own1024,
)
from repro.noc.packet import Packet

#: (link kind, granted VC tuple) -> rank in the order.
RANK = {(row.link_kind, row.vcs): rank for rank, row in enumerate(RELAY_VC_ORDER)}

PAIRS = [(s, d) for s in range(4) for d in range(4) if s != d]
DOUBLES = [
    ((0, 2), (3, 1)),
    ((0, 2), (1, 3)),
    ((0, 2), (0, 1)),  # first-choice relay of (0, 2) dead too
    ((0, 2), (1, 2)),
    ((0, 1), (1, 0)),
    ((2, 3), (3, 2)),
    ((1, 0), (2, 0)),
    ((3, 0), (0, 3)),
]
FAILURE_SETS = [()] + [(p,) for p in PAIRS] + DOUBLES


def test_table_is_a_strict_order_of_disjoint_classes():
    assert len({row.name for row in RELAY_VC_ORDER}) == len(RELAY_VC_ORDER)
    resources = [
        (row.link_kind, vc) for row in RELAY_VC_ORDER for vc in row.vcs
    ]
    # No (link kind, VC) pair belongs to two ranks, so the tuple's own
    # order is a strict order on resources.
    assert len(set(resources)) == len(resources)
    assert all(row.vcs and row.link_kind in ("photonic", "wireless")
               for row in RELAY_VC_ORDER)
    # Together the rows use every VC of a default 4-VC port on each kind.
    assert set(resources) == set(
        itertools.product(("photonic", "wireless"), range(4))
    )


@pytest.fixture(scope="module", params=[256, 1024])
def plant(request):
    build = {256: build_fault_tolerant_own256, 1024: build_fault_tolerant_own1024}
    built = build[request.param]()
    net, routing = built.network, built.notes["routing"]
    # Per cluster: the four antenna tiles plus one plain tile cover "source
    # is this leg's gateway / another gateway / no gateway" and "the
    # wireless hop lands on the next gateway / on the destination".
    tiles = [t for t in range(16) if net.routers[t].attrs["gateway"]]
    tiles.append(next(t for t in range(16) if t not in tiles))
    return net, routing, tiles


def grants(net, routing, src_core, dst_core):
    """The (link kind, granted VCs) of every network hop of one route."""
    packet = Packet(src_core, dst_core, 4, 0, pid=0)
    hops = walk_route(net, routing, src_core, dst_core)[:-1]  # no ejection
    assert len(hops) <= len(RELAY_VC_ORDER), f"route outgrows the table: {hops}"
    return [
        (link.kind, tuple(routing.allowed_vcs(router, port, packet)))
        for router, port, link, _ in hops
    ]


def routes(routing, tiles):
    """(src core, dst core) for every ordered domain pair: each sampled
    tile to each sampled tile; at OWN-1024 additionally over four
    (source cluster, destination cluster) combinations and the intra-group
    routes, which take the un-failable ``(g, g)`` channel."""
    dims = routing.dims
    if dims.groups == 1:
        places = [((0, s), (0, d)) for s, d in PAIRS]
    else:
        clusters = [(0, 0), (1, 2), (2, 3), (3, 1)]
        places = [
            ((gs, cs), (gd, cd))
            for gs in range(4)
            for gd in range(4)
            for cs, cd in clusters
            if (gs, cs) != (gd, cd)
        ]
    for (gs, cs), (gd, cd) in places:
        for ts, td in itertools.product(tiles, tiles):
            yield dims.quad_to_core(gs, cs, ts, 0), dims.quad_to_core(gd, cd, td, 0)


@pytest.mark.parametrize("failed", FAILURE_SETS, ids=str)
def test_every_route_climbs_the_order(plant, failed):
    net, routing, tiles = plant
    try:
        for pair in failed:
            routing.fail_channel(*pair)
        relayed = 0
        for src, dst in routes(routing, tiles):
            hops = grants(net, routing, src, dst)
            # Each grant is exactly one table row (KeyError otherwise) ...
            ranks = [RANK[hop] for hop in hops]
            # ... acquired in strictly increasing rank ...
            assert ranks == sorted(set(ranks)), (src, dst, hops)
            # ... over at most two wireless hops.
            legs = sum(kind == "wireless" for kind, _ in hops)
            assert 1 <= legs <= 2, (src, dst, hops)
            relayed += legs == 2
        assert (relayed > 0) == bool(failed)
    finally:
        for pair in failed:
            routing.unfail_channel(*pair)


def test_relayed_route_is_the_whole_table():
    """The hand-picked OWN-256 case: (0, 2) dead, tile 5 -> tile 9 relays
    first leg on w{0,1}, final leg on w{2,3}, with every ascent between."""
    built = build_fault_tolerant_own256()
    routing = built.notes["routing"]
    routing.fail_channel(0, 2)
    dims = routing.dims
    hops = grants(
        built.network, routing, dims.quad_to_core(0, 0, 5, 0), dims.quad_to_core(0, 2, 9, 0)
    )
    assert hops == [(row.link_kind, row.vcs) for row in RELAY_VC_ORDER]
