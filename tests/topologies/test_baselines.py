"""Functional tests for the four baseline architectures.

Each test drives uniform traffic through a freshly built network and checks
full delivery, then pattern-specific invariants (hop counts, radix
inventories, deadlock freedom under permutation traffic).
"""

from __future__ import annotations

import pytest

from repro.noc import Simulator
from repro.topologies import (
    CONCENTRATION,
    build_cmesh,
    build_optxb,
    build_pclos,
    build_wcmesh,
)
from repro.traffic import SyntheticTraffic, ScriptedTraffic

BUILDERS = {
    "cmesh": build_cmesh,
    "wcmesh": build_wcmesh,
    "optxb": build_optxb,
    "pclos": build_pclos,
}


def run_uniform(built, rate=0.05, cycles=400, seed=7):
    sim = Simulator(built.network, traffic=SyntheticTraffic(
        built.n_cores, "UN", rate, packet_size_flits=4, seed=seed, stop_cycle=cycles
    ))
    sim.run(cycles)
    drained = sim.drain(max_cycles=20_000)
    return sim, drained


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_uniform_traffic_fully_delivered_64core(kind):
    built = BUILDERS[kind](n_cores=64)
    sim, drained = run_uniform(built)
    assert drained, f"{kind}: network failed to drain"
    assert sim.stats.packets_ejected == sim.traffic is None or True
    created = sim.stats.packets_created
    assert created > 50  # sanity: traffic actually flowed
    assert sim.stats.packets_ejected == created


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_permutation_traffic_delivered(kind):
    built = BUILDERS[kind](n_cores=64)
    sim = Simulator(built.network, traffic=SyntheticTraffic(
        64, "BR", 0.1, packet_size_flits=4, seed=3, stop_cycle=300
    ))
    sim.run(300)
    assert sim.drain(20_000), f"{kind}: BR traffic deadlocked or stalled"
    assert sim.stats.packets_ejected == sim.stats.packets_created


def test_cmesh_structure():
    built = build_cmesh(n_cores=256)
    net = built.network
    assert net.n_routers == 64
    # Max radix 8: 4 mesh + 4 cores (paper Sec. V-A).
    assert max(r.radix for r in net.routers) == 8
    assert built.notes["diameter_hops"] == 14  # 2*(8-1)


def test_cmesh_minimal_hop_count():
    built = build_cmesh(n_cores=64)
    # Core 0 (router 0) to core 63 (router 15): 3+3 grid hops + eject.
    sim = Simulator(built.network, traffic=ScriptedTraffic([(0, 0, 63, 4)]))
    sim.run(200)
    assert sim.stats.packets_ejected == 1
    assert sim.stats.hop_sum == 7  # 6 mesh traversals + ejection

def test_optxb_structure():
    built = build_optxb(n_cores=256)
    net = built.network
    assert net.n_routers == 64
    # Radix 67: 63 crossbar write ports + 4 cores (paper Sec. V-A).
    assert built.notes["max_radix"] == 67
    out_ports = max(len(r.out_links) for r in net.routers)
    assert out_ports == 67
    assert len(net.mediums) == 64


def test_optxb_single_network_hop():
    built = build_optxb(n_cores=64)
    sim = Simulator(built.network, traffic=ScriptedTraffic([(0, 0, 60, 4)]))
    sim.run(200)
    assert sim.stats.packets_ejected == 1
    # 1 photonic hop + ejection
    assert sim.stats.hop_sum == 2
    assert sim.stats.photonic_hop_sum == 1


def test_wcmesh_structure():
    built = build_wcmesh(n_cores=256)
    net = built.network
    assert net.n_routers == 64
    assert built.notes["wireless_routers"] == 16
    # Radix 11 = 3 electrical + 4 wireless + 4 cores at wireless routers.
    assert max(r.radix for r in net.routers) == 11
    assert len(net.links_by_kind("wireless")) == 2 * 2 * 4 * 3  # 48 directed grid links


def test_wcmesh_wireless_hops_for_cross_chip():
    built = build_wcmesh(n_cores=256)
    # Core 0 (cluster 0, top-left) to core 255 (router 63, cluster 15).
    sim = Simulator(built.network, traffic=ScriptedTraffic([(0, 0, 255, 4)]))
    sim.run(400)
    assert sim.stats.packets_ejected == 1
    # XY over 4x4 cluster grid: 3 + 3 wireless hops.
    assert sim.stats.wireless_hop_sum == 6


def test_pclos_two_hops():
    built = build_pclos(n_cores=64)
    sim = Simulator(built.network, traffic=ScriptedTraffic([(0, 0, 40, 4)]))
    sim.run(300)
    assert sim.stats.packets_ejected == 1
    assert sim.stats.photonic_hop_sum == 2  # up + down
    assert built.notes["diameter_hops"] == 2


def test_pclos_structure():
    built = build_pclos(n_cores=256, n_middles=8)
    net = built.network
    assert net.n_routers == 64 + 8
    assert len(net.mediums) == 8 + 64  # up-waveguides + down-waveguides
