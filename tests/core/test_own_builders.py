"""OWN-256 / OWN-1024 builder structure and functional delivery tests."""

import pytest

from repro.core import build_own256, build_own1024, OWN256_DIMS, OWN1024_DIMS
from repro.core.routing import group_pair_vc
from repro.noc import Simulator
from repro.traffic import ScriptedTraffic, SyntheticTraffic


@pytest.fixture(scope="module")
def own256():
    return build_own256()


@pytest.fixture(scope="module")
def own1024():
    return build_own1024()


class TestOwn256Structure:
    def test_counts(self, own256):
        net = own256.network
        assert net.n_cores == 256
        assert net.n_routers == 64
        # 64 home waveguides (16 per cluster).
        assert len(net.mediums) == 64
        # 12 wireless point-to-point channels.
        assert len(net.links_by_kind("wireless")) == 12

    def test_paper_radix_accounting(self, own256):
        radixes = [r.attrs["paper_radix"] for r in own256.network.routers]
        # 16 gateway tiles (4 antennas x 4 clusters) at radix 20; rest 19.
        assert radixes.count(20) == 16
        assert radixes.count(19) == 48

    def test_photonic_out_ports(self, own256):
        # Every router writes to the 15 other home waveguides of its cluster.
        for r in own256.network.routers:
            photonic_outs = [
                l for l in r.out_links if l is not None and l.kind == "photonic"
            ]
            assert len(photonic_outs) == 15

    def test_gateway_wireless_ports(self, own256):
        wireless_out = {
            r.rid: [l for l in r.out_links if l is not None and l.kind == "wireless"]
            for r in own256.network.routers
        }
        counts = [len(v) for v in wireless_out.values()]
        # 12 transmitters, one channel each; D antennas transmit nothing.
        assert counts.count(1) == 12
        assert counts.count(0) == 52

    def test_wireless_channel_ids_match_table1(self, own256):
        ids = sorted(
            l.channel_id for l in own256.network.links_by_kind("wireless")
        )
        assert ids == list(range(1, 13))


class TestOwn256Routing:
    def test_intra_tile_delivery(self):
        built = build_own256()
        # Cores 0 and 1 share tile 0.
        sim = Simulator(built.network, traffic=ScriptedTraffic([(0, 0, 1, 4)]))
        sim.run(50)
        assert sim.stats.packets_ejected == 1
        assert sim.stats.hop_sum == 1  # eject only

    def test_intra_cluster_single_photonic_hop(self):
        built = build_own256()
        # Core 0 (tile 0) to core 60 (tile 15), same cluster.
        sim = Simulator(built.network, traffic=ScriptedTraffic([(0, 0, 60, 4)]))
        sim.run(100)
        assert sim.stats.packets_ejected == 1
        assert sim.stats.photonic_hop_sum == 1
        assert sim.stats.wireless_hop_sum == 0

    def test_inter_cluster_three_hop_worst_case(self):
        built = build_own256()
        # Core 20 (cluster 0, tile 5) to core 84 (cluster 1, tile 5):
        # photonic to gateway, wireless, photonic to destination tile.
        src = OWN256_DIMS.quad_to_core(0, 0, 5, 0)
        dst = OWN256_DIMS.quad_to_core(0, 1, 5, 0)
        sim = Simulator(built.network, traffic=ScriptedTraffic([(0, src, dst, 4)]))
        sim.run(150)
        assert sim.stats.packets_ejected == 1
        assert sim.stats.wireless_hop_sum == 1
        assert sim.stats.photonic_hop_sum == 2
        assert sim.stats.hop_sum == 4  # 3 network hops + ejection

    def test_gateway_source_skips_first_photonic_hop(self):
        built = build_own256()
        # Cluster 0 -> cluster 1 transmits on B0 which sits at tile 12
        # (bottom-left corner): a source core on that tile goes straight to
        # wireless.
        src = OWN256_DIMS.quad_to_core(0, 0, 12, 0)
        dst = OWN256_DIMS.quad_to_core(0, 1, 5, 0)
        sim = Simulator(built.network, traffic=ScriptedTraffic([(0, src, dst, 4)]))
        sim.run(150)
        assert sim.stats.packets_ejected == 1
        assert sim.stats.photonic_hop_sum == 1  # only the destination side

    def test_all_cluster_pairs_deliver(self):
        built = build_own256()
        sched = []
        t = 0
        for cs in range(4):
            for cd in range(4):
                if cs == cd:
                    continue
                src = OWN256_DIMS.quad_to_core(0, cs, 7, 1)
                dst = OWN256_DIMS.quad_to_core(0, cd, 9, 2)
                sched.append((t, src, dst, 4))
                t += 2
        sim = Simulator(built.network, traffic=ScriptedTraffic(sched))
        sim.run(100)
        assert sim.drain()
        assert sim.stats.packets_ejected == 12


class TestOwn1024Structure:
    def test_counts(self, own1024):
        net = own1024.network
        assert net.n_cores == 1024
        assert net.n_routers == 256
        # 256 home waveguides + 16 wireless SWMR channels.
        assert len(net.mediums) == 256 + 16

    def test_paper_radix(self, own1024):
        radixes = [r.attrs["paper_radix"] for r in own1024.network.routers]
        assert set(radixes) == {19, 22}
        assert radixes.count(22) == 64  # 4 antennas x 4 clusters x 4 groups

    def test_wireless_media_multicast_degree(self, own1024):
        wireless = [m for m in own1024.network.mediums if m.kind == "wireless"]
        assert len(wireless) == 16
        assert all(m.multicast_degree == 4 for m in wireless)
        # Each inter-group channel has 4 writers.
        assert all(len(m.members) == 4 for m in wireless)


class TestOwn1024Routing:
    def test_intra_cluster(self):
        built = build_own1024()
        src = OWN1024_DIMS.quad_to_core(2, 1, 0, 0)
        dst = OWN1024_DIMS.quad_to_core(2, 1, 15, 3)
        sim = Simulator(built.network, traffic=ScriptedTraffic([(0, src, dst, 4)]))
        sim.run(100)
        assert sim.stats.packets_ejected == 1
        assert sim.stats.photonic_hop_sum == 1
        assert sim.stats.wireless_hop_sum == 0

    def test_intra_group_inter_cluster_uses_wireless(self):
        built = build_own1024()
        src = OWN1024_DIMS.quad_to_core(1, 0, 5, 0)
        dst = OWN1024_DIMS.quad_to_core(1, 2, 9, 0)
        sim = Simulator(built.network, traffic=ScriptedTraffic([(0, src, dst, 4)]))
        sim.run(200)
        assert sim.stats.packets_ejected == 1
        assert sim.stats.wireless_hop_sum == 1

    def test_inter_group_three_hops(self):
        built = build_own1024()
        src = OWN1024_DIMS.quad_to_core(0, 0, 5, 0)
        dst = OWN1024_DIMS.quad_to_core(2, 3, 9, 1)
        sim = Simulator(built.network, traffic=ScriptedTraffic([(0, src, dst, 4)]))
        sim.run(300)
        assert sim.stats.packets_ejected == 1
        assert sim.stats.wireless_hop_sum == 1
        assert sim.stats.photonic_hop_sum <= 2

    def test_all_group_pairs_deliver(self):
        built = build_own1024()
        sched = []
        t = 0
        for gs in range(4):
            for gd in range(4):
                src = OWN1024_DIMS.quad_to_core(gs, 0, 5, 0)
                dst = OWN1024_DIMS.quad_to_core(gd, 2, 9, 1)
                if src != dst:
                    sched.append((t, src, dst, 4))
                    t += 3
        sim = Simulator(built.network, traffic=ScriptedTraffic(sched))
        sim.run(200)
        assert sim.drain()
        assert sim.stats.packets_ejected == len(sched)

    def test_vc_class_mapping(self):
        # Vertical pairs (same column of the group grid).
        assert group_pair_vc(0, 3) == 1
        assert group_pair_vc(1, 2) == 1
        # Horizontal pairs.
        assert group_pair_vc(0, 1) == 2
        assert group_pair_vc(2, 3) == 2
        # Diagonal pairs.
        assert group_pair_vc(0, 2) == 3
        assert group_pair_vc(1, 3) == 3
        # Intra-group.
        assert group_pair_vc(2, 2) == 0


class TestTrafficCompletion:
    @pytest.mark.parametrize("pattern", ["UN", "BR", "MT", "PS", "NBR"])
    def test_own256_all_patterns_drain(self, pattern):
        built = build_own256()
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(256, pattern, 0.02, 4, seed=4, stop_cycle=200),
        )
        sim.run(200)
        assert sim.drain(30_000), f"{pattern} failed to drain"
        assert sim.stats.packets_ejected == sim.stats.packets_created

    def test_own1024_uniform_drains(self):
        built = build_own1024()
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(1024, "UN", 0.008, 4, seed=4, stop_cycle=150),
        )
        sim.run(150)
        assert sim.drain(60_000)
        assert sim.stats.packets_ejected == sim.stats.packets_created
