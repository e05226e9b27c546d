"""Adaptive reconfiguration channels (Table III rows 13-16)."""

import pytest

from repro.core import build_own256, make_reconfig_controller, N_SPARE_CHANNELS
from repro.core.reconfig import validate_spare_topology
from repro.noc import Simulator
from repro.traffic import SyntheticTraffic, TrafficPattern


def hotspot_traffic(rate=0.035, seed=2, stop=None):
    # Cluster 2 (cores 128-191) as the hot destination region.
    pat = TrafficPattern("HOT", 256, hotspot_fraction=0.6,
                         hotspots=list(range(128, 192)))
    return SyntheticTraffic(256, pat, rate, 4, seed=seed, stop_cycle=stop)


class TestBuilderSupport:
    def test_spare_links_created(self):
        built = build_own256(with_reconfiguration=True)
        spares = built.notes["spare_links"]
        assert len(spares) == 12
        validate_spare_topology(spares)
        # Spares are inert until assigned (no channel id).
        assert all(l.channel_id is None for l in spares.values())

    def test_plain_build_has_no_spares(self):
        built = build_own256()
        assert built.notes["spare_links"] == {}
        with pytest.raises(ValueError, match="with_reconfiguration"):
            make_reconfig_controller(built)

    def test_spares_live_on_d_antennas(self):
        built = build_own256(with_reconfiguration=True)
        for (cs, cd), link in built.notes["spare_links"].items():
            assert link.src_router.attrs["gateway"] == "D"
            assert link.kind == "wireless"


class TestController:
    def test_epoch_validation(self):
        built = build_own256(with_reconfiguration=True)
        with pytest.raises(ValueError):
            make_reconfig_controller(built, epoch_cycles=0)

    def test_assignment_respects_antenna_constraints(self):
        built = build_own256(with_reconfiguration=True)
        ctrl = make_reconfig_controller(built, epoch_cycles=200)
        sim = Simulator(built.network, traffic=hotspot_traffic())
        sim.add_hook(ctrl)
        sim.run(1000)
        assert ctrl.epochs >= 4
        pairs = list(ctrl.assignments)
        assert len(pairs) <= N_SPARE_CHANNELS
        srcs = [p[0] for p in pairs]
        dsts = [p[1] for p in pairs]
        assert len(set(srcs)) == len(srcs)  # one outgoing spare per D antenna
        assert len(set(dsts)) == len(dsts)  # one incoming spare per D antenna

    def test_assigned_channels_take_spare_band_indices(self):
        built = build_own256(with_reconfiguration=True)
        ctrl = make_reconfig_controller(built, epoch_cycles=200)
        sim = Simulator(built.network, traffic=hotspot_traffic())
        sim.add_hook(ctrl)
        sim.run(600)
        for a in ctrl.assignments.values():
            assert 13 <= a.channel_index <= 16

    def test_spares_actually_carry_traffic(self):
        built = build_own256(with_reconfiguration=True)
        ctrl = make_reconfig_controller(built, epoch_cycles=200)
        sim = Simulator(built.network, traffic=hotspot_traffic())
        sim.add_hook(ctrl)
        sim.run(1500)
        assert ctrl.summary()["spare_flits"] > 0

    def test_all_packets_still_delivered(self):
        built = build_own256(with_reconfiguration=True)
        ctrl = make_reconfig_controller(built, epoch_cycles=150)
        sim = Simulator(built.network, traffic=hotspot_traffic(rate=0.02, stop=600))
        sim.add_hook(ctrl)
        sim.run(600)
        assert sim.drain(40_000)
        assert sim.stats.packets_ejected == sim.stats.packets_created

    def test_boost_improves_hotspot_throughput(self):
        """The point of the feature: more accepted load on hot pairs."""
        def run(with_reconfig):
            built = build_own256(with_reconfiguration=with_reconfig)
            sim = Simulator(
                built.network, traffic=hotspot_traffic(rate=0.035),
                warmup_cycles=300,
            )
            if with_reconfig:
                sim.add_hook(make_reconfig_controller(built, epoch_cycles=300))
            sim.run(2000)
            return sim.throughput()

        boosted = run(True)
        baseline = run(False)
        assert boosted > baseline * 1.01

    def test_deadlock_free_under_reconfig_overload(self):
        built = build_own256(with_reconfiguration=True)
        ctrl = make_reconfig_controller(built, epoch_cycles=100)
        sim = Simulator(
            built.network, traffic=hotspot_traffic(rate=0.2), watchdog=1500
        )
        sim.add_hook(ctrl)
        sim.run(1500)  # raises on deadlock
        assert sim.stats.packets_ejected > 0

    def test_utilisation_snapshot_resets_each_epoch(self):
        built = build_own256(with_reconfiguration=True)
        ctrl = make_reconfig_controller(built, epoch_cycles=100)
        sim = Simulator(built.network, traffic=hotspot_traffic(rate=0.02))
        sim.add_hook(ctrl)
        sim.run(250)
        usage = ctrl.utilisation_last_epoch()
        total_flits = sum(l.flits_carried for l in ctrl.primary_links.values())
        # Last-epoch usage is a window, not the cumulative counter.
        assert sum(usage.values()) <= total_flits
