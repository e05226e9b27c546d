"""Channel-class attribution edge cases.

Locks the corners the run-record metrics depend on: reconfiguration /
out-of-plan channel indices (13-16 exist only in the OWN-1024 plan),
SWMR multicast receivers on OWN-1024, and the fallback labels for
non-OWN links.
"""

from types import SimpleNamespace

from repro.noc import Simulator
from repro.runtime import build_topology
from repro.telemetry import Tracer
from repro.telemetry.classify import (
    WIRELESS_CLASSES,
    infer_channel_classes,
    link_class,
    own_channel_classes,
)
from repro.topologies import build_cmesh
from repro.traffic import SyntheticTraffic


def fake_link(kind="wireless", channel_id=None):
    return SimpleNamespace(kind=kind, channel_id=channel_id)


class TestChannelPlans:
    def test_own256_plan_covers_1_to_12_only(self):
        classes = own_channel_classes(256)
        assert sorted(classes) == list(range(1, 13))
        assert set(classes.values()) == set(WIRELESS_CLASSES)

    def test_own1024_plan_covers_all_16(self):
        classes = own_channel_classes(1024)
        assert sorted(classes) == list(range(1, 17))
        # Table II: the intra-group channels 13-16 are short-range.
        assert all(classes[i] == "SR" for i in (13, 14, 15, 16))

    def test_reconfig_channels_fall_back_on_own256(self):
        # Channels 13-16 are not in the OWN-256 plan (Table I stops at
        # 12); a spare/reconfiguration link carrying such an id must not
        # crash or mis-attribute -- it reads as plain "wireless".
        classes = own_channel_classes(256)
        for idx in (13, 14, 15, 16):
            assert idx not in classes
            assert link_class(fake_link(channel_id=idx), classes) == "wireless"

    def test_same_index_classifies_differently_by_plan(self):
        # Channel 13 is SR on OWN-1024 but out-of-plan on OWN-256.
        link = fake_link(channel_id=13)
        assert link_class(link, own_channel_classes(1024)) == "SR"
        assert link_class(link, own_channel_classes(256)) == "wireless"


class TestLinkClassFallbacks:
    def test_wired_kinds_classify_as_kind(self):
        assert link_class(fake_link(kind="photonic")) == "photonic"
        assert link_class(fake_link(kind="electrical")) == "electrical"

    def test_wireless_without_map_or_id(self):
        assert link_class(fake_link()) == "wireless"
        assert link_class(fake_link(channel_id=3), None) == "wireless"
        assert link_class(fake_link(channel_id=None), {3: "C2C"}) == "wireless"

    def test_infer_returns_empty_for_non_own(self):
        built = build_cmesh(64)
        assert infer_channel_classes(built.network) == {}


class TestOwn1024Multicast:
    def test_all_wireless_links_are_swmr_multicast_and_classified(self):
        built = build_topology("own1024")
        classes = infer_channel_classes(built.network)
        wireless = built.network.links_by_kind("wireless")
        assert wireless, "own1024 has no wireless links?"
        for link in wireless:
            # SWMR: one sender, the four receivers of the target group.
            assert link.multicast_degree == 4
            assert link_class(link, classes) in WIRELESS_CLASSES

    def test_traced_own1024_metrics_use_distance_classes(self):
        built = build_topology("own1024")
        tracer = Tracer(record_events=False)
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(
                built.n_cores, "UN", 0.02, 4, seed=5, stop_cycle=120
            ),
            tracer=tracer,
        )
        sim.run(120)
        sim.drain()
        tracer.finalize(sim)
        flat = tracer.metrics_dict()
        classes = {
            key[len("pkt_total["):-len("].count")]
            for key in flat
            if key.startswith("pkt_total[") and key.endswith("].count")
        }
        # Every measured class is either a plan distance class or a wired
        # kind (packets that never crossed a wireless channel); SR traffic
        # (which includes the intra-group channels 13-16) shows up under
        # uniform-random on 1024 cores.
        assert classes <= set(WIRELESS_CLASSES) | {
            "photonic", "electrical", "wireless", "local"
        }
        assert {"C2C", "E2E", "SR"} <= classes
