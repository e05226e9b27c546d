"""Property-based routing checks: any (src, dst) pair is delivered with the
architectural hop bound, on OWN-256, OWN-1024 and the fault-tolerant
variant."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import OWN1024_DIMS, OWN256_DIMS, build_own256, build_own1024
from repro.core.faults import build_fault_tolerant_own256
from repro.noc import Simulator
from repro.traffic import ScriptedTraffic

# Build once per module: the networks are immutable across packets (stats
# accumulate but never affect routing).
_OWN256 = build_own256()
_OWN1024 = build_own1024()
_FT = build_fault_tolerant_own256()
_FT.notes["routing"].fail_channel(0, 2)
_FT.notes["routing"].fail_channel(3, 1)

_prop_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _deliver(built, src, dst, max_network_hops):
    sim = Simulator(built.network, traffic=ScriptedTraffic([(0, src, dst, 4)]))
    sim.run(600)
    assert sim.stats.packets_ejected == 1, (src, dst)
    pkt_hops = sim.stats.hop_sum - 1  # exclude the ejection hop
    assert pkt_hops <= max_network_hops, (src, dst, pkt_hops)
    return sim


class TestOwn256Property:
    @given(
        src=st.integers(min_value=0, max_value=255),
        dst=st.integers(min_value=0, max_value=255),
    )
    @_prop_settings
    def test_any_pair_delivered_within_three_hops(self, src, dst):
        if src == dst:
            return
        sim = _deliver(_OWN256, src, dst, max_network_hops=3)
        # Wireless used iff clusters differ.
        _, cs, _, _ = OWN256_DIMS.core_to_quad(src)
        _, cd, _, _ = OWN256_DIMS.core_to_quad(dst)
        expected_wireless = 0 if cs == cd else 1
        assert sim.stats.wireless_hop_sum == expected_wireless


class TestOwn1024Property:
    @given(
        src=st.integers(min_value=0, max_value=1023),
        dst=st.integers(min_value=0, max_value=1023),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_pair_delivered_within_three_hops(self, src, dst):
        if src == dst:
            return
        sim = _deliver(_OWN1024, src, dst, max_network_hops=3)
        gs, cs, _, _ = OWN1024_DIMS.core_to_quad(src)
        gd, cd, _, _ = OWN1024_DIMS.core_to_quad(dst)
        expected_wireless = 0 if (gs, cs) == (gd, cd) else 1
        assert sim.stats.wireless_hop_sum == expected_wireless


class TestFaultTolerantProperty:
    @given(
        src=st.integers(min_value=0, max_value=255),
        dst=st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_pair_delivered_with_two_failures(self, src, dst):
        if src == dst:
            return
        # Relayed pairs may take up to 5 network hops.
        sim = _deliver(_FT, src, dst, max_network_hops=5)
        assert sim.stats.wireless_hop_sum <= 2
