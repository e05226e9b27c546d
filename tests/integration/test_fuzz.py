"""Hypothesis-driven fuzzing: random traffic against the conservation laws.

Each case drives a network with randomly drawn scripted packets (sources,
destinations, sizes, times), runs to completion, and asserts (a) exact
delivery, (b) the invariant audits at intermediate cycles, (c) per-packet
hop bounds. This is the widest net over simulator edge cases: simultaneous
injections, duplicate (src, dst) pairs, size-1 packets, adversarial timing.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import build_own256
from repro.noc import Simulator
from repro.noc.invariants import audit_network
from repro.topologies import build_cmesh, build_optxb
from repro.traffic import ScriptedTraffic

_fuzz_settings = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# A schedule entry: (cycle, src, dst, size) with sizes 1..8 (vc_depth is 8).
def schedule_strategy(n_cores: int, max_packets: int = 30):
    entry = st.tuples(
        st.integers(min_value=0, max_value=150),
        st.integers(min_value=0, max_value=n_cores - 1),
        st.integers(min_value=0, max_value=n_cores - 1),
        st.integers(min_value=1, max_value=8),
    )
    return st.lists(entry, min_size=1, max_size=max_packets)


def run_fuzz_case(built, schedule):
    clean = [(t, s, d, z) for (t, s, d, z) in schedule if s != d]
    sim = Simulator(built.network, traffic=ScriptedTraffic(clean), watchdog=3000)
    sim.run(200)
    audit_network(sim)
    ok = sim.drain(60_000)
    assert ok, "network failed to drain"
    audit_network(sim)
    assert sim.stats.packets_ejected == len(clean)
    return sim


class TestFuzzCmesh:
    @given(schedule=schedule_strategy(64))
    @_fuzz_settings
    def test_random_schedules(self, schedule):
        run_fuzz_case(build_cmesh(64), schedule)


class TestFuzzOptxb:
    @given(schedule=schedule_strategy(64))
    @_fuzz_settings
    def test_random_schedules(self, schedule):
        run_fuzz_case(build_optxb(64), schedule)


class TestFuzzOwn256:
    @given(schedule=schedule_strategy(256, max_packets=25))
    @settings(max_examples=15, deadline=None)
    def test_random_schedules(self, schedule):
        sim = run_fuzz_case(build_own256(), schedule)
        # OWN hop bound: every packet <= 3 network hops (+1 ejection each).
        packets = sim.stats.measured_packets
        if packets:
            assert sim.stats.hop_sum <= packets * 4


class TestFuzzBurstSameDestination:
    """Deterministic worst cases hypothesis tends to find interesting."""

    def test_all_cores_target_one_core(self):
        built = build_own256()
        schedule = [(0, s, 7, 4) for s in range(0, 256, 8) if s != 7]
        run_fuzz_case(built, schedule)

    def test_back_to_back_from_one_source(self):
        built = build_cmesh(64)
        schedule = [(t, 0, 63, 4) for t in range(25)]
        run_fuzz_case(built, schedule)

    def test_single_flit_flood(self):
        built = build_optxb(64)
        schedule = [(t % 5, s, (s + 1) % 64, 1) for t, s in enumerate(range(64))]
        run_fuzz_case(built, schedule)
