"""Property-based end-to-end check of the retransmission protocol.

For any corruption probability and traffic seed, the link layer must be
*exactly-once*: every packet created is ejected exactly once (no loss from
CRC drops, no duplicates from retransmission races) and the network-wide
conservation invariants hold after the drain.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.faults import build_fault_tolerant_own256
from repro.faults import FaultLayer
from repro.noc import Simulator
from repro.noc.invariants import audit_network
from repro.traffic import SyntheticTraffic


@given(
    error_prob=st.floats(min_value=0.0, max_value=0.25,
                         allow_nan=False, allow_infinity=False),
    traffic_seed=st.integers(min_value=0, max_value=2**16),
    rng_seed=st.integers(min_value=0, max_value=2**16),
)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_exactly_once_delivery(error_prob, traffic_seed, rng_seed):
    # A fresh network per example: link timestamps (``busy_until``,
    # arbitration state) are wall-clock values from the previous sim's
    # frame, and a reused network would stall until they expire.
    built = build_fault_tolerant_own256()
    layer = FaultLayer(built.network, seed=rng_seed)
    for link, state in layer.protected.items():
        if link.kind == "wireless":
            state.forced_flit_error_prob = error_prob
    sim = Simulator(
        built.network,
        traffic=SyntheticTraffic(256, "UN", 0.015, 4, seed=traffic_seed,
                                 stop_cycle=250),
        faults=layer,
    )
    sim.run(250)
    assert sim.drain(40_000), "network failed to drain"
    assert sim.stats.packets_ejected == sim.stats.packets_created
    audit_network(sim)
    if error_prob == 0.0:
        assert sim.stats.retransmission_summary()["nacks"] == 0
