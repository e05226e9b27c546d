"""Common random numbers across architectures.

A synthetic source's stream is keyed by ``(seed, "traffic", pattern)``
only, and an open-loop source never looks at the network. So every
architecture offered the same ``(pattern, rate, seed)`` creates the same
packets, and a comparison between architectures carries no sampling noise
from the traffic.
"""

import pytest

from repro.noc.stats import StatsCollector
from repro.runtime import NAMED_TOPOLOGIES, RunSpec, resolve_ref
from repro.runtime.executor import execute_inline


def _created(monkeypatch, topology):
    created = []
    record = StatsCollector.on_packet_created

    def recording(stats, packet):
        created.append((packet.t_create, packet.src_core, packet.dst_core))
        return record(stats, packet)

    key, kwargs = resolve_ref(NAMED_TOPOLOGIES[topology])
    spec = RunSpec.create(
        key, topology_kwargs=kwargs, pattern="UN", rate=0.03, cycles=400, warmup=100, seed=3
    )
    with monkeypatch.context() as patch:
        patch.setattr(StatsCollector, "on_packet_created", recording)
        execute_inline(spec)
    return created


@pytest.mark.parametrize("topology", ["cmesh256", "pclos256", "optxb256"])
def test_every_architecture_creates_the_packets_own256_creates(monkeypatch, topology):
    own = _created(monkeypatch, "own256")
    assert len(own) > 500
    assert _created(monkeypatch, topology) == own
