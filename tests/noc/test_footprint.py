"""Footprint of a built network: what the kilo-core model keeps resident.

OWN-1024 builds 3 840 photonic writer links, 1 024 ejection links, 1 024
sinks and 1 024 NIs, so a container that a component never uses, times that
count, is a large share of the network. The ceilings are about 5 % above the
retained KiB measured with py3.11, the interpreter CI and the benchmark host
run (object sizes differ between Python minor versions); the structural
checks say which containers are gone, whatever the version.
"""

import gc
import sys
import tracemalloc
from pathlib import Path

import pytest

import repro
from repro.noc.links import ELECTRICAL
from repro.runtime.registry import build_topology

#: Retained KiB of one build, allocated by code under ``src/repro``.
CEILING_KIB = {"own256": 1055, "own1024": 4290}

PKG_FILES = str(Path(repro.__file__).resolve().parent / "*")


def retained_kib(name: str) -> float:
    """KiB that ``src/repro`` allocated for a build and still holds.

    A first build, untraced, imports what the builder loads lazily and fills
    module-level caches, so the traced second build counts only the network.
    """
    build_topology(name)
    gc.collect()
    tracemalloc.start()
    try:
        built = build_topology(name)  # held while the snapshot is taken
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    del built
    traces = snapshot.filter_traces([tracemalloc.Filter(True, PKG_FILES)]).traces
    return sum(trace.size for trace in traces) / 1024


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="ceilings measured on py3.11")
@pytest.mark.parametrize("name", sorted(CEILING_KIB))
def test_retained_kib_under_ceiling(name):
    kib = retained_kib(name)
    assert kib <= CEILING_KIB[name], f"{name} build retains {kib:.0f} KiB"


@pytest.fixture(scope="module")
def own1024():
    return build_topology("own1024").network


def test_empty_ni_queue_holds_no_deque_block(own1024):
    for ni in own1024.interfaces:
        assert ni.queue == [] and sys.getsizeof(ni.queue) <= sys.getsizeof([])


def test_single_endpoint_link_has_no_endpoint_map(own1024):
    single = [link for link in own1024.links if link.resolver is None]
    assert len(single) > 3840
    assert all(link.endpoints is None for link in single)


def test_ejection_link_has_no_waiter_list(own1024):
    ejection = [link for link in own1024.links if link.all_endpoints()[0].is_sink]
    assert len(ejection) == own1024.n_cores
    for link in ejection:
        assert link.kind == ELECTRICAL and link.medium is None
        sink = link.all_endpoints()[0]
        assert type(sink.credits) is tuple and type(sink.vc_busy) is tuple
    # A waiter list exists only while a VC is parked on the link, so a
    # fresh network, writer links included, holds none.
    assert all(type(link.sa_token_waiters) is tuple for link in own1024.links)


def test_media_keep_no_member_map(own1024):
    for medium in own1024.mediums:
        assert not hasattr(medium, "member_index")
        assert [link.member_index for link in medium.members] == list(
            range(len(medium.members))
        )
