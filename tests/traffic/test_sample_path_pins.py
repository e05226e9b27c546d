"""Pinned sample paths of ``SyntheticTraffic``.

The CRCs below are of the first 2 000 ``(cycle, src, dst)`` each source
emits. How the arrival clock is kept must not move one packet: it makes
the same ``random()`` calls in the same order.
"""

import zlib

import pytest

from repro.traffic import SyntheticTraffic, TrafficPattern

PINS = {
    ("UN", 256): 2295716225,
    ("BR", 256): 753638702,
    ("HOT", 256): 3662061926,
    ("UN", 1024): 3609814314,
    ("BR", 1024): 2716413402,
    ("HOT", 1024): 4009520068,
}


def _pattern(name, n):
    if name == "HOT":
        return TrafficPattern("HOT", n, hotspot_fraction=0.3, hotspots=[3, n // 2])
    return name


@pytest.mark.parametrize("name, n", sorted(PINS))
def test_first_two_thousand_packets_are_pinned(name, n):
    source = SyntheticTraffic(n, _pattern(name, n), 0.02, 4, seed=7)
    rows, cycle = [], 0
    while len(rows) < 2000:
        rows += [(cycle, p.src_core, p.dst_core) for p in source.tick(cycle)]
        cycle += 1
    assert zlib.crc32(repr(rows[:2000]).encode()) == PINS[name, n]
