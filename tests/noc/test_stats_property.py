"""``LatencyStats.from_samples`` is exact Python, checked against NumPy.

A run computes its latency statistics without NumPy. Every field must
still equal, bit for bit, what NumPy's ``mean``, ``median``, ``percentile``
(default ``linear`` method) and ``max`` give over the same samples.
"""

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.noc.stats import LatencyStats

FIELDS = ("mean", "median", "p95", "p99", "max")

#: Latencies in cycles: mostly short, with the odd long one (or all long).
SAMPLES = st.lists(
    st.one_of(st.integers(0, 64), st.integers(0, 10**9)), min_size=1, max_size=3000
)


def _numpy_stats(samples):
    arr = np.asarray(samples, dtype=np.float64)
    return (
        float(arr.mean()),
        float(np.median(arr)),
        float(np.percentile(arr, 95)),
        float(np.percentile(arr, 99)),
        float(arr.max()),
    )


def _bits(values):
    return [float.hex(v) for v in values]


@settings(max_examples=300, deadline=None)
@given(SAMPLES)
def test_from_samples_equals_numpy_bit_for_bit(samples):
    stats = LatencyStats.from_samples(samples)
    got = [getattr(stats, name) for name in FIELDS]
    assert all(type(v) is float for v in got)
    assert stats.count == len(samples)
    assert _bits(got) == _bits(_numpy_stats(samples))


def test_three_thousand_random_latencies():
    rnd = random.Random(2018)
    samples = [rnd.randint(5, 400) for _ in range(3000)]
    stats = LatencyStats.from_samples(samples)
    assert _bits(getattr(stats, name) for name in FIELDS) == _bits(_numpy_stats(samples))
