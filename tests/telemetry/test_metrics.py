"""Unit tests for counters, histograms and the metric registry."""

import json
import random

import pytest

from repro.telemetry import Counter, Gauge, Histogram, MetricRegistry


class TestCounterGauge:
    def test_counter_accumulates(self):
        c = Counter()
        c.add()
        c.add(41)
        assert c.value == 42

    def test_gauge_overwrites(self):
        g = Gauge()
        g.set(0.25)
        g.set(0.5)
        assert g.value == 0.5


class TestHistogram:
    def test_empty(self):
        h = Histogram()
        assert h.count == 0
        assert h.mean is None
        assert h.min is None and h.max is None
        assert h.percentile(0.5) is None

    def test_exact_count_sum_min_max(self):
        h = Histogram()
        for v in [3, 0, 17, 17, 5]:
            h.observe(v)
        assert h.count == 5
        assert h.total == 42
        assert h.min == 0
        assert h.max == 17
        assert h.mean == 42 / 5

    def test_buckets_by_bit_length(self):
        h = Histogram()
        h.observe(0)  # bucket 0
        h.observe(1)  # bucket 1
        h.observe(2)  # bucket 2
        h.observe(3)  # bucket 2
        h.observe(4)  # bucket 3
        assert h.buckets == {0: 1, 1: 1, 2: 2, 3: 1}

    def test_percentile_bucket_quantised(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(v)
        p50 = h.percentile(0.5)
        # True median is 50; the bucket upper bound is at most 2x.
        assert 50 <= p50 <= 100
        assert h.percentile(1.0) == 100
        with pytest.raises(ValueError):
            h.percentile(1.5)

    def test_negative_samples_clamped(self):
        h = Histogram()
        h.observe(-3)
        assert h.min == 0 and h.total == 0

    def test_as_dict_json_safe(self):
        h = Histogram()
        h.observe(10)
        d = h.as_dict()
        assert d["count"] == 1 and d["mean"] == 10.0
        json.dumps(d, allow_nan=False)  # must not raise
        json.dumps(Histogram().as_dict(), allow_nan=False)


class TestMetricRegistry:
    def test_get_or_create(self):
        reg = MetricRegistry()
        assert reg.counter("x", "a") is reg.counter("x", "a")
        assert reg.counter("x", "a") is not reg.counter("x", "b")
        assert reg.histogram("h") is reg.histogram("h")

    def test_counters_by_name(self):
        reg = MetricRegistry()
        reg.counter("token_wait_cycles", "wg0").add(5)
        reg.counter("token_wait_cycles", "wg1").add(7)
        reg.counter("other", "wg0").add(1)
        assert reg.counters("token_wait_cycles") == {"wg0": 5, "wg1": 7}

    def test_flat_dict_layout(self):
        reg = MetricRegistry()
        reg.counter("grants", "wg0").add(3)
        reg.gauge("occupancy", "C2C").set(0.5)
        reg.histogram("wait", "photonic").observe(4)
        flat = reg.as_flat_dict()
        assert flat["grants[wg0]"] == 3
        assert flat["occupancy[C2C]"] == 0.5
        assert flat["wait[photonic].count"] == 1
        assert flat["wait[photonic].mean"] == 4.0
        json.dumps(flat, allow_nan=False)

    def test_empty_registry_flattens_empty(self):
        assert MetricRegistry().as_flat_dict() == {}


class TestPercentileInterpolation:
    """The estimator interpolates within buckets instead of snapping to
    the bucket upper bound (which over-reported by up to 2x)."""

    def test_single_value_all_quantiles_exact(self):
        h = Histogram()
        for _ in range(10):
            h.observe(40)
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert h.percentile(q) == 40.0

    def test_extremes_are_exact(self):
        h = Histogram()
        for v in (3, 9, 17, 250):
            h.observe(v)
        assert h.percentile(0.0) == 3.0
        assert h.percentile(1.0) == 250.0

    def test_uniform_median_within_quarter_bucket(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(v)
        # True median 50 sits in bucket 6 = [32, 63]; rank interpolation
        # lands near it instead of snapping to 63 (old behaviour) or 64+.
        assert abs(h.percentile(0.5) - 50) <= 8

    def test_monotone_in_q(self):
        rng = random.Random(17)
        h = Histogram()
        for _ in range(500):
            h.observe(rng.randrange(0, 1000))
        qs = [i / 20 for i in range(21)]
        ps = [h.percentile(q) for q in qs]
        assert all(a <= b for a, b in zip(ps, ps[1:]))

    def test_never_exceeds_observed_range(self):
        rng = random.Random(3)
        h = Histogram()
        for _ in range(200):
            h.observe(rng.randrange(5, 300))
        for q in (0.1, 0.5, 0.9, 0.99):
            assert h.min <= h.percentile(q) <= h.max

    def test_zeros_bucket(self):
        h = Histogram()
        for _ in range(4):
            h.observe(0)
        h.observe(2)
        assert h.percentile(0.5) == 0.0
        assert h.percentile(1.0) == 2.0

    def test_as_dict_exposes_total(self):
        h = Histogram()
        h.observe(7)
        h.observe(9)
        d = h.as_dict()
        assert d["total"] == 16 and d["count"] == 2
