"""Counters, histograms and the metric registry.

Metrics are the *aggregated* half of the telemetry subsystem (events are
the other): cheap to update on hot paths and flattenable into the JSONL run
records. The design follows the DSENT-style
practice of attributing activity to named components: every metric is keyed
by ``(name, key)`` where ``key`` names a component or channel class
(``"c0.wg5"``, ``"C2C"``, ``"photonic"``).

Histograms use power-of-two buckets (bucket *i* holds values ``v`` with
``v.bit_length() == i``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple


class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def add(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time float value (set, not accumulated)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def set(self, v: float) -> None:
        self.value = float(v)


class Histogram:
    """Power-of-two bucketed histogram of non-negative integer samples.

    Bucket ``i`` counts samples whose ``bit_length()`` is ``i`` (bucket 0
    holds zeros), i.e. bucket *i > 0* spans ``[2**(i-1), 2**i - 1]``.
    Exact count/sum/min/max are kept alongside, so means are exact and only
    percentiles are bucket-quantised.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        v = int(value)
        if v < 0:
            v = 0
        self.count += 1
        self.total += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v
        b = v.bit_length()
        self.buckets[b] = self.buckets.get(b, 0) + 1

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def percentile(self, q: float) -> Optional[float]:
        """Rank-interpolated ``q``-quantile estimate.

        ``q`` is in [0, 1]. The holding bucket is found by cumulative
        count, then the estimate interpolates linearly *within* the
        bucket's value span by rank position (rather than snapping to the
        bucket upper bound, which systematically over-reported by up to
        2x). Bucket spans are clamped to the observed ``min``/``max``, so
        the extremes are exact.
        """
        if not self.count:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        target = q * self.count
        if target <= 0:
            return float(self.min)
        seen = 0
        for b in sorted(self.buckets):
            n = self.buckets[b]
            before = seen
            seen += n
            if seen >= target:
                lower = (1 << (b - 1)) if b else 0
                upper = (1 << b) - 1 if b else 0
                lower = max(lower, self.min)
                upper = min(upper, self.max)
                if upper <= lower:
                    return float(lower)
                return lower + (target - before) / n * (upper - lower)
        return float(self.max)

    def as_dict(self) -> Dict[str, Optional[float]]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.5),
            "p99": self.percentile(0.99),
        }


class MetricRegistry:
    """Get-or-create store of counters/gauges/histograms keyed by name+key.

    Hot paths should resolve a metric once (``registry.counter(...)``) and
    hold the returned object; lookups are dict-hits but holding the handle
    is cheaper still. With no metrics registered, :meth:`as_flat_dict` is
    an empty dict -- the disabled-telemetry invariant.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, str], Counter] = {}
        self._gauges: Dict[Tuple[str, str], Gauge] = {}
        self._histograms: Dict[Tuple[str, str], Histogram] = {}

    def counter(self, name: str, key: str = "") -> Counter:
        k = (name, key)
        c = self._counters.get(k)
        if c is None:
            c = self._counters[k] = Counter()
        return c

    def gauge(self, name: str, key: str = "") -> Gauge:
        k = (name, key)
        g = self._gauges.get(k)
        if g is None:
            g = self._gauges[k] = Gauge()
        return g

    def histogram(self, name: str, key: str = "") -> Histogram:
        k = (name, key)
        h = self._histograms.get(k)
        if h is None:
            h = self._histograms[k] = Histogram()
        return h

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def counters(self, name: str) -> Dict[str, int]:
        """All keys registered under a counter ``name`` -> value."""
        return {k: c.value for (n, k), c in self._counters.items() if n == name}

    def as_flat_dict(self) -> Dict[str, Optional[float]]:
        """Flatten everything into ``"name[key]"`` -> number.

        Histograms expand into ``"name[key].count"``, ``.mean``, ``.max``
        etc. The result is JSON-safe (no NaN) and is what
        :func:`repro.runtime.records.make_record` folds into run records.
        """
        out: Dict[str, Optional[float]] = {}

        def label(name: str, key: str) -> str:
            return f"{name}[{key}]" if key else name

        for (name, key), c in sorted(self._counters.items()):
            out[label(name, key)] = c.value
        for (name, key), g in sorted(self._gauges.items()):
            out[label(name, key)] = g.value
        for (name, key), h in sorted(self._histograms.items()):
            base = label(name, key)
            for stat, v in h.as_dict().items():
                out[f"{base}.{stat}"] = v
        return out
