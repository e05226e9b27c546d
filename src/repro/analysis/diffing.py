"""Run-record diffing: did this change move the numbers, and by how much?

Compares two JSONL run logs (see :mod:`repro.runtime.records`) point by
point for CI gating and before/after studies:

- **Matching** -- records are grouped by *spec key* ``(topology, pattern,
  rate, cycles, warmup)``. The content digest cannot be the join key
  across commits (it folds in the code fingerprint, so it changes on
  every source edit by design); instead, digest equality per matched key
  is *reported* -- when digests agree the runs were bit-identical inputs
  and any metric delta is pure measurement noise.
- **Noise bands** -- repeated records under one key (repeated-seed or
  repeated-run entries in the same log) define a per-metric spread
  (max - min). A delta within the wider of the two logs' spreads is
  reported but never significant.
- **Gating** -- a delta is a *breach* when it moves the bad way beyond
  the noise band AND the relative threshold (default 5%) on a gated
  metric. At threshold 0 (the golden gate) a move either way breaches.
  :func:`LogDiff.breaches` drives ``repro diff``'s exit status: two logs
  of identical-seed runs diff clean and exit 0; a real regression exits
  non-zero for CI.

Compared metrics: mean/p99 latency, accepted throughput, and per-config
power totals when both records carry them (v1 records without ``power``
simply skip that row). The simulator's self-profile (wall-clock speed) is
machine-dependent and intentionally **never** gated.

**Empty vs missing** -- a JSON ``null`` under a metric path is the
collector's explicit *n=0 sentinel* (a run that completed zero measured
packets), which is a different fact from the path being absent (older
record schema). Absent paths are skipped for compatibility; a null on
exactly one side of a matched key is an *empty-vs-populated mismatch* and
always gates as a regression -- a run that silently stopped delivering
packets must not diff clean just because there were no numbers to compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.runtime.records import read_runlog

#: Spec fields forming the cross-log join key. ``variant`` (the spec's
#: free-form ``tag``, absent/None on untagged runs) keeps study arms that
#: share every numeric field -- e.g. static vs adaptive control -- from
#: collapsing into one repeat group.
KEY_FIELDS = ("topology", "pattern", "rate", "cycles", "warmup", "variant")

#: metric name -> (record path, higher-is-better). Latency regressions are
#: increases; throughput regressions are decreases.
GATED_METRICS: Dict[str, Tuple[Tuple[str, ...], bool]] = {
    "latency_mean": (("summary", "latency_mean"), False),
    "latency_p99": (("summary", "latency_p99"), False),
    "throughput": (("summary", "throughput"), True),
}

#: metric name -> record path for *exact* gates: any difference at all is
#: a breach, with no direction, noise band or relative threshold. Used for
#: determinism fingerprints -- e.g. the recovery decision-log CRC, where
#: a single-bit drift means recovery stopped being reproducible even if
#: every performance number still matches. Absent from one or both logs
#: (runs without recovery, older schema) the metric is skipped, like any
#: other.
EXACT_METRICS: Dict[str, Tuple[str, ...]] = {
    "control_log_crc": ("summary", "control_log_crc"),
    # Spare-channel drain state machine: CRC of the reconfiguration
    # controller's canonical phase-transition log (two-phase draining
    # re-assignment). Present whenever a controller ran; absent-side
    # records skip the gate.
    "drain_log_crc": ("summary", "drain_log_crc"),
}

SpecKey = Tuple[object, ...]


def record_key(record: Mapping[str, object]) -> SpecKey:
    return tuple(record.get(f) for f in KEY_FIELDS)


#: Sentinel distinguishing "path absent from the record" from an explicit
#: JSON ``null`` (which :meth:`StatsCollector.summary` emits for empty
#: measurement windows). ``None`` is reserved for the latter.
_MISSING = object()


def _lookup(record: Mapping[str, object], path: Tuple[str, ...]) -> object:
    node: object = record
    for part in path:
        if not isinstance(node, Mapping) or part not in node:
            return _MISSING
        node = node[part]
    if node is None:
        return None
    return float(node) if isinstance(node, (int, float)) else _MISSING


def _power_paths(records: Sequence[Mapping[str, object]]) -> Dict[str, Tuple[str, ...]]:
    """Power-total metric paths present in any record of a group."""
    out: Dict[str, Tuple[str, ...]] = {}
    for record in records:
        power = record.get("power")
        if isinstance(power, Mapping):
            for cfg in power:
                out[f"power_{cfg}_total_w"] = ("power", str(cfg), "total_w")
    return out


@dataclass
class MetricDiff:
    """One metric's before/after comparison for one spec key."""

    metric: str
    a_mean: float
    b_mean: float
    #: Worst within-log spread (max - min over repeats) across both logs.
    noise: float
    n_a: int
    n_b: int
    higher_is_better: bool = False
    gated: bool = True
    #: Exactly one side carried the explicit n=0 sentinel (null metric)
    #: while the other had data. The empty side's mean is a 0.0
    #: placeholder, never NaN (records are JSON; NaN is not).
    empty_mismatch: bool = False
    #: Exact gate (:data:`EXACT_METRICS`): any value difference -- across
    #: sides or between repeats on one side -- breaches regardless of
    #: direction, noise or threshold.
    exact: bool = False

    @property
    def delta(self) -> float:
        return self.b_mean - self.a_mean

    @property
    def rel_delta(self) -> float:
        if self.a_mean == 0:
            return 0.0 if self.delta == 0 else float("inf")
        return self.delta / abs(self.a_mean)

    def is_regression(self, rel_threshold: float) -> bool:
        """Does this delta breach the gate?

        A regression must move in the bad direction, exceed the noise
        band, and exceed ``rel_threshold`` relative to the baseline. At a
        threshold of 0 the gate pins the baseline: a move beyond the noise
        band in *either* direction breaches, since a baseline the code now
        beats is stale and would let a later change lose the gain unseen.
        """
        if not self.gated:
            return False
        if self.empty_mismatch:
            # One side has zero samples where the other has data: a
            # qualitative change (a run stopped delivering packets, or
            # started) that no numeric threshold may wave through.
            return True
        if self.exact:
            return self.a_mean != self.b_mean or self.noise != 0
        if rel_threshold == 0:
            bad = abs(self.delta)
        else:
            bad = -self.delta if self.higher_is_better else self.delta
        if bad <= self.noise:
            return False
        return abs(self.rel_delta) > rel_threshold

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "metric": self.metric,
            "a": self.a_mean,
            "b": self.b_mean,
            "delta": self.delta,
            "rel_delta": self.rel_delta,
            "noise": self.noise,
            "n_a": self.n_a,
            "n_b": self.n_b,
            "gated": self.gated,
            "empty_mismatch": self.empty_mismatch,
            "exact": self.exact,
        }


@dataclass
class KeyDiff:
    """All metric comparisons for one matched spec key."""

    key: SpecKey
    label: str
    digests_match: bool
    metrics: List[MetricDiff] = field(default_factory=list)

    def regressions(self, rel_threshold: float) -> List[MetricDiff]:
        return [m for m in self.metrics if m.is_regression(rel_threshold)]

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "key": dict(zip(KEY_FIELDS, self.key)),
            "label": self.label,
            "digests_match": self.digests_match,
            "metrics": [m.to_json_dict() for m in self.metrics],
        }


@dataclass
class LogDiff:
    """Full comparison of two run logs."""

    matched: List[KeyDiff]
    only_a: List[str]
    only_b: List[str]
    rel_threshold: float = 0.05

    def breaches(self) -> List[Tuple[KeyDiff, MetricDiff]]:
        out = []
        for kd in self.matched:
            for md in kd.regressions(self.rel_threshold):
                out.append((kd, md))
        return out

    @property
    def clean(self) -> bool:
        return not self.breaches()

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "rel_threshold": self.rel_threshold,
            "clean": self.clean,
            "matched": [k.to_json_dict() for k in self.matched],
            "only_a": list(self.only_a),
            "only_b": list(self.only_b),
            "breaches": [
                {"label": kd.label, **md.to_json_dict()}
                for kd, md in self.breaches()
            ],
        }


def _group(records: Sequence[Mapping[str, object]]):
    groups: Dict[SpecKey, List[Mapping[str, object]]] = {}
    for record in records:
        if "digest" not in record or "summary" not in record:
            continue  # malformed / foreign line
        groups.setdefault(record_key(record), []).append(record)
    return groups


def _stat(
    records: Sequence[Mapping[str, object]], path: Tuple[str, ...]
) -> Optional[Tuple[float, float, int]]:
    """(mean, spread, n_valid) of one metric over a group's repeats.

    Returns ``None`` only when the path is absent from *every* record
    (pre-sentinel schema: the metric was never recorded -- skipped, not
    compared). Explicit JSON nulls (the collector's n=0 sentinel) count
    as present-but-empty: with no numeric values at all the mean and
    spread are 0.0 placeholders and ``n_valid`` is 0, which the caller
    turns into an empty-vs-populated mismatch.
    """
    found = [v for v in (_lookup(r, path) for r in records) if v is not _MISSING]
    if not found:
        return None
    values = [v for v in found if v is not None]
    if not values:
        return 0.0, 0.0, 0
    return sum(values) / len(values), max(values) - min(values), len(values)


def diff_groups(
    groups_a: Dict[SpecKey, List[Mapping[str, object]]],
    groups_b: Dict[SpecKey, List[Mapping[str, object]]],
    rel_threshold: float = 0.05,
) -> LogDiff:
    matched: List[KeyDiff] = []
    for key in sorted(groups_a, key=str):
        if key not in groups_b:
            continue
        recs_a, recs_b = groups_a[key], groups_b[key]
        label = str(recs_a[0].get("label", key))
        digests_a = {r.get("digest") for r in recs_a}
        digests_b = {r.get("digest") for r in recs_b}
        paths: Dict[str, Tuple[Tuple[str, ...], bool, bool]] = {
            name: (path, higher, False)
            for name, (path, higher) in GATED_METRICS.items()
        }
        for name, path in _power_paths(list(recs_a) + list(recs_b)).items():
            paths[name] = (path, False, False)
        for name, path in EXACT_METRICS.items():
            paths[name] = (path, False, True)
        kd = KeyDiff(
            key=key, label=label, digests_match=digests_a == digests_b
        )
        for metric, (path, higher_better, exact) in paths.items():
            stat_a = _stat(recs_a, path)
            stat_b = _stat(recs_b, path)
            if stat_a is None or stat_b is None:
                continue  # metric absent from a side (old schema): skip
            empty_a, empty_b = stat_a[2] == 0, stat_b[2] == 0
            if empty_a and empty_b:
                continue  # n=0 sentinel on both sides: nothing to compare
            kd.metrics.append(
                MetricDiff(
                    metric=metric,
                    a_mean=stat_a[0],
                    b_mean=stat_b[0],
                    noise=max(stat_a[1], stat_b[1]),
                    n_a=stat_a[2],
                    n_b=stat_b[2],
                    higher_is_better=higher_better,
                    empty_mismatch=empty_a != empty_b,
                    exact=exact,
                )
            )
        matched.append(kd)
    only_a = [
        str(groups_a[k][0].get("label", k)) for k in sorted(groups_a, key=str)
        if k not in groups_b
    ]
    only_b = [
        str(groups_b[k][0].get("label", k)) for k in sorted(groups_b, key=str)
        if k not in groups_a
    ]
    return LogDiff(
        matched=matched, only_a=only_a, only_b=only_b,
        rel_threshold=rel_threshold,
    )


def diff_runlogs(path_a, path_b, rel_threshold: float = 0.05) -> LogDiff:
    """Diff two JSONL run logs on disk (see module docstring for rules)."""
    return diff_groups(
        _group(read_runlog(path_a)),
        _group(read_runlog(path_b)),
        rel_threshold=rel_threshold,
    )


def format_diff(diff: LogDiff) -> str:
    """Human-readable diff table for the CLI."""
    lines: List[str] = []
    if not diff.matched:
        lines.append("no matching run points between the two logs")
    for kd in diff.matched:
        tag = "digests match" if kd.digests_match else "digests differ"
        lines.append(f"{kd.label}  [{tag}]")
        for md in kd.metrics:
            if md.empty_mismatch:
                side = "A" if md.n_a == 0 else "B"
                lines.append(
                    f"  {md.metric:<24} EMPTY on side {side}"
                    f" (n_a={md.n_a}, n_b={md.n_b})  << REGRESSION"
                )
                continue
            flag = ""
            if md.is_regression(diff.rel_threshold):
                gain = not md.exact and (md.delta > 0) == md.higher_is_better
                flag = "  << IMPROVED (stale baseline)" if gain else "  << REGRESSION"
            noise = f" (noise band {md.noise:.4g})" if md.noise else ""
            exact = " [exact]" if md.exact else ""
            lines.append(
                f"  {md.metric:<24} {md.a_mean:>12.4f} -> {md.b_mean:>12.4f}"
                f"  delta {md.delta:+.4f} ({md.rel_delta:+.2%})"
                f"{noise}{exact}{flag}"
            )
    for label in diff.only_a:
        lines.append(f"only in A: {label}")
    for label in diff.only_b:
        lines.append(f"only in B: {label}")
    n = len(diff.breaches())
    lines.append(
        "clean: no gated metric moved beyond noise + "
        f"{diff.rel_threshold:.0%} threshold"
        if diff.clean
        else f"{n} breach(es) beyond noise + {diff.rel_threshold:.0%} threshold"
    )
    return "\n".join(lines)
