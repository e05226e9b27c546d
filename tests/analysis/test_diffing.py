"""Run-record diffing: matching, noise bands, regression gating."""

import json

import pytest

from repro.analysis.diffing import (
    LogDiff,
    diff_groups,
    diff_runlogs,
    format_diff,
    record_key,
)


def record(topology="own256", pattern="UN", rate=0.03, cycles=800, warmup=200,
           latency=30.0, p99=60.0, throughput=0.03, digest="d0", power=None):
    rec = {
        "digest": digest,
        "label": f"{topology}/{pattern}@{rate:g}x{cycles}",
        "topology": topology, "pattern": pattern, "rate": rate,
        "cycles": cycles, "warmup": warmup,
        "summary": {
            "latency_mean": latency,
            "latency_p99": p99,
            "throughput": throughput,
        },
    }
    if power is not None:
        rec["power"] = power
    return rec


def write_log(tmp_path, name, records):
    path = tmp_path / name
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


class TestMatching:
    def test_identical_logs_zero_deltas_and_clean(self, tmp_path):
        recs = [record(rate=0.01), record(rate=0.03)]
        a = write_log(tmp_path, "a.jsonl", recs)
        b = write_log(tmp_path, "b.jsonl", recs)
        diff = diff_runlogs(a, b)
        assert diff.clean
        assert len(diff.matched) == 2
        for kd in diff.matched:
            assert kd.digests_match
            for md in kd.metrics:
                assert md.delta == 0.0 and md.rel_delta == 0.0

    def test_unmatched_points_reported(self, tmp_path):
        a = write_log(tmp_path, "a.jsonl", [record(rate=0.01), record(rate=0.02)])
        b = write_log(tmp_path, "b.jsonl", [record(rate=0.02), record(rate=0.05)])
        diff = diff_runlogs(a, b)
        assert len(diff.matched) == 1
        assert diff.only_a == ["own256/UN@0.01x800"]
        assert diff.only_b == ["own256/UN@0.05x800"]

    def test_digest_mismatch_reported_not_gating(self, tmp_path):
        a = write_log(tmp_path, "a.jsonl", [record(digest="aaa")])
        b = write_log(tmp_path, "b.jsonl", [record(digest="bbb")])
        diff = diff_runlogs(a, b)
        assert not diff.matched[0].digests_match
        assert diff.clean  # same numbers, different code fingerprint

    def test_malformed_lines_skipped(self, tmp_path):
        a = tmp_path / "a.jsonl"
        a.write_text(json.dumps(record()) + "\nnot json\n{\"half\": 1}\n")
        b = write_log(tmp_path, "b.jsonl", [record()])
        assert len(diff_runlogs(a, b).matched) == 1

    def test_key_covers_spec_fields(self):
        assert record_key(record()) == ("own256", "UN", 0.03, 800, 200, None)

    def test_variant_tag_distinguishes_cells(self):
        # Same spec shape, different experiment arm: must not cross-match.
        a, b = record(), record()
        a["variant"] = "hotspot/static"
        b["variant"] = "hotspot/adaptive"
        assert record_key(a) != record_key(b)


class TestGating:
    def test_latency_regression_breaches(self, tmp_path):
        a = write_log(tmp_path, "a.jsonl", [record(latency=30.0)])
        b = write_log(tmp_path, "b.jsonl", [record(latency=36.0)])
        diff = diff_runlogs(a, b)
        assert not diff.clean
        breached = {md.metric for _, md in diff.breaches()}
        assert breached == {"latency_mean"}

    def test_latency_improvement_never_breaches(self, tmp_path):
        a = write_log(tmp_path, "a.jsonl", [record(latency=30.0)])
        b = write_log(tmp_path, "b.jsonl", [record(latency=20.0)])
        assert diff_runlogs(a, b).clean

    def test_zero_threshold_breaches_either_direction(self, tmp_path):
        a = write_log(tmp_path, "a.jsonl", [record(latency=30.0, throughput=0.030)])
        for moved in (record(latency=29.0, throughput=0.030),
                      record(latency=30.0, throughput=0.031)):
            b = write_log(tmp_path, "b.jsonl", [moved])
            assert not diff_runlogs(a, b, rel_threshold=0.0).clean
            assert diff_runlogs(a, b, rel_threshold=0.05).clean
        assert diff_runlogs(a, a, rel_threshold=0.0).clean

    def test_throughput_drop_breaches(self, tmp_path):
        a = write_log(tmp_path, "a.jsonl", [record(throughput=0.030)])
        b = write_log(tmp_path, "b.jsonl", [record(throughput=0.020)])
        breached = {md.metric for _, md in diff_runlogs(a, b).breaches()}
        assert breached == {"throughput"}

    def test_empty_sentinel_vs_populated_always_gates(self, tmp_path):
        # Explicit JSON nulls (the collector's n=0 sentinel: a run that
        # delivered no measurable packets) on one side, data on the other.
        # That qualitative change must gate even with an absurd threshold.
        empty = record()
        empty["summary"]["latency_mean"] = None
        empty["summary"]["latency_p99"] = None
        a = write_log(tmp_path, "a.jsonl", [record()])
        b = write_log(tmp_path, "b.jsonl", [empty])
        diff = diff_runlogs(a, b, rel_threshold=10.0)
        assert not diff.clean
        breached = {md.metric for _, md in diff.breaches()}
        assert {"latency_mean", "latency_p99"} <= breached
        md = [m for m in diff.matched[0].metrics if m.metric == "latency_mean"][0]
        assert md.empty_mismatch
        assert md.n_a == 1 and md.n_b == 0
        assert "EMPTY on side B" in format_diff(diff)

    def test_empty_sentinel_on_both_sides_not_compared(self, tmp_path):
        # n=0 on both sides: nothing to compare, nothing to gate.
        def empty_record():
            r = record()
            r["summary"]["latency_mean"] = None
            return r

        a = write_log(tmp_path, "a.jsonl", [empty_record()])
        b = write_log(tmp_path, "b.jsonl", [empty_record()])
        diff = diff_runlogs(a, b)
        names = {m.metric for m in diff.matched[0].metrics}
        assert "latency_mean" not in names
        assert diff.clean

    def test_absent_metric_skipped_unlike_null(self, tmp_path):
        # A path missing entirely (pre-sentinel schema) is skipped, NOT
        # treated as the explicit-null sentinel: old logs stay diffable.
        old = record()
        del old["summary"]["latency_p99"]
        a = write_log(tmp_path, "a.jsonl", [old])
        b = write_log(tmp_path, "b.jsonl", [record()])
        diff = diff_runlogs(a, b)
        names = {m.metric for m in diff.matched[0].metrics}
        assert "latency_p99" not in names
        assert diff.clean

    def test_noise_band_suppresses_gating(self, tmp_path):
        # Repeated-seed spread in the baseline covers the delta: the move
        # is within measurement noise and must not gate.
        a = write_log(tmp_path, "a.jsonl",
                      [record(latency=28.0), record(latency=36.0)])
        b = write_log(tmp_path, "b.jsonl", [record(latency=38.0)])
        diff = diff_runlogs(a, b)
        md = [m for m in diff.matched[0].metrics if m.metric == "latency_mean"][0]
        assert md.noise == pytest.approx(8.0)
        assert md.n_a == 2 and md.n_b == 1
        assert diff.clean

    def test_threshold_knob(self, tmp_path):
        a = write_log(tmp_path, "a.jsonl", [record(latency=30.0)])
        b = write_log(tmp_path, "b.jsonl", [record(latency=33.0)])  # +10%
        assert not diff_runlogs(a, b, rel_threshold=0.05).clean
        assert diff_runlogs(a, b, rel_threshold=0.15).clean

    def test_power_totals_compared_when_present(self, tmp_path):
        pw = {"cfg4_s1": {"total_w": 10.0, "router_w": 4.0}}
        pw_hot = {"cfg4_s1": {"total_w": 13.0, "router_w": 4.0}}
        a = write_log(tmp_path, "a.jsonl", [record(power=pw)])
        b = write_log(tmp_path, "b.jsonl", [record(power=pw_hot)])
        diff = diff_runlogs(a, b)
        names = {m.metric for m in diff.matched[0].metrics}
        assert "power_cfg4_s1_total_w" in names
        assert {md.metric for _, md in diff.breaches()} == {
            "power_cfg4_s1_total_w"
        }

    def test_v1_records_without_power_skip_that_row(self, tmp_path):
        a = write_log(tmp_path, "a.jsonl", [record()])
        b = write_log(tmp_path, "b.jsonl",
                      [record(power={"cfg4_s1": {"total_w": 10.0}})])
        names = {m.metric for m in diff_runlogs(a, b).matched[0].metrics}
        assert "power_cfg4_s1_total_w" not in names  # only one side has it


class TestOutput:
    def test_format_mentions_regression_and_noise(self):
        groups_a = {("t", "UN", 0.01, 100, 0): [record(latency=30.0)]}
        groups_b = {("t", "UN", 0.01, 100, 0): [record(latency=40.0)]}
        diff = diff_groups(groups_a, groups_b)
        text = format_diff(diff)
        assert "REGRESSION" in text and "latency_mean" in text

    def test_empty_logs_format(self):
        diff = diff_groups({}, {})
        assert isinstance(diff, LogDiff)
        assert "no matching run points" in format_diff(diff)

    def test_json_dict_structure(self):
        groups = {("t", "UN", 0.01, 100, 0): [record()]}
        d = diff_groups(groups, groups).to_json_dict()
        assert d["clean"] is True
        assert d["matched"][0]["digests_match"] is True
        assert d["breaches"] == []
