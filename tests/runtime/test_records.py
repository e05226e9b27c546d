"""JSONL run records: schema, append semantics, tolerant reading."""

import json
import math

from repro.noc.stats import LatencyStats
from repro.runtime import RunLog, RunResult, RunSpec, make_record, read_runlog
from repro.runtime.records import json_safe


def _result() -> RunResult:
    spec = RunSpec.create("cmesh", rate=0.02, cycles=300, warmup=100,
                          topology_kwargs={"n_cores": 64})
    return RunResult(
        spec=spec,
        digest=spec.digest(),
        summary={"latency_mean": 21.0, "throughput": 0.019},
        meta={"network_name": "cmesh64"},
        wall_s=1.5,
    )


class TestMakeRecord:
    def test_fields(self):
        rec = make_record(_result())
        assert rec["topology"] == "cmesh"
        assert rec["pattern"] == "UN" and rec["rate"] == 0.02
        assert rec["cycles"] == 300 and rec["warmup"] == 100
        assert rec["cache_hit"] is False
        assert rec["wall_s"] == 1.5
        assert rec["cycles_per_sec"] == 200.0
        assert rec["summary"]["latency_mean"] == 21.0
        assert rec["label"] == "cmesh/UN@0.02x300"
        assert rec["digest"] == _result().digest

    def test_zero_wall_time_has_no_speed(self):
        result = _result()
        result.wall_s = 0.0
        assert make_record(result)["cycles_per_sec"] is None


class TestRunLog:
    def test_append_and_read(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        log = RunLog(path)
        log.write(make_record(_result()))
        log.write(make_record(_result()))
        assert log.records_written == 2
        records = read_runlog(path)
        assert len(records) == 2
        assert records[0]["topology"] == "cmesh"

    def test_makes_parent_dirs(self, tmp_path):
        log = RunLog(tmp_path / "deep" / "er" / "runs.jsonl")
        log.write({"ok": 1})
        assert read_runlog(log.path) == [{"ok": 1}]

    def test_malformed_lines_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        RunLog(path).write({"ok": 1})
        with open(path, "a") as fh:
            fh.write("not json\n\n")
        assert read_runlog(path) == [{"ok": 1}]


class TestStrictJson:
    """Empty-sample NaN stats must serialise as ``null``, never ``NaN``."""

    def test_json_safe_scrubs_nonfinite(self):
        dirty = {
            "nan": float("nan"),
            "inf": float("inf"),
            "nested": {"x": [1.0, float("-inf")]},
            "fine": 2.5,
            "n": 3,
        }
        clean = json_safe(dirty)
        assert clean["nan"] is None and clean["inf"] is None
        assert clean["nested"]["x"] == [1.0, None]
        assert clean["fine"] == 2.5 and clean["n"] == 3

    def test_empty_latency_stats_record_is_strict_json(self, tmp_path):
        # A zero-packet run: every LatencyStats field is NaN in process.
        stats = LatencyStats.from_samples([])
        assert math.isnan(stats.mean)
        result = _result()
        result.summary = {"latency_mean": stats.mean, "latency_p99": stats.p99}
        record = make_record(result)
        assert record["summary"]["latency_mean"] is None
        path = tmp_path / "runs.jsonl"
        RunLog(path).write(record)
        # Strict parse: bare NaN tokens would raise here.
        line = path.read_text().strip()
        parsed = json.loads(line, parse_constant=lambda tok: 1 / 0)
        assert parsed["summary"]["latency_mean"] is None
        assert "NaN" not in line

    def test_metrics_folded_into_record(self):
        result = _result()
        result.metrics = {"wireless_occupancy[C2C]": 0.25}
        record = make_record(result)
        assert record["metrics"] == {"wireless_occupancy[C2C]": 0.25}
        # No telemetry -> no metrics key (keeps old records byte-compatible).
        assert "metrics" not in make_record(_result())


class TestSchemaV2Fields:
    def test_schema_version_stamped(self):
        from repro.runtime import SCHEMA_VERSION

        assert make_record(_result())["schema"] == SCHEMA_VERSION

    def test_optional_sections_absent_when_empty(self):
        rec = make_record(_result())
        for key in ("power", "profile", "engine", "metrics"):
            assert key not in rec

    def test_power_profile_engine_folded_in(self):
        result = _result()
        result.power = {"cfg4_s1": {"total_w": 9.5}}
        result.profile = {"build_s": 0.2, "sim_s": 1.1,
                          "sim_cycles": 300, "sim_cycles_per_sec": 272.7}
        engine = {"runs_executed": 3, "runs_from_cache": 1,
                  "cache_hits": 1, "cache_misses": 3}
        rec = make_record(result, engine=engine)
        assert rec["power"]["cfg4_s1"]["total_w"] == 9.5
        assert rec["profile"]["sim_cycles"] == 300
        assert rec["engine"] == engine

    def test_executor_records_carry_profile_and_engine(self, tmp_path):
        from repro.runtime import Executor

        spec = RunSpec.create("cmesh", rate=0.02, cycles=120,
                              topology_kwargs={"n_cores": 64})
        log = tmp_path / "runs.jsonl"
        ex = Executor(runlog=str(log), cache=str(tmp_path / "cache"))
        ex.run_one(spec)
        ex.run_one(spec)  # cache hit
        (first, second) = read_runlog(log)
        assert first["profile"]["sim_cycles"] == 120
        assert first["profile"]["sim_cycles_per_sec"] > 0
        assert first["engine"]["cache_misses"] == 1
        assert second["cache_hit"] is True
        assert second["engine"]["cache_hits"] == 1
        # Cache hits replay the stored profile of the original run.
        assert second["profile"]["sim_cycles"] == 120
