"""Tests of the benchmark harness itself (not tier-1).

    PYTHONPATH=src python -m pytest benchmarks/perf
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402

MANIFEST = bench.load_manifest()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_bench(*args: str, cwd: Path = bench.ROOT, script: Path = HERE / "bench.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=120
    )


# --- estimators --------------------------------------------------------- #


def test_slice_minimum_ignores_a_rep_that_is_slow_everywhere():
    quiet = [1.0, 2.0, 3.0]
    slow = [1.5, 3.0, 4.5]
    assert bench.slice_minimum([quiet, slow, quiet]) == quiet


def test_slice_minimum_uses_the_quiet_slices_of_a_disturbed_rep():
    # Each rep is disturbed in a different slice: no whole rep is quiet,
    # yet every slice was observed quiet once.
    rows = [[9.0, 2.0, 3.0], [1.0, 9.0, 3.0], [1.0, 2.0, 9.0]]
    assert sum(bench.slice_minimum(rows)) == 6.0
    assert min(sum(row) for row in rows) == 12.0  # what a whole-rep minimum sees


@pytest.mark.parametrize("rows", [[], [[]], [[1.0, 2.0], [1.0]]])
def test_slice_minimum_rejects_empty_and_ragged_input(rows):
    with pytest.raises(ValueError):
        bench.slice_minimum(rows)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(10, 0, -1)]
    assert bench.percentile(values, 0.5) == 5.0
    assert bench.percentile(values, 0.8) == 8.0
    assert bench.percentile(values, 1.0) == 10.0
    assert bench.percentile([7.0], 0.8) == 7.0
    with pytest.raises(ValueError):
        bench.percentile([], 0.5)


def test_trimmed_mean_drops_the_slow_tail():
    assert bench.trimmed_mean([1000, 4, 2, 3, 1], 0.8) == 2.5
    assert bench.trimmed_mean([5], 0.8) == 5
    with pytest.raises(ValueError):
        bench.trimmed_mean([], 0.8)


# --- layer fold --------------------------------------------------------- #


def test_every_source_file_folds_to_a_named_layer():
    sources = sorted(bench.PKG.rglob("*.py"))
    assert sources
    folded = {str(p.relative_to(bench.PKG)): bench.fold_layer(str(p)) for p in sources}
    assert not {path for path, layer in folded.items() if layer == "py"}
    assert set(folded.values()) <= set(bench.LAYERS)
    assert folded["noc/router.py"] == "noc.router"
    assert folded["runtime/executor.py"] == "runtime"
    assert folded["__main__.py"] == "cli"


def test_code_outside_the_package_folds_to_py():
    assert bench.fold_layer("~") == "py"
    assert bench.fold_layer(json.__file__) == "py"
    assert bench.fold_layer(str(HERE / "bench.py")) == "py"


def test_profile_fold_accounts_for_every_call():
    def code(path: str, name: str):
        return SimpleNamespace(co_filename=str(bench.PKG / path), co_name=name)

    entries = [
        SimpleNamespace(code=code("noc/simulator.py", "step"), callcount=7, inlinetime=0.5),
        SimpleNamespace(code=code("noc/simulator.py", "run"), callcount=1, inlinetime=0.1),
        SimpleNamespace(code=code("noc/kernels.py", "sa_sweep"), callcount=5, inlinetime=0.2),
        SimpleNamespace(code=code("faults/linklayer.py", "tick"), callcount=2, inlinetime=0.1),
        SimpleNamespace(code="<built-in method builtins.sorted>", callcount=3, inlinetime=0.05),
        SimpleNamespace(code="<built-in method _heapq.heappush>", callcount=4, inlinetime=0.03),
        SimpleNamespace(code="<built-in method _heapq.heappop>", callcount=4, inlinetime=0.02),
    ]
    fold = bench.fold_profile(entries)
    assert fold["trace.calls"] == 26
    assert sum(fold[f"{layer}.calls"] for layer in bench.LAYERS) == 26
    assert sum(fold[f"{layer}.self_share"] for layer in bench.LAYERS) == pytest.approx(1.0)
    assert fold["noc.simulator.calls"] == 8 and fold["noc.simulator.steps"] == 7
    assert fold["noc.kernels.sa_sweep.calls"] == 5 and fold["noc.router.stage_sa.calls"] == 0
    assert fold["faults.calls"] == 2
    assert fold["py.calls"] == 11 and fold["py.sorted.calls"] == 3 and fold["py.heapq.calls"] == 8
    assert fold["noc.simulator.self_share"] == pytest.approx(0.6)


# --- manifest ----------------------------------------------------------- #


def test_manifest_names_and_sizes_fit_the_contract():
    workloads = [w["name"] for w in MANIFEST["workloads"]]
    assert workloads == list(bench.WORKLOADS)
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    names = workloads + [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in MANIFEST["workloads"])
    assert MANIFEST["paths"] == ["benchmarks/perf"]
    assert MANIFEST["command"] == ["python3", "benchmarks/perf/bench.py"]


def test_manifest_bounds():
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_every_layer_has_its_two_metrics():
    per_layer = {m["name"] for m in MANIFEST["per_layer"]}
    for layer in bench.LAYERS:
        assert {f"{layer}.calls", f"{layer}.self_share"} <= per_layer


# --- the harness end to end --------------------------------------------- #


def test_smoke_run_of_every_workload_emits_every_declared_metric():
    declared = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
    began = time.perf_counter()
    for name in bench.WORKLOADS:
        done = run_bench("--workload", name, "--smoke", "--all-metrics")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] == 4
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        assert "-- end-to-end" in done.stdout and "-- per-layer" in done.stdout
    assert time.perf_counter() - began < 15.0


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_carries_the_group_the_trace_flag_selects(trace, group):
    done = run_bench("--workload", "own256-knee", "--smoke", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(result["metrics"]) == [m["name"] for m in MANIFEST[group]]


def test_same_seed_same_simulated_numbers_other_seed_other_numbers():
    def crc(seed: str) -> int:
        done = run_bench("--workload", "own256-knee", "--smoke", "--seed", seed)
        return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]["noc.stats.summary_crc32"]["value"]

    assert crc("5") == crc("5") != crc("6")


def test_exits_nonzero_without_a_result_when_the_simulator_is_absent(tmp_path):
    shutil.copy(bench.MANIFEST, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(
        "--workload", "own256-knee", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "benchmarks" / "perf" / "bench.py",
    )  # fmt: skip
    assert done.returncode != 0
    assert done.stdout == ""


# --- Simulator.run patch ------------------------------------------------ #


def test_simulator_run_is_sliced_inside_and_restored_after():
    from repro.noc.simulator import Simulator
    from repro.runtime.executor import execute_inline

    original = Simulator.run
    with bench.sliced_simulator_run(7) as stamps:
        assert Simulator.run is not original
        _, sim, _ = execute_inline(bench.WORKLOADS["own256-knee"].make_spec(3, 40))
        assert sim.now == 30
        assert len(stamps) == 1 + 5  # 7+7+7+7+2 cycles
        assert stamps == sorted(stamps)
    assert Simulator.run is original


def test_simulator_run_is_restored_on_error():
    from repro.noc.simulator import Simulator

    original = Simulator.run
    with pytest.raises(RuntimeError):
        with bench.sliced_simulator_run(50):
            raise RuntimeError("rep blew up")
    assert Simulator.run is original


# --- A/A comparison ----------------------------------------------------- #


def _run(run_s: float, packets: int, correct: bool = True):
    return {
        "correct": correct,
        "metrics": {
            "run_s": {"value": run_s, "unit": "s"},
            "noc.stats.packets_created": {"value": packets, "unit": "count"},
            "host.calib_ms": {"value": run_s * 40, "unit": "ms"},
        },
    }


def test_aa_agrees_within_bound_and_on_exact_counts():
    rows, agree = bench.compare_sets([_run(1.00, 5), _run(1.02, 5)], [_run(1.05, 5), _run(1.01, 5)], MANIFEST)
    assert agree
    assert {r["name"]: r["verdict"] for r in rows} == {
        "run_s": "within", "noc.stats.packets_created": "identical", "host.calib_ms": "info",
    }  # fmt: skip


def test_aa_flags_a_time_beyond_its_bound_a_count_that_differs_and_a_failed_run():
    rows, agree = bench.compare_sets([_run(1.0, 5)], [_run(1.3, 5)], MANIFEST)
    assert not agree and rows[0]["verdict"] == "BEYOND"
    rows, agree = bench.compare_sets([_run(1.0, 5)], [_run(1.0, 6)], MANIFEST)
    assert not agree and rows[1]["verdict"] == "DIFFERS"
    _, agree = bench.compare_sets([_run(1.0, 5)], [_run(1.0, 5, correct=False)], MANIFEST)
    assert not agree


def test_aa_document_round_trips_with_one_metric_row_per_line():
    document = {"host": {"nproc": 2}, "workloads": {"w": {"agree": True, "metrics": [{"a": [1.5, 2]}, {"a": []}]}}}
    text = bench.dumps_rows(document)
    assert json.loads(text) == document
    assert ' {"a": [1.5, 2]},\n' in text
