"""The perf benchmark's four workloads simulate what they always did.

``benchmarks/perf/bench.py`` reports ``noc.stats.summary_crc32``, the CRC-32
of a run's canonical summary + power, for each workload. A speed change
must leave every simulated number as it was, so the full-length, seed-3
CRCs are pinned here; the specs and the canonical form are read from the
bench script itself (loaded from its path, not copied).
"""

import importlib.util
import sys
import zlib
from pathlib import Path

import pytest

from repro.runtime.executor import execute_inline

BENCH = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "bench.py"

CRC32 = {
    "own256-knee": 2781242169,
    "own1024-sat": 2703514249,
    "own256-idle": 530150482,
    "own256ft-control": 1060464126,
}


def _bench():
    spec = importlib.util.spec_from_file_location("perf_bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


bench = _bench()


def test_every_workload_is_pinned():
    assert set(bench.WORKLOADS) == set(CRC32)


@pytest.mark.parametrize("name", sorted(CRC32))
def test_summary_crc32(name):
    _, _, result = execute_inline(bench.WORKLOADS[name].make_spec(3, 1))
    assert zlib.crc32(bench.canonical(result).encode()) == CRC32[name]
