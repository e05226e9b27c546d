"""The perf benchmark's four workloads simulate what they always did.

``benchmarks/perf/bench.py`` reports ``noc.stats.summary_crc32``, the CRC-32
of a run's canonical summary + power, and the exact counts of the modelled
components (``modelled_counts``) for each workload. A speed change must
leave every simulated number as it was, so the full-length, seed-3 CRCs
and counts are pinned here; the specs, the canonical form and the counts
are read from the bench script itself (loaded from its path, not copied).
Each workload runs once for both checks.
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


#: ``bench.modelled_counts`` per workload, in its key order.
COUNT_KEYS = (
    "noc.simulator.cycles", "noc.stats.packets_created", "noc.stats.packets_ejected",
    "noc.stats.flits_ejected", "noc.router.sa_grants", "noc.router.vca_grants",
    "noc.router.xbar_traversals", "noc.router.buffer_writes",
    "noc.links.flits_carried", "noc.links.token_grants",
    "noc.links.token_wait_cycles", "faults.flits_retransmitted",
    "faults.flits_dropped", "faults.nacks", "control.channels_failed_over",
    "control.channels_recovered", "control.decisions",
)  # fmt: skip
COUNTS = {
    name: dict(zip(COUNT_KEYS, values))
    for name, values in {
        "own256-knee": (1200, 3806, 3174, 10860, 42716, 10725, 42716, 44620,
                        42716, 5185, 5185, 0, 0, 0, 0, 0, 0),
        "own1024-sat": (600, 7629, 1824, 5570, 26445, 6693, 26445, 47859,
                        26445, 4791, 6342, 0, 0, 0, 0, 0, 0),
        "own256-idle": (100000, 1290, 1289, 5096, 17689, 4423, 17689, 17692,
                        17689, 2144, 2144, 0, 0, 0, 0, 0, 0),
        "own256ft-control": (3000, 5807, 4311, 15584, 56570, 14157, 56570,
                             59228, 56702, 6813, 6813, 216, 216, 54, 5, 3, 67),
    }.items()
}  # fmt: skip


def _bench():
    spec = importlib.util.spec_from_file_location("perf_bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


bench = _bench()
_pinned = {}


def _measure(name):
    """``(summary_crc32, modelled_counts)`` of the workload's full-length
    seed-3 run, which is kept only as these two numbers."""
    if name not in _pinned:
        built, sim, result = execute_inline(bench.WORKLOADS[name].make_spec(3, 1))
        _pinned[name] = (
            zlib.crc32(bench.canonical(result).encode()),
            bench.modelled_counts(built, sim, result),
        )
    return _pinned[name]


def test_every_workload_is_pinned():
    assert set(bench.WORKLOADS) == set(CRC32) == set(COUNTS)


@pytest.mark.parametrize("name", sorted(CRC32))
def test_summary_crc32(name):
    assert _measure(name)[0] == CRC32[name]


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_modelled_counts(name):
    assert _measure(name)[1] == COUNTS[name]
