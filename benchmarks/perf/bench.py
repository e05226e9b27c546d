#!/usr/bin/env python3
"""Quiet-host layered benchmark of the OWN simulator (see README.md).

One run = one process = one workload: many identical reps of one
``execute_inline(spec)``, host time estimated as a sum of per-slice minima
across the reps, simulated statistics checked bit-identical, and (with
``--trace 1``) one extra rep under cProfile folded into per-layer counts.

    python3 benchmarks/perf/bench.py --workload own256-knee --seed 3
    python3 benchmarks/perf/bench.py --aa 3 --out benchmarks/perf/baseline.json

Metric names, units, directions and bounds live in ``BENCHMARK.json`` at the
repository root; this file computes the values and refuses to report a set
of names that differs from the manifest.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
PKG = SRC / "repro"
MANIFEST = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 3
#: The estimator needs a population to take minima over; a run never stops
#: before this many timed reps however slow the host is.
MIN_REPS = 16
#: Timed-rep phase gives up here so a run ends inside the driver's 180 s.
HARD_STOP_S = 110.0
#: Fresh-interpreter import samples, spread evenly over the timed phase so
#: that at least one of them lands outside a slow phase of the host.
IMPORT_SAMPLES = 5
EXECUTOR_SAMPLES = 20
#: ``sim_latency_cycles`` is the mean over the fastest 80 % of measured
#: packets. The slowest fifth is the congestion / fault tail: a few packets
#: parked behind a faulted channel for ~1000 cycles swing the plain mean of
#: own256ft-control by 2x from one seed to the next, which no bound could
#: hold. The plain mean is reported as ``noc.stats.latency_mean``.
LATENCY_KEEP = 0.8
SMOKE_SHRINK = 10

#: Layers are module names under ``src/repro`` (``noc`` split per module);
#: ``cli`` is the package's top-level files and ``py`` everything outside
#: the package (stdlib, numpy, builtins).
LAYERS = (
    "traffic", "workloads", "noc.simulator", "noc.kernels", "noc.router",
    "noc.links", "noc.buffers", "noc.network", "noc.packet", "noc.stats",
    "noc.arbiters", "noc.invariants", "core", "topologies", "faults",
    "control", "telemetry", "obs", "power", "rf", "photonics", "utils",
    "runtime", "analysis", "thermal", "cli", "py",
)  # fmt: skip

#: Metrics that must repeat exactly for a fixed seed (``--aa`` fails on any
#: difference): the modelled design's numbers and every count.
EXACT_UNITS = ("count", "crc32")
EXACT_NAMES = (
    "sim_latency_cycles", "sim_throughput", "sim_energy_nj_per_packet", "noc.stats.latency_mean",
)  # fmt: skip


# --------------------------------------------------------------------- #
# Estimators
# --------------------------------------------------------------------- #


def slice_minimum(rows: Sequence[Sequence[float]]) -> List[float]:
    """Per-slice minimum over reps; the quiet-host time is its sum.

    ``rows[r][j]`` is the host time of slice *j* in rep *r*. Slice *j* is
    the same simulated work in every rep, so its fastest observation is the
    least-disturbed one, and a rep that was slow in one slice still
    contributes its quiet slices. Ragged input means reps did different
    work and is rejected.
    """
    if not rows:
        raise ValueError("no reps to take minima over")
    width = len(rows[0])
    if width == 0 or any(len(row) != width for row in rows):
        raise ValueError(f"reps disagree on slice count: {sorted({len(r) for r in rows})}")
    return [min(column) for column in zip(*rows)]


def trimmed_mean(values: Sequence[float], keep: float) -> float:
    """Mean of the smallest ``keep`` share of a non-empty sample."""
    if not values:
        raise ValueError("trimmed mean of an empty sample")
    kept = sorted(values)[: max(1, math.ceil(keep * len(values)))]
    return sum(kept) / len(kept)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


# --------------------------------------------------------------------- #
# Layer fold
# --------------------------------------------------------------------- #


def fold_layer(filename: str) -> str:
    """Layer of one profiled code object, by its source path."""
    rel = os.path.relpath(os.path.realpath(filename), PKG)
    if rel.startswith(os.pardir):
        return "py"
    parts = Path(rel).parts
    if len(parts) == 1:
        layer = "cli"
    elif parts[0] == "noc":
        stem = parts[1][: -len(".py")]
        # The package file only re-exports; Network is its first name.
        layer = "noc.network" if stem == "__init__" else f"noc.{stem}"
    else:
        layer = parts[0]
    return layer if layer in LAYERS else "py"


#: Single functions counted on their own, as (layer, function name).
NAMED_CALLS = {
    "noc.simulator.steps": ("noc.simulator", "step"),
    "noc.kernels.sa_sweep.calls": ("noc.kernels", "sa_sweep"),
    "noc.router.stage_sa.calls": ("noc.router", "stage_sa"),
}
NAMED_BUILTINS = {
    "py.sorted.calls": "<built-in method builtins.sorted>",
    "py.set_add.calls": "<method 'add' of 'set' objects>",
    "py.heapq.calls": "<built-in method _heapq.",
}


def fold_profile(entries: Iterable[object]) -> Dict[str, float]:
    """Fold ``cProfile.Profile.getstats()`` entries into per-layer metrics.

    Every entry lands in exactly one layer, so the ``L.calls`` sum to the
    profile's total call count (``trace.calls``, counted independently).
    """
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    out: Dict[str, float] = dict.fromkeys([*NAMED_CALLS, *NAMED_BUILTINS, "trace.calls"], 0)
    for entry in entries:
        out["trace.calls"] += entry.callcount
        code = entry.code
        if isinstance(code, str):  # builtin or C method
            layer = "py"
            for metric, prefix in NAMED_BUILTINS.items():
                if code.startswith(prefix):
                    out[metric] += entry.callcount
        else:
            layer = fold_layer(code.co_filename)
            for metric, named in NAMED_CALLS.items():
                if named == (layer, code.co_name):
                    out[metric] += entry.callcount
        calls[layer] += entry.callcount
        self_s[layer] += entry.inlinetime
    total_s = sum(self_s.values())
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_share"] = self_s[layer] / total_s if total_s else 0.0
    return out


# --------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------- #

Check = Tuple[str, Callable[[Dict[str, float]], bool]]


@dataclass(frozen=True)
class Workload:
    name: str
    #: About 120-150 slices of 3-7 ms per rep. A disturbance (a preemption,
    #: the cache refill after it) then spoils a small share of one rep, and
    #: the same slice of some other rep was quiet. Measured on own1024-sat,
    #: the run-to-run range of ``sim_s`` was 17 % with these slices, 22 %
    #: with slices five times longer and 28 % with a whole-rep minimum.
    slice_cycles: int
    make_spec: Callable[[int, int], object]
    #: Liveness: a workload must keep exercising the layer it exists for.
    #: ``checks`` read untraced values, ``traced_checks`` the profile fold.
    checks: Tuple[Check, ...] = ()
    traced_checks: Tuple[Check, ...] = ()


POWER = ((4, 1),)  # the repo's canonical power configuration

_PLAIN_TRACED: Tuple[Check, ...] = (
    ("the SoA sa_sweep runs", lambda m: m["noc.kernels.sa_sweep.calls"] > 0),
    (
        "absent faults/control/telemetry cost no calls",
        lambda m: m["faults.calls"] == m["control.calls"] == m["telemetry.calls"] == 0,
    ),
)


def _knee_spec(seed: int, shrink: int):
    from repro.runtime.spec import RunSpec

    return RunSpec.create(
        "own256", pattern="UN", rate=0.05, cycles=1200 // shrink,
        warmup=200 // shrink, seed=seed, power=POWER,
    )  # fmt: skip


def _sat_spec(seed: int, shrink: int):
    from repro.runtime.spec import RunSpec

    return RunSpec.create(
        "own1024", pattern="UN", rate=0.05, cycles=600 // shrink,
        warmup=150 // shrink, seed=seed, power=POWER,
    )  # fmt: skip


def _idle_spec(seed: int, shrink: int):
    from repro.runtime.spec import RunSpec

    return RunSpec.create(
        "own256", pattern="UN", rate=0.0002, cycles=100_000 // shrink,
        warmup=1000 // shrink, seed=seed, power=POWER,
    )  # fmt: skip


def _control_spec(seed: int, shrink: int):
    from repro.runtime.spec import ControlSpec, FaultSpec, RunSpec

    # drain=0: drain() cannot be sliced without changing tracer output.
    return RunSpec.create(
        "own256_ft", topology_kwargs={"with_reconfiguration": True},
        pattern="HOT", rate=0.03, hotspot_fraction=0.6,
        hotspots=tuple(range(128, 192)), cycles=3000 // shrink,
        warmup=300 // shrink, drain=0, seed=seed,
        faults=FaultSpec(
            kind="bursty", seed=seed + 6, burst_rate=0.002, burst_duration=300,
            snr_penalty_db=14.0, max_channel=4, failover=False, reconfig_epoch=250,
        ),
        control=ControlSpec(epoch_cycles=250), telemetry=True, power=POWER,
    )  # fmt: skip


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("own256-knee", 10, _knee_spec, traced_checks=_PLAIN_TRACED),
        Workload(
            "own1024-sat", 5, _sat_spec,
            checks=(("accepted load is under half the offered 0.05 (saturated)",
                     lambda m: m["sim_throughput"] < 0.5 * 0.05),),
            traced_checks=_PLAIN_TRACED,
        ),
        Workload(
            "own256-idle", 800, _idle_spec,
            traced_checks=_PLAIN_TRACED + (
                ("at least half the cycles are fast-forwarded",
                 lambda m: m["noc.simulator.skipped_cycles"] >= 0.5 * m["noc.simulator.cycles"]),
            ),
        ),
        Workload(
            "own256ft-control", 20, _control_spec,
            checks=(
                ("faults cause retransmissions", lambda m: m["faults.flits_retransmitted"] > 0),
                ("the control plane fails channels over",
                 lambda m: m["control.channels_failed_over"] > 0),
            ),
            traced_checks=(
                ("the tracer forces the object path (no sa_sweep)",
                 lambda m: m["noc.kernels.sa_sweep.calls"] == 0),
                ("Router.stage_sa carries SA", lambda m: m["noc.router.stage_sa.calls"] > 0),
            ),
        ),
    )
}  # fmt: skip


# --------------------------------------------------------------------- #
# Measuring one rep from outside
# --------------------------------------------------------------------- #


@contextmanager
def sliced_simulator_run(slice_cycles: int) -> Iterator[List[float]]:
    """Make ``Simulator.run(n)`` execute as consecutive ``run(slice)`` calls.

    Yields the list the wrapper appends a ``perf_counter()`` stamp to at
    every slice boundary (first stamp = first simulated cycle). Patched at
    class level from this file and restored on exit, also on error;
    ``run(a); run(b)`` == ``run(a + b)`` is the Simulator's contract and the
    caller re-checks it against an unpatched rep on every run.
    """
    from repro.noc.simulator import Simulator

    original = Simulator.run
    stamps: List[float] = []

    def run(sim, cycles: int) -> None:
        stamps.append(perf_counter())
        while cycles > 0:
            n = slice_cycles if cycles > slice_cycles else cycles
            original(sim, n)
            stamps.append(perf_counter())
            cycles -= n

    Simulator.run = run
    try:
        yield stamps
    finally:
        Simulator.run = original


@dataclass
class Rep:
    build_s: float  # execute_inline entry -> first Simulator.run
    slices: List[float]
    measure_s: float  # last slice end -> execute_inline return
    total_s: float
    canon: str


def canonical(result) -> str:
    """Canonical JSON of a result's summary + power (NaN prints as NaN, so
    string equality is the NaN-aware comparison)."""
    return json.dumps(
        {"summary": result.summary, "power": result.power},
        sort_keys=True, separators=(",", ":"),
    )  # fmt: skip


def import_sample() -> List[float]:
    """One fresh interpreter importing the engine, as a row of pieces.

    ``-X importtime`` gives every imported module's self time; the last
    element is the rest of the child's wall time (spawn, interpreter start
    and exit). The pieces are the same work in every sample, so the import
    time is estimated like the simulation time: a sum of per-piece minima.
    The child may write bytecode caches (``__pycache__`` in this checkout),
    as a user's interpreter does; the sample that compiled never wins.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = perf_counter()
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.runtime.executor"],
        env=env, stderr=subprocess.PIPE, text=True, check=True,
    )  # fmt: skip
    wall = perf_counter() - t0
    pieces = []
    for line in child.stderr.splitlines():
        self_us = line.removeprefix("import time:").split("|")[0].strip()
        if line.startswith("import time:") and self_us.isdigit():
            pieces.append(int(self_us) / 1e6)
    return pieces + [wall - sum(pieces)]


def executor_layer_seconds(spec, payload: Dict[str, object]) -> Dict[str, float]:
    """Digest, cache write and warm cache hit through the public Executor."""
    from repro.runtime import Executor, ResultCache

    def best(fn: Callable[[], object]) -> float:
        samples = []
        for _ in range(EXECUTOR_SAMPLES):
            t0 = perf_counter()
            fn()
            samples.append(perf_counter() - t0)
        return min(samples)

    digest = spec.digest()
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        cache = ResultCache(tmp)
        executor = Executor(jobs=1, cache=cache)
        out = {
            "runtime.digest_s": best(spec.digest),
            "runtime.cache_put_s": best(lambda: cache.put(digest, payload)),
            "runtime.cache_hit_s": best(lambda: executor.run([spec])),
        }
        if executor.runs_executed:
            raise RuntimeError("cache_hit_s timed a simulation, not a cache hit")
    return out


def modelled_counts(built, sim, result) -> Dict[str, float]:
    """Exact counters of the modelled components after one rep."""
    net, stats = built.network, sim.stats
    routers, links, mediums = net.routers, net.links, net.mediums
    return {
        "noc.simulator.cycles": sim.now,
        "noc.stats.packets_created": stats.packets_created,
        "noc.stats.packets_ejected": stats.packets_ejected,
        "noc.stats.flits_ejected": stats.flits_ejected,
        "noc.router.sa_grants": sum(r.sa_grants for r in routers),
        "noc.router.vca_grants": sum(r.vca_grants for r in routers),
        "noc.router.xbar_traversals": sum(r.xbar_traversals for r in routers),
        "noc.router.buffer_writes": sum(r.buffer_writes for r in routers),
        "noc.links.flits_carried": sum(l.flits_carried for l in links),
        "noc.links.token_grants": sum(m.grants for m in mediums),
        "noc.links.token_wait_cycles": sum(m.token_wait_cycles for m in mediums),
        "faults.flits_retransmitted": stats.flits_retransmitted,
        "faults.flits_dropped": stats.flits_dropped,
        "faults.nacks": stats.nacks,
        "control.channels_failed_over": stats.channels_failed_over,
        "control.channels_recovered": stats.channels_recovered,
        "control.decisions": int(result.summary.get("control_decisions", 0)),
    }


# --------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------- #


@dataclass
class RunReport:
    workload: str
    seed: int
    attempted: int
    failures: List[str]
    values: Dict[str, float]

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class TimedPhase:
    reps: List[Rep]
    calib_ms: List[float]
    import_samples: List[List[float]]
    peak_rss_mb: float
    attempted: int
    failures: List[str]


def timed_phase(spec, slice_cycles: int, budget_s: float, min_reps: int) -> TimedPhase:
    """Repeat ``execute_inline(spec)`` on the sliced Simulator for ``budget_s``.

    ``gc.collect()`` runs between reps, never inside a timed region; the
    collector stays enabled as in production.
    """
    from calibration import kernel
    from repro.runtime.executor import execute_inline

    out = TimedPhase([], [], [], 0.0, 0, [])
    with sliced_simulator_run(slice_cycles) as stamps:
        began = perf_counter()
        while True:
            elapsed = perf_counter() - began
            if (out.attempted >= min_reps and elapsed >= budget_s) or elapsed > HARD_STOP_S:
                break
            taken = len(out.import_samples)
            if taken < IMPORT_SAMPLES and elapsed >= taken * budget_s / IMPORT_SAMPLES:
                out.import_samples.append(import_sample())
            gc.collect()
            t0 = perf_counter()
            kernel()
            out.calib_ms.append((perf_counter() - t0) * 1e3)
            out.attempted += 1
            del stamps[:]
            try:
                t0 = perf_counter()
                # Only the result is kept: network and simulator of this rep
                # are garbage before the next one is built, as in a sweep.
                result = execute_inline(spec)[2]
                t1 = perf_counter()
            except Exception:  # a failed rep is counted, and the run goes on
                out.failures.append(f"rep {out.attempted} raised:\n{traceback.format_exc()}")
                continue
            out.reps.append(
                Rep(
                    build_s=stamps[0] - t0,
                    slices=[b - a for a, b in zip(stamps, stamps[1:])],
                    measure_s=t1 - stamps[-1],
                    total_s=t1 - t0,
                    canon=canonical(result),
                )
            )
            del result
    gc.collect()
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def untraced_values(
    spec, slice_cycles: int, timed: TimedPhase, failures: List[str]
) -> Tuple[Dict[str, float], str]:
    """Every metric that needs no profiler, and the reference's canonical form.

    Runs the reference rep on the *unpatched* Simulator: the identity
    witness for the sliced reps, and the source of the modelled counts.
    """
    from repro.runtime.executor import execute_inline

    built, sim, ref = execute_inline(spec)
    ref_canon = canonical(ref)
    reps = timed.reps
    for i, rep in enumerate(reps, 1):
        if rep.canon != ref_canon:
            failures.append(f"rep {i}: sliced summary+power differs from the unsliced reference")
    width = len(reps[0].slices)
    if any(len(rep.slices) != width for rep in reps):
        failures.append("reps disagree on slice count")
    slice_min = slice_minimum([rep.slices for rep in reps if len(rep.slices) == width])

    cycles = sim.now
    sim_s = sum(slice_min)
    # The first rep pays cold caches (lazy imports, first-touch pages).
    build_s = min(rep.build_s for rep in reps[1:] or reps)
    measure_s = min(rep.measure_s for rep in reps)
    import_s = sum(slice_minimum(timed.import_samples))
    warm_slices = math.ceil(spec.warmup / slice_cycles)
    rep_totals = [rep.total_s for rep in reps]
    values = modelled_counts(built, sim, ref)
    values.update(
        {
            "run_s": build_s + sim_s + measure_s,
            "cycles_per_s": cycles / sim_s,
            "setup_s": import_s + build_s,
            "peak_rss_mb": timed.peak_rss_mb,
            "sim_latency_cycles": trimmed_mean(sim.stats.latencies, LATENCY_KEEP),
            "sim_throughput": ref.summary["throughput"],
            "sim_energy_nj_per_packet": ref.power["cfg4_s1"]["energy_per_packet_nj"],
            "runtime.import_s": import_s,
            "runtime.build_s": build_s,
            "runtime.build_cold_s": reps[0].build_s,
            "runtime.measure_s": measure_s,
            "noc.simulator.steady_cycles_per_s": (cycles - warm_slices * slice_cycles)
            / sum(slice_min[warm_slices:]),
            "noc.stats.latency_mean": ref.summary["latency_mean"],
            "noc.stats.summary_crc32": zlib.crc32(ref_canon.encode()),
            "noc.router.ns_per_flit_hop": sim_s / values["noc.router.xbar_traversals"] * 1e9,
            "host.calib_ms": min(timed.calib_ms),
            "host.calib_spread": statistics.median(timed.calib_ms) / min(timed.calib_ms),
            "host.rep_p50_s": percentile(rep_totals, 0.5),
            "host.rep_p80_s": percentile(rep_totals, 0.8),
            "host.reps": len(reps),
        }
    )
    values.update(executor_layer_seconds(spec, ref.to_payload()))
    return values, ref_canon


def traced_values(spec, ref_canon: str, untraced: Dict[str, float], failures: List[str]) -> Dict[str, float]:
    """One more rep of the same spec under cProfile, folded into layers.

    Only counts and shares come from it; no end-to-end metric does.
    """
    from repro.runtime.executor import execute_inline

    gc.collect()
    profiler = cProfile.Profile()
    t0 = perf_counter()
    result = profiler.runcall(execute_inline, spec)[2]
    traced_s = perf_counter() - t0
    if canonical(result) != ref_canon:
        failures.append("traced rep: summary+power differs from the reference")
    values = fold_profile(profiler.getstats())
    total_calls = values.pop("trace.calls")
    if sum(values[f"{layer}.calls"] for layer in LAYERS) != total_calls:
        failures.append("layer fold does not account for every profiled call")
    cycles = untraced["noc.simulator.cycles"]
    values["noc.simulator.skipped_cycles"] = cycles - values["noc.simulator.steps"]
    values["py.calls_per_cycle"] = total_calls / cycles
    values["trace.overhead_ratio"] = traced_s / untraced["host.rep_p50_s"]
    return values


def run_workload(
    workload: Workload, seed: int, seconds: float, traced: bool, smoke: bool = False
) -> RunReport:
    """Measure one workload in this process; see the module docstring."""
    shrink = SMOKE_SHRINK if smoke else 1
    spec = workload.make_spec(seed, shrink)
    slice_cycles = max(1, workload.slice_cycles // shrink)
    budget_s, min_reps = (0.0, 2) if smoke else (seconds, MIN_REPS)
    timed = timed_phase(spec, slice_cycles, budget_s, min_reps)
    failures = timed.failures
    if not timed.reps:
        raise SystemExit("no timed rep succeeded:\n" + "\n".join(failures))
    values, ref_canon = untraced_values(spec, slice_cycles, timed, failures)
    checks = workload.checks
    if traced:
        values.update(traced_values(spec, ref_canon, values, failures))
        checks = checks + workload.traced_checks
    if not smoke:  # a tenth of the cycles need not reach the layer
        failures.extend(f"liveness: not true that {what}" for what, ok in checks if not ok(values))
    # Reps run: the timed ones, the reference, and the traced one.
    return RunReport(workload.name, seed, timed.attempted + 1 + traced, failures, values)


# --------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------- #


def load_manifest() -> Dict[str, object]:
    with open(MANIFEST) as fh:
        return json.load(fh)


def select_metrics(report: RunReport, declared: Sequence[Dict[str, str]]) -> Dict[str, Dict[str, object]]:
    """The declared metrics of one group, each with its manifest unit."""
    missing = [m["name"] for m in declared if m["name"] not in report.values]
    if missing:
        raise SystemExit(f"harness does not compute declared metrics: {missing}")
    return {m["name"]: {"value": report.values[m["name"]], "unit": m["unit"]} for m in declared}


def print_report(report: RunReport, manifest: Dict[str, object], traced: bool) -> None:
    print(f"workload {report.workload}  seed {report.seed}")
    groups = [("end-to-end", manifest["end_to_end"])]
    if traced:
        groups.append(("per-layer", manifest["per_layer"]))
    for title, declared in groups:
        print(f"-- {title}")
        for name, metric in select_metrics(report, declared).items():
            value = metric["value"]
            text = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"  {name:<36} {text:>14} {metric['unit']}")
    print(f"-- ops_attempted {report.attempted}  ops_failed {report.failed}")
    for failure in report.failures:
        print(f"FAILED {failure}", file=sys.stderr)


# --------------------------------------------------------------------- #
# A/A mode
# --------------------------------------------------------------------- #


def host_description() -> Dict[str, object]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version()}


def run_child(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    """One full run (both metric groups) in a fresh process."""
    cmd = [
        sys.executable, str(HERE / "bench.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1", "--all-metrics",
    ]  # fmt: skip
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def compare_sets(
    a_runs: List[Dict[str, object]], b_runs: List[Dict[str, object]], manifest: Dict[str, object]
) -> Tuple[List[Dict[str, object]], bool]:
    """Per metric: both medians, their relative difference, and a verdict.

    Exact metrics must be identical over all runs of both sets; end-to-end
    metrics must have medians within their bound; the rest is information.
    """
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    rows, agree = [], all(run["correct"] for run in a_runs + b_runs)
    for name, metric in a_runs[0]["metrics"].items():
        a = [run["metrics"][name]["value"] for run in a_runs]
        b = [run["metrics"][name]["value"] for run in b_runs]
        med_a, med_b = statistics.median(a), statistics.median(b)
        row = {
            "name": name, "unit": metric["unit"], "median_a": med_a, "median_b": med_b,
            "rel_diff": abs(med_b - med_a) / abs(med_a) if med_a else float(med_b != med_a),
        }  # fmt: skip
        if metric["unit"] in EXACT_UNITS or name in EXACT_NAMES:
            row["verdict"] = "identical" if len(set(a + b)) == 1 else "DIFFERS"
        elif name in bounds:
            row["bound"] = bounds[name]
            row["verdict"] = "within" if row["rel_diff"] <= bounds[name] else "BEYOND"
        else:
            row["verdict"] = "info"
        if row["verdict"] != "identical":
            row.update(a=a, b=b)
        agree = agree and row["verdict"] not in ("DIFFERS", "BEYOND")
        rows.append(row)
    return rows, agree


def dumps_rows(obj: object, depth: int = 0, row_depth: int = 4) -> str:
    """JSON indented down to ``row_depth``, one line per value below it
    (one metric row per line: the A/A result is committed and read in diffs)."""
    if depth == row_depth or not isinstance(obj, (dict, list)) or not obj:
        return json.dumps(obj)
    pad = " " * (depth + 1)
    if isinstance(obj, dict):
        items = [f"{pad}{json.dumps(k)}: {dumps_rows(v, depth + 1, row_depth)}" for k, v in obj.items()]
    else:
        items = [pad + dumps_rows(v, depth + 1, row_depth) for v in obj]
    opening, closing = "{}" if isinstance(obj, dict) else "[]"
    return f"{opening}\n" + ",\n".join(items) + f"\n{' ' * depth}{closing}"


def run_aa(n: int, seed: int, seconds: float, out: Optional[str]) -> int:
    """Every workload ``n`` times in two interleaved sets (A, B, B, A, ...)."""
    manifest = load_manifest()
    document = {"host": host_description(), "seed": seed, "seconds": seconds, "n": n, "workloads": {}}
    for name in WORKLOADS:
        sets: Dict[str, List[Dict[str, object]]] = {"A": [], "B": []}
        for i in range(n):
            for side in ("AB", "BA")[i % 2]:
                sets[side].append(run_child(name, seed, seconds))
                print(f"{name}: {side}{len(sets[side])} done", file=sys.stderr)
        rows, agree = compare_sets(sets["A"], sets["B"], manifest)
        document["workloads"][name] = {"agree": agree, "metrics": rows}
        print(f"== {name}: {'agree' if agree else 'DISAGREE'}")
        for row in rows:
            bound = f" bound {row['bound']:g}" if "bound" in row else ""
            print(f"  {row['name']:<36} A {row['median_a']:<14.8g} B {row['median_b']:<14.8g} "
                  f"diff {row['rel_diff']:.4f}{bound}  {row['verdict']}")  # fmt: skip
    document["agree"] = all(w["agree"] for w in document["workloads"].values())
    if out:
        with open(out, "w") as fh:
            fh.write(dumps_rows(document) + "\n")
    return 0 if document["agree"] else 1


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="length of the timed-rep phase (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 adds the profiled rep; the result line then carries the per-layer metrics")  # fmt: skip
    parser.add_argument("--all-metrics", action="store_true", help="result line carries both metric groups (needs --trace 1)")
    parser.add_argument("--smoke", action="store_true", help=f"2 reps of a {SMOKE_SHRINK}x shorter spec, liveness checks off")
    parser.add_argument("--aa", type=int, metavar="N", help="A/A mode: every workload N times in two interleaved sets")
    parser.add_argument("--out", help="with --aa: write the comparison as JSON here")
    args = parser.parse_args(argv)

    if not PKG.is_dir():
        print(f"{PKG} not found: this benchmark measures the simulator in src/", file=sys.stderr)
        return 2
    manifest = load_manifest()
    seconds = args.seconds if args.seconds is not None else float(manifest["run_seconds"])
    if args.aa:
        return run_aa(args.aa, args.seed, seconds, args.out)
    if args.workload is None:
        parser.error("--workload is required (or --aa N)")
    if args.all_metrics and not args.trace:
        parser.error("--all-metrics needs --trace 1")

    # The benchmark measures this checkout's sources, whatever is installed.
    sys.path[:0] = [str(SRC), str(HERE)]
    traced = bool(args.trace)
    report = run_workload(WORKLOADS[args.workload], args.seed, seconds, traced, args.smoke)
    print_report(report, manifest, traced)
    if args.all_metrics:
        declared = manifest["end_to_end"] + manifest["per_layer"]
    else:
        declared = manifest["per_layer"] if traced else manifest["end_to_end"]
    print(json.dumps({
        "correct": not report.failed, "attempted": report.attempted, "failed": report.failed,
        "metrics": select_metrics(report, declared),
    }))  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
