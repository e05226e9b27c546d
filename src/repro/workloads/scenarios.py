"""The scenario matrix: {workload} x {topology} x {faults} x {wireless}.

The paper evaluates synthetic traffic on healthy hardware under one
wireless technology scenario. This module crosses every axis the repo
now models into a registry of :class:`ScenarioCell`s -- application
workload (from :mod:`repro.workloads`), topology (OWN-256 / OWN-1024),
fault campaign (clean vs transient interference bursts) and wireless
technology scenario (Table III's ideal vs conservative) -- each cell a
frozen :class:`~repro.runtime.spec.RunSpec` executed through the cached
:class:`~repro.runtime.Executor`.

Every executed cell gets a **bottleneck-attribution verdict**
(:mod:`repro.analysis.attribution` over the cell's telemetry metrics)
folded into its JSONL run record next to the summary metrics, so a
scenario run log answers not just "how slow" but "why" per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.runtime.executor import Executor, get_executor
from repro.runtime.records import RunLog, make_record
from repro.runtime.spec import FaultSpec, RunSpec
from repro.workloads.registry import DEFAULT_RATES, workload_names

#: Topology axis: label -> (registry key, builder kwargs).
SCENARIO_TOPOLOGIES: Dict[str, Tuple[str, Dict[str, object]]] = {
    "own256": ("own256", {}),
    "own1024": ("own1024", {}),
}

#: Fault-campaign axis: label -> FaultSpec factory (None = clean run).
#: The burst campaign injects transient SNR dips on the wireless data
#: channels, recovered by link-layer retransmission.
SCENARIO_FAULTS: Dict[str, Optional[FaultSpec]] = {
    "clean": None,
    "bursts": FaultSpec(
        kind="bursty", seed=7, burst_rate=0.001, burst_duration=50,
        snr_penalty_db=5.0,
    ),
}

#: Wireless technology axis: label -> Table III scenario number, measured
#: through the power model (config 4, the paper's efficient mapping).
SCENARIO_WIRELESS: Dict[str, int] = {
    "ideal": 1,
    "conservative": 2,
}

#: Workload axis default: the three generator families plus both blends.
SCENARIO_WORKLOADS: Tuple[str, ...] = (
    "microservice", "collective", "coherence", "mixed", "adversarial",
)


@dataclass(frozen=True)
class ScenarioCell:
    """One point of the matrix, with its fully resolved frozen spec."""

    workload: str
    topology: str
    faults: str
    wireless: str
    spec: RunSpec

    @property
    def key(self) -> str:
        return f"{self.workload}/{self.topology}/{self.faults}/{self.wireless}"


def cell_spec(
    workload: str,
    topology: str,
    faults: str,
    wireless: str,
    cycles: int = 1500,
    warmup: int = 300,
    seed: int = 2,
) -> RunSpec:
    """Resolve one matrix coordinate to its frozen RunSpec."""
    key, kwargs = SCENARIO_TOPOLOGIES[topology]
    fault_spec = SCENARIO_FAULTS[faults]
    scen_num = SCENARIO_WIRELESS[wireless]
    if workload not in workload_names():
        raise KeyError(f"unknown workload {workload!r}")
    return RunSpec.create(
        key,
        pattern=f"wl-{workload}",
        rate=DEFAULT_RATES.get(workload, 0.0),
        cycles=cycles,
        warmup=warmup,
        seed=seed,
        topology_kwargs=kwargs,
        traffic_kind="workload",
        workload=workload,
        faults=fault_spec,
        power=((4, scen_num),),
        telemetry=True,
        tag=f"{workload}/{topology}/{faults}/{wireless}",
    )


def scenario_matrix(
    workloads: Sequence[str] = SCENARIO_WORKLOADS,
    topologies: Sequence[str] = tuple(SCENARIO_TOPOLOGIES),
    faults: Sequence[str] = tuple(SCENARIO_FAULTS),
    wireless: Sequence[str] = tuple(SCENARIO_WIRELESS),
    cycles: int = 1500,
    warmup: int = 300,
    seed: int = 2,
) -> List[ScenarioCell]:
    """Cross the axes into a suite of frozen cells (row-major order)."""
    cells: List[ScenarioCell] = []
    for w in workloads:
        for topo in topologies:
            for f in faults:
                for wl in wireless:
                    cells.append(
                        ScenarioCell(
                            workload=w, topology=topo, faults=f, wireless=wl,
                            spec=cell_spec(
                                w, topo, f, wl, cycles=cycles, warmup=warmup,
                                seed=seed,
                            ),
                        )
                    )
    return cells


def filter_cells(cells: Iterable[ScenarioCell], expr: str) -> List[ScenarioCell]:
    """Keep cells whose key contains every comma-separated term of ``expr``."""
    terms = [t for t in expr.split(",") if t]
    return [c for c in cells if all(t in c.key for t in terms)]


@dataclass
class ScenarioOutcome:
    """One executed cell plus its bottleneck attribution."""

    cell: ScenarioCell
    result: "RunResult"  # noqa: F821
    verdict: str
    verdict_share: float

    def row(self) -> List[object]:
        s = self.result.summary
        power = self.result.power.get(
            f"cfg4_s{SCENARIO_WIRELESS[self.cell.wireless]}", {}
        )
        return [
            self.cell.workload,
            self.cell.topology,
            self.cell.faults,
            self.cell.wireless,
            round(s.get("latency_mean", float("nan")), 1),
            round(s.get("latency_p99", float("nan")), 1),
            round(s.get("throughput", 0.0), 4),
            int(s.get("packets_retransmitted", 0)),
            round(power.get("total_w", 0.0), 2),
            self.verdict,
        ]


SCENARIO_HEADERS = [
    "workload", "topology", "faults", "wireless", "latency", "p99",
    "accepted", "retx", "power_w", "verdict",
]


def run_scenarios(
    cells: Sequence[ScenarioCell],
    executor: Optional[Executor] = None,
    runlog: Optional[Union[str, RunLog]] = None,
) -> List[ScenarioOutcome]:
    """Execute the suite and fold per-cell verdicts into run records.

    The executor's cache/parallelism apply as usual; the run records this
    function writes carry a ``scenario`` object (the cell coordinates)
    and the attribution ``verdict``, which the executor's own generic
    records cannot know about -- so pass the run log here, not to the
    executor, when running a matrix.
    """
    from repro.analysis.attribution import NO_VERDICT, attribute_metrics

    executor = get_executor(executor)
    if isinstance(runlog, (str, bytes)) or hasattr(runlog, "__fspath__"):
        runlog = RunLog(runlog)
    results = executor.run([cell.spec for cell in cells])
    outcomes: List[ScenarioOutcome] = []
    for cell, result in zip(cells, results):
        attribution = attribute_metrics(result.metrics or {})
        verdict = attribution.verdict if attribution else NO_VERDICT
        share = attribution.verdict_share if attribution else 0.0
        outcomes.append(ScenarioOutcome(cell, result, verdict, share))
        if runlog is not None:
            record = make_record(result, engine=executor.engine_snapshot())
            record["scenario"] = {
                "workload": cell.workload,
                "topology": cell.topology,
                "faults": cell.faults,
                "wireless": cell.wireless,
            }
            record["verdict"] = verdict
            record["verdict_share"] = round(share, 4)
            runlog.write(record)
    return outcomes


def render_scenarios(outcomes: Sequence[ScenarioOutcome], title: str = "Scenario matrix") -> str:
    from repro.analysis.tables import format_table

    return format_table(SCENARIO_HEADERS, [o.row() for o in outcomes], title=title)


def attribution_report(outcomes: Sequence[ScenarioOutcome]) -> Dict[str, object]:
    """JSON-ready per-cell attribution summary (the CI artifact)."""
    cells = []
    for o in outcomes:
        s = o.result.summary
        cells.append(
            {
                "cell": o.cell.key,
                "digest": o.result.digest,
                "verdict": o.verdict,
                "verdict_share": round(o.verdict_share, 4),
                "latency_mean": s.get("latency_mean"),
                "latency_p99": s.get("latency_p99"),
                "throughput": s.get("throughput"),
                "cache_hit": o.result.cache_hit,
            }
        )
    by_verdict: Dict[str, int] = {}
    for c in cells:
        by_verdict[c["verdict"]] = by_verdict.get(c["verdict"], 0) + 1
    return {"cells": cells, "verdict_histogram": by_verdict, "n_cells": len(cells)}
