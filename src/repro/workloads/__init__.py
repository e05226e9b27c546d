"""Application-model workload generators and the scenario matrix.

The paper evaluates synthetic traffic only ("in the future, we will
evaluate with real workloads"). This package closes that gap with
application models that compile to deterministic
:class:`~repro.traffic.trace.TrafficTrace` schedules -- microservice
request DAGs, MPI collectives, directory-coherence flows, and
mixed/adversarial blends -- plus a scenario registry that crosses them
with topologies, fault campaigns and wireless technology scenarios into
cached, attribution-annotated run suites. See ``docs/workloads.md``.
"""

from repro.workloads.base import TraceBuilder, WorkloadModel
from repro.workloads.blends import BlendWorkload, merge_traces
from repro.workloads.coherence import CoherenceWorkload
from repro.workloads.collectives import COLLECTIVE_KINDS, CollectiveWorkload
from repro.workloads.microservice import MicroserviceWorkload
from repro.workloads.registry import (
    DEFAULT_RATES,
    GENERATOR_FAMILIES,
    WORKLOADS,
    build_workload_traffic,
    make_workload,
    workload_names,
    workload_trace,
)
from repro.workloads.scenarios import (
    SCENARIO_FAULTS,
    SCENARIO_HEADERS,
    SCENARIO_TOPOLOGIES,
    SCENARIO_WIRELESS,
    SCENARIO_WORKLOADS,
    ScenarioCell,
    ScenarioOutcome,
    attribution_report,
    cell_spec,
    filter_cells,
    render_scenarios,
    run_scenarios,
    scenario_matrix,
)

__all__ = [
    "TraceBuilder",
    "WorkloadModel",
    "BlendWorkload",
    "merge_traces",
    "CoherenceWorkload",
    "COLLECTIVE_KINDS",
    "CollectiveWorkload",
    "MicroserviceWorkload",
    "DEFAULT_RATES",
    "GENERATOR_FAMILIES",
    "WORKLOADS",
    "build_workload_traffic",
    "make_workload",
    "workload_names",
    "workload_trace",
    "SCENARIO_FAULTS",
    "SCENARIO_HEADERS",
    "SCENARIO_TOPOLOGIES",
    "SCENARIO_WIRELESS",
    "SCENARIO_WORKLOADS",
    "ScenarioCell",
    "ScenarioOutcome",
    "attribution_report",
    "cell_spec",
    "filter_cells",
    "render_scenarios",
    "run_scenarios",
    "scenario_matrix",
]
