"""Unified execution engine for all simulation-driving code.

``repro.runtime`` is the single substrate sweeps, experiments,
design-space exploration and benchmarks submit work to:

- :class:`RunSpec` / :class:`TrafficSpec` / :class:`FaultSpec` /
  :class:`ControlSpec` -- frozen, hashable descriptions of one
  simulation point.
- :class:`Executor` -- serial or multiprocessing execution with
  bit-identical results, content-addressed caching
  (:class:`ResultCache`) and JSONL run records (:class:`RunLog`).
- the topology registry -- picklable string keys for every builder.

See ``docs/runtime.md`` for the full tour.
"""

from repro.runtime.spec import (
    SCHEMA_VERSION,
    ControlSpec,
    FaultSpec,
    RunSpec,
    TrafficSpec,
    code_fingerprint,
    freeze_kwargs,
)
from repro.runtime.registry import (
    NAMED_TOPOLOGIES,
    TopologyRef,
    build_ref,
    build_topology,
    register_topology,
    resolve_ref,
    topology_keys,
)
from repro.runtime.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.runtime.records import RunLog, make_record, read_runlog
from repro.runtime.executor import (
    DEFAULT_EXECUTOR,
    Executor,
    RunResult,
    execute_inline,
    get_executor,
    run_spec,
)

__all__ = [
    "SCHEMA_VERSION",
    "ControlSpec",
    "FaultSpec",
    "RunSpec",
    "TrafficSpec",
    "code_fingerprint",
    "freeze_kwargs",
    "NAMED_TOPOLOGIES",
    "TopologyRef",
    "build_ref",
    "build_topology",
    "register_topology",
    "resolve_ref",
    "topology_keys",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "RunLog",
    "make_record",
    "read_runlog",
    "DEFAULT_EXECUTOR",
    "Executor",
    "RunResult",
    "execute_inline",
    "get_executor",
    "run_spec",
]
