"""Topology registry: string keys -> builders, for picklable run specs.

A :class:`~repro.runtime.spec.RunSpec` references its topology by registry
key plus builder kwargs, never by callable, so specs survive hashing,
JSON serialisation and process boundaries. The registry ships every
architecture the paper evaluates; downstream code can
:func:`register_topology` its own builders (with a fork-based executor,
registrations made before the pool spawns are visible to workers).
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Tuple, Union

from repro.topologies.base import BuiltTopology

#: A picklable topology reference: ``key`` or ``(key, kwargs)``.
TopologyRef = Union[str, Tuple[str, Mapping[str, object]]]

_BUILDERS: Dict[str, Callable[..., BuiltTopology]] = {}


def register_topology(key: str, builder: Callable[..., BuiltTopology]) -> None:
    """Register (or replace) a builder under ``key``."""
    _BUILDERS[key] = builder


def topology_keys() -> Tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def build_topology(key: str, **kwargs) -> BuiltTopology:
    """Build a fresh topology for ``key``.

    Always constructs a new network: built networks carry per-run link and
    arbitration state and must never be shared between simulators.
    """
    try:
        builder = _BUILDERS[key]
    except KeyError:
        raise KeyError(
            f"unknown topology key {key!r}; known: {list(topology_keys())}"
        ) from None
    return builder(**kwargs)


def resolve_ref(ref: TopologyRef) -> Tuple[str, Dict[str, object]]:
    """Normalise a ``key`` / ``(key, kwargs)`` reference."""
    if isinstance(ref, str):
        return ref, {}
    key, kwargs = ref
    return key, dict(kwargs)


def build_ref(ref: TopologyRef) -> BuiltTopology:
    key, kwargs = resolve_ref(ref)
    return build_topology(key, **kwargs)


# --------------------------------------------------------------------- #
# Built-in builders
# --------------------------------------------------------------------- #


def _build_own256_ft(
    failed_channels: Tuple[Tuple[int, int], ...] = (), **kwargs
) -> BuiltTopology:
    """Fault-tolerant OWN-256; optionally pre-fail wireless channels.

    ``failed_channels`` is a tuple of ``(src_cluster, dst_cluster)`` pairs
    marked dead in the relay-capable routing before the run starts.
    """
    from repro.core.faults import build_fault_tolerant_own256

    built = build_fault_tolerant_own256(**kwargs)
    routing = built.notes["routing"]
    for (cs, cd) in failed_channels:
        routing.fail_channel(int(cs), int(cd))
    return built


def _install_builtin_builders() -> None:
    from repro.core import build_own256, build_own1024
    from repro.topologies import build_cmesh, build_optxb, build_pclos, build_wcmesh

    register_topology("own256", build_own256)
    register_topology("own1024", build_own1024)
    register_topology("own256_ft", _build_own256_ft)
    register_topology("cmesh", build_cmesh)
    register_topology("wcmesh", build_wcmesh)
    register_topology("optxb", build_optxb)
    register_topology("pclos", build_pclos)


_install_builtin_builders()

#: CLI-facing named instances (``python -m repro sweep <name>`` /
#: ``info <name>``): fully-applied references into the registry.
NAMED_TOPOLOGIES: Dict[str, TopologyRef] = {
    "own256": "own256",
    "own1024": "own1024",
    "cmesh256": ("cmesh", {"n_cores": 256}),
    "cmesh1024": ("cmesh", {"n_cores": 1024}),
    "wcmesh256": ("wcmesh", {"n_cores": 256}),
    "wcmesh1024": ("wcmesh", {"n_cores": 1024}),
    "optxb256": ("optxb", {"n_cores": 256}),
    "optxb1024": ("optxb", {"n_cores": 1024}),
    "pclos256": ("pclos", {"n_cores": 256}),
    "pclos1024": ("pclos", {"n_cores": 1024, "n_middles": 32}),
}
