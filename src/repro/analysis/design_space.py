"""Design-space exploration over OWN's configuration knobs.

The paper's own exploration is a 4x2 grid — Table IV configurations against
the ideal/conservative scenarios — evaluated by hand. This module automates
the sweep across any subset of OWN's knobs (wireless technology
configuration, Table III scenario, VC buffering, wireless serialization),
simulates each point, scores power and latency together, and extracts the
**Pareto frontier** — the tool a designer reaches for when the question is
"which configuration should I build?" rather than "what does configuration
4 do?".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.power import SCENARIOS
from repro.runtime import Executor, RunSpec, get_executor


@dataclass(frozen=True)
class DesignPoint:
    """One candidate OWN-256 design."""

    config_id: int
    scenario: int
    vc_depth: int = 8
    wireless_cycles_per_flit: int = 1

    def label(self) -> str:
        return (
            f"cfg{self.config_id}/s{self.scenario}/vc{self.vc_depth}"
            f"/wcpf{self.wireless_cycles_per_flit}"
        )


@dataclass
class EvaluatedPoint:
    """A design point plus its measured merit figures."""

    point: DesignPoint
    latency: float
    throughput: float
    power_w: float
    energy_per_packet_nj: float

    def dominates(self, other: "EvaluatedPoint") -> bool:
        """Pareto dominance on (latency low, power low, throughput high)."""
        no_worse = (
            self.latency <= other.latency
            and self.power_w <= other.power_w
            and self.throughput >= other.throughput
        )
        strictly_better = (
            self.latency < other.latency
            or self.power_w < other.power_w
            or self.throughput > other.throughput
        )
        return no_worse and strictly_better


def default_space() -> List[DesignPoint]:
    """The paper's 4x2 grid: every Table IV configuration under both
    Table III scenarios (with the scenario's matching serialization)."""
    points = []
    for config_id, scenario in itertools.product((1, 2, 3, 4), (1, 2)):
        points.append(
            DesignPoint(
                config_id=config_id,
                scenario=scenario,
                wireless_cycles_per_flit=1 if scenario == 1 else 2,
            )
        )
    return points


def _point_spec(
    point: DesignPoint, rate: float, cycles: int, warmup: int, seed: int
) -> RunSpec:
    """The engine spec for one design point."""
    if point.scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {point.scenario}")
    return RunSpec.create(
        "own256",
        pattern="UN",
        rate=rate,
        cycles=cycles,
        warmup=warmup,
        seed=seed,
        topology_kwargs={
            "vc_depth": point.vc_depth,
            "wireless_cycles_per_flit": point.wireless_cycles_per_flit,
        },
        power=((point.config_id, point.scenario),),
    )


def evaluate_point(
    point: DesignPoint,
    rate: float = 0.03,
    cycles: int = 1000,
    warmup: int = 300,
    seed: int = 6,
    executor: Optional[Executor] = None,
) -> EvaluatedPoint:
    """Simulate one design point and measure its merit figures."""
    return explore([point], rate, cycles, warmup, seed, executor).evaluated[0]


def pareto_frontier(evaluated: Sequence[EvaluatedPoint]) -> List[EvaluatedPoint]:
    """Non-dominated subset, sorted by power."""
    frontier = [
        e
        for e in evaluated
        if not any(other.dominates(e) for other in evaluated if other is not e)
    ]
    return sorted(frontier, key=lambda e: e.power_w)


@dataclass
class ExplorationResult:
    """Full sweep output."""

    evaluated: List[EvaluatedPoint] = field(default_factory=list)
    frontier: List[EvaluatedPoint] = field(default_factory=list)

    def best_by(self, metric: str) -> EvaluatedPoint:
        # Ties on the primary metric (e.g. latency, which only depends on
        # the network shape) break towards lower power.
        key = {
            "power": lambda e: (e.power_w, e.latency),
            "latency": lambda e: (e.latency, e.power_w),
            "energy_per_packet": lambda e: (e.energy_per_packet_nj, e.latency),
        }.get(metric)
        if key is None:
            raise ValueError(f"unknown metric {metric!r}")
        return min(self.evaluated, key=key)

    def rows(self) -> List[List[object]]:
        out = []
        frontier_ids = {id(e) for e in self.frontier}
        for e in sorted(self.evaluated, key=lambda e: e.power_w):
            out.append(
                [
                    e.point.label(),
                    round(e.latency, 1),
                    round(e.throughput, 4),
                    round(e.power_w, 3),
                    round(e.energy_per_packet_nj, 3),
                    "*" if id(e) in frontier_ids else "",
                ]
            )
        return out


def explore(
    points: Optional[Iterable[DesignPoint]] = None,
    rate: float = 0.03,
    cycles: int = 1000,
    warmup: int = 300,
    seed: int = 6,
    executor: Optional[Executor] = None,
) -> ExplorationResult:
    """Evaluate a design space and extract its Pareto frontier.

    One engine spec per point, run as one batch through the supplied
    executor. Power is folded from each run's activity record and is not
    part of the spec digest, so points sharing a network shape (vc depth,
    serialization) share one simulation: the paper's 4x2 grid costs two.
    A wide exploration parallelises across worker processes and re-runs
    hit the result cache.
    """
    pts = list(points) if points is not None else default_space()
    specs = [_point_spec(point, rate, cycles, warmup, seed) for point in pts]
    evaluated = []
    for point, run in zip(pts, get_executor(executor).run(specs)):
        pb = run.power_for(point.config_id, point.scenario)
        evaluated.append(
            EvaluatedPoint(
                point, run.summary["latency_mean"], run.summary["throughput"],
                pb["total_w"], pb["energy_per_packet_nj"],
            )
        )
    return ExplorationResult(evaluated=evaluated, frontier=pareto_frontier(evaluated))
