"""Per-resource utilisation accounting for finished runs.

Sec. V-B: "We measured the total number of packets sent and received to
evaluate the percentage of traffic that uses the wireless channels." This
module generalises that measurement: per-channel and per-waveguide
utilisation, traffic share by link technology, gateway load balance, and a
bottleneck ranking -- the quantities an architect reads before moving a
gateway or re-assigning a channel (and what the reconfiguration controller
automates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.model import channel_of, channels
from repro.noc.simulator import Simulator
from repro.topologies.base import BuiltTopology


@dataclass
class ChannelUtilisation:
    """One wireless channel / photonic waveguide's measured load."""

    name: str
    kind: str
    flits: int
    utilisation: float  # flits * cycles_per_flit / cycles
    channel_id: Optional[int] = None


@dataclass
class UtilisationReport:
    """Aggregated utilisation view of a finished run."""

    cycles: int
    flits_by_kind: Dict[str, int] = field(default_factory=dict)
    channels: List[ChannelUtilisation] = field(default_factory=list)
    gateway_loads: Dict[str, int] = field(default_factory=dict)

    @property
    def wireless_traffic_share(self) -> float:
        """Fraction of all link flit-traversals on wireless channels
        (the paper's Fig. 5 measurement)."""
        total = sum(self.flits_by_kind.values())
        if total == 0:
            return float("nan")
        return self.flits_by_kind.get("wireless", 0) / total

    def hottest(self, n: int = 5, kind: Optional[str] = None) -> List[ChannelUtilisation]:
        pool = [c for c in self.channels if kind is None or c.kind == kind]
        return sorted(pool, key=lambda c: c.utilisation, reverse=True)[:n]

    def load_balance_cv(self, kind: str) -> float:
        """Coefficient of variation of utilisation within a link class
        (0 = perfectly balanced)."""
        utils = np.array([c.utilisation for c in self.channels if c.kind == kind])
        if utils.size == 0 or utils.mean() == 0:
            return float("nan")
        return float(utils.std() / utils.mean())


def utilisation_report(built: BuiltTopology, sim: Simulator) -> UtilisationReport:
    """Build the utilisation view from link/medium counters.

    One row per channel (:func:`repro.analysis.model.channels`): shared
    media (waveguides, SWMR channels) report once per medium, point-to-point
    links individually, and ejection links not at all (they mirror
    delivered traffic, not network load).
    """
    if sim.now <= 0:
        raise ValueError("simulation has not run")
    net = built.network
    report = UtilisationReport(cycles=sim.now)

    for link in net.links:
        if channel_of(link) is not None:
            report.flits_by_kind[link.kind] = (
                report.flits_by_kind.get(link.kind, 0) + link.flits_carried
            )
    for channel, link in channels(net).items():
        report.channels.append(
            ChannelUtilisation(
                name=channel.name,
                kind=channel.kind,
                flits=channel.flits_carried,
                utilisation=channel.flits_carried * link.cycles_per_flit / sim.now,
                channel_id=link.channel_id,
            )
        )

    for router in net.routers:
        gateway = router.attrs.get("gateway")
        if gateway:
            label = f"{gateway}{router.attrs.get('cluster', '?')}"
            if "group" in router.attrs:
                label = f"g{router.attrs['group']}." + label
            report.gateway_loads[label] = (
                router.buffer_writes + router.buffer_reads
            )
    return report


def wireless_channel_table_rows(
    built: BuiltTopology, sim: Simulator
) -> List[Tuple[int, str, int, float]]:
    """Per-channel rows (id, name, flits, utilisation) for bench output."""
    report = utilisation_report(built, sim)
    rows = [
        (c.channel_id or 0, c.name, c.flits, round(c.utilisation, 4))
        for c in report.channels
        if c.kind == "wireless"
    ]
    return sorted(rows)
