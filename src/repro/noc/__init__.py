"""Cycle-accurate NoC simulation substrate.

This subpackage is the simulator the paper's evaluation rests on: flit-level
virtual-channel routers (RC/VCA/SA/ST/LT pipeline), credit flow control,
token-arbitrated photonic MWSR buses and SWMR wireless multicast channels.
Topology builders live in :mod:`repro.topologies` and :mod:`repro.core`.
"""

from repro.noc.packet import Packet
from repro.noc.buffers import VirtualChannel, InputPort, VCState
from repro.noc.links import (
    Endpoint,
    Link,
    SharedMedium,
    ELECTRICAL,
    PHOTONIC,
    WIRELESS,
    LINK_KINDS,
)
from repro.noc.router import Router, RoutingFunction
from repro.noc.network import Network, NetworkInterface
from repro.noc.simulator import Simulator, SimulationDeadlock
from repro.noc.stats import StatsCollector, LatencyStats

__all__ = [
    "Packet",
    "VirtualChannel",
    "InputPort",
    "VCState",
    "Endpoint",
    "Link",
    "SharedMedium",
    "ELECTRICAL",
    "PHOTONIC",
    "WIRELESS",
    "LINK_KINDS",
    "Router",
    "RoutingFunction",
    "Network",
    "NetworkInterface",
    "Simulator",
    "SimulationDeadlock",
    "StatsCollector",
    "LatencyStats",
]
