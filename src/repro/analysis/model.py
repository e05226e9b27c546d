"""Analytic performance model from one walk of the production routing.

For design-space exploration you want answers without running the cycle
simulator. :func:`predict` reads them off the built topology alone: it walks
every route with the network's own ``compute``
(:func:`repro.noc.network.walk_route`, the walk the simulator's lone-packet
express books a route from) and takes each hop's cost and each channel's
capacity from the links the route crosses, so no latency, token or
serialisation parameter exists twice. Under
uniform random (UN) traffic of ``S``-flit packets:

* **zero-load latency** of a route is one cycle of injection, plus
  ``ROUTER_PIPELINE_CYCLES + link.latency + medium.arb_latency`` per hop
  (the ejection hop included), plus a serialisation tail of ``S - 1`` times
  the largest ``cycles_per_flit`` on the route, averaged over every ordered
  core pair;
* **saturation rate** is the Dally-Towles channel-load bound: the minimum
  over channels of capacity / load. A channel is a shared medium or else a
  point-to-point link (:func:`channel_of`). Its capacity is
  ``1 / cycles_per_flit`` flits per cycle, derated on a token medium by the
  inter-packet token gap, ``S*cpf / (S*cpf + arb_latency)``.

The named networks route a packet by its cores' routers alone, so one
representative core per (source router, destination router) pair is walked,
weighted by the number of core pairs it stands for (the tests check this
against walking every core pair).

Two suites hold the predictions to measured values --
`benchmarks/test_model_validation.py` (all ten named networks) and
`tests/analysis/test_model_utilization.py` (the 256-core five, channel by
channel): an error in model or simulator breaks the agreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.noc.links import Link, SharedMedium
from repro.noc.network import Network, walk_route
from repro.runtime.spec import TrafficSpec
from repro.topologies.base import BuiltTopology

#: Head-flit cost of one router traversal beyond the link latency: SA + the
#: RC/VCA stages overlapped with arrival (see repro.noc.simulator docstring).
ROUTER_PIPELINE_CYCLES = 2

#: What a link's flits load: a shared medium, or the link itself.
Channel = Union[SharedMedium, Link]


@dataclass(frozen=True)
class PredictedPerformance:
    """Model output for one topology under UN traffic."""

    zero_load_latency: float
    saturation_rate: float  # offered flits/core/cycle at the binding bound
    binding_resource: str  # name of the channel that sets saturation_rate
    #: Ordered core pairs routed over each channel (a pair crossing a
    #: channel twice counts twice); UN offers each pair rate / (n_cores - 1).
    loads: Dict[Channel, int] = field(repr=False, compare=False)


def channel_of(link: Link) -> Optional[Channel]:
    """The channel ``link``'s flits load: its shared medium if it has one,
    else the link itself. ``None`` for an ejection link, whose flits mirror
    delivered traffic rather than network load."""
    if link.name.startswith("eject"):
        return None
    return link.medium if link.medium is not None else link


def channels(network: Network) -> Dict[Channel, Link]:
    """Every channel of ``network`` once, in link order, with its first link."""
    first: Dict[Channel, Link] = {}
    for link in network.links:
        channel = channel_of(link)
        if channel is not None:
            first.setdefault(channel, link)
    return first


def _arb_latency(link: Link) -> int:
    return link.medium.arb_latency if link.medium is not None else 0


def predict(built: BuiltTopology) -> PredictedPerformance:
    """Zero-load latency and saturation bound of ``built`` under UN."""
    net = built.network
    routing = net.routers[0].routing
    size = TrafficSpec().packet_size
    cores: Dict[int, List[int]] = {}
    for core, rid in enumerate(net.core_router):
        cores.setdefault(rid, []).append(core)

    # Ordered core pairs over each link, and the sum over pairs of the
    # largest cycles_per_flit on their route (the serialisation tail).
    crossings = dict.fromkeys(net.links, 0)
    tail = 0
    for src_rid, srcs in cores.items():
        for dst_rid, dsts in cores.items():
            weight = len(srcs) * len(dsts) - (src_rid == dst_rid) * len(srcs)
            if not weight:
                continue
            slowest = 1
            for _, _, link, _ in walk_route(net, routing, srcs[0], dsts[-1]):
                crossings[link] += weight
                if link.cycles_per_flit > slowest:
                    slowest = link.cycles_per_flit
            tail += weight * slowest

    n = net.n_cores
    pairs = n * (n - 1)
    head = pairs + sum(  # one injection cycle per pair, then every hop
        count * (ROUTER_PIPELINE_CYCLES + link.latency + _arb_latency(link))
        for link, count in crossings.items()
    )
    first = channels(net)
    loads = dict.fromkeys(first, 0)
    for link, count in crossings.items():
        channel = channel_of(link)
        if channel is not None:
            loads[channel] += count

    rate, binding = float("inf"), ""
    for channel, link in first.items():
        if loads[channel]:
            capacity = size / (size * link.cycles_per_flit + _arb_latency(link))
            bound = capacity * (n - 1) / loads[channel]
            if bound < rate:
                rate, binding = bound, channel.name
    return PredictedPerformance(
        (head + (size - 1) * tail) / pairs, rate, binding, loads
    )
