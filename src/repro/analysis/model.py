"""Closed-form performance models, cross-validated against simulation.

For design-space exploration you want answers without running the cycle
simulator; these are the standard first-order NoC models specialised to the
five compared architectures:

* **zero-load latency**: injection + per-hop pipeline (2 cycles + link
  latency) + expected token wait + serialization tail of an S-flit packet;
* **saturation throughput**: the binding resource's capacity over its
  offered share -- dedicated wireless channels and gateway waveguides for
  OWN, DOR channel load for the meshes, home-waveguide load for the
  crossbar, up-waveguide load for the Clos. Token media derate by
  S*cpf / (S*cpf + arb) (the inter-packet token gap).

Two suites hold the predictions to the measured values within first-order
tolerances -- `benchmarks/test_model_validation.py` and
`tests/analysis/test_model_utilization.py` -- the strongest whole-system
validation in the repo: an error in model or simulator breaks the agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

#: Head-flit cost of one router traversal beyond the link latency: SA + the
#: RC/VCA stages overlapped with arrival (see repro.noc.simulator docstring).
ROUTER_PIPELINE_CYCLES = 2


@dataclass(frozen=True)
class PredictedPerformance:
    """Model output for one (topology, packet size) point."""

    zero_load_latency: float
    saturation_rate: float  # offered flits/core/cycle at the binding bound
    binding_resource: str


def _token_utilisation(packet_flits: int, cycles_per_flit: int, arb_latency: int) -> float:
    """Fraction of a token medium's slots that carry payload."""
    busy = packet_flits * cycles_per_flit
    return busy / (busy + arb_latency)


# --------------------------------------------------------------------- #
# CMESH
# --------------------------------------------------------------------- #


def predict_cmesh(
    n_cores: int = 256, packet_flits: int = 4, cycles_per_flit: int = 3
) -> PredictedPerformance:
    """Concentrated mesh under uniform random with XY DOR."""
    n_routers = n_cores // 4
    k = int(math.isqrt(n_routers))
    # Mean Manhattan distance between uniform random routers: 2(k^2-1)/(3k)
    # per Dally/Towles (both coordinates, unordered pairs).
    avg_hops = 2.0 * (k * k - 1) / (3.0 * k)
    t0 = (
        1.0  # injection
        + avg_hops * (ROUTER_PIPELINE_CYCLES + 1)  # mesh traversals
        + (ROUTER_PIPELINE_CYCLES + 1)  # ejection
        + (packet_flits - 1) * cycles_per_flit  # serialization tail
    )
    # Max DOR channel load under UN: (k/4) * per-router injection rate.
    capacity = 1.0 / cycles_per_flit
    sat_router = capacity / (k / 4.0)
    return PredictedPerformance(t0, sat_router / 4.0, "centre mesh channel")


# --------------------------------------------------------------------- #
# OptXB
# --------------------------------------------------------------------- #


def predict_optxb(
    n_cores: int = 256,
    packet_flits: int = 4,
    cycles_per_flit: int = 4,
    token_latency: int = 10,
    waveguide_latency: int = 2,
) -> PredictedPerformance:
    n_routers = n_cores // 4
    t0 = (
        1.0
        + (ROUTER_PIPELINE_CYCLES + waveguide_latency + token_latency)  # crossbar hop
        + (ROUTER_PIPELINE_CYCLES + 1)  # ejection
        + (packet_flits - 1) * cycles_per_flit
    )
    util = _token_utilisation(packet_flits, cycles_per_flit, token_latency)
    capacity = util / cycles_per_flit
    # Home waveguide load: 4 cores inject toward it from elsewhere.
    per_wg_load_per_lambda = 4.0 * (n_routers - 1) / n_routers
    return PredictedPerformance(
        t0, capacity / per_wg_load_per_lambda, "home waveguide"
    )


# --------------------------------------------------------------------- #
# p-Clos
# --------------------------------------------------------------------- #


def predict_pclos(
    n_cores: int = 256,
    n_middles: int = 16,
    packet_flits: int = 4,
    token_latency: int = 2,
    waveguide_latency: int = 2,
) -> PredictedPerformance:
    t0 = (
        1.0
        + 2 * (ROUTER_PIPELINE_CYCLES + waveguide_latency + token_latency)  # up+down
        + (ROUTER_PIPELINE_CYCLES + 1)
        + (packet_flits - 1)
    )
    util = _token_utilisation(packet_flits, 1, token_latency)
    per_bus_load = n_cores / n_middles  # every packet crosses one up-bus
    return PredictedPerformance(t0, util / per_bus_load, "up waveguide")


# --------------------------------------------------------------------- #
# wCMESH
# --------------------------------------------------------------------- #


def predict_wcmesh(
    n_cores: int = 256, packet_flits: int = 4, wireless_cycles_per_flit: int = 2
) -> PredictedPerformance:
    n_routers = n_cores // 4
    k = int(math.isqrt(n_routers)) // 2  # wireless cluster grid side
    inter_share = 1.0 - 1.0 / (k * k)  # traffic leaving its cluster
    avg_wireless_hops = 2.0 * (k * k - 1) / (3.0 * k)
    # electrical in/out hops (3/4 of sources are not the wireless router):
    t0 = (
        1.0
        + 0.75 * (ROUTER_PIPELINE_CYCLES + 1) * 2  # crossbar in + out
        + inter_share * avg_wireless_hops * (ROUTER_PIPELINE_CYCLES + 1)
        + (ROUTER_PIPELINE_CYCLES + 1)  # ejection
        + (packet_flits - 1) * wireless_cycles_per_flit
    )
    capacity = 1.0 / wireless_cycles_per_flit
    # Max wireless channel load: (k/4) * per-cluster injection (16 cores).
    sat = capacity / ((k / 4.0) * 16.0 * inter_share)
    return PredictedPerformance(t0, sat, "centre wireless link")


# --------------------------------------------------------------------- #
# OWN-256
# --------------------------------------------------------------------- #


def predict_own256(
    packet_flits: int = 4,
    photonic_latency: int = 2,
    photonic_token: int = 1,
    wireless_latency: int = 1,
    wireless_cycles_per_flit: int = 1,
) -> PredictedPerformance:
    n_cores, tiles, clusters = 256, 16, 4
    p_intra_tile = 3.0 / 255.0
    p_intra_cluster = 60.0 / 255.0
    p_inter = 192.0 / 255.0

    phot_hop = ROUTER_PIPELINE_CYCLES + photonic_latency + photonic_token
    wifi_hop = ROUTER_PIPELINE_CYCLES + wireless_latency
    # Inter-cluster: photonic to gateway (15/16 of sources), wireless,
    # photonic to destination tile (15/16 of destinations).
    gateway_miss = (tiles - 1) / tiles
    hops_inter = gateway_miss * phot_hop + wifi_hop + gateway_miss * phot_hop
    t0 = (
        1.0
        + p_intra_cluster * phot_hop
        + p_inter * hops_inter
        + (ROUTER_PIPELINE_CYCLES + 1)
        + (packet_flits - 1) * max(1, wireless_cycles_per_flit)
    )
    # Binding bounds:
    util_wg = _token_utilisation(packet_flits, 1, photonic_token)
    # Gateway home waveguide: inter-cluster ingress for one destination
    # cluster (64 cores x 1/4 of their traffic x 192/255 inter share wears
    # the pair's single gateway) + its own tile's share of local traffic.
    ingress_per_lambda = 64.0 * (1.0 / 4.0) * gateway_miss + 64.0 * p_intra_cluster / tiles
    sat_gateway = util_wg / ingress_per_lambda
    # Wireless channel: the same pair traffic at full channel rate.
    cap_wifi = 1.0 / wireless_cycles_per_flit
    sat_channel = cap_wifi / (64.0 / 4.0)
    if sat_gateway <= sat_channel:
        return PredictedPerformance(t0, sat_gateway, "gateway waveguide")
    return PredictedPerformance(t0, sat_channel, "wireless channel")


#: Registry for tests and CLI use.
PREDICTORS: Dict[str, callable] = {
    "cmesh256": predict_cmesh,
    "optxb256": predict_optxb,
    "pclos256": predict_pclos,
    "wcmesh256": predict_wcmesh,
    "own256": predict_own256,
}
