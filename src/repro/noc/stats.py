"""Measurement collection for simulation runs.

Implements the standard open-loop methodology the paper uses: a warmup
window whose packets are excluded, then a measurement window over which we
report average packet latency and accepted throughput (flits per core per
cycle). Activity counters for the power model (per-link bits, per-router
events) are accumulated by the links/routers themselves; this module owns
the packet-level aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.noc.packet import Packet


def _percentile(ordered: Sequence[int], q: float) -> float:
    """NumPy's default (``linear``) percentile of a sorted, non-empty sample.

    The same float operations in the same order as ``numpy.percentile``:
    a virtual index ``(n - 1) * (q / 100)``, and the interpolation between
    its two neighbours taken from the nearer end, so the result is
    bit-identical to NumPy's.
    """
    index = (len(ordered) - 1) * (q / 100)
    lo = int(index)
    if lo >= len(ordered) - 1:
        return float(ordered[-1])
    below, above = float(ordered[lo]), float(ordered[lo + 1])
    gamma = index - lo
    if gamma >= 0.5:
        return above - (above - below) * (1 - gamma)
    return below + (above - below) * gamma


@dataclass
class LatencyStats:
    """Summary statistics over recorded packet latencies."""

    count: int
    mean: float
    median: float
    p95: float
    p99: float
    max: float

    @staticmethod
    def from_samples(samples: List[int]) -> "LatencyStats":
        """Statistics of integer samples (latencies in cycles).

        Exact Python, equal bit for bit to NumPy's ``mean``, ``median``,
        ``percentile`` and ``max`` over the same samples: an integer sum is
        exact, so ``sum / n`` is the correctly rounded mean NumPy's float
        sum also reaches below 2**53.
        """
        # Empty-sample stats stay NaN *in process* (arithmetic-friendly
        # sentinel); the JSON boundary renders them as null (see as_dict
        # and repro.runtime.records).
        if not samples:
            return LatencyStats(0, float("nan"), float("nan"), float("nan"), float("nan"), float("nan"))
        ordered = sorted(samples)
        n = len(ordered)
        mid = n // 2
        median = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
        return LatencyStats(
            count=n,
            mean=sum(ordered) / n,
            median=float(median),
            p95=_percentile(ordered, 95),
            p99=_percentile(ordered, 99),
            max=float(ordered[-1]),
        )


class StatsCollector:
    """Collects packet-level statistics during a simulation.

    Parameters
    ----------
    n_cores:
        Number of cores; normalises throughput.
    warmup_cycles:
        Packets *created* before this cycle are excluded from latency and
        throughput accounting (they still traverse the network and load it).
    """

    def __init__(self, n_cores: int, warmup_cycles: int = 0) -> None:
        self.n_cores = n_cores
        self.warmup_cycles = warmup_cycles

        self.latencies: List[int] = []
        #: Network-only latency (injection at the NI to ejection), i.e. the
        #: end-to-end figure minus source queueing. The gap between the two
        #: distributions is the standard saturation diagnostic.
        self.network_latencies: List[int] = []
        self.packets_ejected = 0
        #: Flits delivered inside the measurement window (ejection-time
        #: test). Throughput is the steady-state *delivery rate* over the
        #: window, so it counts every ejection in it -- unlike the latency
        #: samples below, which admit only packets *created* after warmup
        #: (mixing injection epochs skews the latency distribution).
        self.flits_ejected = 0
        #: Every delivered flit regardless of epoch (power accounting:
        #: energy is spent on warmup flits too).
        self.flits_ejected_total = 0
        self.packets_created = 0
        self.flits_created = 0
        self.measured_packets = 0
        self.measured_flits = 0
        self.hop_sum = 0
        self.wireless_hop_sum = 0
        self.photonic_hop_sum = 0
        self.electrical_hop_sum = 0
        self.first_measured_cycle: Optional[int] = None
        self.last_cycle = 0

        # Link-layer retransmission protocol counters (repro.faults). All
        # stay zero on fault-free runs; flit conservation in
        # repro.noc.invariants balances created + retransmitted against
        # ejected + in-network + dropped.
        self.flits_retransmitted = 0
        self.flits_dropped = 0
        self.packets_retransmitted = 0
        self.acks = 0
        self.nacks = 0
        self.timeouts = 0
        self.packets_recovered = 0
        self.channels_failed_over = 0
        self.channels_recovered = 0

    # ------------------------------------------------------------------ #
    # Event hooks (called by the simulator)
    # ------------------------------------------------------------------ #

    def on_packet_created(self, packet: Packet) -> None:
        self.packets_created += 1
        self.flits_created += packet.size_flits
        # Injection-epoch tag consulted at ejection time (and by the
        # telemetry tracer): only packets born inside the measurement
        # window count towards measured statistics.
        packet.measured = packet.t_create >= self.warmup_cycles

    def on_flit_ejected(self, now: int, packet: Optional[Packet] = None) -> None:
        self.last_cycle = now  # ejections arrive in cycle order
        self.flits_ejected_total += 1
        if now >= self.warmup_cycles:
            if self.first_measured_cycle is None:
                self.first_measured_cycle = now
            self.flits_ejected += 1

    def on_packet_ejected(self, packet: Packet, now: int) -> None:
        self.packets_ejected += 1
        measured = packet.measured
        if measured is None:
            # Created outside any collector (manual injection in tests):
            # fall back to the injection-epoch test directly.
            measured = packet.t_create >= self.warmup_cycles
        if measured:
            self.measured_packets += 1
            self.measured_flits += packet.size_flits
            self.latencies.append(now - packet.t_create)
            if packet.t_inject is not None:
                self.network_latencies.append(now - packet.t_inject)
            self.hop_sum += packet.hops
            self.wireless_hop_sum += packet.wireless_hops
            self.photonic_hop_sum += packet.photonic_hops
            self.electrical_hop_sum += packet.electrical_hops

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def latency_stats(self) -> LatencyStats:
        return LatencyStats.from_samples(self.latencies)

    def network_latency_stats(self) -> LatencyStats:
        """Latency excluding source (NI) queueing."""
        return LatencyStats.from_samples(self.network_latencies)

    def queueing_latency_mean(self) -> float:
        """Average cycles packets spend queued at their source NI."""
        if not self.latencies or not self.network_latencies:
            return float("nan")
        total = sum(self.latencies) / len(self.latencies)
        network = sum(self.network_latencies) / len(self.network_latencies)
        return total - network

    def throughput_flits_per_core_cycle(self, end_cycle: int) -> float:
        """Accepted throughput over the measurement window."""
        window = end_cycle - self.warmup_cycles
        if window <= 0:
            return float("nan")
        return self.flits_ejected / (self.n_cores * window)

    def avg_hops(self) -> float:
        return self.hop_sum / self.measured_packets if self.measured_packets else float("nan")

    def avg_wireless_hops(self) -> float:
        return self.wireless_hop_sum / self.measured_packets if self.measured_packets else float("nan")

    def retransmission_summary(self) -> Dict[str, int]:
        """Link-layer protocol counters (all zero on fault-free runs)."""
        return {
            "flits_retransmitted": self.flits_retransmitted,
            "flits_dropped": self.flits_dropped,
            "packets_retransmitted": self.packets_retransmitted,
            "acks": self.acks,
            "nacks": self.nacks,
            "timeouts": self.timeouts,
            "packets_recovered": self.packets_recovered,
            "channels_failed_over": self.channels_failed_over,
            "channels_recovered": self.channels_recovered,
        }

    def summary(self, end_cycle: int) -> Dict[str, Optional[float]]:
        """Headline metrics for run records.

        With zero completed packets the latency metrics are emitted as an
        *explicit* ``n=0`` sentinel -- ``latency_samples`` 0 alongside
        ``None`` values -- rather than NaN left for the JSON layer to
        coerce. ``repro diff`` distinguishes this sentinel from a missing
        metric and flags an empty-vs-populated mismatch as a regression.
        """
        lat = self.latency_stats()
        net_lat = self.network_latency_stats()
        empty = lat.count == 0
        return {
            "packets_measured": float(self.measured_packets),
            "latency_samples": float(lat.count),
            "latency_mean": None if empty else lat.mean,
            "latency_p99": None if empty else lat.p99,
            "network_latency_mean": None if net_lat.count == 0 else net_lat.mean,
            "queueing_latency_mean": (
                None if empty or net_lat.count == 0
                else self.queueing_latency_mean()
            ),
            "throughput": self.throughput_flits_per_core_cycle(end_cycle),
            "avg_hops": self.avg_hops(),
            "avg_wireless_hops": self.avg_wireless_hops(),
        }
