"""Network power accounting: turns a finished simulation into Fig. 6/8 rows.

"We have considered the power consumed by the photonic link, wireless link,
electrical link and the router microarchitecture." (Sec. V-B) -- the same
four components this module reports.

The wireless component follows the measured per-channel traffic ("We
measured the total number of packets sent and received to evaluate the
percentage of traffic that uses the wireless channels"): every wireless
link's carried bits are multiplied by its channel's LD- and multicast-
adjusted energy/bit under the chosen Table IV configuration and Table III
scenario.

A finished run is read once into an :class:`ActivityRecord`
(:func:`record_of`); :meth:`PowerModel.measure` is a pure fold over it, so
one simulation is priced under any configuration or coefficient unchanged.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.core.floorplan import LD_FACTOR
from repro.photonics.components import (
    mwsr_crossbar,
    own_inventory,
    pclos_inventory,
)
from repro.power.dsent import DsentParams, router_events
from repro.power.photonic import PhotonicParams
from repro.power.wireless import (
    ConfiguredChannel,
    WirelessPowerParams,
    WirelessScenario,
    SCENARIOS,
    channels_for_config,
    config_energy_pj_per_bit,
    wireless_channel_table,
)
from repro.topologies.base import BuiltTopology

if TYPE_CHECKING:
    from repro.noc.simulator import Simulator


def photonic_ring_count(built: BuiltTopology) -> int:
    """Microring inventory of a built topology (thermally tuned rings)."""
    kind = built.kind
    n_routers = built.network.n_routers
    if kind == "own":
        n_clusters = built.n_cores // 64
        return own_inventory(n_clusters).rings
    if kind == "optxb":
        return mwsr_crossbar(n_routers, rings_per_modulator=1).rings
    if kind == "pclos":
        n_middles = int(built.params.get("n_middles", 8))
        return pclos_inventory(n_routers - n_middles, n_middles).rings
    return 0


@dataclass(frozen=True)
class ActivityRecord:
    """Everything power is folded from, read once off a finished run.

    ``routers`` holds every router's :func:`~repro.power.dsent.router_events`
    and ``links`` every link that carried bits as ``(kind, length_mm,
    channel_id, multicast_degree, bits_carried, bits_retransmitted,
    control_msgs, src_router)``, both in network order. ``channel_id`` is
    the one the run ended with: reconfiguration re-points spare links while
    it runs. ``src_router`` indexes ``routers``: where the link's drivers
    sit. Plain JSON data; :attr:`crc32` covers all of it.
    """

    cycles: int
    packets_ejected: int
    flits_ejected_total: int
    wireless_ends: int
    photonic_rings: int
    routers: Tuple[Tuple[int, ...], ...]
    links: Tuple[Tuple[object, ...], ...]

    def __post_init__(self) -> None:
        # JSON round-trips deliver lists; re-freeze.
        object.__setattr__(self, "routers", tuple(map(tuple, self.routers)))
        object.__setattr__(self, "links", tuple(map(tuple, self.links)))

    @cached_property
    def crc32(self) -> int:
        body = [getattr(self, f.name) for f in fields(self)]
        return zlib.crc32(json.dumps(body, separators=(",", ":")).encode())

    def to_dict(self) -> Dict[str, object]:
        return {**{f.name: getattr(self, f.name) for f in fields(self)}, "crc32": self.crc32}

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "ActivityRecord":
        record = cls(**{k: v for k, v in d.items() if k != "crc32"})
        if record.crc32 != d["crc32"]:
            raise ValueError("activity record does not match its crc32")
        return record


def record_of(built: BuiltTopology, sim: Simulator) -> ActivityRecord:
    """Read the :class:`ActivityRecord` of a finished run off its network."""
    links = built.network.links
    # Wireless static bias: each channel's TX end and its RX end(s) (one per
    # destination cluster on a multicast channel), counted once per physical
    # channel: a point-to-point link is one, an SWMR medium is one shared by
    # its member links.
    wireless = [link for link in links if link.kind == "wireless"]
    media = {id(link.medium): link.medium for link in wireless if link.medium is not None}
    ends = sum(1 + m.multicast_degree for m in media.values())
    ends += 2 * sum(1 for link in wireless if link.medium is None)
    return ActivityRecord(
        cycles=sim.now,
        packets_ejected=sim.stats.packets_ejected,
        # Power is physical: every delivered flit burned energy, including
        # warmup-epoch flits the measured-window stats exclude.
        flits_ejected_total=sim.stats.flits_ejected_total,
        wireless_ends=ends,
        photonic_rings=photonic_ring_count(built),
        routers=tuple(router_events(router) for router in built.network.routers),
        links=tuple(
            (
                link.kind, link.length_mm, link.channel_id, link.multicast_degree,
                link.bits_carried, link.bits_retransmitted, link.control_msgs,
                link.src_router.rid,
            )
            for link in links
            if link.bits_carried
        ),
    )


@dataclass
class PowerBreakdown:
    """Average power over the simulated window, by component [W]."""

    router_w: float = 0.0
    electrical_link_w: float = 0.0
    photonic_w: float = 0.0
    wireless_w: float = 0.0
    #: Of which: link-layer protocol overhead (retransmitted payload bits
    #: plus ACK/NACK control traffic, priced by each link's PHY model).
    #: Already included in ``photonic_w`` / ``wireless_w``, reported
    #: separately so degradation studies can plot the energy cost of
    #: reliability (zero on runs without a fault layer).
    retx_overhead_w: float = 0.0
    #: Fig. 5's metric: the data-bit power of the wireless links that
    #: carried traffic, averaged over those links [mW] (control messages
    #: and static bias excluded).
    avg_wireless_link_mw: float = 0.0
    duration_s: float = 0.0
    packets: int = 0
    flits_delivered: int = 0

    @property
    def total_w(self) -> float:
        return self.router_w + self.electrical_link_w + self.photonic_w + self.wireless_w

    @property
    def energy_per_packet_nj(self) -> float:
        """Average energy per delivered packet [nJ] (Fig. 8b's metric)."""
        if self.packets == 0:
            return float("nan")
        return self.total_w * self.duration_s / self.packets * 1e9

    def as_dict(self) -> Dict[str, float]:
        return {
            "router_w": self.router_w,
            "electrical_link_w": self.electrical_link_w,
            "photonic_w": self.photonic_w,
            "wireless_w": self.wireless_w,
            "retx_overhead_w": self.retx_overhead_w,
            "total_w": self.total_w,
            "energy_per_packet_nj": self.energy_per_packet_nj,
            "avg_wireless_link_mw": self.avg_wireless_link_mw,
        }


@dataclass
class PowerModel:
    """Bundles the three component models plus the wireless plan choice.

    Parameters
    ----------
    config_id:
        Table IV configuration for OWN's wireless channels (the evaluation
        settles on configuration 4: "As OWN-256 Configuration 4 showed the
        best power results, we have assume[d] configuration 4 for 256 and
        1024 core ... results").
    scenario:
        Table III scenario (1 = ideal 32 GHz, 2 = conservative 16 GHz).
    """

    dsent: DsentParams = field(default_factory=DsentParams)
    photonic: PhotonicParams = field(default_factory=PhotonicParams)
    wireless: WirelessPowerParams = field(default_factory=WirelessPowerParams)
    config_id: int = 4
    scenario: WirelessScenario = field(default_factory=lambda: SCENARIOS[1])

    # ---------------- wireless energy resolution ---------------- #

    @cached_property
    def _own_channels(self) -> Dict[int, ConfiguredChannel]:
        """The Table IV channel plan by link number, resolved once."""
        return {
            c.link_number: c for c in channels_for_config(self.config_id, self.scenario)
        }

    def wireless_link_energy_pj_per_bit(self, channel_id: Optional[int], length_mm: float) -> float:
        """Energy/bit for one wireless link (before multicast adjustment)."""
        if channel_id is not None:
            own = self._own_channels
            if channel_id in own:
                chan = own[channel_id]
                return chan.spec.energy_pj_per_bit * LD_FACTOR[chan.distance_class]
            # Reconfiguration-band channels (13-16; OWN-1024 intra-group):
            # the configuration's short-range technology serves them.
            return self._sr_energy_pj_per_bit
        # Non-OWN wireless (e.g. wireless-CMESH grid links): plain Table III
        # data channels, no Table IV override. Their distances fall between
        # the three OWN classes, so the LD factor follows the link-budget
        # d^2 law directly (Sec. IV: the LD factor "is the result of power
        # changes as a function of distance"), floored at 5 % for fixed
        # transceiver overheads.
        ld = max(0.05, min(1.0, (length_mm / 60.0) ** 2))
        return self._mean_data_energy_pj_per_bit * ld

    @cached_property
    def _sr_energy_pj_per_bit(self) -> float:
        """The configuration's short-range energy/bit, resolved once."""
        return config_energy_pj_per_bit(self.config_id, self.scenario, "SR")

    @cached_property
    def _mean_data_energy_pj_per_bit(self) -> float:
        """Mean energy/bit of the scenario's Table III data channels."""
        data = [r for r in wireless_channel_table(self.scenario) if r.role == "data"]
        return sum(r.energy_pj_per_bit for r in data) / len(data)

    # ---------------- per-site prices ---------------- #
    # With DsentParams' router terms, the one copy of each formula: ``measure``
    # folds them over a record, the thermal map scatters them on a floorplan.

    def link_price(self, row: Tuple[object, ...]) -> Tuple[float, float, float]:
        """One link row's energy [pJ]: its carried bits, its ACK/NACK control
        messages (charged on top), and the retransmitted share of the carried
        bits (reported, not charged again)."""
        kind, length_mm, channel_id, degree, bits, retx_bits, ctrl_msgs, _ = row
        if kind == "electrical":
            return self.dsent.wire_energy_pj(bits, length_mm), 0.0, 0.0
        ctrl_bits = ctrl_msgs * self.wireless.control_bits_per_msg
        if kind == "photonic":
            pj = self.photonic.link_dynamic_energy_pj
            return pj(bits), pj(ctrl_bits), pj(retx_bits)
        e_bit = self.wireless_link_energy_pj_per_bit(channel_id, length_mm)
        e_eff = self.wireless.effective_energy_pj(e_bit, degree)
        return bits * e_eff, ctrl_bits * e_eff, retx_bits * e_eff

    def static_price(self, activity: ActivityRecord) -> Tuple[float, float]:
        """Wireless transceiver bias and ring thermal tuning [mW]."""
        return (
            activity.wireless_ends * self.wireless.static_mw_per_transceiver_end,
            self.photonic.tuning_power_mw(activity.photonic_rings),
        )

    # ---------------- the main entry point ---------------- #

    def measure(self, activity: ActivityRecord) -> PowerBreakdown:
        """Fold a finished run's activity record into its power breakdown."""
        if activity.cycles <= 0:
            raise ValueError("simulation has not run; no window to average over")
        duration_s = self.dsent.cycles_to_seconds(activity.cycles)
        out = PowerBreakdown(duration_s=duration_s)
        out.packets = activity.packets_ejected
        out.flits_delivered = activity.flits_ejected_total

        # Routers: dynamic event energy + static power.
        dyn_pj = 0.0
        static_mw = 0.0
        for events in activity.routers:
            dyn_pj += self.dsent.events_energy_pj(events)
            static_mw += self.dsent.static_power_mw(events[-1])
        out.router_w = dyn_pj * 1e-12 / duration_s + static_mw * 1e-3

        # Links by technology. ``bits_carried`` already includes link-layer
        # retransmissions (they are physical sends); ACK/NACK control
        # messages ride the reverse channel and are charged on top. The
        # protocol's share (retransmitted bits + control) is also tallied
        # into retx_overhead_w for reporting.
        elec_pj = 0.0
        phot_pj = 0.0
        wifi_pj = 0.0
        wifi_data_pj = 0.0  # data bits alone, for avg_wireless_link_mw
        wifi_active = 0
        retx_pj = 0.0
        for row in activity.links:
            data_pj, ctrl_pj, row_retx_pj = self.link_price(row)
            if row[0] == "electrical":
                elec_pj += data_pj
                continue
            if row[0] == "photonic":
                phot_pj += data_pj
                phot_pj += ctrl_pj
            else:
                wifi_pj += data_pj
                wifi_data_pj += data_pj
                wifi_active += 1
                wifi_pj += ctrl_pj
            retx_pj += ctrl_pj
            retx_pj += row_retx_pj
        out.electrical_link_w = elec_pj * 1e-12 / duration_s
        out.retx_overhead_w = retx_pj * 1e-12 / duration_s
        out.avg_wireless_link_mw = (
            wifi_data_pj * 1e-12 / duration_s / max(1, wifi_active) * 1e3
        )

        wifi_static_mw, tuning_mw = self.static_price(activity)
        out.wireless_w = wifi_pj * 1e-12 / duration_s + wifi_static_mw * 1e-3
        out.photonic_w = phot_pj * 1e-12 / duration_s + tuning_mw * 1e-3
        return out


def measure_power(
    built: BuiltTopology,
    sim: Simulator,
    config_id: int = 4,
    scenario: int | WirelessScenario = 1,
    model: Optional[PowerModel] = None,
) -> PowerBreakdown:
    """Convenience wrapper: breakdown for a finished run.

    ``scenario`` accepts the paper's scenario number (1/2) or a
    :class:`~repro.power.wireless.WirelessScenario`.
    """
    if model is None:
        scen = SCENARIOS[scenario] if isinstance(scenario, int) else scenario
        model = PowerModel(config_id=config_id, scenario=scen)
    return model.measure(record_of(built, sim))
