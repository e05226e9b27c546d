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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional

from repro.core.floorplan import LD_FACTOR
from repro.noc.simulator import Simulator
from repro.photonics.components import (
    mwsr_crossbar,
    own_inventory,
    pclos_inventory,
)
from repro.power.dsent import DsentParams
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

    def wireless_link_energy_pj_per_bit(self, link) -> float:
        """Energy/bit for one wireless link (before multicast adjustment)."""
        if link.channel_id is not None:
            own = self._own_channels
            if link.channel_id in own:
                chan = own[link.channel_id]
                return chan.spec.energy_pj_per_bit * LD_FACTOR[chan.distance_class]
            # Reconfiguration-band channels (13-16; OWN-1024 intra-group):
            # the configuration's short-range technology serves them.
            return config_energy_pj_per_bit(self.config_id, self.scenario, "SR")
        # Non-OWN wireless (e.g. wireless-CMESH grid links): plain Table III
        # data channels, no Table IV override. Their distances fall between
        # the three OWN classes, so the LD factor follows the link-budget
        # d^2 law directly (Sec. IV: the LD factor "is the result of power
        # changes as a function of distance"), floored at 5 % for fixed
        # transceiver overheads.
        ld = max(0.05, min(1.0, (link.length_mm / 60.0) ** 2))
        return self._mean_data_energy_pj_per_bit * ld

    @cached_property
    def _mean_data_energy_pj_per_bit(self) -> float:
        """Mean energy/bit of the scenario's Table III data channels."""
        data = [r for r in wireless_channel_table(self.scenario) if r.role == "data"]
        return sum(r.energy_pj_per_bit for r in data) / len(data)

    # ---------------- static photonic inventory ---------------- #

    def photonic_ring_count(self, built: BuiltTopology) -> int:
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

    # ---------------- the main entry point ---------------- #

    def measure(self, built: BuiltTopology, sim: Simulator) -> PowerBreakdown:
        """Compute the component power breakdown of a finished run."""
        if sim.now <= 0:
            raise ValueError("simulation has not run; no window to average over")
        net = built.network
        duration_s = self.dsent.cycles_to_seconds(sim.now)
        out = PowerBreakdown(duration_s=duration_s)
        out.packets = sim.stats.packets_ejected
        # Power is physical: every delivered flit burned energy, including
        # warmup-epoch flits the measured-window stats exclude.
        out.flits_delivered = sim.stats.flits_ejected_total

        # Routers: dynamic event energy + static power.
        dyn_pj = 0.0
        static_mw = 0.0
        for router in net.routers:
            dyn_pj += self.dsent.router_dynamic_energy_pj(router)
            static_mw += self.dsent.router_static_power_mw(router)
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
        ctrl_bits = self.wireless.control_bits_per_msg
        for link in net.links:
            if link.bits_carried == 0:
                continue
            if link.kind == "electrical":
                elec_pj += self.dsent.wire_energy_pj(link.bits_carried, link.length_mm)
            elif link.kind == "photonic":
                phot_pj += self.photonic.link_dynamic_energy_pj(link.bits_carried)
                if link.control_msgs:
                    c = self.photonic.link_dynamic_energy_pj(link.control_msgs * ctrl_bits)
                    phot_pj += c
                    retx_pj += c
                if link.bits_retransmitted:
                    retx_pj += self.photonic.link_dynamic_energy_pj(link.bits_retransmitted)
            elif link.kind == "wireless":
                e_bit = self.wireless_link_energy_pj_per_bit(link)
                e_eff = self.wireless.effective_energy_pj(e_bit, link.multicast_degree)
                data_pj = link.bits_carried * e_eff
                wifi_pj += data_pj
                wifi_data_pj += data_pj
                wifi_active += 1
                if link.control_msgs:
                    c = link.control_msgs * ctrl_bits * e_eff
                    wifi_pj += c
                    retx_pj += c
                if link.bits_retransmitted:
                    retx_pj += link.bits_retransmitted * e_eff
        out.electrical_link_w = elec_pj * 1e-12 / duration_s
        out.retx_overhead_w = retx_pj * 1e-12 / duration_s
        out.avg_wireless_link_mw = (
            wifi_data_pj * 1e-12 / duration_s / max(1, wifi_active) * 1e3
        )

        # Wireless static: every channel keeps its TX end and its RX end(s)
        # biased (multicast channels have one receiver per destination
        # cluster). Count channel endpoints once per physical channel:
        # point-to-point links are one channel each; SWMR media are one
        # channel shared by their member links.
        ends = 0
        seen_media = set()
        for link in net.links:
            if link.kind != "wireless":
                continue
            if link.medium is not None:
                if id(link.medium) in seen_media:
                    continue
                seen_media.add(id(link.medium))
                ends += 1 + link.multicast_degree
            else:
                ends += 2
        wifi_static_mw = ends * self.wireless.static_mw_per_transceiver_end
        out.wireless_w = wifi_pj * 1e-12 / duration_s + wifi_static_mw * 1e-3

        # Photonic static: ring thermal tuning.
        tuning_mw = self.photonic.tuning_power_mw(self.photonic_ring_count(built))
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
    return model.measure(built, sim)
