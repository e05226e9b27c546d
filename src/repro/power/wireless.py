"""Wireless channel plan and energy model: Tables III & IV of the paper.

Table III (reconstructed from the prose -- DESIGN.md records every pinned
constraint) assigns each of 16 wireless channels a link frequency, a device
technology and an energy/bit under two scenarios:

* **Scenario 1 (ideal)**: 32 GHz channel bandwidth, 8 GHz guard bands,
  f_i = 100 + 40*(i-1) GHz -> exactly four CMOS channels ("III shows only
  four channels with CMOS"), two BiCMOS, ten SiGe HBT.
* **Scenario 2 (conservative)**: 16 GHz bandwidth, 4 GHz guards,
  f_i = 100 + 20*(i-1) GHz -> seven CMOS, five BiCMOS, four HBT channels.

Energy per bit ramps with the band index: e_i = base(tech) + ramp(tech) *
(i-1) using the ramps quoted in Sec. IV. "Links 1-12 are used for
inter-cluster communication whereas links 13-16 are reserved for
reconfiguration channels."

Table IV defines four architecture *configurations* assigning a technology
to each distance class (long = C2C, medium = E2E, short = SR). A
configuration draws its channels from Table III rows of that technology;
when a technology has fewer rows than needed the same carrier is reused on
non-intersecting paths (the SDM discussion of Sec. V-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.floorplan import DISTANCE_CLASSES, LD_FACTOR
from repro.rf.technology import (
    DEVICES,
    EFFICIENCY_RAMP_PJ,
    TECH_BICMOS,
    TECH_CMOS,
    TECH_HBT,
    technology_for_frequency,
    validate_technology,
)

#: Number of wireless channels in the plan (Table III).
N_CHANNELS = 16

#: Channels 1..12 carry inter-cluster data; 13..16 are reconfiguration spares.
N_DATA_CHANNELS = 12


@dataclass(frozen=True)
class WirelessScenario:
    """One column-set of Table III."""

    key: str  # "ideal" | "conservative"
    number: int  # 1 | 2 (the paper's "scenario 1/2")
    bandwidth_ghz: float
    guard_ghz: float
    start_freq_ghz: float
    spacing_ghz: float

    def frequency(self, channel_index: int) -> float:
        if not 1 <= channel_index <= N_CHANNELS:
            raise ValueError(f"channel index must be 1..{N_CHANNELS}, got {channel_index}")
        return self.start_freq_ghz + self.spacing_ghz * (channel_index - 1)


SCENARIO_IDEAL = WirelessScenario(
    key="ideal", number=1, bandwidth_ghz=32.0, guard_ghz=8.0, start_freq_ghz=100.0, spacing_ghz=40.0
)
SCENARIO_CONSERVATIVE = WirelessScenario(
    key="conservative",
    number=2,
    bandwidth_ghz=16.0,
    guard_ghz=4.0,
    start_freq_ghz=100.0,
    spacing_ghz=20.0,
)

SCENARIOS: Dict[int, WirelessScenario] = {1: SCENARIO_IDEAL, 2: SCENARIO_CONSERVATIVE}


@dataclass(frozen=True)
class ChannelSpec:
    """One row of Table III under a given scenario."""

    index: int
    freq_ghz: float
    bandwidth_ghz: float
    technology: str
    energy_pj_per_bit: float  # at LD factor 1 (longest link)
    role: str  # "data" | "reconfiguration"


def channel_energy_pj(technology: str, channel_index: int, scenario: WirelessScenario) -> float:
    """e_i = base(tech) + ramp(tech, scenario) * (i - 1)."""
    validate_technology(technology)
    base = DEVICES[technology].base_energy_pj_per_bit
    ramp = EFFICIENCY_RAMP_PJ[scenario.key][technology]
    return base + ramp * (channel_index - 1)


def wireless_channel_table(scenario: WirelessScenario) -> List[ChannelSpec]:
    """The full 16-row Table III for one scenario."""
    rows: List[ChannelSpec] = []
    for i in range(1, N_CHANNELS + 1):
        f = scenario.frequency(i)
        tech = technology_for_frequency(f)
        rows.append(
            ChannelSpec(
                index=i,
                freq_ghz=f,
                bandwidth_ghz=scenario.bandwidth_ghz,
                technology=tech,
                energy_pj_per_bit=channel_energy_pj(tech, i, scenario),
                role="data" if i <= N_DATA_CHANNELS else "reconfiguration",
            )
        )
    return rows


#: Table IV: configuration id -> distance class -> technology.
#: "Configuration 1 assumes SiGe for long range, CMOS for medium range and
#: short range, Configuration 2 assumes CMOS for long range, BiCMOS for
#: medium range and SiGe for short range, Configuration 3 assumes SiGe for
#: long range, BiCMOS for medium range and CMOS for short range and finally
#: Configuration 4 assumes CMOS for long and medium range and BiCMOS for
#: short range." (Sec. V-B)
CONFIGURATIONS: Dict[int, Dict[str, str]] = {
    1: {"C2C": TECH_HBT, "E2E": TECH_CMOS, "SR": TECH_CMOS},
    2: {"C2C": TECH_CMOS, "E2E": TECH_BICMOS, "SR": TECH_HBT},
    3: {"C2C": TECH_HBT, "E2E": TECH_BICMOS, "SR": TECH_CMOS},
    4: {"C2C": TECH_CMOS, "E2E": TECH_CMOS, "SR": TECH_BICMOS},
}


@dataclass(frozen=True)
class ConfiguredChannel:
    """A data link's channel after applying a Table IV configuration."""

    link_number: int  # 1..12 position among the data links
    distance_class: str
    spec: ChannelSpec
    sdm_reused: bool  # True when this carrier is SDM-shared with another link


def channels_for_config(
    config_id: int, scenario: WirelessScenario, links_per_class: int = 4
) -> List[ConfiguredChannel]:
    """Assign Table III rows to the 12 data links under a configuration.

    Each distance class needs ``links_per_class`` channels of the
    configuration's technology. Rows are picked *evenly spread* across the
    technology's band (adjacent-band isolation constraints forbid clumping
    all links into the lowest rows; this also reproduces the paper's Fig. 5
    ratios -- see EXPERIMENTS.md). When a technology has fewer rows than
    needed the allocator wraps around and reuses carriers, flagging them
    ``sdm_reused`` (legal only on non-intersecting paths -- checked by
    ``repro.core.channels.sdm_frequency_reuse_groups``).

    Raises
    ------
    ValueError
        For an unknown configuration id.
    """
    if config_id not in CONFIGURATIONS:
        raise ValueError(f"unknown configuration {config_id}; known: {sorted(CONFIGURATIONS)}")
    table = wireless_channel_table(scenario)
    by_tech: Dict[str, List[ChannelSpec]] = {t: [] for t in (TECH_CMOS, TECH_BICMOS, TECH_HBT)}
    for row in table:
        by_tech[row.technology].append(row)

    used_count: Dict[Tuple[str, int], int] = {}
    out: List[ConfiguredChannel] = []
    link_number = 1
    for cls in DISTANCE_CLASSES:  # C2C, E2E, SR (longest first)
        tech = CONFIGURATIONS[config_id][cls]
        pool = by_tech[tech]
        if not pool:
            raise ValueError(f"no Table III rows use {tech} under scenario {scenario.key}")
        if len(pool) >= links_per_class:
            # Evenly spread picks across the technology's band.
            step = (len(pool) - 1) / (links_per_class - 1) if links_per_class > 1 else 0.0
            picks = [pool[round(k * step)] for k in range(links_per_class)]
        else:
            # Fewer rows than links: wrap around (SDM frequency reuse).
            picks = [pool[k % len(pool)] for k in range(links_per_class)]
        for spec in picks:
            key = (tech, spec.index)
            used_count[key] = used_count.get(key, 0) + 1
            out.append(
                ConfiguredChannel(
                    link_number=link_number,
                    distance_class=cls,
                    spec=spec,
                    sdm_reused=used_count[key] > 1,
                )
            )
            link_number += 1
    return out


def config_energy_pj_per_bit(
    config_id: int, scenario: WirelessScenario, distance_class: str
) -> float:
    """Mean LD-scaled energy/bit of the channels serving one distance class."""
    if distance_class not in DISTANCE_CLASSES:
        raise ValueError(f"unknown distance class {distance_class!r}")
    chans = [c for c in channels_for_config(config_id, scenario) if c.distance_class == distance_class]
    raw = sum(c.spec.energy_pj_per_bit for c in chans) / len(chans)
    return raw * LD_FACTOR[distance_class]


def config_average_energy_pj_per_bit(config_id: int, scenario: WirelessScenario) -> float:
    """Mean LD-scaled energy/bit across all 12 data links (Fig. 5's y-axis
    is proportional to this for uniform traffic)."""
    chans = channels_for_config(config_id, scenario)
    return sum(c.spec.energy_pj_per_bit * LD_FACTOR[c.distance_class] for c in chans) / len(chans)


@dataclass(frozen=True)
class WirelessPowerParams:
    """Knobs of the wireless power accounting.

    Attributes
    ----------
    tx_energy_fraction:
        Share of a channel's energy/bit spent in the transmitter; the
        remainder is receiver-side and is multiplied by the multicast degree
        for SWMR channels (Sec. III-B: discarding receivers still "analyze"
        the data).
    static_mw_per_transceiver_end:
        Always-on DC draw per transceiver end (oscillator + LNA bias; the
        Fig. 4 blocks idle in OOK between packets). Charged per TX end and
        per RX end of every wireless channel.
    control_bits_per_msg:
        Size of a link-layer ACK/NACK control message
        (:mod:`repro.faults`): sequence number + CRC over the reverse
        channel. Control messages are charged at the channel's energy/bit
        by the power accounting (both wireless and photonic links use this
        protocol constant; each prices the bits with its own PHY model).
    """

    tx_energy_fraction: float = 0.6
    static_mw_per_transceiver_end: float = 20.0
    control_bits_per_msg: float = 16.0

    def effective_energy_pj(self, energy_pj: float, multicast_degree: int) -> float:
        if multicast_degree < 1:
            raise ValueError(f"multicast degree must be >= 1, got {multicast_degree}")
        tx = self.tx_energy_fraction * energy_pj
        rx = (1.0 - self.tx_energy_fraction) * energy_pj
        return tx + rx * multicast_degree
