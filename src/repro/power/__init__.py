"""Power models: DSENT-style electrical, photonic, wireless (Tables III/IV),
and the accounting layer producing Fig. 6 / Fig. 8 component breakdowns."""

from repro.power.dsent import DsentParams
from repro.power.photonic import PhotonicParams
from repro.power.wireless import (
    WirelessScenario,
    SCENARIOS,
    SCENARIO_IDEAL,
    SCENARIO_CONSERVATIVE,
    ChannelSpec,
    ConfiguredChannel,
    CONFIGURATIONS,
    N_CHANNELS,
    N_DATA_CHANNELS,
    WirelessPowerParams,
    channel_energy_pj,
    wireless_channel_table,
    channels_for_config,
    config_energy_pj_per_bit,
    config_average_energy_pj_per_bit,
)
from repro.power.accounting import (
    ActivityRecord, PowerBreakdown, PowerModel, measure_power, photonic_ring_count,
    record_of,
)
from repro.power.area import AreaBreakdown, AreaModel, AreaParams, area_comparison

__all__ = [
    "DsentParams",
    "PhotonicParams",
    "WirelessScenario",
    "SCENARIOS",
    "SCENARIO_IDEAL",
    "SCENARIO_CONSERVATIVE",
    "ChannelSpec",
    "ConfiguredChannel",
    "CONFIGURATIONS",
    "N_CHANNELS",
    "N_DATA_CHANNELS",
    "WirelessPowerParams",
    "channel_energy_pj",
    "wireless_channel_table",
    "channels_for_config",
    "config_energy_pj_per_bit",
    "config_average_energy_pj_per_bit",
    "ActivityRecord",
    "PowerBreakdown",
    "PowerModel",
    "measure_power",
    "photonic_ring_count",
    "record_of",
    "AreaBreakdown",
    "AreaModel",
    "AreaParams",
    "area_comparison",
]
