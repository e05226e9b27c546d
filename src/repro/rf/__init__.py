"""Wireless transceiver substrate: link budget + behavioural circuit models.

These modules replace the paper's SPICE-level 65 nm simulations (Figs. 3-4)
with analytical models that reproduce the published scalar figures and curve
shapes; see DESIGN.md ("Substitutions").
"""

from repro.rf.technology import (
    DeviceTechnology,
    DEVICES,
    EFFICIENCY_RAMP_PJ,
    TECH_CMOS,
    TECH_BICMOS,
    TECH_HBT,
    TECHNOLOGIES,
    technology_for_frequency,
    validate_technology,
)
from repro.rf.budget import LinkBudget, free_space_path_loss_db
from repro.rf.oscillator import ColpittsOscillator, design_for_frequency
from repro.rf.pa import ClassABPA
from repro.rf.lna import CascodeLNA
from repro.rf.ook import OOKTransceiver, ook_ber, required_snr_db

__all__ = [
    "DeviceTechnology",
    "DEVICES",
    "EFFICIENCY_RAMP_PJ",
    "TECH_CMOS",
    "TECH_BICMOS",
    "TECH_HBT",
    "TECHNOLOGIES",
    "technology_for_frequency",
    "validate_technology",
    "LinkBudget",
    "free_space_path_loss_db",
    "ColpittsOscillator",
    "design_for_frequency",
    "ClassABPA",
    "CascodeLNA",
    "OOKTransceiver",
    "ook_ber",
    "required_snr_db",
]
