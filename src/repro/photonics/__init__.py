"""Photonic component inventories and insertion-loss / laser-power models."""

from repro.photonics.components import (
    ComponentCount,
    swmr_crossbar,
    mwsr_crossbar,
    own_cluster_crossbar,
    own_inventory,
    pclos_inventory,
)
from repro.photonics.losses import (
    PhotonicLossParams,
    splitter_loss_db,
    waveguide_path_loss_db,
    required_laser_power_mw,
)

__all__ = [
    "ComponentCount",
    "swmr_crossbar",
    "mwsr_crossbar",
    "own_cluster_crossbar",
    "own_inventory",
    "pclos_inventory",
    "PhotonicLossParams",
    "splitter_loss_db",
    "waveguide_path_loss_db",
    "required_laser_power_mw",
]
