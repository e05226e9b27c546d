"""Wireless link budget (Fig. 3 of the paper).

Fig. 3 plots "the link budget estimation at the data rate of 32 Gbps and the
center frequency of 90 GHz for different antenna directivities": the OOK
transmitter output power required to close the link as a function of
distance. Its headline number: ">= 4 dBm for a maximum distance of 50 mm"
with isotropic (0 dBi) antennas.

Model: Friis free-space path loss + thermal-noise-floor receiver sensitivity

    P_tx(d) = S_rx + FSPL(d, f) - G_tx - G_rx
    S_rx    = kTB + NF + SNR_req + margin

with an OOK detection SNR and an implementation margin calibrated so the
50 mm / 0 dBi point lands at ~4 dBm (the published curve), which then fixes
the whole family of curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.utils.units import (
    SPEED_OF_LIGHT_M_S,
    dbm_to_watts,
    mm,
    thermal_noise_dbm,
)

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def free_space_path_loss_db(distance_mm: float, freq_ghz: float) -> float:
    """Friis free-space path loss, 20*log10(4*pi*d/lambda), in dB.

    Raises
    ------
    ValueError
        For non-positive distance or frequency.
    """
    if distance_mm <= 0:
        raise ValueError(f"distance must be positive, got {distance_mm}")
    if freq_ghz <= 0:
        raise ValueError(f"frequency must be positive, got {freq_ghz}")
    wavelength_m = SPEED_OF_LIGHT_M_S / (freq_ghz * 1e9)
    return 20.0 * math.log10(4.0 * math.pi * mm(distance_mm) / wavelength_m)


@dataclass(frozen=True)
class LinkBudget:
    """Link-budget parameters for one OOK channel.

    Attributes
    ----------
    freq_ghz, data_rate_gbps:
        Carrier and data rate; OOK needs receiver bandwidth ~ data rate.
    noise_figure_db:
        Receiver (LNA + detector) noise figure.
    snr_required_db:
        Detection SNR for the target BER with non-coherent OOK.
    margin_db:
        Implementation margin (intra-chip multipath, process spread).
        Default calibrated so the paper's 50 mm / 0 dBi point needs ~4 dBm.
    """

    freq_ghz: float = 90.0
    data_rate_gbps: float = 32.0
    noise_figure_db: float = 8.0
    snr_required_db: float = 14.0
    margin_db: float = 5.5

    @property
    def receiver_sensitivity_dbm(self) -> float:
        """Minimum received power that closes the link."""
        bandwidth_hz = self.data_rate_gbps * 1e9
        return (
            thermal_noise_dbm(bandwidth_hz)
            + self.noise_figure_db
            + self.snr_required_db
            + self.margin_db
        )

    def required_tx_power_dbm(
        self, distance_mm: float, tx_gain_dbi: float = 0.0, rx_gain_dbi: float = 0.0
    ) -> float:
        """TX power needed to close the link over ``distance_mm``."""
        return (
            self.receiver_sensitivity_dbm
            + free_space_path_loss_db(distance_mm, self.freq_ghz)
            - tx_gain_dbi
            - rx_gain_dbi
        )

    def required_tx_power_w(
        self, distance_mm: float, tx_gain_dbi: float = 0.0, rx_gain_dbi: float = 0.0
    ) -> float:
        return dbm_to_watts(self.required_tx_power_dbm(distance_mm, tx_gain_dbi, rx_gain_dbi))

    def link_distance_factor(self, distance_mm: float, reference_mm: float = 60.0) -> float:
        """Radiated-power scaling vs the longest (C2C) link.

        Sec. IV's "Distance Scaling": the LD factor "is the result of power
        changes as a function of distance as indicated in the link budget
        calculations of Figure 3". Under Friis the radiated power scales as
        d^2, so LD(d) = (d/d_ref)^2 -- which indeed gives ~1 / ~0.25-0.5 /
        ~0.03-0.15 for 60/30/10 mm, bracketing Table III's 1 / 0.5 / 0.15
        once fixed transceiver overheads are folded in.
        """
        if reference_mm <= 0:
            raise ValueError("reference distance must be positive")
        return (distance_mm / reference_mm) ** 2

    def sweep(
        self,
        distances_mm: Sequence[float],
        gains_dbi: Sequence[float] = (0.0, 5.0, 10.0),
    ) -> "np.ndarray":
        """Fig. 3 data: TX power [dBm], shape (len(gains), len(distances)).

        Antenna gain is applied at both ends (directive antennas face each
        other across the chip).
        """
        import numpy as np

        out = np.empty((len(gains_dbi), len(distances_mm)), dtype=float)
        for i, g in enumerate(gains_dbi):
            for j, d in enumerate(distances_mm):
                out[i, j] = self.required_tx_power_dbm(d, tx_gain_dbi=g, rx_gain_dbi=g)
        return out
