"""Behavioural LNA model (Fig. 4c).

"In the receiver end, a wideband common-source degeneration cascade-cascode
LNA is designed, which has a gain of 10 dB ... The LNA gain is sufficient
for 50 mm operation and can be further lowered depending on the performance
of the envelope detector."

Two cascaded tuned stages give the wideband response of Fig. 4c; the noise
figure feeds the link budget, and DC power feeds the receiver-side
energy/bit accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CascodeLNA:
    """Wideband cascode LNA.

    Attributes
    ----------
    center_ghz, peak_gain_db:
        Band centre / peak gain (90 GHz / 10 dB per Fig. 4c).
    bandwidth_3db_ghz:
        3-dB bandwidth of the cascade ("wideband": ~30 GHz).
    stages:
        Number of cascaded tuned stages (cascade-cascode: 2).
    noise_figure_db:
        Receiver NF; consumed by :class:`repro.rf.budget.LinkBudget`.
    dc_power_mw, supply_v:
        Bias point.
    """

    center_ghz: float = 90.0
    peak_gain_db: float = 10.0
    bandwidth_3db_ghz: float = 30.0
    stages: int = 2
    noise_figure_db: float = 6.5
    dc_power_mw: float = 8.0
    supply_v: float = 1.0

    def gain_db(self, freq_ghz: float) -> float:
        """Cascade gain at ``freq_ghz``.

        Each stage is a single-tuned section; the cascade's overall 3-dB
        bandwidth equals ``bandwidth_3db_ghz`` (per-stage bandwidth is
        widened by the cascade shrinkage factor sqrt(2^(1/n) - 1)).
        """
        if freq_ghz <= 0:
            raise ValueError(f"frequency must be positive, got {freq_ghz}")
        shrink = math.sqrt(2 ** (1.0 / self.stages) - 1.0)
        per_stage_bw = self.bandwidth_3db_ghz / shrink
        x = (freq_ghz - self.center_ghz) / (per_stage_bw / 2.0)
        per_stage_db = -10.0 * math.log10(1.0 + x * x)
        return self.peak_gain_db + self.stages * per_stage_db

    def output_snr_db(self, input_snr_db: float) -> float:
        """SNR after the LNA: degraded by the noise figure."""
        return input_snr_db - self.noise_figure_db

    def sufficient_for(self, required_gain_db: float) -> bool:
        """Is the in-band gain enough for the detector's sensitivity?"""
        return self.peak_gain_db >= required_gain_db
