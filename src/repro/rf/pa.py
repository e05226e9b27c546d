"""Behavioural class-AB power amplifier model (Fig. 4b).

Paper figures the model reproduces: "a one-stage class-AB amplifier with a
DC power dissipation of 14 mW at 1 V supply. It can be biased to produce a
sufficient RF power (PRF) of 7 dBm (>= 4 mW required) with sufficiently
low-distortion as verified from the 1-dB compression point of ~5 dBm. The
PA achieves a peak gain of 3.5 dB centered around 90 GHz with a bandwidth
of around 20 GHz considering a gain of 2 dB."

Gain vs frequency is a single-tuned resonator response; compression uses
the Rapp (soft-limiting) model, the standard behavioural abstraction for
solid-state PAs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.utils.units import dbm_to_watts, watts_to_dbm

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


@dataclass(frozen=True)
class ClassABPA:
    """One-stage class-AB PA.

    Attributes
    ----------
    center_ghz, peak_gain_db:
        Band centre and small-signal peak gain (90 GHz / 3.5 dB in Fig. 4b).
    bandwidth_2db_ghz:
        Width of the band where gain stays above 2 dB (~20 GHz in Fig. 4b);
        fixes the resonator Q.
    psat_dbm:
        Saturated output power; with the Rapp knee below, it places the
        output 1-dB compression point near 5 dBm as published.
    rapp_smoothness:
        Rapp model knee sharpness (2-3 typical of class-AB).
    dc_power_mw, supply_v:
        Bias point (14 mW at 1 V in the paper).
    """

    center_ghz: float = 90.0
    peak_gain_db: float = 3.5
    bandwidth_2db_ghz: float = 20.0
    psat_dbm: float = 7.3
    rapp_smoothness: float = 2.0
    dc_power_mw: float = 14.0
    supply_v: float = 1.0

    def gain_db(self, freq_ghz: float) -> float:
        """Small-signal gain at ``freq_ghz`` (single-tuned response)."""
        if freq_ghz <= 0:
            raise ValueError(f"frequency must be positive, got {freq_ghz}")
        # Solve the detuning scale so gain drops (peak-2 dB) at +-BW/2.
        drop_lin = 10 ** ((self.peak_gain_db - 2.0) / 10.0) / 10 ** (self.peak_gain_db / 10.0)
        # |H|^2 = 1 / (1 + (x/x0)^2) with x = 2*(f-f0)/f0.
        x_edge = 2.0 * (self.bandwidth_2db_ghz / 2.0) / self.center_ghz
        x0 = x_edge / math.sqrt(1.0 / drop_lin - 1.0)
        x = 2.0 * (freq_ghz - self.center_ghz) / self.center_ghz
        rolloff = 1.0 / (1.0 + (x / x0) ** 2)
        return self.peak_gain_db + 10.0 * math.log10(rolloff)

    def output_power_dbm(self, input_dbm: float, freq_ghz: float | None = None) -> float:
        """Large-signal output power via the Rapp soft limiter."""
        freq = self.center_ghz if freq_ghz is None else freq_ghz
        g_lin = 10 ** (self.gain_db(freq) / 10.0)
        p_in_w = dbm_to_watts(input_dbm)
        p_lin_w = g_lin * p_in_w
        p_sat_w = dbm_to_watts(self.psat_dbm)
        s = self.rapp_smoothness
        p_out_w = p_lin_w / (1.0 + (p_lin_w / p_sat_w) ** s) ** (1.0 / s)
        return watts_to_dbm(p_out_w)

    def compression_point_dbm(self, tol: float = 1e-4) -> float:
        """Output-referred 1-dB compression point (bisection solve)."""
        lo, hi = -30.0, self.psat_dbm + 10.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            linear = mid + self.gain_db(self.center_ghz)
            actual = self.output_power_dbm(mid)
            if linear - actual < 1.0:
                lo = mid
            else:
                hi = mid
            if hi - lo < tol:
                break
        return self.output_power_dbm(0.5 * (lo + hi))

    def drain_efficiency(self, output_dbm: float) -> float:
        """RF output power / DC power at the given output level."""
        return dbm_to_watts(output_dbm) * 1e3 / self.dc_power_mw

    def gain_sweep(self, freqs_ghz: np.ndarray) -> np.ndarray:
        """Fig. 4b gain-vs-frequency series."""
        import numpy as np

        return np.array([self.gain_db(float(f)) for f in np.asarray(freqs_ghz)])

    def reflection_loss_fraction(self, freq_ghz: float) -> float:
        """Output mismatch power fraction; <= 10 % inside the matched band
        ("The PA reflection loss >= 10% indicates ... sufficient output
        matching", Sec. IV-A)."""
        detune = abs(freq_ghz - self.center_ghz) / (self.bandwidth_2db_ghz / 2.0)
        return min(1.0, 0.05 + 0.05 * detune**2)
