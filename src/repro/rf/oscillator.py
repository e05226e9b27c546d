"""Behavioural Colpitts oscillator model (Fig. 4a).

The paper's carrier source is "a power-efficient Colpitt oscillator at
90 GHz" with no external capacitors: the M1 gate-source / gate-drain
capacitances resonate with the tank inductor L. Reported figures the model
reproduces: oscillation at 90 GHz from a 1 V supply, and phase noise of
about -86 dBc/Hz at 1 MHz offset.

The phase-noise curve follows Leeson's equation; the PSD around the carrier
is the corresponding Lorentzian line shape. These are the quantities the
system-level OOK model consumes (spectral occupancy, SNR degradation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.utils.units import BOLTZMANN_J_K, ROOM_TEMPERATURE_K

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


@dataclass(frozen=True)
class ColpittsOscillator:
    """A Colpitts oscillator built from device parasitics.

    Attributes
    ----------
    inductance_ph:
        Tank inductance in picohenries.
    cgs_ff, cgd_ff:
        M1 gate-source / gate-drain capacitances in femtofarads; they form
        the capacitive divider (series combination loads the tank).
    tank_q:
        Loaded tank quality factor (on-chip inductors at 90 GHz: Q ~ 10-15).
    signal_power_dbm:
        Carrier power delivered to the tank.
    supply_v, bias_current_ma:
        DC operating point (1 V supply per Fig. 4a); sets DC power.
    noise_factor:
        Leeson effective noise factor F of the active device.
    flicker_corner_mhz:
        1/f^3 corner frequency.
    """

    inductance_ph: float = 134.0
    cgs_ff: float = 70.0
    cgd_ff: float = 35.0
    tank_q: float = 8.0
    signal_power_dbm: float = -6.0
    supply_v: float = 1.0
    bias_current_ma: float = 6.0
    noise_factor: float = 4.0
    flicker_corner_mhz: float = 0.3

    @property
    def effective_capacitance_f(self) -> float:
        """Series combination of the Cgs/Cgd divider loading the tank."""
        cgs = self.cgs_ff * 1e-15
        cgd = self.cgd_ff * 1e-15
        return cgs * cgd / (cgs + cgd)

    @property
    def frequency_hz(self) -> float:
        """Oscillation frequency 1 / (2*pi*sqrt(L*Ceff))."""
        l_h = self.inductance_ph * 1e-12
        return 1.0 / (2.0 * math.pi * math.sqrt(l_h * self.effective_capacitance_f))

    @property
    def frequency_ghz(self) -> float:
        return self.frequency_hz / 1e9

    @property
    def dc_power_mw(self) -> float:
        return self.supply_v * self.bias_current_ma

    def phase_noise_dbc_hz(self, offset_hz: float) -> float:
        """Leeson's phase noise at ``offset_hz`` from the carrier [dBc/Hz].

        L(df) = 10 log10( (2 F k T / P_sig) * (1 + (f0 / (2 Q df))^2)
                          * (1 + fc / df) / 2 )
        """
        if offset_hz <= 0:
            raise ValueError(f"offset must be positive, got {offset_hz}")
        p_sig_w = 1e-3 * 10 ** (self.signal_power_dbm / 10.0)
        f0 = self.frequency_hz
        q = self.tank_q
        fc = self.flicker_corner_mhz * 1e6
        lorentzian = 1.0 + (f0 / (2.0 * q * offset_hz)) ** 2
        flicker = 1.0 + fc / offset_hz
        density = (
            2.0
            * self.noise_factor
            * BOLTZMANN_J_K
            * ROOM_TEMPERATURE_K
            / p_sig_w
            * lorentzian
            * flicker
            / 2.0
        )
        return 10.0 * math.log10(density)

    def psd_dbc_hz(self, offsets_hz: Sequence[float]) -> np.ndarray:
        """Single-sideband PSD samples for Fig. 4a's spectrum plot."""
        import numpy as np

        return np.array([self.phase_noise_dbc_hz(abs(f)) for f in offsets_hz])

    def waveform(self, t_s: np.ndarray, amplitude_v: float = 0.4) -> np.ndarray:
        """Ideal time-domain carrier (Fig. 4a right inset)."""
        import numpy as np

        return amplitude_v * np.sin(2.0 * math.pi * self.frequency_hz * np.asarray(t_s))


def design_for_frequency(target_ghz: float, **overrides) -> ColpittsOscillator:
    """Pick the tank inductance that oscillates at ``target_ghz``.

    Keeps the device capacitances fixed (they are parasitics, not design
    knobs) and solves L = 1 / ((2*pi*f)^2 * Ceff).
    """
    if target_ghz <= 0:
        raise ValueError(f"target frequency must be positive, got {target_ghz}")
    base = ColpittsOscillator(**overrides)
    ceff = base.effective_capacitance_f
    f_hz = target_ghz * 1e9
    l_h = 1.0 / ((2.0 * math.pi * f_hz) ** 2 * ceff)
    return ColpittsOscillator(
        inductance_ph=l_h * 1e12,
        cgs_ff=base.cgs_ff,
        cgd_ff=base.cgd_ff,
        tank_q=base.tank_q,
        signal_power_dbm=base.signal_power_dbm,
        supply_v=base.supply_v,
        bias_current_ma=base.bias_current_ma,
        noise_factor=base.noise_factor,
        flicker_corner_mhz=base.flicker_corner_mhz,
    )
