"""Spectral occupancy and adjacent-channel isolation of the Table III plan.

Sec. IV: "link frequencies are chosen such that there is at least 4 GHz or
8 GHz isolation between the adjacent bands in the conservative or ideal
cases, respectively. This is to ensure that there is no significant
intermodulation between them, thereby saving significant power or area that
would have been committed to inefficient passive/active filters."

This module quantifies that claim. The transmitted OOK spectrum is modelled
with the standard piecewise emission mask (flat in-band, linear dB roll-off
across the transition, noise floor beyond); adjacent-channel interference
integrates the neighbour's mask over the victim's band. The channel-plan
check then asserts every pair of channels meets a target isolation without
dedicated filters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - deferred to break the package cycle
    # repro.power.wireless itself imports repro.rf.technology; importing it
    # lazily inside channel_plan_isolation keeps repro.rf importable alone.
    from repro.power.wireless import WirelessScenario


@dataclass(frozen=True)
class EmissionMask:
    """Piecewise OOK transmit mask.

    Attributes
    ----------
    rolloff_db_per_ghz:
        Out-of-band roll-off slope beyond the channel edge. OOK with simple
        pulse shaping rolls off gently; this default corresponds to a
        single-pole RF band-pass at the PA output.
    floor_dbc:
        Wideband emission floor relative to in-band PSD.
    """

    rolloff_db_per_ghz: float = 3.0
    floor_dbc: float = -50.0

    def psd_dbc(self, offset_ghz: float, half_bw_ghz: float) -> float:
        """Emission PSD at ``offset_ghz`` from the carrier [dBc, per-GHz].

        0 dBc in-band; linear dB roll-off past the edge down to the floor.
        """
        if half_bw_ghz <= 0:
            raise ValueError(f"half bandwidth must be positive, got {half_bw_ghz}")
        excess = abs(offset_ghz) - half_bw_ghz
        if excess <= 0:
            return 0.0
        return max(self.floor_dbc, -self.rolloff_db_per_ghz * excess)


def adjacent_channel_isolation_db(
    tx_center_ghz: float,
    tx_bw_ghz: float,
    victim_center_ghz: float,
    victim_bw_ghz: float,
    mask: EmissionMask = EmissionMask(),
    steps: int = 64,
) -> float:
    """Power ratio (dB) between the TX's in-band power and what it leaks
    into the victim channel's band (higher = better isolation)."""
    import math

    half = tx_bw_ghz / 2.0
    lo = victim_center_ghz - victim_bw_ghz / 2.0
    hi = victim_center_ghz + victim_bw_ghz / 2.0
    if lo < tx_center_ghz + half and hi > tx_center_ghz - half:
        return 0.0  # spectral overlap: no isolation at all
    step = (hi - lo) / steps
    leaked = 0.0
    for i in range(steps):
        f = lo + (i + 0.5) * step
        psd = mask.psd_dbc(f - tx_center_ghz, half)
        leaked += 10 ** (psd / 10.0) * step
    in_band = tx_bw_ghz  # 0 dBc across the band
    return 10.0 * math.log10(in_band / leaked)


@dataclass
class IsolationReport:
    """Worst-pair isolation of a scenario's 16-channel plan."""

    scenario: str
    worst_db: float
    worst_pair: Tuple[int, int]
    per_adjacent_db: List[float]


def channel_plan_isolation(
    scenario: "WirelessScenario", mask: EmissionMask = EmissionMask()
) -> IsolationReport:
    """Isolation analysis of a full Table III plan.

    Adjacent channels dominate (the mask is monotone in offset), so the
    worst pair is always a neighbouring one; all pairs are still checked.
    """
    from repro.power.wireless import wireless_channel_table

    table = wireless_channel_table(scenario)
    worst = float("inf")
    worst_pair = (0, 0)
    adjacent: List[float] = []
    for i, tx in enumerate(table):
        for j, victim in enumerate(table):
            if i == j:
                continue
            iso = adjacent_channel_isolation_db(
                tx.freq_ghz, tx.bandwidth_ghz,
                victim.freq_ghz, victim.bandwidth_ghz, mask,
            )
            if abs(i - j) == 1 and j > i:
                adjacent.append(iso)
            if iso < worst:
                worst = iso
                worst_pair = (tx.index, victim.index)
    return IsolationReport(
        scenario=scenario.key,
        worst_db=worst,
        worst_pair=worst_pair,
        per_adjacent_db=adjacent,
    )
