"""Thermal analysis of simulated networks.

Bridges the power accounting and the thermal grid: a run's activity record,
priced site by site by :class:`~repro.power.PowerModel`, becomes a die power
map at the floorplan positions of a deterministic build, the grid solves
the temperature field, and the photonic side feeds back -- rings detuned by
thermal gradients need extra tuning power, which is itself heat (a short
fixed-point iteration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.power.accounting import ActivityRecord, PowerModel
from repro.thermal.grid import ThermalGrid, ThermalParams, ascii_heatmap
from repro.topologies.base import BuiltTopology


@dataclass
class ThermalReport:
    """Steady-state thermal verdict for one simulated run."""

    temperature_c: np.ndarray
    peak_c: float
    gradient_c: float
    tuning_power_w: float
    iterations: int
    total_power_w: float

    @property
    def heatmap(self) -> str:
        return ascii_heatmap(self.temperature_c)


#: Extra tuning power per ring per Kelvin of local deviation from the
#: thermal set point [uW / (ring*K)] -- ring resonance drifts ~10 GHz/K and
#: heaters burn roughly this much recovering it.
TUNING_UW_PER_RING_K = 0.3


def power_map_for(
    built: BuiltTopology,
    activity: ActivityRecord,
    grid: ThermalGrid,
    model: Optional[PowerModel] = None,
) -> np.ndarray:
    """Scatter a run's per-site power prices over the thermal grid [W].

    ``built`` is a fresh build of the run's topology: it supplies floorplan
    positions only. Router power lands at each router's position; link
    power at its source router (drivers dominate); the wireless bias at the
    source router of each wireless link, in equal shares; ring tuning
    uniformly per cell. The map sums to ``model.measure(activity).total_w``.
    """
    model = model or PowerModel()
    duration = model.dsent.cycles_to_seconds(activity.cycles)
    routers = built.network.routers
    power = np.zeros((grid.n, grid.n))

    def place(rid: int, w: float) -> None:
        cx, cy = grid.cell_of(*routers[rid].position_mm)
        power[cy, cx] += w

    for rid, events in enumerate(activity.routers):
        pj = model.dsent.events_energy_pj(events)
        place(rid, pj * 1e-12 / duration + model.dsent.static_power_mw(events[-1]) * 1e-3)
    for row in activity.links:
        data_pj, ctrl_pj, _ = model.link_price(row)
        place(row[-1], (data_pj + ctrl_pj) * 1e-12 / duration)

    wireless_mw, tuning_mw = model.static_price(activity)
    gateways = [link.src_router.rid for link in built.network.links if link.kind == "wireless"]
    for rid in gateways:
        place(rid, wireless_mw * 1e-3 / len(gateways))
    power += tuning_mw * 1e-3 / power.size
    return power


def thermal_report(
    built: BuiltTopology,
    activity: ActivityRecord,
    grid_cells: int = 16,
    params: ThermalParams = ThermalParams(),
    model: Optional[PowerModel] = None,
    max_iterations: int = 8,
) -> ThermalReport:
    """Solve the coupled power/temperature fixed point for a finished run.

    Iterates: solve T from the power map; compute ring-tuning power from
    the gradient (rings chase the hottest reference); add it as heat at the
    photonic sites; re-solve until the tuning power stabilises.
    ``built`` supplies positions only (see :func:`power_map_for`).
    """
    grid = ThermalGrid(grid_cells, params)
    base_power = power_map_for(built, activity, grid, model)
    rings_per_cell = activity.photonic_rings / base_power.size

    tuning_w = 0.0
    temp = grid.solve(base_power)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if rings_per_cell == 0:
            break
        # Rings tune to the hottest point; each cell's rings pay for their
        # deviation below it.
        deviation = np.max(temp) - temp
        tuning_map = deviation * rings_per_cell * TUNING_UW_PER_RING_K * 1e-6
        new_tuning = float(tuning_map.sum())
        temp = grid.solve(base_power + tuning_map)
        if abs(new_tuning - tuning_w) < 1e-4:
            tuning_w = new_tuning
            break
        tuning_w = new_tuning

    return ThermalReport(
        temperature_c=temp,
        peak_c=grid.peak_c(temp),
        gradient_c=grid.gradient_c(temp),
        tuning_power_w=tuning_w,
        iterations=iterations,
        total_power_w=float(base_power.sum()) + tuning_w,
    )
