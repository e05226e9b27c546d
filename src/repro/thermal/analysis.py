"""Thermal analysis of simulated networks.

Bridges the power accounting and the thermal grid: per-router measured
power becomes a die power map, the grid solves the temperature field, and
the photonic side feeds back -- rings detuned by thermal gradients need
extra tuning power, which is itself heat (a short fixed-point iteration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.noc.simulator import Simulator
from repro.power.accounting import PowerModel, photonic_ring_count
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
    sim: Simulator,
    grid: ThermalGrid,
    model: Optional[PowerModel] = None,
) -> np.ndarray:
    """Distribute a run's measured power over the thermal grid.

    Router power lands at each router's floorplan position; link power is
    attributed to the source router's cell (drivers dominate); wireless
    transceiver power to the gateway cells.
    """
    model = model or PowerModel()
    net = built.network
    duration = model.dsent.cycles_to_seconds(sim.now)
    power = np.zeros((grid.n, grid.n))

    for router in net.routers:
        w = (
            model.dsent.router_dynamic_energy_pj(router) * 1e-12 / duration
            + model.dsent.router_static_power_mw(router) * 1e-3
        )
        cx, cy = grid.cell_of(*router.position_mm)
        power[cy, cx] += w

    for link in net.links:
        if link.src_router is None or link.bits_carried == 0:
            continue
        if link.kind == "electrical":
            w = model.dsent.wire_energy_pj(link.bits_carried, link.length_mm)
        elif link.kind == "photonic":
            w = model.photonic.link_dynamic_energy_pj(link.bits_carried)
        else:  # wireless
            e = model.wireless_link_energy_pj_per_bit(link.channel_id, link.length_mm)
            w = link.bits_carried * model.wireless.effective_energy_pj(
                e, link.multicast_degree
            )
        cx, cy = grid.cell_of(*link.src_router.position_mm)
        power[cy, cx] += w * 1e-12 / duration

    # Wireless static bias at transceiver sites.
    static_w = model.wireless.static_mw_per_transceiver_end * 1e-3
    for link in net.links:
        if link.kind != "wireless" or link.src_router is None:
            continue
        cx, cy = grid.cell_of(*link.src_router.position_mm)
        power[cy, cx] += static_w
    return power


def thermal_report(
    built: BuiltTopology,
    sim: Simulator,
    grid_cells: int = 16,
    params: ThermalParams = ThermalParams(),
    model: Optional[PowerModel] = None,
    max_iterations: int = 8,
) -> ThermalReport:
    """Solve the coupled power/temperature fixed point for a finished run.

    Iterates: solve T from the power map; compute ring-tuning power from
    the gradient (rings chase the hottest reference); add it as heat at the
    photonic sites; re-solve until the tuning power stabilises.
    """
    model = model or PowerModel()
    grid = ThermalGrid(grid_cells, params)
    base_power = power_map_for(built, sim, grid, model)
    rings = photonic_ring_count(built)
    rings_per_cell = rings / (grid.n * grid.n) if rings else 0.0

    tuning_w = 0.0
    temp = grid.solve(base_power)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if rings == 0:
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
