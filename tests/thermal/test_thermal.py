"""Thermal grid solver and network thermal analysis."""

import numpy as np
import pytest

from repro.power import PowerModel
from repro.runtime import RunSpec, build_ref, run_spec, topology_keys
from repro.thermal import (
    ThermalGrid,
    ThermalParams,
    ascii_heatmap,
    power_map_for,
    thermal_report,
)


class TestGridSolver:
    def test_zero_power_is_ambient(self):
        grid = ThermalGrid(8)
        temp = grid.solve(np.zeros((8, 8)))
        assert np.allclose(temp, grid.params.ambient_c)

    def test_uniform_power_uniform_temperature(self):
        grid = ThermalGrid(8)
        temp = grid.solve(np.full((8, 8), 0.1))
        # Uniform heating: no lateral flow, rise = q / g_sink everywhere.
        expected = grid.params.ambient_c + 0.1 / grid.g_sink
        assert np.allclose(temp, expected, rtol=1e-9)

    def test_point_source_peaks_at_source(self):
        grid = ThermalGrid(9)
        power = np.zeros((9, 9))
        power[4, 4] = 2.0
        temp = grid.solve(power)
        assert temp.argmax() == 4 * 9 + 4
        # Monotone decay away from the source along a row.
        row = temp[4]
        assert row[4] > row[5] > row[6] > row[7]

    def test_superposition(self):
        """The solver is linear: T(q1+q2) - amb == (T(q1)-amb)+(T(q2)-amb)."""
        grid = ThermalGrid(8)
        q1 = np.zeros((8, 8)); q1[1, 1] = 1.0
        q2 = np.zeros((8, 8)); q2[6, 6] = 0.5
        amb = grid.params.ambient_c
        lhs = grid.solve(q1 + q2) - amb
        rhs = (grid.solve(q1) - amb) + (grid.solve(q2) - amb)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_corner_source_hotter_than_center_source(self):
        """Boundary cells have fewer spreading paths -> hotter peaks."""
        grid = ThermalGrid(9)
        center = np.zeros((9, 9)); center[4, 4] = 1.0
        corner = np.zeros((9, 9)); corner[0, 0] = 1.0
        assert grid.solve(corner).max() > grid.solve(center).max()

    def test_energy_balance(self):
        """Total heat into the sink equals total injected power."""
        grid = ThermalGrid(8)
        power = np.zeros((8, 8))
        power[2, 3] = 1.5
        power[6, 1] = 0.5
        temp = grid.solve(power)
        rise = temp - grid.params.ambient_c
        sunk = (rise * grid.g_sink).sum()
        assert sunk == pytest.approx(power.sum(), rel=1e-9)

    def test_validation(self):
        grid = ThermalGrid(8)
        with pytest.raises(ValueError):
            grid.solve(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            grid.solve(np.full((8, 8), -1.0))
        with pytest.raises(ValueError):
            ThermalGrid(1)

    def test_cell_of_clamps(self):
        grid = ThermalGrid(10, ThermalParams(die_edge_mm=50.0))
        assert grid.cell_of(-5.0, -5.0) == (0, 0)
        assert grid.cell_of(100.0, 100.0) == (9, 9)
        assert grid.cell_of(25.0, 25.0) == (5, 5)


class TestHeatmap:
    def test_shape_and_range_line(self):
        art = ascii_heatmap(np.array([[0.0, 1.0], [0.5, 0.25]]))
        lines = art.split("\n")
        assert len(lines) == 3
        assert lines[-1].startswith("range: 0.0 .. 1.0")

    def test_constant_map_no_crash(self):
        art = ascii_heatmap(np.full((3, 3), 7.0))
        assert "7.0 .. 7.0" in art


#: Every registered topology key, at 256 and 1024 cores where its builder
#: builds both.
MAP_REFS = {
    "own256": [("own256", {})],
    "own256_ft": [("own256_ft", {"with_reconfiguration": True})],
    "own1024": [("own1024", {})],
    "cmesh": [("cmesh", {"n_cores": 256}), ("cmesh", {"n_cores": 1024})],
    "wcmesh": [("wcmesh", {"n_cores": 256}), ("wcmesh", {"n_cores": 1024})],
    "optxb": [("optxb", {"n_cores": 256}), ("optxb", {"n_cores": 1024})],
    "pclos": [("pclos", {"n_cores": 256}), ("pclos", {"n_cores": 1024, "n_middles": 32})],
}


def run_activity(ref, rate=0.03, cycles=500):
    key, kwargs = ref
    spec = RunSpec.create(
        key, pattern="UN", rate=rate, cycles=cycles, seed=2, topology_kwargs=kwargs
    )
    return run_spec(spec).activity


def test_map_refs_cover_the_registry():
    assert sorted(MAP_REFS) == sorted(topology_keys())


@pytest.mark.parametrize(
    "ref", [ref for refs in MAP_REFS.values() for ref in refs],
    ids=lambda ref: f"{ref[0]}{ref[1].get('n_cores', '')}",
)
def test_power_map_total_is_measured_total(ref):
    """The map scatters ``measure``'s own per-site prices: its total is
    Fig. 6's total, photonic and wireless links included."""
    activity = run_activity(ref, rate=0.01, cycles=200)
    pmap = power_map_for(build_ref(ref), activity, ThermalGrid(16))
    assert pmap.sum() == pytest.approx(PowerModel().measure(activity).total_w, rel=1e-9)


class TestNetworkThermal:
    OWN = ("own256", {})

    def test_report_fields(self):
        rep = thermal_report(build_ref(self.OWN), run_activity(self.OWN))
        assert rep.peak_c > ThermalParams().ambient_c
        assert rep.gradient_c > 0
        assert rep.iterations >= 1
        assert rep.temperature_c.shape == (16, 16)
        assert "range:" in rep.heatmap

    def test_more_load_more_heat(self):
        built = build_ref(self.OWN)
        cool = thermal_report(built, run_activity(self.OWN, rate=0.01)).peak_c
        hot = thermal_report(built, run_activity(self.OWN, rate=0.04)).peak_c
        assert hot > cool

    def test_optxb_pays_more_ring_tuning_than_own(self):
        """Sec. I's thermal argument: a million-ring crossbar chases the
        gradient with far more tuning power than OWN's 4k rings."""
        results = {}
        for name, ref in (("own", self.OWN), ("optxb", ("optxb", {"n_cores": 256}))):
            results[name] = thermal_report(build_ref(ref), run_activity(ref)).tuning_power_w
        assert results["optxb"] > 3 * results["own"]

    def test_cmesh_has_no_tuning_power(self):
        ref = ("cmesh", {"n_cores": 256})
        rep = thermal_report(build_ref(ref), run_activity(ref, cycles=400))
        assert rep.tuning_power_w == 0.0
