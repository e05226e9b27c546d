"""DSENT-style electrical model, photonic model, and power accounting."""

import pytest

from repro.core import build_own256
from repro.noc import Router, Simulator
from repro.power import (
    DsentParams,
    PhotonicParams,
    measure_power,
    photonic_ring_count,
)
from repro.power.dsent import router_events
from repro.topologies import build_cmesh, build_optxb
from repro.traffic import SyntheticTraffic


class TestDsent:
    def test_dynamic_energy_scales_with_events(self):
        params = DsentParams()
        r = Router(0)
        r.attrs["paper_radix"] = 8
        assert params.events_energy_pj(router_events(r)) == 0.0
        r.sa_grants = 10  # a grant also writes, reads and crosses once
        e1 = params.events_energy_pj(router_events(r))
        r.sa_grants = 20
        assert params.events_energy_pj(router_events(r)) == pytest.approx(2 * e1)

    def test_xbar_scales_with_radix(self):
        params = DsentParams()
        lo, hi = Router(0), Router(1)
        lo.attrs["paper_radix"] = 8
        hi.attrs["paper_radix"] = 64
        lo.sa_grants = hi.sa_grants = 100

        def xbar_pj(router):
            # The crossbar term is the only one the radix scales.
            events = router_events(router)
            return params.events_energy_pj(events) - params.events_energy_pj(
                events[:-1] + (0,)
            )

        assert xbar_pj(lo) > 0
        assert xbar_pj(hi) == pytest.approx(8 * xbar_pj(lo))

    def test_static_scales_with_radix(self):
        params = DsentParams()
        lo, hi = Router(0), Router(1)
        lo.attrs["paper_radix"] = 8
        hi.attrs["paper_radix"] = 67
        assert params.static_power_mw(router_events(hi)[-1]) > params.static_power_mw(
            router_events(lo)[-1]
        )

    def test_falls_back_to_structural_radix(self):
        params = DsentParams()
        r = Router(0)
        r.add_input_port()
        r.add_output_port()
        r.sa_grants = 10
        events = router_events(r)
        assert events[-1] == r.radix == 1
        assert params.events_energy_pj(events) > params.events_energy_pj(
            events[:-1] + (0,)
        )

    def test_wire_energy_linear_in_bits_and_length(self):
        params = DsentParams()
        assert params.wire_energy_pj(1000, 2.0) == pytest.approx(
            2 * params.wire_energy_pj(1000, 1.0)
        )
        assert params.wire_energy_pj(2000, 1.0) == pytest.approx(
            2 * params.wire_energy_pj(1000, 1.0)
        )

    def test_wire_negative_length_rejected(self):
        with pytest.raises(ValueError):
            DsentParams().wire_energy_pj(10, -1.0)

    def test_cycles_to_seconds(self):
        params = DsentParams(clock_ghz=2.5)
        assert params.cycles_to_seconds(2_500_000_000) == pytest.approx(1.0)


class TestPhotonicParams:
    def test_dynamic_energy(self):
        p = PhotonicParams()
        assert p.link_dynamic_energy_pj(1000) == pytest.approx(
            1000 * p.e_dynamic_pj_per_bit
        )

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            PhotonicParams().link_dynamic_energy_pj(-1)

    def test_tuning_power(self):
        p = PhotonicParams(p_tuning_uw_per_ring=1.0)
        assert p.tuning_power_mw(1_000_000) == pytest.approx(1000.0)

    def test_tuning_validation(self):
        with pytest.raises(ValueError):
            PhotonicParams().tuning_power_mw(-1)

    def test_laser_power_grows_with_loss(self):
        p = PhotonicParams()
        short = p.waveguide_laser_power_mw(10.0, 10, 4)
        long = p.waveguide_laser_power_mw(100.0, 100, 4)
        assert long > short


class TestAccounting:
    def run_sim(self, builder, n, rate=0.03, cycles=500):
        built = builder()
        sim = Simulator(
            built.network, traffic=SyntheticTraffic(n, "UN", rate, 4, seed=2)
        )
        sim.run(cycles)
        return built, sim

    def test_breakdown_components_positive(self):
        built, sim = self.run_sim(build_own256, 256)
        pb = measure_power(built, sim)
        assert pb.router_w > 0
        assert pb.photonic_w > 0
        assert pb.wireless_w > 0
        assert pb.total_w == pytest.approx(
            pb.router_w + pb.electrical_link_w + pb.photonic_w + pb.wireless_w
        )

    def test_cmesh_has_no_photonic_or_wireless(self):
        built, sim = self.run_sim(lambda: build_cmesh(64), 64)
        pb = measure_power(built, sim)
        assert pb.photonic_w == 0.0
        assert pb.wireless_w == 0.0
        assert pb.electrical_link_w > 0

    def test_energy_per_packet(self):
        built, sim = self.run_sim(lambda: build_cmesh(64), 64)
        pb = measure_power(built, sim)
        assert pb.packets > 0
        expected = pb.total_w * pb.duration_s / pb.packets * 1e9
        assert pb.energy_per_packet_nj == pytest.approx(expected)

    def test_scenario_number_and_object_equivalent(self):
        from repro.power import SCENARIOS

        built, sim = self.run_sim(build_own256, 256)
        a = measure_power(built, sim, config_id=4, scenario=1).total_w
        b = measure_power(built, sim, config_id=4, scenario=SCENARIOS[1]).total_w
        assert a == pytest.approx(b)

    def test_config_changes_wireless_power_only(self):
        built, sim = self.run_sim(build_own256, 256)
        p1 = measure_power(built, sim, config_id=1)
        p4 = measure_power(built, sim, config_id=4)
        assert p1.wireless_w > p4.wireless_w
        assert p1.router_w == pytest.approx(p4.router_w)
        assert p1.photonic_w == pytest.approx(p4.photonic_w)

    def test_conservative_scenario_not_cheaper_for_cfg4(self):
        built, sim = self.run_sim(build_own256, 256)
        ideal = measure_power(built, sim, config_id=4, scenario=1)
        cons = measure_power(built, sim, config_id=4, scenario=2)
        assert cons.wireless_w >= ideal.wireless_w * 0.8  # same order

    def test_measure_requires_a_run(self):
        built = build_own256()
        sim = Simulator(built.network)
        with pytest.raises(ValueError):
            measure_power(built, sim)

    def test_ring_inventory_by_kind(self):
        own = build_own256()
        optxb = build_optxb(64)
        cmesh = build_cmesh(64)
        assert photonic_ring_count(cmesh) == 0
        assert photonic_ring_count(own) > 0
        assert photonic_ring_count(optxb) > photonic_ring_count(own)

    def test_as_dict_keys(self):
        built, sim = self.run_sim(lambda: build_cmesh(64), 64)
        d = measure_power(built, sim).as_dict()
        assert set(d) == {
            "router_w", "electrical_link_w", "photonic_w", "wireless_w",
            "retx_overhead_w", "total_w", "energy_per_packet_nj",
            "avg_wireless_link_mw",
        }
