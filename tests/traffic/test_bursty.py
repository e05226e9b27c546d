"""The bursty (MMBP) traffic generator."""

import numpy as np
import pytest

from repro.noc import Simulator
from repro.traffic import BurstyTraffic
from repro.topologies import build_cmesh


def offered_load(traffic, cores, cycles):
    flits = sum(sum(p.size_flits for p in traffic.tick(t)) for t in range(cycles))
    return flits / (cores * cycles)


class TestBurstyTraffic:
    def test_long_run_rate_matches(self):
        tr = BurstyTraffic(64, "UN", 0.1, 4, seed=3, burst_factor=4.0)
        measured = offered_load(tr, 64, 12_000)
        assert measured == pytest.approx(0.1, rel=0.12)

    def test_burst_factor_one_is_plain_bernoulli(self):
        tr = BurstyTraffic(64, "UN", 0.1, 4, seed=3, burst_factor=1.0)
        measured = offered_load(tr, 64, 6_000)
        assert measured == pytest.approx(0.1, rel=0.1)

    def test_burstiness_raises_dispersion(self):
        """Index of dispersion of per-core window counts grows with the
        burst factor (aggregate per-cycle counts average out over 64
        independent sources; the per-core windows are where burstiness
        lives)."""

        def dispersion(burst_factor, window=100, cycles=6000):
            tr = BurstyTraffic(64, "UN", 0.1, 4, seed=3,
                               burst_factor=burst_factor,
                               mean_burst_cycles=25.0)
            counts = np.zeros((cycles // window, 64))
            for t in range(cycles):
                for p in tr.tick(t):
                    counts[t // window, p.src_core] += 1
            flat = counts.ravel()
            return flat.var() / flat.mean()

        smooth = dispersion(1.0)
        bursty = dispersion(8.0)
        assert smooth < 1.5  # near-Poisson
        assert bursty > 2.0 * smooth

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstyTraffic(64, "UN", 0.1, burst_factor=0.5)
        with pytest.raises(ValueError):
            BurstyTraffic(64, "UN", 0.1, mean_burst_cycles=0.0)

    def test_stop_cycle(self):
        tr = BurstyTraffic(64, "UN", 0.5, 4, seed=1, stop_cycle=5)
        for t in range(5):
            tr.tick(t)
        assert tr.tick(5) == []

    def test_pattern_respected(self):
        from repro.traffic.patterns import bit_reversal

        tr = BurstyTraffic(64, "BR", 0.3, 4, seed=1, burst_factor=3.0)
        for t in range(200):
            for p in tr.tick(t):
                assert p.dst_core == bit_reversal(p.src_core, 64)

    def test_drives_simulator(self):
        built = build_cmesh(64)
        tr = BurstyTraffic(64, "UN", 0.03, 4, seed=5, burst_factor=4.0,
                           stop_cycle=400)
        sim = Simulator(built.network, traffic=tr)
        sim.run(400)
        assert sim.drain(30_000)
        assert sim.stats.packets_ejected == sim.stats.packets_created
