"""Bursty (MMBP) and application-like traffic generators."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.noc import Simulator
from repro.traffic import ApplicationTraffic, BurstyTraffic
from repro.topologies import build_cmesh
from tests.reference import naive_schedule


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
        assert tr.fraction_on == pytest.approx(1.0)

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


class TestApplicationTraffic:
    def test_rate_matches(self):
        tr = ApplicationTraffic(64, 0.1, 4, seed=3)
        measured = offered_load(tr, 64, 8_000)
        assert measured == pytest.approx(0.1, rel=0.1)

    def test_locality_skew(self):
        tr = ApplicationTraffic(64, 0.4, 4, seed=3, working_set=4, locality=0.8)
        counts = {}
        for t in range(3000):
            for p in tr.tick(t):
                counts.setdefault(p.src_core, {}).setdefault(p.dst_core, 0)
                counts[p.src_core][p.dst_core] += 1
        # For a busy source, its working set should dominate destinations.
        src = max(counts, key=lambda s: sum(counts[s].values()))
        homes = set(tr.homes_of(src))
        total = sum(counts[src].values())
        to_homes = sum(v for d, v in counts[src].items() if d in homes)
        assert to_homes / total > 0.6

    def test_homes_exclude_self(self):
        tr = ApplicationTraffic(64, 0.1, seed=1, working_set=6)
        for c in range(64):
            assert c not in tr.homes_of(c)
            assert len(tr.homes_of(c)) == 6

    def test_working_set_validation(self):
        with pytest.raises(ValueError):
            ApplicationTraffic(64, 0.1, working_set=64)

    def test_deterministic(self):
        def packets(seed):
            tr = ApplicationTraffic(64, 0.2, seed=seed)
            return [(p.src_core, p.dst_core) for t in range(100) for p in tr.tick(t)]

        assert packets(4) == packets(4)
        assert packets(4) != packets(5)

    def test_dense_and_fast_forward_identical(self):
        # The shared draw-ahead peek makes ApplicationTraffic a fast-forward
        # wake source: same packets, same delivery log, fewer steps.
        def run(schedule):
            log = []  # births and deliveries, in simulation order

            class Recording(ApplicationTraffic):
                def tick(self, now):
                    packets = super().tick(now)
                    log.extend(("born", now, p.src_core, p.dst_core) for p in packets)
                    return packets

            sim = Simulator(
                build_cmesh(64).network,
                traffic=Recording(64, 0.002, 4, seed=6, stop_cycle=2000),
            )
            eject, stepped = sim.stats.on_packet_ejected, []
            sim.stats.on_packet_ejected = lambda packet, now: (
                log.append(("done", now, packet.pid)), eject(packet, now)
            )
            with schedule():
                # Bound inside the schedule: the instance attribute shadows
                # Simulator.step, so it must wrap the schedule's own step.
                step = sim.step
                sim.step = lambda: (stepped.append(sim.now), step())[1]
                sim.run(2000)
                assert sim.drain()
            return log, len(stepped), sim.now

        naive_log, naive_steps, naive_now = run(naive_schedule)
        fast_log, fast_steps, fast_now = run(nullcontext)
        assert fast_log == naive_log
        assert sum(e[0] == "done" for e in fast_log) == len(fast_log) // 2 > 0
        assert naive_steps == naive_now == fast_now
        assert fast_steps < fast_now
