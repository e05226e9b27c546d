"""The arrival clock of ``SyntheticTraffic``: same process, exact contract.

``SyntheticTraffic`` samples each core's Bernoulli(p)-per-cycle source by
its Geometric(p) inter-arrival gaps instead of one coin per core per cycle.
That changed every seed's sample path once, so it is checked two ways:

* *distributionally* against ``tests.reference.PerCycleBernoulliTraffic``,
  the per-cycle generator it replaced (the oracle) -- both must look like
  the model, and like each other through a simulator;
* *exactly* for what the simulator relies on: arrival times do not depend
  on which cycles were ticked and which only peeked, and unseen cycles (a
  pause) push the pending arrivals back by their number.

The simulator ticks a source only on cycles its peek names, so the
simulator-level checks at the end run every source that has one: the
arrival clock under a random and a permutation pattern, the draw-ahead
``BurstyTraffic`` and a ``ScriptedTraffic`` replay.

The statistical tests run on fixed seeds, so they are deterministic; they
accept at p > 1e-3 and each has a negative control showing that a 10 %
error in the rate is rejected at the same sample size.
"""

import random
from contextlib import nullcontext

import numpy as np
import pytest
from scipy import stats

from repro.noc import Simulator
from repro.runtime.registry import build_topology
from repro.topologies import build_cmesh
from repro.traffic import BurstyTraffic, ScriptedTraffic, SyntheticTraffic
from repro.utils.rng import derive_seed
from tests.reference import PerCycleBernoulliTraffic, naive_schedule

ALPHA = 1e-3
SOURCES = [SyntheticTraffic, PerCycleBernoulliTraffic]


def _packets(source, cycles):
    """(cycle, src, dst) of every packet ticking ``cycles`` in order."""
    return [
        (t, p.src_core, p.dst_core) for t in cycles for p in source.tick(t)
    ]


class TestSameProcessAsPerCycleBernoulli:
    # BC has no fixed point, so no arrival is filtered as self-addressed
    # and the packets are the arrivals.
    N, RATE, SIZE, CYCLES = 64, 0.2, 4, 6000
    P = RATE / SIZE

    def _gap_pvalue(self, source, p_model, per_core=200):
        """Chi-square of each core's first ``per_core`` gaps vs Geometric(p)."""
        by_core = [[] for _ in range(self.N)]
        for cycle, src, _ in _packets(source, range(self.CYCLES)):
            by_core[src].append(cycle)
        assert min(len(c) for c in by_core) >= per_core  # nothing censored
        # The wait for the first arrival counts from cycle 0 inclusive.
        gaps = np.concatenate(
            [np.diff([-1] + cycles[:per_core]) for cycles in by_core]
        )
        # Gaps 1..40 one bin each, then the tail.
        observed = np.bincount(np.minimum(gaps, 41), minlength=42)[1:]
        expected = gaps.size * np.append(
            stats.geom.pmf(np.arange(1, 41), p_model), stats.geom.sf(40, p_model)
        )
        return stats.chisquare(observed, expected).pvalue

    def _count_pvalue(self, source, p_model):
        """Chi-square of arrivals per cycle vs Binomial(n_cores, p)."""
        cycles = [cycle for cycle, _, _ in _packets(source, range(self.CYCLES))]
        counts = np.bincount(np.bincount(cycles, minlength=self.CYCLES))
        observed = np.append(counts[:9], counts[9:].sum())
        expected = self.CYCLES * np.append(
            stats.binom.pmf(np.arange(9), self.N, p_model),
            stats.binom.sf(8, self.N, p_model),
        )
        return stats.chisquare(observed, expected).pvalue

    @pytest.mark.parametrize("source", SOURCES)
    def test_inter_arrival_gaps_are_geometric(self, source):
        assert self._gap_pvalue(source(self.N, "BC", self.RATE, self.SIZE, seed=5), self.P) > ALPHA

    @pytest.mark.parametrize("source", SOURCES)
    def test_arrivals_per_cycle_are_binomial(self, source):
        assert self._count_pvalue(source(self.N, "BC", self.RATE, self.SIZE, seed=5), self.P) > ALPHA

    def test_chi_squares_reject_a_ten_percent_rate_error(self):
        off = 1.1 * self.P
        assert self._gap_pvalue(SyntheticTraffic(self.N, "BC", self.RATE, self.SIZE, seed=5), off) < ALPHA
        assert self._count_pvalue(SyntheticTraffic(self.N, "BC", self.RATE, self.SIZE, seed=5), off) < ALPHA

    @staticmethod
    def _own256(source, rate, seed):
        built = build_topology("own256")
        sim = Simulator(
            built.network, traffic=source(256, "UN", rate, 4, seed=seed), warmup_cycles=100
        )
        sim.run(350)
        accepted = sim.stats.throughput_flits_per_core_cycle(sim.now)
        assert sim.drain()
        return sim.stats.latencies, accepted

    def test_own256_latency_and_accepted_rate_match_the_oracle(self):
        """Twenty seeds of OWN-256 @0.03 per source: the network cannot tell them apart.

        Twenty, not ten: with ten the negative control's t-test on accepted
        rates has about even odds of reaching ALPHA for a 10 % rate error.
        """
        seeds = range(1, 21)
        clock = [self._own256(SyntheticTraffic, 0.03, s) for s in seeds]
        oracle = [self._own256(PerCycleBernoulliTraffic, 0.03, s) for s in seeds]
        pool = lambda runs: np.concatenate([lat for lat, _ in runs])  # noqa: E731
        assert stats.ks_2samp(pool(clock), pool(oracle)).pvalue > ALPHA
        rates = lambda runs: [acc for _, acc in runs]  # noqa: E731
        assert stats.ttest_ind(rates(clock), rates(oracle), equal_var=False).pvalue > ALPHA
        assert np.mean(rates(clock)) == pytest.approx(np.mean(rates(oracle)), rel=0.02)
        # Negative control: the same tests tell 0.033 from 0.03.
        off = [self._own256(SyntheticTraffic, 0.033, s) for s in seeds]
        assert stats.ks_2samp(pool(off), pool(oracle)).pvalue < ALPHA
        assert stats.ttest_ind(rates(off), rates(oracle), equal_var=False).pvalue < ALPHA


class TestClockContract:
    def test_peeked_and_ticked_cycles_interleave_into_the_dense_path(self):
        dense = _packets(SyntheticTraffic(64, "UN", 0.02, 4, seed=4), range(3000))
        source = SyntheticTraffic(64, "UN", 0.02, 4, seed=4)
        horizons = np.random.default_rng(0).integers(1, 40, size=3000)
        now, packets = 0, []
        for horizon in horizons.tolist():
            if now >= 3000:
                break
            limit = min(now + horizon, 3000)
            wake = source.next_injection_cycle(now, limit)
            now = limit if wake is None else wake
            if now < 3000:
                packets += _packets(source, [now])
                now += 1
        assert packets == dense and len(dense) > 100

    def test_unseen_cycles_push_pending_arrivals_back(self):
        """Skip 100..149: the rest of the path arrives 50 cycles later."""
        whole = _packets(SyntheticTraffic(64, "UN", 0.02, 4, seed=4), range(600))
        paused = SyntheticTraffic(64, "UN", 0.02, 4, seed=4)
        got = _packets(paused, range(100)) + _packets(paused, range(150, 650))
        assert got == [(t if t < 100 else t + 50, s, d) for t, s, d in whole]

    def test_cycles_a_peek_vouched_for_were_seen(self):
        quiet = SyntheticTraffic(64, "UN", 0.00004, 4, seed=4)
        twin = SyntheticTraffic(64, "UN", 0.00004, 4, seed=4)
        first = twin.next_injection_cycle(0, 10**6)
        assert first > 10
        assert quiet.next_injection_cycle(0, 10) is None
        assert quiet.next_injection_cycle(10, 10**6) == first
        assert _packets(quiet, [first]) == _packets(twin, [first]) != []

    @pytest.mark.parametrize("first_look", ["tick", "peek"])
    def test_source_installed_mid_life_starts_its_clock_there(self, first_look):
        from_zero = _packets(SyntheticTraffic(64, "UN", 0.02, 4, seed=4), range(400))
        late = SyntheticTraffic(64, "UN", 0.02, 4, seed=4)
        if first_look == "peek":
            wake = late.next_injection_cycle(500, 900)
            assert wake == 500 + from_zero[0][0]
        got = _packets(late, range(500, 900))
        assert got == [(t + 500, s, d) for t, s, d in from_zero]

    def test_stop_cycle_honoured_by_tick_and_peek(self):
        source = SyntheticTraffic(64, "UN", 0.5, 4, seed=1, stop_cycle=10)
        assert all(t < 10 for t, _, _ in _packets(source, range(40)))
        assert source.packets_generated > 0
        quiet = SyntheticTraffic(64, "UN", 0.00004, 4, seed=4, stop_cycle=10)
        twin = SyntheticTraffic(64, "UN", 0.00004, 4, seed=4)
        assert twin.next_injection_cycle(0, 10**6) > 10
        assert quiet.next_injection_cycle(0, 10**6) is None
        assert quiet.next_injection_cycle(10, 10**6) is None

    def test_silent_source_leaves_its_stream_untouched(self):
        source = SyntheticTraffic(64, "UN", 0.0, 4, seed=9)
        assert source.next_injection_cycle(0, 10**9) is None
        assert _packets(source, range(50)) == []
        assert source.next_injection_cycle(50, 10**9) is None
        fresh = random.Random(derive_seed(9, "traffic", "UN"))
        assert source._rng.getstate() == fresh.getstate()

    def test_vanishing_rate_does_not_wrap_the_clock(self):
        source = SyntheticTraffic(64, "UN", 1e-19, 4, seed=9)
        assert _packets(source, [0, 10**9, 10**12]) == []
        assert source.next_injection_cycle(10**12, 10**15) is None


def _delivery_log(sim):
    events = []
    eject = sim.stats.on_packet_ejected

    def recording(packet, now):
        events.append((now, packet.pid, packet.t_create, packet.src_core))
        return eject(packet, now)

    sim.stats.on_packet_ejected = recording
    return events


def _scripted(n_cores, rate, seed):
    """A replayed schedule at about ``rate`` over the first 1 500 cycles."""
    rng = random.Random(seed)
    p = n_cores * rate / 4  # packets per cycle, below 1
    return ScriptedTraffic(
        (cycle, *rng.sample(range(n_cores), 2), 4)
        for cycle in range(1500)
        if rng.random() < p
    )


#: Every source kind with a ``next_injection_cycle`` peek.
PEEKING_SOURCES = {
    "UN": lambda n, rate: SyntheticTraffic(n, "UN", rate, 4, seed=6),
    "BR": lambda n, rate: SyntheticTraffic(n, "BR", rate, 4, seed=6),
    "bursty": lambda n, rate: BurstyTraffic(n, "UN", rate, 4, seed=6),
    "scripted": lambda n, rate: _scripted(n, rate, seed=6),
}


class TestSimulatorSeesOneSamplePath:
    RATE = 0.004  # ~15 idle cycles per arrival on 64 cores: peeks matter

    @pytest.fixture(params=sorted(PEEKING_SOURCES))
    def make_source(self, request):
        return lambda: PEEKING_SOURCES[request.param](64, self.RATE)

    def _sim(self, source):
        sim = Simulator(build_cmesh(64).network, traffic=source)
        return sim, _delivery_log(sim)

    def test_run_a_run_b_equals_run_a_plus_b(self, make_source):
        whole, whole_log = self._sim(make_source())
        whole.run(1500)
        parts, parts_log = self._sim(make_source())
        for cycles in (1, 399, 7, 593, 500):
            parts.run(cycles)
        assert parts_log == whole_log and len(whole_log) > 50
        assert parts.now == whole.now == 1500
        assert parts.stats.packets_created == whole.stats.packets_created
        assert parts.summary() == whole.summary()

    def test_dense_equals_fast_forward_across_a_pause(self, make_source):
        logs = []
        for schedule in (nullcontext, naive_schedule):
            sim, log = self._sim(make_source())
            with schedule():
                sim.run(700)
                created = sim.stats.packets_created
                assert sim.drain()
                paused_for = sim.now - 700
                if isinstance(sim._paused_traffic, SyntheticTraffic):
                    # Every core has an arrival pending over the pause.
                    assert sim._paused_traffic._heap[0] >= 700
                sim.resume_traffic()
                sim.run(800)
                assert sim.stats.packets_created > created
                assert sim.drain()
            logs.append((log, sim.now, paused_for, sim.stats.packets_created,
                         sim.stats.summary(sim.now)))
        assert logs[0] == logs[1]
        assert logs[0][2] > 0 and len(logs[0][0]) > 50
