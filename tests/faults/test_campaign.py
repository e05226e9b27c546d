"""Unit tests for the fault campaign schedule and its generators."""

import pytest
from scipy import stats

from repro.faults import FaultCampaign, PermanentFault, TransientFault
from repro.faults.campaign import _PENALTY


class TestSchedule:
    def test_transient_expands_to_start_and_end(self):
        c = FaultCampaign([TransientFault(at=10, duration=5, snr_penalty_db=3.0)])
        start = c.actions_at(10)
        assert start == [(_PENALTY, None, 3.0)]
        end = c.actions_at(15)
        assert end == [(_PENALTY, None, -3.0)]
        assert c.is_empty

    def test_actions_fire_exactly_once(self):
        c = FaultCampaign([PermanentFault(at=7, target="wch1.A0->B2")])
        assert c.actions_at(7) is not None
        assert c.actions_at(7) is None

    def test_no_actions_on_other_cycles(self):
        c = FaultCampaign([PermanentFault(at=7, target=None)])
        assert c.actions_at(6) is None
        assert not c.is_empty

    def test_negative_cycle_rejected(self):
        with pytest.raises(ValueError):
            FaultCampaign([PermanentFault(at=-1, target=None)])

    def test_add_and_last_cycle(self):
        c = FaultCampaign()
        assert c.is_empty and c.last_cycle() == 0
        c.add(TransientFault(at=100, duration=50, snr_penalty_db=2.0))
        assert c.last_cycle() == 150


class TestBurstyGenerator:
    LINKS = ["wch1.A0->B2", "wch2.B1->A3"]

    def test_deterministic_per_seed(self):
        a = FaultCampaign.bursty(self.LINKS, 500, 3, 0.01)
        b = FaultCampaign.bursty(self.LINKS, 500, 3, 0.01)
        assert a.events == b.events

    def test_zero_rate_is_empty(self):
        c = FaultCampaign.bursty(self.LINKS, 500, 3, 0.0)
        assert c.is_empty and c.events == []

    def test_bursts_target_named_links(self):
        c = FaultCampaign.bursty(self.LINKS, 2000, 3, 0.01,
                                 burst_duration=20, snr_penalty_db=4.0)
        assert c.events, "expected some bursts at rate 0.01 over 2000 cycles"
        for ev in c.events:
            assert isinstance(ev, TransientFault)
            assert ev.target in self.LINKS
            assert ev.duration == 20
            assert ev.snr_penalty_db == 4.0
            assert 0 <= ev.at < 2000

    def test_rate_one_starts_every_cycle(self):
        c = FaultCampaign.bursty(self.LINKS, 300, 3, 1.0)
        for name in self.LINKS:
            assert [ev.at for ev in c.events if ev.target == name] == list(range(300))

    def test_start_count_is_binomial(self):
        """The geometric-gap clock keeps the Bernoulli-per-cycle law: over
        ``links x cycles`` trials the number of burst starts falls inside
        the binomial 99.9 % interval."""
        links = [f"wch{i}.A0->B2" for i in range(200)]
        cycles, p = 5000, 0.002
        c = FaultCampaign.bursty(links, cycles, 3, p)
        lo, hi = stats.binom.interval(0.999, len(links) * cycles, p)
        assert lo <= len(c.events) <= hi
        assert all(0 <= ev.at < cycles for ev in c.events)

    def test_adding_a_link_keeps_the_other_schedules(self):
        def schedule(campaign, name):
            return [ev.at for ev in campaign.events if ev.target == name]

        base = FaultCampaign.bursty(self.LINKS, 2000, 3, 0.01)
        more = FaultCampaign.bursty(["wch3.C0->D1"] + self.LINKS, 2000, 3, 0.01)
        for name in self.LINKS:
            assert schedule(base, name) and schedule(base, name) == schedule(more, name)
