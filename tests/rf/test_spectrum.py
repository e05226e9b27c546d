"""Spectral isolation of the channel plan (the Sec. IV guard-band claim)."""

import pytest

from repro.power import SCENARIOS
from repro.rf.spectrum import (
    EmissionMask,
    adjacent_channel_isolation_db,
    channel_plan_isolation,
)


class TestEmissionMask:
    def test_in_band_flat(self):
        mask = EmissionMask()
        assert mask.psd_dbc(0.0, 16.0) == 0.0
        assert mask.psd_dbc(15.9, 16.0) == 0.0

    def test_rolloff(self):
        mask = EmissionMask(rolloff_db_per_ghz=3.0)
        assert mask.psd_dbc(18.0, 16.0) == pytest.approx(-6.0)

    def test_floor(self):
        mask = EmissionMask(floor_dbc=-50.0)
        assert mask.psd_dbc(200.0, 16.0) == -50.0

    def test_symmetric(self):
        mask = EmissionMask()
        assert mask.psd_dbc(-20.0, 16.0) == mask.psd_dbc(20.0, 16.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            EmissionMask().psd_dbc(1.0, 0.0)


class TestIsolation:
    def test_overlapping_channels_zero_isolation(self):
        assert adjacent_channel_isolation_db(100.0, 32.0, 110.0, 32.0) == 0.0

    def test_isolation_grows_with_guard(self):
        tight = adjacent_channel_isolation_db(100.0, 16.0, 120.0, 16.0)  # 4 GHz
        wide = adjacent_channel_isolation_db(100.0, 16.0, 130.0, 16.0)  # 14 GHz
        assert wide > tight

    def test_paper_guard_bands_sufficient(self):
        """Both Table III plans isolate their channels without dedicated
        filters -- the Sec. IV design intent, as EXPERIMENTS.md quotes it:
        >= 37 dB with the ideal 8 GHz guards, >= 22 dB with the
        conservative 4 GHz ones."""
        for scenario, floor_db in ((SCENARIOS[1], 37.0), (SCENARIOS[2], 22.0)):
            rep = channel_plan_isolation(scenario)
            assert rep.worst_db >= floor_db, (scenario.key, rep.worst_db)

    def test_ideal_guards_beat_conservative(self):
        ideal = channel_plan_isolation(SCENARIOS[1]).worst_db
        cons = channel_plan_isolation(SCENARIOS[2]).worst_db
        assert ideal > cons

    def test_worst_pair_is_adjacent(self):
        rep = channel_plan_isolation(SCENARIOS[1])
        a, b = rep.worst_pair
        assert abs(a - b) == 1

    def test_fifteen_adjacent_pairs(self):
        rep = channel_plan_isolation(SCENARIOS[2])
        assert len(rep.per_adjacent_db) == 15

