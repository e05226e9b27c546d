"""Unit tests for the fault models: BER-derived error probabilities and
the per-link health state."""

import math

import pytest

from repro.faults import (
    LinkFaultState,
    PermanentFault,
    TransientFault,
    flit_error_probability,
)
from repro.rf.ook import ook_ber


class TestErrorProbabilities:
    def test_flit_probability_is_complement_power(self):
        ber = 1e-3
        p = flit_error_probability(ber, 128)
        assert p == pytest.approx(1.0 - (1.0 - ber) ** 128)

    def test_zero_ber_is_exactly_zero(self):
        assert flit_error_probability(0.0, 128) == 0.0

    def test_probabilities_bounded(self):
        assert flit_error_probability(0.4, 10_000) <= 1.0


class TestLinkFaultState:
    def test_healthy_state_is_transparent(self):
        state = LinkFaultState()
        # Nominal SNR carries the budget margin: BER <= target, treated as
        # an ideal channel so fault-free runs stay bit-exact.
        assert state.bit_error_rate() == 0.0
        assert state.flit_error_prob(128) == 0.0
        assert state.attempt_error_prob(128, 4) == 0.0
        assert not state.dead and not state.failed_over

    def test_penalty_opens_the_error_floor(self):
        state = LinkFaultState()
        state.snr_penalty_db = 5.0
        expected = ook_ber(state.nominal_snr_db - 5.0)
        assert state.bit_error_rate() == pytest.approx(expected)
        assert state.attempt_error_prob(128, 4) > 0.0

    def test_deeper_penalty_is_worse(self):
        a, b = LinkFaultState(), LinkFaultState()
        a.snr_penalty_db = 4.0
        b.snr_penalty_db = 8.0
        assert b.bit_error_rate() > a.bit_error_rate()

    def test_forced_probability_hook(self):
        state = LinkFaultState()
        state.forced_flit_error_prob = 0.25
        assert state.flit_error_prob(128) == 0.25
        assert state.attempt_error_prob(128, 2) == pytest.approx(
            1.0 - 0.75**2
        )


class TestEventValidation:
    def test_transient_needs_positive_duration(self):
        with pytest.raises(ValueError):
            TransientFault(at=0, duration=0, snr_penalty_db=5.0)

    def test_transient_needs_positive_penalty(self):
        with pytest.raises(ValueError):
            TransientFault(at=0, duration=10, snr_penalty_db=-1.0)

    def test_permanent_kind_checked(self):
        with pytest.raises(ValueError):
            PermanentFault(at=0, target=None, kind="gremlins")

    def test_trim_drift_needs_magnitude(self):
        with pytest.raises(ValueError):
            PermanentFault(at=0, target=None, kind="trim_drift")
        PermanentFault(at=0, target=None, kind="trim_drift", drift_db=3.0)
