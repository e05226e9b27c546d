"""Fault models: per-link channel health and the fault-event taxonomy.

The paper's wireless and photonic channels are engineered to *close* -- the
link budget (:mod:`repro.rf.budget`) provisions TX power so the detection
SNR meets the OOK BER target with margin. This module models what happens
when physics stops cooperating:

* **transient faults** -- interference bursts / SNR dips that subtract from
  the provisioned margin for a bounded window, raising the per-bit error
  probability according to the calibrated OOK waterfall
  (:func:`repro.rf.ook.ook_ber`);
* **permanent faults** -- transceiver death (the link goes silent: flits
  are lost, not corrupted) and photonic trimming drift (a permanent dB
  penalty on the optical power budget, i.e. a higher residual BER).

A healthy link (no penalty, alive) has error probability exactly 0.0: the
nominal channel closes at BER <= 1e-9, unobservable at simulation
timescales, and modelling it as ideal keeps the retransmission protocol
bit-exact transparent on fault-free runs (no RNG draws, no behaviour
change).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.rf.budget import LinkBudget
from repro.rf.ook import ook_ber

#: Attempt fates returned by ``FaultLayer.note_send`` and carried by every
#: in-flight flit of the attempt (the simulator's flit-ring entries).
CORRUPT = "corrupt"
LOST = "lost"


def flit_error_probability(ber: float, flit_bits: int) -> float:
    """Probability that a flit of ``flit_bits`` bits has >= 1 bit error."""
    if ber <= 0.0:
        return 0.0
    if ber >= 1.0:
        return 1.0
    return 1.0 - (1.0 - ber) ** flit_bits


class LinkFaultState:
    """Mutable channel-health state attached to a protected link.

    The *effective* SNR is ``nominal_snr_db - snr_penalty_db``; penalties
    accumulate from active transient bursts and permanent trimming drift.
    With zero penalty the channel is ideal (error probability 0.0, see
    module docstring), so the state is pure bookkeeping until a fault
    event touches it.

    Parameters
    ----------
    nominal_snr_db:
        Detection SNR of the healthy channel. Defaults to the link budget's
        provisioned operating point ``snr_required_db + margin_db``.
    forced_flit_error_prob:
        Test hook: when set, the per-flit error probability bypasses the
        SNR model entirely.
    """

    __slots__ = (
        "nominal_snr_db",
        "snr_penalty_db",
        "dead",
        "failed_over",
        "forced_flit_error_prob",
        "attempts",
        "corrupt_attempts",
        "lost_attempts",
        "crc_drop_flits",
        "retransmissions",
        "timeouts",
        "acks",
        "nacks",
        "recovered",
        "consecutive_failures",
    )

    def __init__(
        self,
        nominal_snr_db: Optional[float] = None,
        budget: Optional[LinkBudget] = None,
    ) -> None:
        if nominal_snr_db is None:
            budget = budget or LinkBudget()
            nominal_snr_db = budget.snr_required_db + budget.margin_db
        self.nominal_snr_db = nominal_snr_db
        self.snr_penalty_db = 0.0
        self.dead = False
        #: Set by the health monitor once the channel is logically retired;
        #: the link layer then short-circuits recovery instead of retrying.
        self.failed_over = False
        self.forced_flit_error_prob: Optional[float] = None
        # Protocol counters (per link; global aggregates in StatsCollector).
        self.attempts = 0
        self.corrupt_attempts = 0
        self.lost_attempts = 0
        self.crc_drop_flits = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.acks = 0
        self.nacks = 0
        self.recovered = 0
        self.consecutive_failures = 0

    @property
    def effective_snr_db(self) -> float:
        return self.nominal_snr_db - self.snr_penalty_db

    def bit_error_rate(self) -> float:
        """Effective BER; exactly 0.0 for a healthy (penalty-free) channel."""
        if self.snr_penalty_db <= 0.0:
            return 0.0
        return ook_ber(self.effective_snr_db)

    def flit_error_prob(self, flit_bits: int) -> float:
        if self.forced_flit_error_prob is not None:
            return self.forced_flit_error_prob
        return flit_error_probability(self.bit_error_rate(), flit_bits)

    def attempt_error_prob(self, flit_bits: int, size_flits: int) -> float:
        p_flit = self.flit_error_prob(flit_bits)
        if p_flit <= 0.0:
            return 0.0
        return 1.0 - (1.0 - p_flit) ** size_flits


# --------------------------------------------------------------------- #
# Fault events (the schedulable taxonomy)
# --------------------------------------------------------------------- #

#: Event targets: a link name, a link kind ("wireless"/"photonic"), or a
#: sequence of link names. ``None`` targets every protected link.
Target = Union[None, str, Sequence[str]]


@dataclass(frozen=True)
class TransientFault:
    """An SNR dip / interference burst over ``[at, at + duration)``.

    ``snr_penalty_db`` is subtracted from the targeted links' margins for
    the duration; overlapping bursts stack.
    """

    at: int
    duration: int
    snr_penalty_db: float
    target: Target = None

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ValueError(f"burst duration must be >= 1 cycle, got {self.duration}")
        if self.snr_penalty_db <= 0.0:
            raise ValueError("burst snr_penalty_db must be positive")


@dataclass(frozen=True)
class PermanentFault:
    """An unrecoverable hardware fault taking effect at cycle ``at``.

    ``kind="transceiver_death"`` silences the link: every subsequent flit
    is lost in flight (no NACK -- the sender must time out).
    ``kind="trim_drift"`` models photonic micro-ring trimming drift as a
    permanent ``drift_db`` penalty on the optical budget.
    """

    at: int
    target: Target
    kind: str = "transceiver_death"
    drift_db: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("transceiver_death", "trim_drift"):
            raise ValueError(f"unknown permanent fault kind {self.kind!r}")
        if self.kind == "trim_drift" and self.drift_db <= 0.0:
            raise ValueError("trim_drift needs a positive drift_db")


FaultEvent = Union[TransientFault, PermanentFault]
