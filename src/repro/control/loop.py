"""The control loop: recover, repair, log.

:class:`ControlLoop` is a :meth:`Simulator.add_hook` end-of-cycle hook
(its ``next_wake`` epoch schedule makes idle fast-forward step every
decision boundary) riding on the open-loop plant: the
:class:`~repro.core.reconfig.ReconfigurationController` places the spares
by utilisation and the health monitor fails channels over. Each control
epoch the loop:

1. **recovers** -- probes failed-over channels and returns healed ones to
   service once ``probe_ok_needed`` consecutive probes pass (the probe is
   a single control packet on the dedicated ``("control", "probe", link)``
   RNG stream: it never perturbs traffic or fault-layer streams);
2. **repairs pins** -- retries failover pins that previously failed
   (exponential epoch backoff, bounded attempts), and evicts pins whose
   spare hardware is itself dead (graceful degradation onto relays).

Every actuation lands in the :class:`~repro.control.decisions.DecisionLog`
and (when a tracer is attached) a ``control`` trace event. All decisions
are pure functions of counters + the dedicated RNG, so a spec's decision
log is byte-stable with or without fast-forward, serial or parallel.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, TYPE_CHECKING

from repro.control.decisions import DecisionLog
from repro.utils.rng import RngStreams

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.links import Link
    from repro.noc.simulator import Simulator

Pair = Tuple[int, int]


class _PinRetry:
    """Backoff state for one pair whose spare pin keeps failing."""

    __slots__ = ("attempts", "next_epoch", "given_up")

    def __init__(self) -> None:
        self.attempts = 0
        self.next_epoch = 0
        self.given_up = False


class ControlLoop:
    """Deterministic epoch-driven recovery for failed-over channels.

    Parameters
    ----------
    routing:
        A :class:`~repro.core.faults.FaultTolerantOwn256Routing` (the
        :class:`~repro.core.faults.RelayRouting` fault set plus spares).
    reconfig:
        The :class:`~repro.core.reconfig.ReconfigurationController`; the
        loop unpins recovered pairs and repairs failover pins, and the
        controller keeps placing the spares itself.
    layer:
        Optional :class:`~repro.faults.linklayer.FaultLayer`; without one
        (fault-free run) the probe/recovery path is inert.
    monitor:
        Optional :class:`~repro.faults.monitor.HealthMonitor`, informed
        after recoveries so stale counters cannot re-condemn a channel.
    epoch_cycles:
        Decision interval.
    probe_ok_needed, probe_size_flits:
        Consecutive successful probes required to un-fail a channel, and
        the modelled probe-packet size for the CRC-success odds.
    retry_base_epochs, retry_cap_epochs, max_pin_attempts:
        Failover-pin retry schedule: the n-th retry waits
        ``min(cap, base * 2**(n-1))`` epochs; after ``max_pin_attempts``
        the pair is abandoned to relay routes.
    rng:
        Dedicated :class:`RngStreams` for probe outcomes.
    """

    def __init__(
        self,
        routing,
        reconfig,
        layer=None,
        monitor=None,
        epoch_cycles: int = 250,
        probe_ok_needed: int = 2,
        probe_size_flits: int = 1,
        retry_base_epochs: int = 1,
        retry_cap_epochs: int = 8,
        max_pin_attempts: int = 5,
        rng: Optional[RngStreams] = None,
    ) -> None:
        if epoch_cycles < 1:
            raise ValueError(f"epoch_cycles must be >= 1, got {epoch_cycles}")
        if probe_ok_needed < 1:
            raise ValueError("probe_ok_needed must be >= 1")
        self.routing = routing
        self.reconfig = reconfig
        self.layer = layer
        self.monitor = monitor
        self.epoch_cycles = epoch_cycles
        self.probe_ok_needed = probe_ok_needed
        self.probe_size_flits = probe_size_flits
        self.retry_base_epochs = retry_base_epochs
        self.retry_cap_epochs = retry_cap_epochs
        self.max_pin_attempts = max_pin_attempts
        self.rng = rng or RngStreams(0)
        self.log = DecisionLog()

        # Mirror the controller's drain state machine into the decision
        # log: every phase transition (install / drain_start /
        # drain_complete / drain_timeout / drain_cancel / revoke / escape)
        # lands as a ``spare_*`` record, so the byte-stable CRC gate also
        # covers two-phase re-assignment behaviour.
        reconfig.on_transition = self._on_drain_transition
        self.epochs = 0
        self.recovered_channels = 0
        self._probe_ok: Dict["Link", int] = {}
        self._pin_retry: Dict[Pair, _PinRetry] = {}
        self._pair_of_link: Dict["Link", Pair] = {
            link: pair for pair, link in reconfig.primary_links.items()
        }

    # ------------------------------------------------------------------ #
    # Scheduling protocol (see Simulator.add_hook)
    # ------------------------------------------------------------------ #

    def next_wake(self, now: int) -> int:
        if now <= 0:
            return self.epoch_cycles
        if now % self.epoch_cycles == 0:
            return now
        return (now // self.epoch_cycles + 1) * self.epoch_cycles

    def _spare_healthy(self, pair: Pair) -> bool:
        """Is the spare D->D hardware for ``pair`` usable right now?"""
        link = self.reconfig.spare_links.get(pair)
        if link is None:
            return False
        state = getattr(link, "fault", None)
        return state is None or not (state.dead or state.failed_over)

    # ------------------------------------------------------------------ #
    # The epoch step
    # ------------------------------------------------------------------ #

    def __call__(self, sim: "Simulator") -> None:
        if sim.now <= 0 or sim.now % self.epoch_cycles != 0:
            return
        self.epochs += 1
        now = sim.now
        self._probe_failed_channels(sim, now)
        self._evict_faulty_pins(sim, now)
        self._retry_pins(sim, now)

    # ---------------- recovery: probe + unfail ---------------- #

    def _probe_failed_channels(self, sim: "Simulator", now: int) -> None:
        if self.layer is None:
            return
        flit_bits = self.layer.network.flit_width_bits
        for link in sorted(self.layer.protected, key=lambda l: l.name):
            state = link.fault
            if not state.failed_over:
                continue
            pair = self._pair_of_link.get(link)
            if pair is None:
                continue  # spare hardware heals via _evict_faulty_pins
            if state.dead:
                ok = False
            else:
                p_err = state.attempt_error_prob(flit_bits, self.probe_size_flits)
                if p_err <= 0.0:
                    ok = True
                elif p_err >= 1.0:
                    ok = False
                else:
                    ok = self.rng.get("control", "probe", link.name).random() >= p_err
            streak = self._probe_ok.get(link, 0) + 1 if ok else 0
            self._probe_ok[link] = streak
            self._emit(sim, now, "probe", link=link.name, pair=pair, ok=ok,
                       streak=streak)
            if streak >= self.probe_ok_needed:
                self._recover_channel(sim, link, pair, now)

    def _recover_channel(self, sim: "Simulator", link: "Link", pair: Pair,
                         now: int) -> None:
        self.layer.unquiesce_link(link, now)
        self.routing.unfail_channel(*pair)
        self.reconfig.unpin(pair)
        self._pin_retry.pop(pair, None)
        if self.monitor is not None:
            self.monitor.notice_recovery(link)
        self._probe_ok.pop(link, None)
        self.recovered_channels += 1
        sim.stats.channels_recovered += 1
        self._emit(sim, now, "unfail", link=link.name, pair=pair)

    # ---------------- placement repair: pins ---------------- #

    def _evict_faulty_pins(self, sim: "Simulator", now: int) -> None:
        """Unpin failover spares whose own hardware died (a pinned spare
        that silently eats traffic into the recovery path is a livelock:
        recovered packets would re-route straight back onto it). A pin
        whose pair has no live relay left is kept -- churning through the
        dead spare's recovery path at least keeps packets in the system,
        where unpinning would make the pair unroutable."""
        for pair in list(self.reconfig.pinned):
            if self._spare_healthy(pair):
                continue
            if pair in self.routing.failed_pairs and not self.routing.has_relay(pair):
                continue
            self.reconfig.unpin(pair)
            retry = self._pin_retry.setdefault(pair, _PinRetry())
            retry.attempts += 1
            retry.next_epoch = self.epochs + self._backoff_epochs(retry.attempts)
            self._emit(sim, now, "unpin_faulty", pair=pair,
                       attempts=retry.attempts)

    def _backoff_epochs(self, attempts: int) -> int:
        return min(self.retry_cap_epochs,
                   self.retry_base_epochs * (1 << (attempts - 1)))

    def _retry_pins(self, sim: "Simulator", now: int) -> None:
        """Bounded retry-with-backoff for failed pairs without a spare."""
        for pair in sorted(self.routing.failed_pairs):
            if pair in self.reconfig.pinned:
                continue
            retry = self._pin_retry.setdefault(pair, _PinRetry())
            if retry.given_up or self.epochs < retry.next_epoch:
                continue
            if self._spare_healthy(pair):
                try:
                    self.reconfig.pin(pair)
                except ValueError:
                    pass
                else:
                    self._pin_retry.pop(pair, None)
                    self._emit(sim, now, "pin", pair=pair,
                               attempts=retry.attempts + 1)
                    continue
            retry.attempts += 1
            if retry.attempts >= self.max_pin_attempts:
                retry.given_up = True
                self._emit(sim, now, "pin_giveup", pair=pair,
                           attempts=retry.attempts)
            else:
                retry.next_epoch = self.epochs + self._backoff_epochs(retry.attempts)
                self._emit(sim, now, "pin_retry", pair=pair,
                           attempts=retry.attempts,
                           next_epoch=retry.next_epoch)

    # ------------------------------------------------------------------ #
    # Logging + reporting
    # ------------------------------------------------------------------ #

    def _emit(self, sim: "Simulator", now: int, action: str, **detail) -> None:
        record = self.log.append(now, self.epochs, action, **detail)
        tracer = sim._tracer
        if tracer is not None:
            tracer.on_control(action, record, now)

    def _on_drain_transition(self, record: Dict[str, object]) -> None:
        """Fold a controller phase-transition record into the decision log.

        Transitions can fire outside the loop's own epoch step (the
        controller advances drains on its per-cycle clock), so this only
        appends to the log -- no tracer event, no simulator access.
        """
        detail = {k: v for k, v in record.items() if k not in ("cycle", "event")}
        self.log.append(record["cycle"], self.epochs,
                        f"spare_{record['event']}", **detail)

    def summary_metrics(self) -> Dict[str, float]:
        """Flat floats folded into the run-record summary (diff-gated)."""
        return {
            "control_epochs": float(self.epochs),
            "control_decisions": float(len(self.log)),
            "control_log_crc": float(self.log.crc()),
            "channels_recovered_ctl": float(self.recovered_channels),
        }

    def meta_payload(self) -> Dict[str, object]:
        """The decision log + loop state for ``RunResult.meta['control']``."""
        return {
            "epochs": self.epochs,
            "recovered_channels": self.recovered_channels,
            "log": self.log.summary(),
            "decisions": list(self.log.records),
        }
