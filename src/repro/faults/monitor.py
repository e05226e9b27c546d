"""Online channel-health monitoring and live failover.

The :class:`HealthMonitor` is a :meth:`Simulator.add_hook` end-of-cycle
hook that watches the per-link protocol counters the
:class:`~repro.faults.linklayer.FaultLayer` maintains. On each epoch
boundary it classifies the protected channels:

* **persistently silent** -- ``consecutive_failures`` (NACKs/timeouts with
  no intervening ACK) at or above ``timeout_threshold``: the transceiver is
  presumed dead;
* **persistently noisy** -- the epoch's corrupt-attempt fraction at or
  above ``corruption_threshold`` for ``patience`` consecutive epochs: the
  channel is burning more bandwidth on retries than it delivers.

Only channels that moved are visited, in ``layer.protected`` order: those
the layer marked (an attempt, NACK or timeout since the last epoch) plus
those the monitor watches (non-zero strikes, silent, or failed over). Any
other channel provably gets no verdict (see ``docs/fault-tolerance.md``).

Either verdict triggers a live failover: the channel's cluster pair is
marked failed in :class:`repro.core.faults.FaultTolerantOwn256Routing`
(new packets immediately take relay routes), a spare reconfiguration
channel is pinned to the pair when one is feasible
(:meth:`repro.core.reconfig.ReconfigurationController.pin`), and the link
layer quiesces the channel -- stranded packets re-enter the network and
re-route (see :meth:`FaultLayer.quiesce_link`). The network invariant
audit (:func:`repro.noc.invariants.audit_network`) optionally runs every
epoch so any bookkeeping violation surfaces at the epoch it happens.

With ``recover=True`` the monitor also runs the inverse arc, on the
reconfiguration controller's epoch, after that cycle's classification:

* each failed-over channel, in link-name order, is probed with one modelled
  single-flit control packet on the dedicated ``("control", "probe",
  link)`` RNG stream (seed :data:`PROBE_SEED`), so probing never perturbs
  traffic or fault-layer streams;
* after :data:`PROBE_OK_NEEDED` consecutive clean probes the link is
  un-quiesced, its pair un-failed, its spare unpinned and the monitor's own
  counters reset (:meth:`notice_recovery`);
* the freed D antennas are offered once, in sorted order, to failed pairs
  still without a pin: a pin the D-antenna constraint refused can only
  become feasible when a recovery unpins.

Every decision, plus each of the controller's ``spare_*`` drain
transitions, is appended to :attr:`HealthMonitor.decisions` as a JSON-safe
record whose canonical CRC is the run's ``control_log_crc``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.core.faults import UnroutableError
from repro.core.reconfig import canonical_crc, epoch_wake
from repro.faults.linklayer import FaultLayer
from repro.utils.rng import ScalarStreams

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.links import Link
    from repro.noc.simulator import Simulator

Pair = Tuple[int, int]

#: Consecutive clean probes that return a failed-over channel to service.
PROBE_OK_NEEDED = 2
#: Seed of the probe RNG, whose streams are ``("control", "probe", link)``.
PROBE_SEED = 23


class HealthMonitor:
    """Epoch-based failure detector driving online failover.

    Parameters
    ----------
    layer:
        The fault layer whose per-link counters to watch.
    routing:
        A :class:`~repro.core.faults.RelayRouting` (its ``fail_channel``
        and ``pair_of_channel``). ``None`` disables network-layer failover:
        the link layer keeps masking faults by retransmission alone.
    reconfig:
        Optional :class:`~repro.core.reconfig.ReconfigurationController`;
        failed pairs get a spare channel pinned when feasible.
    epoch_cycles:
        Health-classification window.
    timeout_threshold:
        ``consecutive_failures`` needed to declare a channel dead.
    corruption_threshold, patience:
        A channel whose corrupt-attempt fraction is >= the threshold for
        ``patience`` consecutive epochs (with at least ``min_attempts``
        attempts each) is declared dead.
    audit:
        Run the full invariant audit on every epoch boundary.
    recover:
        Also probe failed-over channels back to service on ``reconfig``'s
        epoch (requires ``routing`` and ``reconfig``).
    """

    def __init__(
        self,
        layer: FaultLayer,
        routing: Optional[object] = None,
        reconfig: Optional[object] = None,
        epoch_cycles: int = 200,
        timeout_threshold: int = 3,
        corruption_threshold: float = 0.5,
        patience: int = 2,
        min_attempts: int = 4,
        audit: bool = True,
        recover: bool = False,
    ) -> None:
        counts = {"epoch_cycles": epoch_cycles, "timeout_threshold": timeout_threshold,
                  "patience": patience, "min_attempts": min_attempts}
        for name, value in counts.items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not 0.0 < corruption_threshold <= 1.0:
            raise ValueError("corruption_threshold must be in (0, 1]")
        if recover and (routing is None or reconfig is None):
            raise ValueError("recover=True needs routing and a reconfiguration controller")
        self.layer = layer
        self.routing = routing
        self.reconfig = reconfig
        self.epoch_cycles = epoch_cycles
        self.timeout_threshold = timeout_threshold
        self.corruption_threshold = corruption_threshold
        self.patience = patience
        self.min_attempts = min_attempts
        self.audit = audit
        self.recover = recover

        self.epochs = 0
        #: Failover log: (cycle, link name, cluster pair or None).
        self.failovers: List[Tuple[int, str, Optional[Pair]]] = []
        #: Links currently failed over, with their cluster pairs.
        self._failed_over: Dict["Link", Pair] = {}
        self._snap: Dict["Link", Tuple[int, int]] = {}
        self._strikes: Dict["Link", int] = {}
        #: Links visited every epoch until their verdict state clears.
        self._watch: Set["Link"] = set()
        self._rank = {link: i for i, link in enumerate(layer.protected)}

        #: Recovery epochs stepped and the decision log (``recover`` only).
        self.recovery_epochs = 0
        self.decisions: List[Dict[str, object]] = []
        self._probe_ok: Dict["Link", int] = {}
        self._probe_rngs = ScalarStreams(PROBE_SEED, "control", "probe")
        if recover:
            reconfig.on_transition = self._log_transition

    # ------------------------------------------------------------------ #

    def __call__(self, sim: "Simulator") -> None:
        now = sim.now
        if now == 0:
            return
        if now % self.epoch_cycles == 0:
            self._classify(sim)
        if self.recover and now % self.reconfig.epoch_cycles == 0:
            self._probe(sim)

    def _classify(self, sim: "Simulator") -> None:
        self.epochs += 1
        marked = self.layer.marked
        visit = marked | self._watch
        marked.clear()
        self._watch = watch = set()
        for link in sorted(visit, key=self._rank.__getitem__):
            state = link.fault
            if state.failed_over:
                watch.add(link)
                continue
            prev_attempts, prev_corrupt = self._snap.get(link, (0, 0))
            attempts = state.attempts - prev_attempts
            corrupt = state.corrupt_attempts - prev_corrupt
            self._snap[link] = (state.attempts, state.corrupt_attempts)
            noisy = (
                attempts >= self.min_attempts
                and corrupt / attempts >= self.corruption_threshold
            )
            strikes = self._strikes[link] = self._strikes.get(link, 0) + 1 if noisy else 0
            silent = state.consecutive_failures >= self.timeout_threshold
            if silent or strikes >= self.patience:
                self.fail_over(sim, link)
            if strikes or silent or state.failed_over:
                watch.add(link)
        if self.audit:
            from repro.noc.invariants import audit_network

            audit_network(sim)

    def next_wake(self, now: int) -> int:
        """Next classification or recovery epoch boundary."""
        wake = epoch_wake(now, self.epoch_cycles)
        if self.recover:
            wake = min(wake, epoch_wake(now, self.reconfig.epoch_cycles))
        return wake

    def notice_recovery(self, link: "Link") -> None:
        """Reset health state after ``link`` returns to service.

        Clears the noisy-epoch strike count and re-snapshots the attempt
        counters so stale deltas from before the outage cannot re-condemn
        a channel that just returned to service.
        """
        state = self.layer.protected[link]
        self._strikes[link] = 0
        self._snap[link] = (state.attempts, state.corrupt_attempts)

    # ------------------------------------------------------------------ #

    def fail_over(self, sim: "Simulator", link: "Link") -> bool:
        """Retire ``link``; returns False when no reroute exists.

        Without a reroute (photonic links, spare channels, or a failure
        pattern that would partition the cluster graph) the channel is left
        in place and the link layer keeps retrying -- degraded service
        beats dropped packets.
        """
        if self.routing is None or link.kind != "wireless":
            return False
        pair = self.routing.pair_of_channel.get(link.channel_id)
        if pair is None:
            return False  # a spare: no primary pair to fail
        try:
            self.routing.fail_channel(*pair)
        except UnroutableError:
            return False  # failing this channel would strand some pair
        if self.reconfig is not None:
            try:
                self.reconfig.pin(pair)
            except ValueError:
                pass  # no feasible spare left; relay routes still carry it
        self.layer.quiesce_link(link, sim.now)
        sim.stats.channels_failed_over += 1
        self.failovers.append((sim.now, link.name, pair))
        self._failed_over[link] = pair
        return True

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #

    def _probe(self, sim: "Simulator") -> None:
        self.recovery_epochs += 1
        flit_bits = self.layer.network.flit_width_bits
        for link in sorted(self._failed_over, key=lambda l: l.name):
            pair = self._failed_over[link]
            state = link.fault
            p_err = 1.0 if state.dead else state.attempt_error_prob(flit_bits, 1)
            ok = p_err <= 0.0 or (
                p_err < 1.0
                and self._probe_rngs[link.name].random() >= p_err
            )
            streak = self._probe_ok.get(link, 0) + 1 if ok else 0
            self._probe_ok[link] = streak
            self._decide(sim, "probe", link=link.name, pair=list(pair), ok=ok, streak=streak)
            if streak >= PROBE_OK_NEEDED:
                self._recover(sim, link, pair)

    def _recover(self, sim: "Simulator", link: "Link", pair: Pair) -> None:
        self.layer.unquiesce_link(link, sim.now)
        self.routing.unfail_channel(*pair)
        self.reconfig.unpin(pair)
        self.notice_recovery(link)
        del self._failed_over[link], self._probe_ok[link]
        sim.stats.channels_recovered += 1
        self._decide(sim, "unfail", link=link.name, pair=list(pair))
        for other in sorted(self.routing.failed_pairs.difference(self.reconfig.pinned)):
            try:
                self.reconfig.pin(other)
            except ValueError:
                continue  # still blocked by another pinned pair
            self._decide(sim, "pin", pair=list(other))

    def _decide(self, sim: "Simulator", action: str, **detail: object) -> None:
        record = {"cycle": sim.now, "epoch": self.recovery_epochs, "action": action, **detail}
        self.decisions.append(record)
        if sim._tracer is not None:
            sim._tracer.on_control(action, record, sim.now)

    def _log_transition(self, record: Dict[str, object]) -> None:
        """Mirror a controller phase transition as a ``spare_*`` decision.

        Transitions fire on the controller's own clock, outside the recovery
        step, so they only append: no trace event.
        """
        detail = {k: v for k, v in record.items() if k not in ("cycle", "event")}
        self.decisions.append(
            {"cycle": record["cycle"], "epoch": self.recovery_epochs,
             "action": f"spare_{record['event']}", **detail}
        )  # fmt: skip

    def summary(self) -> Dict[str, object]:
        return {
            "epochs": self.epochs,
            "failovers": list(self.failovers),
            "channels_watched": len(self.layer.protected),
        }

    def summary_metrics(self) -> Dict[str, float]:
        """Flat recovery metrics for run summaries (none without ``recover``)."""
        if not self.recover:
            return {}
        return {
            "control_epochs": float(self.recovery_epochs),
            "control_decisions": float(len(self.decisions)),
            "control_log_crc": float(canonical_crc(self.decisions)),
            "channels_recovered_ctl": float(self.layer.sim.stats.channels_recovered),
        }

    def meta_payload(self) -> Dict[str, object]:
        """The decision log for ``RunResult.meta["control"]``."""
        actions = Counter(record["action"] for record in self.decisions)
        return {
            "epochs": self.recovery_epochs,
            "recovered_channels": self.layer.sim.stats.channels_recovered,
            "log": {
                "decisions": len(self.decisions),
                "crc": canonical_crc(self.decisions),
                "actions": dict(sorted(actions.items())),
            },
            "decisions": list(self.decisions),
        }
