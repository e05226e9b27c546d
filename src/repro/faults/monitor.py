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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.core.faults import UnroutableError
from repro.faults.linklayer import FaultLayer

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.links import Link
    from repro.noc.simulator import Simulator


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
    ) -> None:
        counts = {"epoch_cycles": epoch_cycles, "timeout_threshold": timeout_threshold,
                  "patience": patience, "min_attempts": min_attempts}
        for name, value in counts.items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not 0.0 < corruption_threshold <= 1.0:
            raise ValueError("corruption_threshold must be in (0, 1]")
        self.layer = layer
        self.routing = routing
        self.reconfig = reconfig
        self.epoch_cycles = epoch_cycles
        self.timeout_threshold = timeout_threshold
        self.corruption_threshold = corruption_threshold
        self.patience = patience
        self.min_attempts = min_attempts
        self.audit = audit

        self.epochs = 0
        #: Failover log: (cycle, link name, cluster pair or None).
        self.failovers: List[Tuple[int, str, Optional[Tuple[int, int]]]] = []
        self._snap: Dict["Link", Tuple[int, int]] = {}
        self._strikes: Dict["Link", int] = {}
        #: Links visited every epoch until their verdict state clears.
        self._watch: Set["Link"] = set()
        self._rank = {link: i for i, link in enumerate(layer.protected)}

    # ------------------------------------------------------------------ #

    def __call__(self, sim: "Simulator") -> None:
        if sim.now == 0 or sim.now % self.epoch_cycles != 0:
            return
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
        """Next epoch boundary (a scheduled fast-forward wake source).

        The clock may skip quiescent stretches but must step every epoch
        boundary, where :meth:`__call__` classifies channels.
        """
        if now <= 0:
            return self.epoch_cycles
        if now % self.epoch_cycles == 0:
            return now
        return (now // self.epoch_cycles + 1) * self.epoch_cycles

    def notice_recovery(self, link: "Link") -> None:
        """Reset health state after a control plane un-fails ``link``.

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
        return True

    def summary(self) -> Dict[str, object]:
        return {
            "epochs": self.epochs,
            "failovers": list(self.failovers),
            "channels_watched": len(self.layer.protected),
        }
