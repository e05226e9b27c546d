"""Test-only reference behaviours the production simulator no longer has.

Each context manager below patches one scheduling shortcut out of the
production simulator; :func:`naive_schedule` patches out all four. A run
under any of them must be bit-identical to a production run -- the
shortcuts may only save work, never change a result.
:class:`RoundRobinArbiter` is the arbiter the switch allocator inlines.
"""

from contextlib import contextmanager
from typing import Optional, Sequence

import numpy as np

from repro.faults.linklayer import FaultLayer
from repro.faults.monitor import HealthMonitor
from repro.noc.invariants import audit_network
from repro.noc.packet import Packet
from repro.noc.simulator import Simulator
from repro.traffic.patterns import TrafficPattern
from repro.utils.rng import RngStreams


class RoundRobinArbiter:
    """Rotating-priority arbiter over ``n`` requesters, as a scan.

    After a grant, priority moves to the requester *after* the winner, which
    yields strong fairness (every continuously-requesting input is served
    within ``n`` grants). The switch allocator (``KernelState.sa_sweep`` and
    ``Router.stage_sa``) computes the same grant in closed form over
    ``KernelState.in_ptr`` / ``out_ptr``; this is the definition it is
    checked against.
    """

    __slots__ = ("n", "_next")

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"arbiter needs >= 1 requesters, got {n}")
        self.n = n
        self._next = 0

    def grant(self, requests: Sequence[bool]) -> Optional[int]:
        """Return the granted requester index, or ``None`` if none request.

        ``requests`` must have length ``n``; entry ``i`` is truthy when
        requester ``i`` wants the resource this cycle.
        """
        if len(requests) != self.n:
            raise ValueError(f"expected {self.n} request lines, got {len(requests)}")
        for offset in range(self.n):
            idx = (self._next + offset) % self.n
            if requests[idx]:
                self._next = (idx + 1) % self.n
                return idx
        return None


class PerCycleBernoulliTraffic:
    """Every core flips a Bernoulli(p) coin every cycle: the model, literally.

    ``SyntheticTraffic`` drew its packets this way until it became an
    arrival clock (Geometric(p) inter-arrival gaps: the same process with a
    different mapping from seed to sample path). This is the oracle the
    clock is compared against distributionally; it is never optimised. It
    has no ``next_injection_cycle``, so a simulator steps every cycle of it.
    """

    def __init__(self, n_cores, pattern, injection_rate, packet_size_flits=4, seed=1):
        self.n_cores = n_cores
        self.pattern = TrafficPattern.resolve(pattern, n_cores)
        if not (self.pattern.is_permutation or self.pattern.name == "UN"):
            raise ValueError(f"the oracle draws uniform or permutation traffic, not {pattern}")
        self.packet_size_flits = packet_size_flits
        self._p_start = injection_rate / packet_size_flits
        self._rng = RngStreams(seed).get("traffic", self.pattern.name)

    def tick(self, now):
        draws = self._rng.random(self.n_cores)
        sources = np.nonzero(draws < self._p_start)[0].tolist()
        if self.pattern.is_permutation:
            dsts = [self.pattern.fixed_destination(src) for src in sources]
        else:  # one vector draw of uniform destinations per cycle
            dsts = self._rng.integers(0, self.n_cores, size=len(sources)).tolist()
        return [
            Packet(src, dst, self.packet_size_flits, now)
            for src, dst in zip(sources, dsts)
            if src != dst
        ]


@contextmanager
def step_every_cycle():
    """Never fast-forward: the simulator is never quiescent, and every
    stepped cycle ticks the traffic source.

    Production jumps the clock over a quiescent stretch to the next wake
    source, and a stepped cycle ticks the source only when its arrival
    clock is due. This patch makes every cycle look busy and every cycle
    due, so ``run`` and ``drain`` step each one and tick it. A skipped
    cycle or tick is a no-op, so a run under this patch must be
    bit-identical to a production run -- unless production jumped over a
    wake source or an arrival.
    """
    quiescent = Simulator._quiescent
    next_arrival = Simulator._next_arrival
    Simulator._quiescent = lambda sim: False
    Simulator._next_arrival = lambda sim, start: start
    try:
        yield
    finally:
        Simulator._quiescent = quiescent
        Simulator._next_arrival = next_arrival


@contextmanager
def poll_every_cycle():
    """Re-examine every waiting head in every VCA phase.

    Production VC allocation is event-driven: an endpoint is examined only
    after one of its VCs became free and funded (``Endpoint.wake``). This
    is the per-cycle polling it replaced, kept as the reference: at the end of
    every cycle wake every endpoint holding requests, so the next VCA phase
    serves every queue again. A failed examination has no side effects, so
    a run under this patch must be bit-identical to a production run --
    unless production missed a wake-up.
    """
    step = Simulator.step

    def polled_step(sim):
        moved = step(sim)
        for router in sim.network.routers:
            for endpoint in router.input_endpoints:
                if endpoint.requests:
                    endpoint.wake()
        return moved

    Simulator.step = polled_step
    try:
        yield
    finally:
        Simulator.step = step


@contextmanager
def service_every_protocol_link():
    """Service every link holding link-layer state, every cycle.

    Production services a link that holds only un-ACKed replay entries at
    its timeout deadline, not in between. This is the rule it replaced:
    every link with a replay entry joins the per-cycle set before each
    tick. Servicing a link with nothing due is a no-op, so a run under this
    patch must be bit-identical to a production run -- unless production
    skipped a deadline or a back-pressure stall.
    """
    tick = FaultLayer.tick

    def every_link_tick(layer, sim, now):
        layer._active.update(link for link, entries in layer._replay.items() if entries)
        return tick(layer, sim, now)

    FaultLayer.tick = every_link_tick
    try:
        yield
    finally:
        FaultLayer.tick = tick


@contextmanager
def classify_every_link():
    """The health monitor's epoch as it was: classify every protected link.

    Production visits only the links the layer marked since the last epoch
    plus those it watches. This is the full loop over ``layer.protected``
    it replaced; an unvisited link gets no verdict, so runs must agree.
    """
    classify = HealthMonitor._classify

    def every_link(monitor, sim):
        monitor.epochs += 1
        for link, state in monitor.layer.protected.items():
            if state.failed_over:
                continue
            prev_attempts, prev_corrupt = monitor._snap.get(link, (0, 0))
            attempts = state.attempts - prev_attempts
            corrupt = state.corrupt_attempts - prev_corrupt
            monitor._snap[link] = (state.attempts, state.corrupt_attempts)
            noisy = (
                attempts >= monitor.min_attempts
                and corrupt / attempts >= monitor.corruption_threshold
            )
            monitor._strikes[link] = monitor._strikes.get(link, 0) + 1 if noisy else 0
            silent = state.consecutive_failures >= monitor.timeout_threshold
            if silent or monitor._strikes[link] >= monitor.patience:
                monitor.fail_over(sim, link)
        if monitor.audit:
            audit_network(sim)

    HealthMonitor._classify = every_link
    try:
        yield
    finally:
        HealthMonitor._classify = classify


@contextmanager
def naive_schedule():
    """Every scheduling shortcut off at once: step every cycle, poll every
    waiting head, service every protocol link, classify every link.

    The one reference that equivalence tests compare production to. When
    one disagrees, wrap the run in the four parts one at a time to find
    the shortcut that lost something.
    """
    with step_every_cycle(), poll_every_cycle(), service_every_protocol_link(), \
            classify_every_link():
        yield
