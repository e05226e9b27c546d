"""Test-only reference behaviours the production simulator no longer has."""

from contextlib import contextmanager

import numpy as np

from repro.noc.packet import Packet
from repro.noc.simulator import Simulator
from repro.traffic.patterns import TrafficPattern
from repro.utils.rng import RngStreams


class PerCycleBernoulliTraffic:
    """Every core flips a Bernoulli(p) coin every cycle: the model, literally.

    ``SyntheticTraffic`` drew its packets this way until it became an
    arrival clock (Geometric(p) inter-arrival gaps: the same process with a
    different mapping from seed to sample path). This is the oracle the
    clock is compared against distributionally; it is never optimised. It
    has no ``next_injection_cycle``, so a simulator steps it densely.
    """

    def __init__(self, n_cores, pattern, injection_rate, packet_size_flits=4, seed=1):
        self.n_cores = n_cores
        self.pattern = TrafficPattern.resolve(pattern, n_cores)
        self.packet_size_flits = packet_size_flits
        self._p_start = injection_rate / packet_size_flits
        self._rng = RngStreams(seed).get("traffic", self.pattern.name)

    def tick(self, now):
        draws = self._rng.random(self.n_cores)
        sources = np.nonzero(draws < self._p_start)[0]
        dsts = self.pattern.destinations(sources, self._rng)
        return [
            Packet(src, dst, self.packet_size_flits, now)
            for src, dst in zip(sources.tolist(), dsts.tolist())
            if src != dst
        ]


@contextmanager
def poll_every_cycle():
    """Re-examine every waiting head in every VCA phase.

    Production VC allocation is event-driven: an endpoint is examined only
    after one of its VCs became free and funded (``Endpoint.wake``). This
    is the dense polling it replaced, kept as the reference: at the end of
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
