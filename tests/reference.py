"""Test-only reference behaviours the production simulator no longer has."""

from contextlib import contextmanager

from repro.noc.simulator import Simulator


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
