"""Microservice request-DAG traffic (muBench-style service graphs).

Models the communication of a microservice deployment the way muBench's
workload-model -> execution pipeline does: a **service graph** (which
service calls which), a **work model** (per-service think time before the
downstream calls go out), and an open-loop **arrival process** of external
requests hitting the gateway. Each external request walks the DAG:

1. the gateway service receives the request,
2. after its think time it fans requests out to its callees (request
   packets), each of which recurses,
3. a leaf replies immediately after its think time; an internal service
   replies once its *slowest* callee's response has arrived (barrier
   semantics, like a scatter-gather RPC),
4. responses propagate back up to the gateway.

Network latency inside the model is approximated by a fixed per-hop
``rpc_overhead`` (the model is open-loop: it schedules offered traffic,
the simulator measures what the fabric does with it). Every request,
response and think time is drawn from named RNG streams, so the emitted
:class:`~repro.traffic.trace.TrafficTrace` is a pure function of the
parameters and seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.utils.validation import check_positive, check_probability
from repro.workloads.base import (
    TraceBuilder,
    WorkloadModel,
    geometric_delay,
    spread_over_cores,
)

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class MicroserviceWorkload(WorkloadModel):
    """Service-graph fan-out with think times over an open arrival process.

    Parameters
    ----------
    n_services:
        Number of services; service 0 is the external gateway.
    fanout:
        Mean number of downstream calls an internal service makes.
    depth:
        Layers of the service DAG (gateway = layer 0). Services are dealt
        round-robin over the layers; edges only point to deeper layers, so
        the call graph is acyclic by construction.
    request_rate:
        Probability an external request arrives at the gateway each cycle.
    think_mean:
        Mean think time (cycles) a service spends before calling out /
        replying; geometric, min 1.
    request_size / response_size:
        Packet sizes in flits (requests small, responses carry payload).
    rpc_overhead:
        Fixed scheduling gap standing in for one network traversal.
    replicas:
        Instances per service; callers rotate over them round-robin (the
        load-balancer view muBench's deployment model exposes).
    """

    name = "microservice"

    def __init__(
        self,
        duration: int = 2000,
        seed: int = 1,
        n_services: int = 12,
        fanout: float = 2.0,
        depth: int = 3,
        request_rate: float = 0.05,
        think_mean: float = 6.0,
        request_size: int = 1,
        response_size: int = 4,
        rpc_overhead: int = 4,
        replicas: int = 2,
    ) -> None:
        super().__init__(duration=duration, seed=seed)
        check_positive("n_services", n_services)
        check_positive("depth", depth)
        check_probability("request_rate", request_rate)
        check_positive("think_mean", think_mean)
        check_positive("request_size", request_size)
        check_positive("response_size", response_size)
        check_positive("replicas", replicas)
        if fanout < 1.0:
            raise ValueError(f"fanout must be >= 1, got {fanout}")
        if n_services < depth:
            raise ValueError("need at least one service per DAG layer")
        self.n_services = int(n_services)
        self.fanout = float(fanout)
        self.depth = int(depth)
        self.request_rate = float(request_rate)
        self.think_mean = float(think_mean)
        self.request_size = int(request_size)
        self.response_size = int(response_size)
        self.rpc_overhead = int(rpc_overhead)
        self.replicas = int(replicas)

    # ------------------------------------------------------------------ #

    def service_graph(self) -> Dict[int, List[int]]:
        """Callee lists per service (acyclic: edges go to deeper layers)."""
        rng = self.rng("graph")
        # Deal services over layers: service 0 is the gateway (layer 0),
        # the rest round-robin over layers 1..depth-1 so every layer below
        # the gateway is populated.
        layer_of = [0] + [1 + (s - 1) % (self.depth - 1) if self.depth > 1 else 0
                          for s in range(1, self.n_services)]
        by_layer: Dict[int, List[int]] = {}
        for s, layer in enumerate(layer_of):
            by_layer.setdefault(layer, []).append(s)
        graph: Dict[int, List[int]] = {s: [] for s in range(self.n_services)}
        for s, layer in enumerate(layer_of):
            pool: List[int] = []
            for deeper in range(layer + 1, self.depth):
                pool.extend(by_layer.get(deeper, []))
            if not pool:
                continue  # leaf layer
            want = max(1, int(round(rng.geometric(1.0 / self.fanout))))
            picks = rng.choice(len(pool), size=min(want, len(pool)), replace=False)
            graph[s] = sorted(pool[int(i)] for i in picks)
        return graph

    def placement(self, n_cores: int) -> np.ndarray:
        """(service, replica) -> core, a fixed random deployment."""
        rng = self.rng("placement")
        flat = spread_over_cores(self.n_services * self.replicas, n_cores, rng)
        return flat.reshape(self.n_services, self.replicas)

    # ------------------------------------------------------------------ #

    def _generate(self, builder: TraceBuilder, n_cores: int) -> None:
        import numpy as np

        graph = self.service_graph()
        cores = self.placement(n_cores)
        arrivals = self.rng("arrivals")
        think = self.rng("think")
        rr = np.zeros(self.n_services, dtype=np.int64)  # replica rotation

        def pick_core(service: int) -> int:
            replica = int(rr[service] % self.replicas)
            rr[service] += 1
            return int(cores[service, replica])

        def finish_time(service: int, t_recv: int, on_core: int) -> int:
            """Logical completion time of ``service`` handling a request
            that landed on ``on_core`` at ``t_recv``; emits every
            downstream request and response packet along the way."""
            t_ready = t_recv + geometric_delay(think, self.think_mean)
            latest = t_ready
            for callee in graph[service]:
                dst_core = pick_core(callee)
                t_send = t_ready  # scatter: all callees called together
                builder.emit(t_send, on_core, dst_core, self.request_size)
                t_child_done = finish_time(callee, t_send + self.rpc_overhead, dst_core)
                # The callee's response travels back to this service.
                builder.emit(t_child_done, dst_core, on_core, self.response_size)
                latest = max(latest, t_child_done + self.rpc_overhead)
            return latest

        draws = arrivals.random(self.duration)
        for t in np.nonzero(draws < self.request_rate)[0]:
            # Gateway handles the external request; its response leaves the
            # DAG (the client is off-chip), so only internal traffic is
            # emitted.
            finish_time(0, int(t), pick_core(0))
