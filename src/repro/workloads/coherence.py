"""Memory/coherence-style request-reply flows.

Models the on-chip traffic of a directory coherence protocol the way NoC
application studies abstract it: each core is a cache that *misses* at a
configurable rate; a miss sends a short request to the address's **home
node** (directory / LLC slice, address-interleaved over a dedicated core
subset), which answers with a cache-line-sized reply after its lookup
latency. A fraction of misses hit **shared** lines: the directory then
also sends invalidations to the current sharers, each of which acks the
requester directly -- the classic 3-hop pattern whose reply skew is what
distinguishes coherence traffic from independent Bernoulli sources.

Spatial locality is modelled by giving each core a hot set of home nodes
(its working set) that attracts most of its misses, with full
request-reply causality.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.utils.validation import check_positive, check_probability
from repro.workloads.base import TraceBuilder, WorkloadModel, spread_over_cores

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class CoherenceWorkload(WorkloadModel):
    """Directory-protocol request/reply/invalidation traffic.

    Parameters
    ----------
    miss_rate:
        Per-core probability of issuing a miss each cycle.
    n_homes:
        Directory/LLC slice count (placed on a fixed random core subset).
    working_set:
        Hot home nodes per core.
    locality:
        Probability a miss targets the core's working set.
    share_prob:
        Probability a miss hits a shared line (triggers invalidations).
    max_sharers:
        Upper bound on sharers invalidated per shared miss.
    req_size / line_size / inv_size:
        Packet sizes in flits (request, data reply, invalidation/ack).
    directory_latency:
        Cycles between the request arriving at the home and the reply
        (and invalidations) leaving it.
    hop_cycles:
        Logical one-way traversal stand-in used to schedule the chain.
    """

    name = "coherence"

    def __init__(
        self,
        duration: int = 2000,
        seed: int = 1,
        miss_rate: float = 0.01,
        n_homes: int = 16,
        working_set: int = 4,
        locality: float = 0.7,
        share_prob: float = 0.2,
        max_sharers: int = 3,
        req_size: int = 1,
        line_size: int = 5,
        inv_size: int = 1,
        directory_latency: int = 6,
        hop_cycles: int = 4,
    ) -> None:
        super().__init__(duration=duration, seed=seed)
        check_probability("miss_rate", miss_rate)
        check_positive("n_homes", n_homes)
        check_positive("working_set", working_set)
        check_probability("locality", locality)
        check_probability("share_prob", share_prob)
        check_positive("max_sharers", max_sharers)
        check_positive("req_size", req_size)
        check_positive("line_size", line_size)
        check_positive("inv_size", inv_size)
        check_positive("directory_latency", directory_latency)
        check_positive("hop_cycles", hop_cycles)
        if working_set > n_homes:
            raise ValueError("working_set cannot exceed n_homes")
        self.miss_rate = float(miss_rate)
        self.n_homes = int(n_homes)
        self.working_set = int(working_set)
        self.locality = float(locality)
        self.share_prob = float(share_prob)
        self.max_sharers = int(max_sharers)
        self.req_size = int(req_size)
        self.line_size = int(line_size)
        self.inv_size = int(inv_size)
        self.directory_latency = int(directory_latency)
        self.hop_cycles = int(hop_cycles)

    # ------------------------------------------------------------------ #

    def _generate(self, builder: TraceBuilder, n_cores: int) -> None:
        import numpy as np

        if self.n_homes > n_cores:
            raise ValueError(f"{self.n_homes} home nodes but only {n_cores} cores")
        place = self.rng("placement")
        homes = spread_over_cores(self.n_homes, n_cores, place)
        # Per-core hot home subsets (the working set).
        hot = np.empty((n_cores, self.working_set), dtype=np.int64)
        for core in range(n_cores):
            hot[core] = place.choice(self.n_homes, size=self.working_set, replace=False)

        draws = self.rng("misses")
        pick = self.rng("targets")
        for t in range(self.duration):
            missing = np.nonzero(draws.random(n_cores) < self.miss_rate)[0]
            if missing.size == 0:
                continue
            use_hot = pick.random(missing.size) < self.locality
            hot_idx = pick.integers(0, self.working_set, size=missing.size)
            uniform = pick.integers(0, self.n_homes, size=missing.size)
            shared = pick.random(missing.size) < self.share_prob
            for j, core in enumerate(missing.tolist()):
                home_idx = int(hot[core, hot_idx[j]] if use_hot[j] else uniform[j])
                home_core = int(homes[home_idx])
                # Request to the directory ...
                builder.emit(t, core, home_core, self.req_size)
                t_dir = t + self.hop_cycles + self.directory_latency
                # ... data reply back ...
                builder.emit(t_dir, home_core, core, self.line_size)
                if not shared[j]:
                    continue
                # ... and for shared lines, invalidations fanning out with
                # acks converging on the requester (3-hop pattern).
                n_shar = int(pick.integers(1, self.max_sharers + 1))
                sharers = pick.integers(0, n_cores, size=n_shar)
                for s in sharers.tolist():
                    if s == core or s == home_core:
                        continue
                    builder.emit(t_dir, home_core, int(s), self.inv_size)
                    builder.emit(
                        t_dir + self.hop_cycles, int(s), core, self.inv_size
                    )
