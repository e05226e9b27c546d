"""Shared machinery for application-model workload generators.

Every workload model in :mod:`repro.workloads` is a frozen description of
an application's communication behaviour that *compiles* to a
:class:`~repro.traffic.trace.TrafficTrace` -- a deterministic packet
schedule the existing replay machinery (:class:`~repro.traffic.trace.
TraceTraffic`) drives through any topology. The contract every generator
must honour (property-tested in ``tests/workloads``):

- **Pure function of (params, n_cores, seed).** All randomness flows
  through :class:`~repro.utils.rng.RngStreams` keyed on the workload
  name, so adding a generator never perturbs another's draws.
- **Byte-stable emission.** Same inputs -> the identical array contents
  (and, via ``TrafficTrace.save``, the identical ``.npz`` on one numpy
  version); different seeds -> different traces.
- **Replayable anywhere.** Emitted packets carry core ids in
  ``[0, n_cores)`` only, never topology internals, so one trace runs on
  OWN-256 and a 256-core mesh alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.traffic.trace import TrafficTrace
from repro.utils.rng import RngStreams
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class TraceBuilder:
    """Accumulates (cycle, src, dst, size) emissions into a trace.

    Generators append in whatever order their model produces packets; the
    :class:`TrafficTrace` constructor's stable sort puts them in schedule
    order while preserving each cycle's emission order -- which therefore
    must itself be deterministic (it is: every generator walks plain data
    structures in index order).
    """

    def __init__(self, horizon: int) -> None:
        check_positive("horizon", horizon)
        self.horizon = int(horizon)
        self._cycles: List[int] = []
        self._srcs: List[int] = []
        self._dsts: List[int] = []
        self._sizes: List[int] = []

    def emit(self, cycle: int, src: int, dst: int, size: int) -> None:
        """Record one packet; emissions at/after the horizon are dropped
        (an in-flight request DAG is simply cut off at the trace end, the
        same way a live generator's ``stop_cycle`` cuts injection)."""
        if cycle >= self.horizon or src == dst:
            return
        self._cycles.append(int(cycle))
        self._srcs.append(int(src))
        self._dsts.append(int(dst))
        self._sizes.append(int(size))

    def build(self) -> TrafficTrace:
        import numpy as np

        return TrafficTrace(
            np.asarray(self._cycles, dtype=np.int64),
            np.asarray(self._srcs, dtype=np.int64),
            np.asarray(self._dsts, dtype=np.int64),
            np.asarray(self._sizes, dtype=np.int64),
        )


def workload_rng(seed: int, name: str, *key: object) -> np.random.Generator:
    """The single RNG-stream derivation every generator uses."""
    return RngStreams(int(seed)).get("workload", name, *key)


def spread_over_cores(
    n_items: int, n_cores: int, rng: np.random.Generator
) -> np.ndarray:
    """Map ``n_items`` logical endpoints onto distinct-ish cores.

    Items are dealt over a random permutation of the cores, wrapping when
    there are more items than cores -- placement is uniform but fixed for
    the whole trace, like a static deployment.
    """
    import numpy as np

    perm = rng.permutation(n_cores)
    return perm[np.arange(n_items) % n_cores]


def geometric_delay(rng: np.random.Generator, mean: float) -> int:
    """Integer delay >= 1 with the given mean (degenerate mean -> 1)."""
    if mean <= 1.0:
        return 1
    return int(rng.geometric(1.0 / mean))


class WorkloadModel:
    """Base class: parameter validation + the ``trace()`` entry point.

    Subclasses implement :meth:`_generate` against a fresh
    :class:`TraceBuilder`; ``trace()`` wraps it with the common horizon
    bookkeeping so every model compiles the same way.
    """

    #: Registry key; subclasses override.
    name = "base"

    def __init__(self, duration: int = 2000, seed: int = 1) -> None:
        check_positive("duration", duration)
        self.duration = int(duration)
        self.seed = int(seed)

    def rng(self, *key: object) -> np.random.Generator:
        return workload_rng(self.seed, self.name, *key)

    def trace(self, n_cores: int) -> TrafficTrace:
        check_positive("n_cores", n_cores)
        builder = TraceBuilder(self.duration)
        self._generate(builder, int(n_cores))
        out = builder.build()
        out.validate(n_cores)
        return out
