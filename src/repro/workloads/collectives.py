"""MPI collective communication patterns as deterministic traces.

Three classic HPC exchange structures, emitted as logical schedules (the
open-loop model assumes each step takes ``step_cycles``; the simulator
then measures what the fabric actually does with the offered pattern):

* **ring all-reduce** -- the bandwidth-optimal reduce-scatter +
  all-gather: ``2 * (P - 1)`` steps, each rank sending one chunk to its
  ring successor per step.
* **tree all-reduce** -- binary-tree reduce up to rank 0 followed by a
  broadcast back down: latency-optimal, hammers the tree root.
* **3D stencil halo exchange** -- each rank swaps halos with its (up to)
  six neighbours on a periodic 3D process grid every iteration; the
  staple proxy for finite-difference/CFD codes.

Per-rank start skew (OS noise) is drawn from a named RNG stream, so even
the fully regular patterns exercise arbitration differently per seed
while staying byte-reproducible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.utils.validation import check_positive
from repro.workloads.base import TraceBuilder, WorkloadModel, spread_over_cores

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

COLLECTIVE_KINDS = ("allreduce_ring", "allreduce_tree", "stencil3d")


def _grid_dims(p: int) -> Tuple[int, int, int]:
    """Near-cubic factorisation of ``p`` ranks into a 3D process grid."""
    best = (p, 1, 1)
    best_score = p  # surface-to-volume proxy: max dimension
    for x in range(1, p + 1):
        if p % x:
            continue
        rest = p // x
        for y in range(1, rest + 1):
            if rest % y:
                continue
            z = rest // y
            score = max(x, y, z)
            if score < best_score:
                best, best_score = (x, y, z), score
    return best


class CollectiveWorkload(WorkloadModel):
    """Iterated MPI collectives over a rank subset of the chip.

    Parameters
    ----------
    kind:
        One of :data:`COLLECTIVE_KINDS`.
    participants:
        Ranks taking part (0 = every core). Ranks are placed on a fixed
        random core subset, like a job scheduler carving out a partition.
    iterations:
        Collective invocations in the trace (compute between them).
    message_size:
        Flits per transfer step.
    compute_cycles:
        Gap between an iteration's last step and the next iteration.
    step_cycles:
        Logical duration of one communication step.
    skew_max:
        Per-rank uniform start jitter in cycles (0 disables).
    """

    name = "collective"

    def __init__(
        self,
        duration: int = 2000,
        seed: int = 1,
        kind: str = "allreduce_ring",
        participants: int = 0,
        iterations: int = 8,
        message_size: int = 4,
        compute_cycles: int = 40,
        step_cycles: int = 8,
        skew_max: int = 4,
    ) -> None:
        super().__init__(duration=duration, seed=seed)
        if kind not in COLLECTIVE_KINDS:
            raise ValueError(f"unknown collective kind {kind!r}; known: {COLLECTIVE_KINDS}")
        check_positive("iterations", iterations)
        check_positive("message_size", message_size)
        check_positive("step_cycles", step_cycles)
        if participants < 0 or compute_cycles < 0 or skew_max < 0:
            raise ValueError("participants, compute_cycles and skew_max must be >= 0")
        self.kind = kind
        self.participants = int(participants)
        self.iterations = int(iterations)
        self.message_size = int(message_size)
        self.compute_cycles = int(compute_cycles)
        self.step_cycles = int(step_cycles)
        self.skew_max = int(skew_max)

    # ------------------------------------------------------------------ #

    def _rank_cores(self, n_cores: int) -> np.ndarray:
        p = self.participants or n_cores
        if p > n_cores:
            raise ValueError(f"{p} participants but only {n_cores} cores")
        if p < 2:
            raise ValueError("collectives need at least 2 participants")
        return spread_over_cores(p, n_cores, self.rng("ranks"))

    def _skews(self, p: int) -> np.ndarray:
        if self.skew_max == 0:
            import numpy as np

            return np.zeros(p, dtype=np.int64)
        return self.rng("skew").integers(0, self.skew_max + 1, size=p)

    def _generate(self, builder: TraceBuilder, n_cores: int) -> None:
        cores = self._rank_cores(n_cores)
        p = len(cores)
        skew = self._skews(p)
        steps = {
            "allreduce_ring": self._ring_steps,
            "allreduce_tree": self._tree_steps,
            "stencil3d": self._stencil_steps,
        }[self.kind](p)
        # steps: list of per-step (src_rank, dst_rank) transfer lists.
        iter_span = len(steps) * self.step_cycles + self.compute_cycles
        for it in range(self.iterations):
            base = it * iter_span
            if base >= self.duration:
                break
            for k, transfers in enumerate(steps):
                t = base + k * self.step_cycles
                for src, dst in transfers:
                    builder.emit(
                        t + int(skew[src]), int(cores[src]), int(cores[dst]),
                        self.message_size,
                    )

    # ------------------------------------------------------------------ #

    @staticmethod
    def _ring_steps(p: int) -> List[List[Tuple[int, int]]]:
        """Reduce-scatter then all-gather: 2*(P-1) ring-neighbour steps."""
        one_step = [(r, (r + 1) % p) for r in range(p)]
        return [list(one_step) for _ in range(2 * (p - 1))]

    @staticmethod
    def _tree_steps(p: int) -> List[List[Tuple[int, int]]]:
        """Binary-tree reduce to rank 0, then broadcast back down."""
        levels: List[List[Tuple[int, int]]] = []
        stride = 1
        while stride < p:
            level = [
                (r + stride, r)
                for r in range(0, p, 2 * stride)
                if r + stride < p
            ]
            levels.append(level)
            stride *= 2
        reduce_steps = levels
        bcast_steps = [[(dst, src) for src, dst in level] for level in reversed(levels)]
        return reduce_steps + bcast_steps

    @staticmethod
    def _stencil_steps(p: int) -> List[List[Tuple[int, int]]]:
        """One halo-exchange step: every rank to its 6 periodic neighbours."""
        nx, ny, nz = _grid_dims(p)

        def rank(x: int, y: int, z: int) -> int:
            return (x % nx) + nx * ((y % ny) + ny * (z % nz))

        transfers: List[Tuple[int, int]] = []
        for z in range(nz):
            for y in range(ny):
                for x in range(nx):
                    r = rank(x, y, z)
                    for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                       (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                        nb = rank(x + dx, y + dy, z + dz)
                        if nb != r:
                            transfers.append((r, nb))
        return [transfers]
