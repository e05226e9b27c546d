"""Traffic trace recording and replay.

The paper evaluates synthetic traces only ("In the future, we will evaluate
with real workloads"), but reproducible experiments want the *same* packet
sequence replayed against every architecture. A :class:`TrafficTrace`
captures the output of any generator once and replays it deterministically;
traces round-trip through ``.npz`` files for archival. A trace is NumPy
arrays, so NumPy is imported where one is built, not when this module is.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.noc.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

#: Array names (and their save order) of the on-disk ``.npz`` schema. The
#: golden-trace gate checks this exact set, so renaming or adding a field
#: is a deliberate, test-visible act.
TRACE_FIELDS = ("cycles", "srcs", "dsts", "sizes")


class TrafficTrace:
    """An immutable packet schedule: arrays of (cycle, src, dst, size)."""

    def __init__(
        self,
        cycles: np.ndarray,
        srcs: np.ndarray,
        dsts: np.ndarray,
        sizes: np.ndarray,
    ) -> None:
        import numpy as np

        n = len(cycles)
        if not (len(srcs) == len(dsts) == len(sizes) == n):
            raise ValueError("trace arrays must have equal length")
        order = np.argsort(cycles, kind="stable")
        self.cycles = np.asarray(cycles, dtype=np.int64)[order]
        self.srcs = np.asarray(srcs, dtype=np.int64)[order]
        self.dsts = np.asarray(dsts, dtype=np.int64)[order]
        self.sizes = np.asarray(sizes, dtype=np.int64)[order]

    def __len__(self) -> int:
        return int(self.cycles.size)

    def validate(self, n_cores: int) -> None:
        """Raise ``ValueError`` if any packet cannot exist on ``n_cores``.

        Checked up front (not at replay time) so a trace generated for the
        wrong network size fails with a clear message instead of a router
        index error thousands of cycles into the run.
        """
        if len(self) == 0:
            return
        for field in ("srcs", "dsts"):
            arr = getattr(self, field)
            bad = ((arr < 0) | (arr >= n_cores)).nonzero()[0]
            if bad.size:
                i = int(bad[0])
                raise ValueError(
                    f"trace {field[:-1]} {int(arr[i])} (packet {i}, cycle "
                    f"{int(self.cycles[i])}) out of range for {n_cores} cores"
                )
        if int(self.cycles[0]) < 0:
            raise ValueError(f"trace starts at negative cycle {int(self.cycles[0])}")
        if (self.sizes < 1).any():
            i = int((self.sizes < 1).nonzero()[0][0])
            raise ValueError(f"trace packet {i} has non-positive size {int(self.sizes[i])}")

    # ------------------------------------------------------------------ #
    # Golden-trace gate support
    # ------------------------------------------------------------------ #

    def schema(self) -> Dict[str, object]:
        """Field names / dtypes / length -- the shape the CRC is over."""
        return {
            "fields": list(TRACE_FIELDS),
            "dtype": "int64",
            "n_packets": len(self),
        }

    def content_crc(self) -> int:
        """CRC32 over the canonical array contents (container-independent).

        Unlike a checksum of the ``.npz`` bytes, this survives zip /
        compression-level differences across numpy versions while still
        pinning every emitted packet exactly.
        """
        import numpy as np

        crc = 0
        for field in TRACE_FIELDS:
            arr = np.ascontiguousarray(getattr(self, field), dtype="<i8")
            crc = zlib.crc32(arr.tobytes(), crc)
        return crc & 0xFFFFFFFF

    @staticmethod
    def record(traffic: object, cycles: int) -> "TrafficTrace":
        """Run a generator standalone for ``cycles`` and capture its output."""
        cyc: List[int] = []
        src: List[int] = []
        dst: List[int] = []
        size: List[int] = []
        for t in range(cycles):
            for p in traffic.tick(t):
                cyc.append(t)
                src.append(p.src_core)
                dst.append(p.dst_core)
                size.append(p.size_flits)
        import numpy as np

        return TrafficTrace(
            np.asarray(cyc, dtype=np.int64),
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            np.asarray(size, dtype=np.int64),
        )

    def save(self, path) -> None:
        """Write the ``.npz`` archive (path or writable binary file object)."""
        import numpy as np

        if isinstance(path, (str, Path)):
            path = Path(path)
        np.savez_compressed(
            path, cycles=self.cycles, srcs=self.srcs, dsts=self.dsts, sizes=self.sizes
        )

    @staticmethod
    def load(path: Union[str, Path]) -> "TrafficTrace":
        import numpy as np

        data = np.load(Path(path))
        missing = [f for f in TRACE_FIELDS if f not in data.files]
        if missing:
            raise ValueError(f"{path}: not a traffic trace (missing {missing})")
        return TrafficTrace(data["cycles"], data["srcs"], data["dsts"], data["sizes"])

    def replayer(
        self, n_cores: Optional[int] = None, stop_cycle: Optional[int] = None
    ) -> "TraceTraffic":
        return TraceTraffic(self, n_cores=n_cores, stop_cycle=stop_cycle)


class TraceTraffic:
    """Replays a :class:`TrafficTrace` through the ``tick`` interface.

    Parameters
    ----------
    n_cores:
        When given, the trace is validated against the network size up
        front (clear error instead of a mid-run router index crash).
    stop_cycle:
        Suppress injections at or after this cycle (the drain phase of
        latency measurements pauses traffic the same way the open-loop
        generators do).
    """

    def __init__(
        self,
        trace: TrafficTrace,
        n_cores: Optional[int] = None,
        stop_cycle: Optional[int] = None,
    ) -> None:
        if n_cores is not None:
            trace.validate(n_cores)
        self.trace = trace
        self.stop_cycle = stop_cycle
        self._pos = 0
        self.packets_generated = 0

    def tick(self, now: int) -> List[Packet]:
        if self.stop_cycle is not None and now >= self.stop_cycle:
            return []
        out: List[Packet] = []
        cycles = self.trace.cycles
        n = len(self.trace)
        # Entries for cycles that were never ticked (simulation started
        # past them, or traffic resumed after a pause) are skipped, exactly
        # as a run stepping every cycle that never reached them would have.
        while self._pos < n and cycles[self._pos] < now:
            self._pos += 1
        while self._pos < n and cycles[self._pos] == now:
            i = self._pos
            out.append(
                Packet(
                    int(self.trace.srcs[i]),
                    int(self.trace.dsts[i]),
                    int(self.trace.sizes[i]),
                    now,
                )
            )
            self._pos += 1
        self.packets_generated += len(out)
        return out

    def next_injection_cycle(self, start: int, limit: int) -> Optional[int]:
        """Earliest scheduled cycle in ``[start, limit)``, or None.

        Fast-forward wake source: the schedule is static, so peeking is a
        binary search with no randomness to consume -- replay is
        bit-identical between stepping every cycle and the active-set
        scheduler by construction.
        """
        if self.stop_cycle is not None:
            limit = min(limit, self.stop_cycle)
        if start >= limit or self._pos >= len(self.trace):
            return None
        cycles = self.trace.cycles
        i = int(cycles[self._pos:].searchsorted(start, side="left")) + self._pos
        if i >= len(self.trace) or cycles[i] >= limit:
            return None
        return int(cycles[i])

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self.trace)
