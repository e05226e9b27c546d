"""Host-noise gauge: a fixed pure-Python kernel timed before every rep.

FROZEN: never edit this file after the PR that added it. Its only use is
that the same instructions run on every host at every commit, so a change
in ``host.calib_ms`` between two benchmark runs is a change in the *host*
(a slow phase, a noisy neighbour, a different machine), never in the code
under test. It touches the operations the simulator's step loop leans on
-- slotted attribute access, dict and set updates, a heap, list sorts --
and nothing from ``repro``.
"""

from heapq import heappop, heappush


class _Cell:
    __slots__ = ("credit", "busy", "head")

    def __init__(self, i: int) -> None:
        self.credit = i & 7
        self.busy = False
        self.head = i


def kernel(iterations: int = 26_000) -> int:
    """~15 ms of deterministic dict/list/set/heap/attribute work.

    Returns a checksum (18392202 for the default size) so the work cannot
    be optimised away and a corrupted interpreter state would show.
    """
    cells = [_Cell(i) for i in range(256)]
    table: dict = {}
    active: set = set()
    heap: list = []
    acc = 0
    x = 12345
    for i in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        slot = (x >> 8) & 255
        cell = cells[slot]
        cell.credit += 1
        cell.busy = not cell.busy
        if cell.busy:
            active.add(slot)
            cell.head = i
        key = (x >> 4) & 1023
        table[key] = table.get(key, 0) + 1
        if i & 7 == 0:
            heappush(heap, (x >> 16, i))
        if i & 15 == 0:
            acc += heappop(heap)[0]
        if i & 63 == 0:
            acc += len(sorted(active)) + cells[key & 255].head
            active.clear()
    return acc + len(table) + len(heap)
