#!/usr/bin/env python3
"""Bytecodes executed inside ``Simulator.run`` for one benchmark workload.

    python3 benchmarks/opcount.py --workload own256-knee [--seed 3] [--smoke]

A count, not a time: on one Python minor version it repeats to a few
bytecodes in millions, so a parent/change pair on a noisy shared host is
one run each side. It omits
everything C does (``sorted``, ``set.add``, ``deque.popleft``) and every
wait, so it explains a ``bench.py`` number, it does not replace one. The
summary CRC printed last is ``bench.py``'s ``noc.stats.summary_crc32``.
The count is given per simulated cycle, per stepped cycle (an entry into
``Simulator.step``; the rest were fast-forwarded) and per flit hop.
After the top functions, the count is folded by source package under
``src/repro`` (``noc.invariants`` on its own; ``py`` is code outside the
package), so what the hooks around the router pipeline cost is an exact row.

The last lines are a footprint, not a count: the KiB that ``tracemalloc``
attributes to code under ``src/repro`` and that is still allocated when
``execute_inline`` returns (network, simulator and result held), i.e. what
a run keeps resident, then its three largest allocation sites (file:line
under ``src/repro``, KiB, live blocks), so a footprint change names what it
added or removed, and a census of the network's objects (live instances of
each model class and their shallow KiB, ``sys.getsizeof``), so it names
which objects shrank. A filename filter on ``src/repro`` keeps this tool's own
bytecode counter out. It does not depend on the host, but it repeats only
to about 1 KiB: the hash tables of the simulator's active sets are keyed by
object address, so their sizes move with the memory layout (which also
moves the bytecode count by a few in several million).
"""

import argparse
import gc
import json
import sys
import tracemalloc
import zlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "repro"


def layer_of(filename: str) -> str:
    """Source package of a code object's file (see module docstring)."""
    try:
        parts = Path(filename).resolve().relative_to(PKG).parts
    except ValueError:
        return "py"
    if parts[:2] == ("noc", "invariants.py"):
        return "noc.invariants"
    return parts[0] if len(parts) > 1 else "repro"


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "perf")]
    from bench import WORKLOADS  # the specs only
    from repro.noc import (
        Endpoint, InputPort, Link, NetworkInterface, Packet, Router, SharedMedium,
        VirtualChannel,
    )  # fmt: skip
    from repro.noc.simulator import Simulator
    from repro.runtime.executor import execute_inline

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--smoke", action="store_true", help="10x shorter spec")
    ap.add_argument("--top", type=int, default=8, help="functions to list")
    args = ap.parse_args()

    ops: Counter = Counter()
    entries: Counter = Counter()

    def count(frame, event, arg):
        if event == "call":
            frame.f_trace_opcodes = True
            frame.f_trace_lines = False
            entries[frame.f_code] += 1
        elif event == "opcode":
            ops[frame.f_code] += 1
        return count

    def counted_run(sim, cycles, _run=Simulator.run):
        sys.settrace(count)
        try:
            _run(sim, cycles)
        finally:
            sys.settrace(None)

    Simulator.run = counted_run
    spec = WORKLOADS[args.workload].make_spec(args.seed, 10 if args.smoke else 1)
    tracemalloc.start()
    built, sim, result = execute_inline(spec)
    resident = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, str(PKG / "*"))]
    )
    tracemalloc.stop()
    total = sum(ops.values())
    hops = sum(r.xbar_traversals for r in sim.network.routers)
    print(f"{args.workload} seed {args.seed}: {total} bytecodes in Simulator.run")
    steps = entries[Simulator.step.__code__]
    print(f"  per cycle    {total / sim.now:12.1f}  ({sim.now} cycles)")
    print(f"  per step     {total / max(1, steps):12.1f}  ({steps} stepped cycles)")
    print(f"  per flit hop {total / max(1, hops):12.1f}  ({hops} hops)")
    for code, n in ops.most_common(args.top):
        where = Path(code.co_filename).name
        print(f"  {n:11d}  {n / total:5.1%}  {where}:{code.co_qualname}")
    layers: Counter = Counter()
    for code, n in ops.items():
        layers[layer_of(code.co_filename)] += n
    print("  by package:")
    for layer, n in layers.most_common():
        print(f"  {n:11d}  {n / total:5.1%}  {n / sim.now:9.1f}/cycle  {layer}")
    kib = sum(trace.size for trace in resident.traces) / 1024
    print(f"  resident KiB {kib:12.0f}  (allocated by src/repro, held after execute_inline)")
    for stat in resident.statistics("lineno")[:3]:
        frame = stat.traceback[0]
        site = f"{Path(frame.filename).resolve().relative_to(PKG)}:{frame.lineno}"
        print(f"    {stat.size / 1024:9.0f} KiB  {stat.count:8d} blocks  {site}")
    census = {cls: [0, 0] for cls in (
        Router, InputPort, VirtualChannel, Endpoint, Link, SharedMedium,
        NetworkInterface, Packet,
    )}  # fmt: skip
    for obj in gc.get_objects():
        row = census.get(type(obj))
        if row is not None:
            row[0] += 1
            row[1] += sys.getsizeof(obj)
    print("  objects (live instances, shallow KiB):")
    for cls, (n, size) in census.items():
        print(f"    {n:8d}  {size / 1024:9.0f} KiB  {cls.__name__}")
    canon = json.dumps(
        {"summary": result.summary, "power": result.power},
        sort_keys=True, separators=(",", ":"),
    )  # fmt: skip
    print(f"  summary_crc32 {zlib.crc32(canon.encode())}")


if __name__ == "__main__":
    main()
