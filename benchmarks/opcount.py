#!/usr/bin/env python3
"""Bytecodes executed inside ``Simulator.run`` for one benchmark workload.

    python3 benchmarks/opcount.py --workload own256-knee [--seed 3] [--smoke]

A count, not a time: on one Python minor version it repeats to a few
bytecodes in millions, so a parent/change pair on a noisy shared host is
one run each side. It omits everything C does (``sorted``, ``set.add``,
``deque.popleft``) and every wait, and bytecodes are not uniform in cost,
so it does not predict a ``bench.py`` number: a change that saves
bytecodes can be lost in the noise, and one that saves none can be faster
(see the census below). The summary CRC printed last is ``bench.py``'s
``noc.stats.summary_crc32``.
The count is given per simulated cycle, per stepped cycle (an entry into
``Simulator.step``; the rest were fast-forwarded) and per flit hop. Beside
the stepped cycles stands the number of packets the lone-packet express
booked whole (``Simulator.express_packets``): their hops took no step.
After the top functions, the count is folded by source package under
``src/repro`` (``noc.invariants`` on its own; ``py`` is code outside the
package), so what the hooks around the router pipeline cost is an exact row.

Next comes a footprint, not a count: the KiB that ``tracemalloc``
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

Last, a specialization census lists the expensive bytecodes. After the
counted run, one untraced warm rep of the same spec lets CPython 3.11's
adaptive interpreter specialize what it can; every attribute, subscript,
global or call instruction under ``src/repro`` that the counted run
executed and that is still ``*_ADAPTIVE`` (the interpreter tried and gave
up: a class attribute behind a metaclass ``__getattr__``, such as an
``Enum`` member; a method load of a callable held in an instance slot; a
``PRECALL`` of a callable it has no fast path for, such as a builtin
called with several arguments like ``max(a, b)``) is listed with its
file:line, function, opname, name (``[]`` for a subscript, ``()`` for a
call) and executions per flit hop (sites below 0.01 per hop are counted, not
listed: the warm rep may not have run them often enough to try). Such a
load costs several times a specialized one. On other Python versions the
census is skipped.
"""

import argparse
import dis
import gc
import json
import sys
import tracemalloc
import zlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "repro"

#: Instructions 3.11 can specialize; ``<name>_ADAPTIVE`` is one it did not.
ADAPTIVE = {f"{op}_ADAPTIVE" for op in (
    "LOAD_ATTR", "LOAD_METHOD", "STORE_ATTR", "BINARY_SUBSCR", "STORE_SUBSCR",
    "LOAD_GLOBAL", "PRECALL",
)}  # fmt: skip


def layer_of(filename: str) -> str:
    """Source package of a code object's file (see module docstring)."""
    try:
        parts = Path(filename).resolve().relative_to(PKG).parts
    except ValueError:
        return "py"
    if parts[:2] == ("noc", "invariants.py"):
        return "noc.invariants"
    return parts[0] if len(parts) > 1 else "repro"


def unspecialized(ops: Counter) -> list:
    """(executions, code, instruction) of every counted instruction under
    ``src/repro`` left unspecialized, most executed first."""
    rows = []
    for code in {code for code, _ in ops}:
        if layer_of(code.co_filename) == "py":
            continue
        for ins in dis.get_instructions(code, adaptive=True):
            n = ops.get((code, ins.offset))
            if n and ins.opname in ADAPTIVE:
                rows.append((n, code, ins))
    return sorted(rows, key=lambda row: -row[0])


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
            ops[frame.f_code, frame.f_lasti] += 1
        return count

    run = Simulator.run

    def counted_run(sim, cycles):
        sys.settrace(count)
        try:
            run(sim, cycles)
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
    Simulator.run = run
    per_code: Counter = Counter()
    for (code, _), n in ops.items():
        per_code[code] += n
    total = sum(per_code.values())
    hops = sum(r.xbar_traversals for r in sim.network.routers)
    print(f"{args.workload} seed {args.seed}: {total} bytecodes in Simulator.run")
    steps = entries[Simulator.step.__code__]
    print(f"  per cycle    {total / sim.now:12.1f}  ({sim.now} cycles)")
    print(
        f"  per step     {total / max(1, steps):12.1f}  ({steps} stepped cycles; "
        f"{sim.express_packets} packets booked whole by the lone-packet express)"
    )
    print(f"  per flit hop {total / max(1, hops):12.1f}  ({hops} hops)")
    for code, n in per_code.most_common(args.top):
        where = Path(code.co_filename).name
        print(f"  {n:11d}  {n / total:5.1%}  {where}:{code.co_qualname}")
    layers: Counter = Counter()
    for code, n in per_code.items():
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
    if sys.version_info[:2] == (3, 11):
        execute_inline(spec)  # the warm rep: untraced, so it specializes
        rows = unspecialized(ops)
        shown = [row for row in rows if row[0] >= 0.01 * hops]
        print(f"  unspecialized after a warm rep ({len(rows)} sites, per flit hop):")
        for n, code, ins in shown:
            site = f"{Path(code.co_filename).resolve().relative_to(PKG)}:{ins.positions.lineno}"
            name = (
                ins.argval if isinstance(ins.argval, str)
                else "()" if ins.opname == "PRECALL_ADAPTIVE" else "[]"
            )  # fmt: skip
            print(f"    {n / max(1, hops):9.4f}  {site}  {code.co_qualname}  {ins.opname} {name}")
        if len(rows) > len(shown):
            print(f"    ... and {len(rows) - len(shown)} sites below 0.01 per hop")
    else:
        print("  unspecialized after a warm rep: skipped (the census reads CPython 3.11)")
    canon = json.dumps(
        {"summary": result.summary, "power": result.power},
        sort_keys=True, separators=(",", ":"),
    )  # fmt: skip
    print(f"  summary_crc32 {zlib.crc32(canon.encode())}")


if __name__ == "__main__":
    main()
