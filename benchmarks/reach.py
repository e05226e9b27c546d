#!/usr/bin/env python3
"""Reachability census: which code under ``src/repro`` a production path runs.

    python3 benchmarks/reach.py [--only NAME,...] [--out reach.json]
    python3 benchmarks/reach.py --lines [--out reach-lines.json]

A production path is one of ``ENTRY_POINTS``: the paper benches, the
``repro golden`` recipes, the commands CI runs, the documented CLI commands
and flags, the example scripts and ``bench.py``. Each runs from the repo
root in its own interpreter with a ``sitecustomize`` that installs a
profiler (``sys.setprofile`` and ``threading.setprofile``) recording every
code object entered under ``src/repro``. Children inherit it: forked pool
workers keep the parent's profiler, and a spawned interpreter loads the
same ``sitecustomize``. Each process appends what it enters to its own file
as it goes, so a worker that is terminated loses nothing.

An ``ast`` walk of ``src/repro`` then writes one row per function (path,
qualified name, first line, line count, the entry points that reached it)
to ``--out``, and prints the unreached functions with their fates. A
function no entry reaches needs a fate in ``FATES`` (why it stays, or that
its deletion is queued); the census exits 1 if one lacks a fate, or if a
fate names a function that is reached or gone.
Function lines count outermost functions only, so a closure's lines are
not counted twice.

``--lines`` is the statement-level pass over ``LINE_MODULES``: a line
tracer (``sys.settrace``) over the smoke entry points only, writing each
statement of those modules that never ran. On a 2-vCPU host the full
census takes about 7 minutes (4 of them the paper benches), ``--lines``
about 2.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "repro"

_CI_FAULTED_RUN = (
    "from repro.runtime.executor import execute_inline\n"
    "from repro.runtime.spec import ControlSpec, FaultSpec, RunSpec\n"
    "faults = FaultSpec(burst_rate=0.01, burst_duration=100, snr_penalty_db=14.0, max_channel=4)\n"
    "execute_inline(RunSpec.create('own256_ft', topology_kwargs={'with_reconfiguration': True},"
    " rate=0.02, cycles=400, warmup=100, faults=faults, control=ControlSpec(epoch_cycles=100)))\n"
)

# A network wedged on purpose: every input VC past the source router is
# held, so the packet sits there and the simulator's watchdog raises its
# deadlock report (audit, stuck flits, wait-for edges) and traces it.
_FORCED_DEADLOCK = (
    "from repro.noc import Packet, SimulationDeadlock\n"
    "from repro.noc.simulator import Simulator\n"
    "from repro.runtime import NAMED_TOPOLOGIES, build_ref\n"
    "from repro.telemetry import Tracer\n"
    "net = build_ref(NAMED_TOPOLOGIES['own256']).network\n"
    "for router in net.routers[1:]:\n"
    "    for ep in router.input_endpoints:\n"
    "        ep.vc_busy = [True] * len(ep.vc_busy)\n"
    "sim = Simulator(net, watchdog=20, tracer=Tracer())\n"
    "net.inject_packet(Packet(0, 255, 4, 0, pid=0))\n"
    "try:\n"
    "    sim.run(200)\n"
    "except SimulationDeadlock as exc:\n"
    "    assert 'stuck flits by router' in str(exc)\n"
    "else:\n"
    "    raise SystemExit('no deadlock')\n"
)

# The live table draws only on a terminal: run the command on a pseudo-TTY.
_ON_A_TTY = (
    "import pty, sys\n"
    "sys.exit(pty.spawn([sys.executable, *{argv!r}]) >> 8)\n"
)


def _docs_snippet(doc: str, heading: str) -> str:
    """The first ``python`` block under ``heading`` in ``doc`` (documented as
    executable verbatim)."""
    text = (ROOT / doc).read_text()
    block = text[text.index(heading):].split("```python\n", 1)[1]
    return block.split("```", 1)[0]


#: name -> (argv after ``python3``, smoke). Every argv runs from the repo
#: root; ``{tmp}`` is one scratch directory shared by the whole census, so
#: a warm pass reads the cache its cold pass wrote. ``smoke`` entries make
#: up the ``--lines`` pass. ``tests/test_reach.py`` checks that every
#: ``repro`` subcommand and every golden recipe is named here.
ENTRY_POINTS: Dict[str, Tuple[Tuple[str, ...], bool]] = {
    # The paper's figures and tables (Figs. 3-8, Tables I-IV).
    "paper benches": (("-m", "pytest", "benchmarks", "-q", "--ignore=benchmarks/perf",
                       "--benchmark-disable", "-p", "no:cacheprovider"), False),
    # CI's regression gates: one recipe per golden, then observed serially
    # and pooled (--jobs 2: the worker pool, its bus, RunSpec.from_dict).
    "golden own256-sweep": (("-m", "repro", "golden", "own256-sweep",
                             "--json", "{tmp}/diff-report.json"), True),
    "golden own1024-sweep": (("-m", "repro", "golden", "own1024-sweep"), True),
    "golden own256-adaptive": (("-m", "repro", "golden", "own256-adaptive"), True),
    "golden workloads-smoke": (("-m", "repro", "golden", "workloads-smoke",
                                "--cache", "{tmp}/scn-cache",
                                "--runlog", "{tmp}/workloads.jsonl",
                                "--report", "{tmp}/attribution.json"), False),
    "golden workloads-smoke warm": (("-m", "repro", "golden", "workloads-smoke",
                                     "--cache", "{tmp}/scn-cache"), False),
    "golden observed": (("-m", "repro", "golden", "own256-sweep", "--live", "--log-json",
                         "--heartbeat-cycles", "50", "--status-json", "{tmp}/obs.json",
                         "--openmetrics", "{tmp}/obs.prom"), False),
    "golden pooled": (("-m", "repro", "golden", "own256-sweep", "--jobs", "2",
                       "--heartbeat-cycles", "50", "--status-json", "{tmp}/pool.json",
                       "--openmetrics", "{tmp}/pool.prom"), True),
    "golden own256-adaptive pooled": (("-m", "repro", "golden", "own256-adaptive",
                                       "--jobs", "2"), False),
    # CI's other steps.
    "ci fig5 fig6": (("-m", "repro", "experiments", "--only", "fig5,fig6", "--quick",
                      "--cache", "{tmp}/fig56-cache", "--log-json"), False),
    "ci studies cold": (("-m", "repro", "experiments", "--only",
                         "study_thermal,ablation_antenna,study_reconfig", "--quick",
                         "--cache", "{tmp}/study-cache", "--log-json"), False),
    "ci studies warm": (("-m", "repro", "experiments", "--only",
                         "study_thermal,ablation_antenna,study_reconfig", "--quick",
                         "--cache", "{tmp}/study-cache", "--log-json"), False),
    "ci traced sweep": (("-m", "repro", "sweep", "own256", "--rates", "0.03", "--cycles", "300",
                         "--warmup", "100", "--trace", "--trace-out", "{tmp}/trace"), True),
    "ci plain sweep": (("-m", "repro", "sweep", "own256", "--rates", "0.01", "--cycles", "200",
                        "--warmup", "50"), True),
    "ci faulted run": (("-c", _CI_FAULTED_RUN), True),
    "ci report --analyze": (("-m", "repro", "report", "--analyze", "own256", "--rates",
                             "0.01,0.05", "--cycles", "300", "--warmup", "100",
                             "-o", "{tmp}/diagnosis.html", "--json", "{tmp}/diagnosis.json"),
                            False),
    "ci bench harness tests": (("-m", "pytest", "benchmarks/perf", "-q",
                                "-p", "no:cacheprovider"), False),
    "ci opcount own256-knee": (("benchmarks/opcount.py", "--workload", "own256-knee",
                                "--smoke"), False),
    # What the benchmark runs (liveness checks off, profiled rep on).
    **{
        f"bench {w}": (("benchmarks/perf/bench.py", "--workload", w, "--smoke",
                        "--trace", "1"), True)
        for w in ("own256-knee", "own1024-sat", "own256-idle", "own256ft-control")
    },
    # Documented commands and flags CI smokes but no gate reads.
    "cli info own256": (("-m", "repro", "info", "own256"), False),
    "cli channels": (("-m", "repro", "channels"), False),
    "cli scenarios list": (("-m", "repro", "scenarios", "list", "--quick"), False),
    "cli scenarios replay": (("-m", "repro", "scenarios", "replay",
                              "results/golden/workloads-smoke.jsonl"), False),
    "cli diff --json": (("-m", "repro", "diff", "results/golden/own256-sweep.jsonl",
                         "results/golden/own256-sweep.jsonl", "--json",
                         "{tmp}/diff.json"), False),
    "cli report": (("-m", "repro", "report", "--only", "table1,fig4",
                    "-o", "{tmp}/report.md"), False),
    "cli sweep cached": (("-m", "repro", "sweep", "own256", "--rates", "0.01", "--cycles",
                          "200", "--warmup", "50", "--cache", "{tmp}/sweep-cache"), False),
    "cli sweep cache hit observed": (("-m", "repro", "sweep", "own256", "--rates", "0.01",
                                      "--cycles", "200", "--warmup", "50",
                                      "--cache", "{tmp}/sweep-cache",
                                      "--status-json", "{tmp}/hit.json"), False),
    **{
        f"cli sweep --pattern {p}": (("-m", "repro", "sweep", "own256", "--pattern", p,
                                      "--rates", "0.01", "--cycles", "200",
                                      "--warmup", "50"), False)
        for p in ("BC", "TOR")
    },
    "cli --live on a tty": (("-c", _ON_A_TTY.format(
        argv=("-m", "repro", "golden", "own256-sweep", "--live"))), False),
    "docs fault-tolerance snippet": (("-c", _docs_snippet("docs/fault-tolerance.md",
                                                          "\n## Running it")), False),
    # Conditions no gate provokes: a run outliving its heartbeat budget
    # (the hub's watchdog thread and check_stalls) and a wedged network.
    "forced stall": (("-m", "repro", "sweep", "own256", "--rates", "0.05", "--cycles", "3000",
                      "--warmup", "100", "--heartbeat-cycles", "100000",
                      "--stall-after", "0.05"), True),
    "forced deadlock": (("-c", _FORCED_DEADLOCK), True),
    # The example scripts.
    **{
        f"example {name}": ((f"examples/{name}.py",), False)
        for name in ("quickstart", "custom_topology", "design_space_pareto",
                     "kilo_core_scaling", "thermal_and_area", "wireless_design_space")
    },
    "example reproduce_paper": (("examples/reproduce_paper.py", "--quick", "--only",
                                 "table1,fig4"), False),
}

#: Modules of the statement-level pass (``--lines``), under ``src/repro``.
LINE_MODULES = (
    "noc/kernels.py", "noc/router.py", "noc/links.py", "noc/simulator.py",
    "noc/network.py", "noc/buffers.py", "core/routing.py", "core/faults.py",
    "faults/linklayer.py",
)

_QUEUED = "queued: only its own tests call it; ROADMAP item 18 deletes it with them"
_RESUME = "queued: only tests drain and resume (7 tests); ROADMAP item 18 deletes it with them"
_RF = "queued: no figure bench reads it; ROADMAP item 18 deletes it with its tests"
_TRACE_LOCK = "gate: the workload golden-trace lock (tests/workloads/test_golden_traces.py)"
_UTILISATION = "roadmap 23: the residual reads utilisation from the activity record"

#: ``path:qualname`` -> why a function no entry point reaches stays. A
#: ``queued`` fate is a deletion waiting for its turn: its tests go with
#: it, and one change deletes only so many tests.
FATES: Dict[str, str] = {
    # Invariants and references that tests compare against.
    "noc/invariants.py:check_flit_conservation": "gate: invariant check (tests/noc/test_invariants.py)",
    "noc/invariants.py:check_credit_consistency": "gate: invariant check (tests/noc/test_invariants.py)",
    "noc/invariants.py:check_vc_state_coherence": "gate: invariant check (tests/noc/test_invariants.py)",
    "noc/invariants.py:check_kernel_coherence": "gate: invariant check (tests/noc/test_invariants.py, test_kernels.py)",
    "noc/packet.py:Packet.__repr__": "gate: KernelState.rc_sweep's non-head-flit error message formats it",
    "core/coords.py:OwnDims.quad_to_core": "gate: the routing tests' reference coordinates (tests/core)",
    "traffic/patterns.py:TrafficPattern.is_permutation": "gate: tests/reference.py's oracle reads it",
    "traffic/patterns.py:TrafficPattern.fixed_destination": "gate: tests/reference.py's oracle reads it",
    "traffic/generator.py:ScriptedTraffic.__init__": "gate: the scripted injection the tests' oracles drive (tests/reference.py)",
    "core/faults.py:RelayRouting._direct": "gate: OWN-1024 relay routing, CI's stranding gate (tests/core/test_faults1024.py)",
    "core/faults.py:build_fault_tolerant_own1024": "gate: CI's stranding gate (tests/core/test_faults1024.py)",
    "core/reconfig.py:ReconfigurationController.note_escape": "gate: CI's stranding gate forces the escape (tests/core/test_drain.py)",
    "runtime/registry.py:topology_keys": "gate: tests/thermal/test_thermal.py checks the thermal map covers the registry",
    "__init__.py:__dir__": "gate: tests/test_imports.py checks dir(repro) lists the lazy names",
    "analysis/__init__.py:__dir__": "gate: the same lazy-name listing as repro's (tests/test_imports.py)",
    "obs/__init__.py:__dir__": "gate: the same lazy-name listing as repro's (tests/test_imports.py)",
    "obs/hub.py:ObservationHub.subscribe": "gate: the tests' only view of the hub's event stream (tests/obs)",
    "telemetry/metrics.py:MetricRegistry.counters": "gate: tests read per-medium counters through it (tests/telemetry/test_integration_own.py)",
    # The workload golden-trace lock.
    "traffic/trace.py:TrafficTrace.schema": _TRACE_LOCK,
    "traffic/trace.py:TrafficTrace.content_crc": _TRACE_LOCK,
    "traffic/trace.py:TrafficTrace.save": _TRACE_LOCK,
    "traffic/trace.py:TrafficTrace.load": _TRACE_LOCK,
    # A paper claim quoted in EXPERIMENTS.md and README.md.
    "rf/spectrum.py:EmissionMask.psd_dbc": "claim: Sec. IV guard bands (tests/rf/test_spectrum.py)",
    "rf/spectrum.py:adjacent_channel_isolation_db": "claim: Sec. IV guard bands (tests/rf/test_spectrum.py)",
    "rf/spectrum.py:channel_plan_isolation": "claim: Sec. IV guard bands >= 37 / >= 22 dB (tests/rf/test_spectrum.py)",
    # Named ROADMAP items that will call them.
    "power/photonic.py:PhotonicParams.waveguide_laser_power_mw": "roadmap 11: the photonic power substitution",
    "analysis/utilization.py:utilisation_report": _UTILISATION,
    "analysis/utilization.py:UtilisationReport.wireless_traffic_share": _UTILISATION,
    "analysis/utilization.py:UtilisationReport.hottest": _UTILISATION,
    "analysis/utilization.py:UtilisationReport.load_balance_cv": _UTILISATION,
    "analysis/utilization.py:wireless_channel_table_rows": _UTILISATION,
    # Deletions waiting for their turn.
    "noc/simulator.py:Simulator.resume_traffic": _RESUME,
    "telemetry/tracer.py:Tracer.on_traffic_resumed": _RESUME,
    "traffic/generator.py:SyntheticTraffic._pause": _RESUME,
    "rf/budget.py:LinkBudget.required_tx_power_w": _RF,
    "rf/budget.py:LinkBudget.link_distance_factor": _RF,
    "rf/lna.py:CascodeLNA.output_snr_db": _RF,
    "rf/lna.py:CascodeLNA.sufficient_for": _RF,
    "rf/ook.py:required_snr_db": _RF,
    "rf/ook.py:OOKTransceiver.received_snr_db": _RF,
    "rf/ook.py:OOKTransceiver.ber": _RF,
    "rf/ook.py:OOKTransceiver.closes": _RF,
    "rf/oscillator.py:ColpittsOscillator.psd_dbc_hz": _RF,
    "rf/oscillator.py:ColpittsOscillator.waveform": _RF,
    "rf/pa.py:ClassABPA.drain_efficiency": _RF,
    "rf/pa.py:ClassABPA.gain_sweep": _RF,
    "rf/pa.py:ClassABPA.reflection_loss_fraction": _RF,
    "rf/technology.py:DeviceTechnology.supports": _RF,
    "analysis/bisection.py:bisection_report": _QUEUED,
    "analysis/design_space.py:evaluate_point": _QUEUED,
    "analysis/tables.py:format_csv": _QUEUED,
    "analysis/tables.py:ratio_note": _QUEUED,
    "core/coords.py:OwnDims.router_of_core": _QUEUED,
    "core/floorplan.py:Antenna.name": _QUEUED,
    "core/floorplan.py:all_antennas": _QUEUED,
    "faults/campaign.py:FaultCampaign.add": _QUEUED,
    "faults/campaign.py:FaultCampaign.last_cycle": _QUEUED,
    "noc/buffers.py:InputPort.num_vcs": _QUEUED,
    "obs/bus.py:clear_worker_bus": _QUEUED,
    "obs/log.py:ContextLogger.bind": _QUEUED,
    "photonics/losses.py:splitter_loss_db": _QUEUED,
    "power/area.py:AreaBreakdown.as_dict": _QUEUED,
    "power/area.py:area_comparison": _QUEUED,
    "traffic/trace.py:TrafficTrace.replayer": _QUEUED,
    "traffic/trace.py:TraceTraffic.exhausted": _QUEUED,
    "utils/rng.py:RngStreams.spawn": _QUEUED,
    "utils/units.py:ghz": _QUEUED,
    "utils/units.py:mhz": _QUEUED,
    "utils/units.py:wavelength_m": _QUEUED,
    "utils/validation.py:check_non_negative": _QUEUED,
    "noc/network.py:_euclid": _QUEUED,
    "runtime/cache.py:ResultCache.__len__": _QUEUED,
}

# Installed in every interpreter an entry point starts. It writes
# "path<TAB>key" lines to REACH_LOG/<pid>.txt, key being a code object's
# first line (calls) or a line number (--lines).
_SITECUSTOMIZE = '''
import os, sys, threading

_dir, _pkg, _mode = os.environ["REACH_LOG"], os.environ["REACH_PKG"], os.environ["REACH_MODE"]
_files = set(os.environ["REACH_FILES"].split(os.pathsep)) if _mode == "lines" else ()
_seen = set()
_out = [None, None]


def _write(filename, key):
    pid = os.getpid()
    if _out[0] != pid:
        _out[:] = [pid, open(os.path.join(_dir, f"{pid}.txt"), "a", buffering=1)]
    _out[1].write(f"{filename}\\t{key}\\n")


def _calls(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if code.co_filename.startswith(_pkg):
                _write(code.co_filename, code.co_firstlineno)


def _line(frame, event, arg):
    if event == "line":
        key = (frame.f_code.co_filename, frame.f_lineno)
        if key not in _seen:
            _seen.add(key)
            _write(*key)
    return _line


def _lines(frame, event, arg):
    return _line if frame.f_code.co_filename in _files else None


if _mode == "calls":
    sys.setprofile(_calls)
    threading.setprofile(_calls)
else:
    sys.settrace(_lines)
    threading.settrace(_lines)
'''


def run_entries(names: List[str], mode: str, files: Set[str]) -> Dict[str, Set[Tuple[str, int]]]:
    """Run each named entry point under the recorder -> {name: {(path, key)}}."""
    reached: Dict[str, Set[Tuple[str, int]]] = {}
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        site = Path(tmp, "site")
        site.mkdir()
        (site / "sitecustomize.py").write_text(_SITECUSTOMIZE)
        for name in names:
            argv, _ = ENTRY_POINTS[name]
            log_dir = Path(tmp, "log", name.replace(" ", "_").replace("/", "_"))
            log_dir.mkdir(parents=True)
            env = dict(
                os.environ,
                PYTHONPATH=os.pathsep.join([str(site), str(ROOT / "src"), str(ROOT)]),
                REACH_LOG=str(log_dir), REACH_PKG=str(PKG), REACH_MODE=mode,
                REACH_FILES=os.pathsep.join(sorted(files)),
            )
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, *(a.replace("{tmp}", tmp) for a in argv)],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
            )
            if proc.returncode:
                sys.exit(f"entry point {name!r} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
            hits = set()
            for path in log_dir.iterdir():
                for line in path.read_text().splitlines():
                    filename, key = line.split("\t")
                    hits.add((str(Path(filename).resolve().relative_to(PKG)), int(key)))
            reached[name] = hits
            print(f"  {name}: {len(hits)} ({time.perf_counter() - t0:.0f} s)", file=sys.stderr)
    return reached


def functions() -> List[Dict[str, object]]:
    """Every function under ``src/repro``: path, qualname, first line, lines."""
    rows = []
    for path in sorted(PKG.rglob("*.py")):
        rel = str(path.relative_to(PKG))

        def visit(node, prefix: str, outer: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    qual = prefix + child.name
                    rows.append({
                        "path": rel, "name": qual, "line": first,
                        "lines": child.end_lineno - first + 1, "outermost": outer,
                    })
                    visit(child, qual + ".<locals>.", False)
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".", outer)
                else:
                    visit(child, prefix, outer)

        visit(ast.parse(path.read_text()), "", True)
    return rows


def census(names: List[str], out: Path) -> int:
    reached = run_entries(names, "calls", set())
    rows = functions()
    by_key = defaultdict(list)
    for name, hits in reached.items():
        for key in hits:
            by_key[key].append(name)
    for row in rows:
        row["reached_by"] = sorted(by_key.get((row["path"], row["line"]), ()))
    # A nested function is reported only where its enclosing function ran.
    ran = {(r["path"], r["name"]) for r in rows if r["reached_by"]}
    unreached = [
        r for r in rows if not r["reached_by"] and (
            r["outermost"] or (r["path"], r["name"].rsplit(".<locals>.", 1)[0]) in ran
        )
    ]
    total = sum(r["lines"] for r in rows if r["outermost"])
    missed = sum(r["lines"] for r in unreached if r["outermost"])
    per_module = defaultdict(int)
    for r in unreached:
        per_module[r["path"]] += r["lines"]
    out.write_text(json.dumps({
        "entry_points": names,
        "function_lines": total,
        "unreached_function_lines": missed,
        "unreached_lines_by_module": dict(sorted(per_module.items(), key=lambda kv: -kv[1])),
        "functions": rows,
    }, indent=1) + "\n")
    print(f"{len(unreached)} functions unreached, {missed} of {total} function lines; "
          f"wrote {out}")
    for r in unreached:
        key = f"{r['path']}:{r['name']}"
        print(f"  {key} ({r['lines']} lines): {FATES.get(key, 'NO FATE')}")
    keys = {f"{r['path']}:{r['name']}" for r in unreached}
    stale = sorted(set(FATES) - keys)
    for key in stale:
        print(f"  stale fate (reached or gone): {key}")
    if len(names) < len(ENTRY_POINTS):
        return 0  # a partial census cannot judge the fates
    return 1 if stale or keys - set(FATES) else 0


def statements(path: Path) -> Set[int]:
    """First lines of the statements in a module's function bodies."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if isinstance(sub, ast.stmt) and sub is not node and not (
                    isinstance(sub, ast.Expr) and isinstance(sub.value, ast.Constant)
                ):  # docstrings are not run
                    lines.add(sub.lineno)
    return lines


def line_census(names: List[str], out: Path) -> int:
    files = {str(PKG / m) for m in LINE_MODULES}
    reached = run_entries(names, "lines", files)
    ran = set().union(*reached.values())
    result = {}
    for module in LINE_MODULES:
        source = (PKG / module).read_text().splitlines()
        never = sorted(n for n in statements(PKG / module) if (module, n) not in ran)
        result[module] = [f"{n}: {source[n - 1].strip()}" for n in never]
        print(f"{module}: {len(never)} statements never ran")
        for text in result[module]:
            print(f"  {text}")
    out.write_text(json.dumps({"entry_points": names, "never_ran": result}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", default="", help="comma-separated entry-point names")
    ap.add_argument("--lines", action="store_true",
                    help="statement-level pass over LINE_MODULES (smoke entries)")
    ap.add_argument("--out", type=Path, default=None,
                    help="default: reach.json, or reach-lines.json with --lines")
    args = ap.parse_args()
    names = [n for n in args.only.split(",") if n] or [
        n for n, (_, smoke) in ENTRY_POINTS.items() if smoke or not args.lines
    ]
    unknown = set(names) - set(ENTRY_POINTS)
    if unknown:
        ap.error(f"unknown entry points {sorted(unknown)}; known: {', '.join(ENTRY_POINTS)}")
    if args.lines:
        return line_census(names, args.out or Path("reach-lines.json"))
    return census(names, args.out or Path("reach.json"))


if __name__ == "__main__":
    sys.exit(main())
