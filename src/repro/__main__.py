"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``experiments``
    Regenerate paper tables/figures (all, or a comma list via ``--only``);
    ``--quick`` shortens the simulation windows. ``--jobs/--cache/--runlog``
    route the simulation points through the parallel/cached execution
    engine (:mod:`repro.runtime`).
``sweep``
    Latency/throughput load sweep for one topology and pattern, with the
    same ``--jobs/--cache/--runlog`` engine flags.
``info``
    Structural summary of a topology (routers, radix, links, media,
    bisection accounting, photonic component inventory) and the analytic
    model's UN zero-load latency and saturation bound.
``channels``
    Print the wireless channel plan (Tables I-IV) without simulating.
``report``
    Markdown run report over the experiment suite; or, with
    ``--analyze TOPOLOGY``, an instrumented load sweep rendered as a
    self-contained HTML diagnosis (latency decomposition + bottleneck
    verdicts, congestion heatmaps, simulator self-profile) with an
    optional JSON dump.
``diff``
    Compare two JSONL run logs point by point (latency / throughput /
    power deltas with noise bands from repeated runs); exits non-zero
    when a gated metric regresses beyond the noise band plus
    ``--threshold``; at ``--threshold 0`` a move either way breaches.
``golden``
    The CI regression gate: run a golden's recipe (``GOLDEN_RECIPES``) and
    diff it against ``results/golden/NAME.jsonl`` at 0 % (a gated metric
    that moves at all fails), or ``--write`` it.
``scenarios``
    The application-workload scenario matrix ({workload} x {topology} x
    {fault campaign} x {wireless scenario}; see ``docs/workloads.md``):
    ``list`` the cells, ``run`` a (filtered) suite through the cached
    engine with per-cell bottleneck-attribution verdicts folded into the
    run records, or ``replay`` a previous run's JSONL log as a table.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from typing import Dict, List, Optional

from repro.obs import (
    DEFAULT_SAMPLE_EVERY,
    DEFAULT_STALL_AFTER_S,
    configure_logging,
    get_logger,
)
from repro.runtime import DEFAULT_CACHE_DIR, Executor, NAMED_TOPOLOGIES, build_ref
from repro.runtime.spec import check_window

#: CLI-layer structured logger; diagnostic lines that used to be bare
#: ``print(..., file=sys.stderr)`` calls flow through here (identical
#: human rendering; ``--log-json`` / ``REPRO_LOG=json`` switches the
#: whole tree to JSON lines). Human-facing result tables stay on stdout.
log = get_logger("repro.cli")


def positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (a count of workers or cycles)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def non_negative_float(text: str) -> float:
    """argparse type: a number >= 0 (NaN is neither)."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be a number >= 0, got {text!r}")
    return value


def rate_list(text: str) -> List[float]:
    """argparse type: comma-separated offered loads in [0, 1] flits/core/cycle."""
    try:
        rates = [float(r) for r in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated numbers, got {text!r}"
        )
    if not all(0 <= r <= 1 for r in rates):
        raise argparse.ArgumentTypeError(
            f"each rate must be in [0, 1] flits/core/cycle, got {text!r}"
        )
    return rates


def pattern_name(text: str) -> str:
    """argparse type: a synthetic traffic pattern name, in any case."""
    from repro.traffic.patterns import EXTENDED_PATTERN_NAMES

    if text.upper() not in EXTENDED_PATTERN_NAMES:
        raise argparse.ArgumentTypeError(
            f"must be one of {', '.join(EXTENDED_PATTERN_NAMES)}, got {text!r}"
        )
    return text


def check_window_arg(args: argparse.Namespace, cycles: int, warmup: int) -> None:
    """Turn a measurement window that measures nothing into a usage error."""
    try:
        check_window(cycles, warmup)
    except ValueError as exc:
        args.usage_error(f"--warmup/--cycles: {exc}")


def add_observing_flags(parser: argparse.ArgumentParser) -> None:
    """Engine flags that leave the simulated specs unchanged: workers, cache,
    run log and live observability (``golden`` passes them to a recipe)."""
    parser.add_argument(
        "--jobs", type=positive_int, default=1, metavar="N",
        help="worker processes for simulation points (default: 1, serial)",
    )
    parser.add_argument(
        "--cache", nargs="?", const=DEFAULT_CACHE_DIR, default=None, metavar="DIR",
        help=f"reuse cached results from DIR (default dir: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--runlog", default=None, metavar="PATH",
        help="append one JSONL run record per simulation point to PATH",
    )
    parser.add_argument(
        "--live", action="store_true",
        help="render an in-place per-run progress table on stderr while "
             "simulations are in flight",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="structured JSON-lines logging on stderr (one object per "
             "diagnostic, with correlation fields; see also REPRO_LOG)",
    )
    parser.add_argument(
        "--status-json", default=None, metavar="PATH",
        help="rewrite a JSON status document at PATH on every observation "
             "event (atomic; the payload a live dashboard would poll)",
    )
    parser.add_argument(
        "--openmetrics", default=None, metavar="PATH",
        help="rewrite an OpenMetrics/Prometheus textfile snapshot at PATH "
             "on every observation event (node-exporter textfile collector)",
    )
    parser.add_argument(
        "--heartbeat-cycles", type=positive_int, default=None, metavar="N",
        help="in-flight heartbeat stride in simulated cycles "
             f"(default: {DEFAULT_SAMPLE_EVERY})",
    )
    parser.add_argument(
        "--stall-after", type=non_negative_float, default=None, metavar="SEC",
        help="warn (naming the spec) when an in-flight run goes SEC "
             "wall-seconds without a heartbeat "
             f"(default: {DEFAULT_STALL_AFTER_S:g}; 0 disables)",
    )


def add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """The observing flags plus ``--metrics/--trace``, which change a run."""
    add_observing_flags(parser)
    parser.add_argument(
        "--metrics", action="store_true",
        help="collect per-channel-class telemetry metrics into run results "
             "(and --runlog records)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="record cycle-level events and export one Chrome trace_event "
             "JSON per simulation point (implies --metrics; see --trace-out)",
    )
    parser.add_argument(
        "--trace-out", default="traces", metavar="DIR",
        help="directory for Chrome trace files (default: traces/)",
    )


def observation_from_args(args: argparse.Namespace):
    """Build an :class:`repro.obs.ObservationHub` from CLI flags.

    Returns ``None`` when no observability flag is set -- the engine then
    runs entirely unobserved (zero overhead, not even a hub object).
    """
    wants = (
        args.live
        or args.status_json is not None
        or args.openmetrics is not None
        or args.heartbeat_cycles is not None
    )
    if not wants:
        return None
    from repro.obs import (
        LiveView,
        ObservationHub,
        OpenMetricsExporter,
        StatusExporter,
    )

    consumers = []
    if args.openmetrics is not None:
        consumers.append(OpenMetricsExporter(args.openmetrics))
    if args.status_json is not None:
        consumers.append(StatusExporter(args.status_json))
    if args.live:
        consumers.append(LiveView())
    return ObservationHub(
        sample_every=(
            DEFAULT_SAMPLE_EVERY if args.heartbeat_cycles is None
            else args.heartbeat_cycles
        ),
        stall_after_s=(
            DEFAULT_STALL_AFTER_S if args.stall_after is None
            else args.stall_after
        ),
        consumers=consumers,
    )


def executor_from_args(args: argparse.Namespace, runlog: bool = True) -> Optional[Executor]:
    """Build an engine executor from CLI flags (``None`` if all defaults);
    ``runlog=False`` leaves ``--runlog`` to the caller (``scenarios``)."""
    hub = observation_from_args(args)
    metrics, trace = getattr(args, "metrics", False), getattr(args, "trace", False)
    if (
        hub is None
        and args.jobs == 1
        and args.cache is None
        and args.runlog is None
        and not metrics
        and not trace
    ):
        return None

    live = args.live

    def _progress(done: int, total: int, result) -> None:
        if live:
            return  # the --live table already shows per-run completion
        tag = "cache" if result.cache_hit else f"{result.wall_s:.1f}s"
        log.info(
            f"  [{done}/{total}] {result.spec.label()} ({tag})",
            extra={
                "run": result.digest[:12],
                "label": result.spec.label(),
                "tag": result.spec.tag,
                "phase": "finished",
                "cache_hit": result.cache_hit,
                "wall_s": round(result.wall_s, 4),
            },
        )

    return Executor(
        jobs=args.jobs,
        cache=args.cache,
        runlog=args.runlog if runlog else None,
        progress=_progress,
        telemetry=metrics,
        trace_dir=args.trace_out if trace else None,
        observe=hub,
    )


def write_json(path: str, payload) -> None:
    """Dump ``payload`` to ``path`` as strict JSON (NaN/Inf become null)."""
    import json

    from repro.runtime.records import json_safe

    with open(path, "w") as fh:
        json.dump(json_safe(payload), fh, indent=1, allow_nan=False)


def report_engine_stats(executor: Optional[Executor]) -> None:
    if executor is None:
        return
    stats = executor.stats()
    line = (
        f"engine: {stats['runs_executed']} simulated, "
        f"{stats['runs_from_cache']} from cache"
    )
    extra: Dict[str, object] = {
        "runs_executed": stats["runs_executed"],
        "runs_from_cache": stats["runs_from_cache"],
    }
    cache = executor.cache
    if cache is not None and (cache.hits + cache.misses) > 0:
        # The hit-rate clause only renders once the cache has actually
        # been consulted; with zero lookups there is no rate to report.
        line += (
            f" (hit rate {cache.hit_rate:.0%})"
            f" [{cache.hits} hits / {cache.misses} misses]"
        )
        extra.update(
            cache_hits=cache.hits,
            cache_misses=cache.misses,
            cache_hit_rate=round(cache.hit_rate, 4),
        )
    log.info(line, extra=extra)


# Each command imports the analysis names it uses: ``repro.analysis``
# resolves them on first use, so ``sweep`` never loads the experiment
# runners (nor NumPy).


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.analysis import EXPERIMENTS

    wanted = [w for w in args.only.split(",") if w] or list(EXPERIMENTS)
    unknown = set(wanted) - set(EXPERIMENTS)
    if unknown:
        log.error(
            f"unknown experiments: {sorted(unknown)}",
            extra={"unknown": sorted(unknown)},
        )
        log.info(f"known: {sorted(EXPERIMENTS)}")
        return 2
    executor = executor_from_args(args)
    for key in wanted:
        runner = EXPERIMENTS[key]
        params = inspect.signature(runner).parameters
        kwargs = {}
        if args.quick and "quick" in params:
            kwargs["quick"] = True
        if executor is not None and "executor" in params:
            kwargs["executor"] = executor
        t0 = time.time()
        result = runner(**kwargs)
        print("=" * 72)
        print(f"[{key}] ({time.time() - t0:.1f}s)")
        print(result.rendered)
        for k, v in result.notes.items():
            print(f"  note {k}: {v}")
    report_engine_stats(executor)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis import format_table, load_sweep

    check_window_arg(args, args.cycles, args.warmup)
    ref = NAMED_TOPOLOGIES[args.topology]
    executor = executor_from_args(args)
    sweep = load_sweep(
        ref,
        args.pattern,
        args.rates,
        cycles=args.cycles,
        warmup=args.warmup,
        name=args.topology,
        executor=executor,
    )
    rows = [
        [p.offered, round(p.latency, 1), round(p.throughput, 4),
         round(p.accepted_fraction, 3)]
        for p in sweep.points
    ]
    print(format_table(
        ["offered", "latency", "accepted", "fraction"],
        rows,
        title=f"{args.topology} / {args.pattern}",
    ))
    print(f"saturation offered load: {sweep.saturation_offered()}")
    report_engine_stats(executor)
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    from repro.analysis import measure_bisection, predict

    built = build_ref(NAMED_TOPOLOGIES[args.topology])
    net = built.network
    print(f"{net.name}: {net.n_cores} cores, {net.n_routers} routers")
    print(f"  links: {len(net.links)} "
          f"(electrical {len(net.links_by_kind('electrical'))}, "
          f"photonic {len(net.links_by_kind('photonic'))}, "
          f"wireless {len(net.links_by_kind('wireless'))})")
    print(f"  shared media: {len(net.mediums)}")
    print(f"  radix histogram: {dict(sorted(net.radix_histogram().items()))}")
    entry = measure_bisection(built)
    print(f"  bisection: {entry.crossing_channels} directed channels crossing, "
          f"{entry.cycles_per_flit} cycles/flit, "
          f"{entry.equalized_flits_per_cycle:.1f} flits/cycle equalised, "
          f"{entry.raw_gbps:.0f} Gbps raw")
    model = predict(built)
    print(f"  model (UN): zero-load latency {model.zero_load_latency:.1f} cycles, "
          f"saturation bound {model.saturation_rate:.4f} flits/core/cycle "
          f"(binding: {model.binding_resource})")
    from repro.power import photonic_ring_count

    rings = photonic_ring_count(built)
    if rings:
        print(f"  photonic rings: {rings:,}")
    for k, v in built.notes.items():
        if isinstance(v, (int, float, str)):
            print(f"  note {k}: {v}")
    return 0


def cmd_channels(args: argparse.Namespace) -> int:
    from repro.analysis import EXPERIMENTS

    for key in ("table1", "table2", "table3", "table4"):
        print(EXPERIMENTS[key]().rendered)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if args.analyze:
        return _report_analyze(args)
    from repro.analysis import generate_report

    only = [w for w in args.only.split(",") if w] or None
    try:
        text = generate_report(only=only, quick=not args.full)
    except KeyError as exc:
        log.error(str(exc))
        return 2
    out = args.output or "report.md"
    with open(out, "w") as fh:
        fh.write(text)
    print(f"wrote {out} ({len(text.splitlines())} lines)")
    return 0


def _report_analyze(args: argparse.Namespace) -> int:
    """``report --analyze``: instrumented sweep -> HTML + JSON diagnosis."""
    from repro.analysis import diagnose_sweep, render_sweep_report

    check_window_arg(args, args.cycles, args.warmup)
    diag = diagnose_sweep(
        NAMED_TOPOLOGIES[args.analyze],
        pattern=args.pattern,
        rates=args.rates,
        cycles=args.cycles,
        warmup=args.warmup,
    )
    for p in diag.points:
        log.info(
            f"  rate {p.rate:g}: latency {p.latency:.1f} cyc, "
            f"verdict {p.verdict} ({p.attribution.verdict_share:.0%})"
            if p.attribution
            else f"  rate {p.rate:g}: no packet breakdown",
            extra={"rate": p.rate, "verdict": p.verdict},
        )
    flip = diag.verdict_flip()
    if flip:
        print(
            f"saturation knee at rate {flip['at']:g}: "
            f"{flip['before']} -> {flip['after']}"
        )
    elif diag.knee is not None:
        print(f"saturation knee at rate {diag.knee:g}")
    else:
        print("no saturation knee within the swept load range")
    out = args.output or "diagnosis.html"
    with open(out, "w") as fh:
        fh.write(render_sweep_report(diag))
    print(f"wrote {out}")
    if args.json:
        write_json(args.json, diag.to_json_dict())
        print(f"wrote {args.json}")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.analysis import diff_runlogs, format_diff

    try:
        diff = diff_runlogs(args.runlog_a, args.runlog_b,
                            rel_threshold=args.threshold)
    except OSError as exc:
        log.error(str(exc))
        return 2
    print(format_diff(diff))
    if args.json:
        write_json(args.json, diff.to_json_dict())
        log.info(f"wrote {args.json}")
    if not diff.matched and not args.allow_unmatched:
        log.error(
            "no comparable run points (use --allow-unmatched to tolerate)"
        )
        return 2
    return 0 if diff.clean else 1


#: Golden run log ``results/golden/NAME.jsonl`` -> the one copy of the
#: command that writes it.
GOLDEN_RECIPES = {
    "own256-sweep": "sweep own256 --rates 0.01,0.03 --cycles 300 --warmup 100 --metrics",
    "own1024-sweep": "sweep own1024 --rates 0.004,0.008 --cycles 300 --warmup 100",
    "own256-adaptive": "experiments --only study_adaptive --quick",
    "workloads-smoke": "scenarios run --only own256,clean,ideal --cycles 300 --warmup 100",
}
#: Flags ``golden`` passes to a recipe: how it runs, never what it simulates.
GOLDEN_FORWARDED = ("jobs", "cache", "report", "live", "heartbeat_cycles",
                    "status_json", "openmetrics", "stall_after")


def cmd_golden(args: argparse.Namespace) -> int:
    """``golden``: run each recipe through its own command into a fresh log,
    gate it as ``diff --threshold 0`` does, or ``--write`` it if it fails."""
    import shutil
    import tempfile

    names = args.names or list(GOLDEN_RECIPES)
    if set(names) - set(GOLDEN_RECIPES):
        args.usage_error(f"NAME must be one of {' '.join(GOLDEN_RECIPES)}")
    if args.json and len(names) > 1:
        args.usage_error("--json needs exactly one golden NAME")
    worst = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            run = build_parser().parse_args(GOLDEN_RECIPES[name].split())
            for dest in GOLDEN_FORWARDED:
                if hasattr(run, dest):  # --report: scenarios only
                    setattr(run, dest, getattr(args, dest))
            run.runlog = f"{tmp}/{name}.jsonl"
            code = run.fn(run)
            if code:
                return code
            if args.runlog:
                with open(run.runlog) as fresh, open(args.runlog, "a") as fh:
                    fh.write(fresh.read())
            golden = f"results/golden/{name}.jsonl"  # from the repo root
            code = cmd_diff(argparse.Namespace(
                runlog_a=golden, runlog_b=run.runlog, threshold=0.0,
                json=args.json, allow_unmatched=False,
            ))
            if args.write:
                if code:
                    shutil.copyfile(run.runlog, golden)
                print(f"{'REWRITTEN' if code else 'unchanged'}  {golden}")
            worst = max(worst, code)
    return 0 if args.write else worst


def cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.workloads import (
        attribution_report,
        filter_cells,
        render_scenarios,
        run_scenarios,
        scenario_matrix,
    )

    if args.action == "replay":
        return _scenarios_replay(args)

    cycles, warmup = args.cycles, args.warmup
    if args.quick:
        cycles, warmup = min(cycles, 400), min(warmup, 100)
    check_window_arg(args, cycles, warmup)
    cells = scenario_matrix(cycles=cycles, warmup=warmup, seed=args.seed)
    if args.only:
        cells = filter_cells(cells, args.only)
    if not cells:
        log.error(f"no scenario cells match --only {args.only!r}")
        return 2

    if args.action == "list":
        for cell in cells:
            print(f"{cell.key:48s} {cell.spec.digest()[:12]}")
        log.info(f"{len(cells)} cells")
        return 0

    executor = executor_from_args(args, runlog=False)
    outcomes = run_scenarios(cells, executor, runlog=args.runlog)
    print(render_scenarios(outcomes, title=f"Scenario matrix ({len(cells)} cells)"))
    if args.report:
        write_json(args.report, attribution_report(outcomes))
        log.info(f"wrote {args.report}")
    report_engine_stats(executor)
    return 0


def _scenarios_replay(args: argparse.Namespace) -> int:
    """``scenarios replay``: re-render a scenario run log as a table."""
    import json

    from repro.analysis import format_table
    from repro.workloads import SCENARIO_HEADERS

    if not args.runlog_path:
        log.error("scenarios replay needs a run-log path")
        return 2
    rows = []
    try:
        with open(args.runlog_path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                scn = record.get("scenario")
                if not scn:
                    continue
                summary = record.get("summary", {})
                power = record.get("power", {})
                total_w = 0.0
                for block in power.values():
                    if isinstance(block, dict) and "total_w" in block:
                        total_w = block["total_w"]
                rows.append([
                    scn.get("workload"), scn.get("topology"),
                    scn.get("faults"), scn.get("wireless"),
                    round(summary.get("latency_mean") or float("nan"), 1),
                    round(summary.get("latency_p99") or float("nan"), 1),
                    round(summary.get("throughput", 0.0), 4),
                    int(summary.get("packets_retransmitted", 0)),
                    round(total_w, 2),
                    record.get("verdict", "?"),
                ])
    except OSError as exc:
        log.error(str(exc))
        return 2
    if not rows:
        log.error(f"no scenario records in {args.runlog_path}")
        return 2
    print(format_table(SCENARIO_HEADERS, rows,
                       title=f"Scenario run log ({len(rows)} cells)"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="regenerate paper tables/figures")
    p_exp.add_argument("--only", default="", help="comma-separated experiment ids")
    p_exp.add_argument("--quick", action="store_true")
    add_engine_flags(p_exp)
    p_exp.set_defaults(fn=cmd_experiments)

    p_sweep = sub.add_parser("sweep", help="latency/throughput load sweep")
    p_sweep.add_argument("topology", choices=sorted(NAMED_TOPOLOGIES))
    p_sweep.add_argument("--pattern", type=pattern_name, default="UN")
    p_sweep.add_argument(
        "--rates", type=rate_list, default="0.01,0.02,0.03,0.04,0.05"
    )
    p_sweep.add_argument("--cycles", type=int, default=1200)
    p_sweep.add_argument("--warmup", type=int, default=400)
    add_engine_flags(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep, usage_error=p_sweep.error)

    p_info = sub.add_parser("info", help="structural summary of a topology")
    p_info.add_argument("topology", choices=sorted(NAMED_TOPOLOGIES))
    p_info.set_defaults(fn=cmd_info)

    p_ch = sub.add_parser("channels", help="print the wireless channel plan")
    p_ch.set_defaults(fn=cmd_channels)

    p_rep = sub.add_parser(
        "report", help="generate a markdown run report or an HTML diagnosis"
    )
    p_rep.add_argument("-o", "--output", default=None,
                       help="default: report.md, or diagnosis.html with --analyze")
    p_rep.add_argument("--only", default="", help="comma-separated experiment ids")
    p_rep.add_argument("--full", action="store_true",
                       help="full simulation windows (slow)")
    p_rep.add_argument(
        "--analyze", default=None, metavar="TOPOLOGY",
        choices=sorted(NAMED_TOPOLOGIES),
        help="instead of the markdown report, run an instrumented load "
             "sweep on TOPOLOGY and write a self-contained HTML diagnosis "
             "(bottleneck attribution, congestion heatmaps, self-profile)",
    )
    p_rep.add_argument("--pattern", type=pattern_name, default="UN",
                       help="traffic pattern for --analyze (default: UN)")
    p_rep.add_argument("--rates", type=rate_list, default="0.01,0.03,0.05,0.07",
                       help="comma-separated offered loads for --analyze")
    p_rep.add_argument("--cycles", type=int, default=800)
    p_rep.add_argument("--warmup", type=int, default=200)
    p_rep.add_argument("--json", default=None, metavar="PATH",
                       help="also dump the --analyze diagnosis as JSON")
    p_rep.set_defaults(fn=cmd_report, usage_error=p_rep.error)

    p_diff = sub.add_parser(
        "diff", help="compare two JSONL run logs (CI regression gate)"
    )
    p_diff.add_argument("runlog_a", help="baseline run log (JSONL)")
    p_diff.add_argument("runlog_b", help="candidate run log (JSONL)")
    p_diff.add_argument(
        "--threshold", type=non_negative_float, default=0.05, metavar="FRAC",
        help="relative delta beyond the noise band that counts as a "
             "regression (default: 0.05); at 0, a move either way does",
    )
    p_diff.add_argument("--json", default=None, metavar="PATH",
                        help="also dump the structured diff as JSON")
    p_diff.add_argument(
        "--allow-unmatched", action="store_true",
        help="exit 0 even when the logs share no run points",
    )
    p_diff.set_defaults(fn=cmd_diff)

    p_scn = sub.add_parser(
        "scenarios",
        help="workload x topology x faults x wireless scenario matrix",
    )
    p_scn.add_argument(
        "action", choices=("list", "run", "replay"),
        help="list matrix cells, run a suite, or re-render a run log",
    )
    p_scn.add_argument(
        "runlog_path", nargs="?", default=None,
        help="JSONL run log to re-render (replay action only)",
    )
    p_scn.add_argument(
        "--only", default="", metavar="EXPR",
        help="keep cells whose key contains every comma-separated term "
             "(e.g. 'coherence,own256,ideal')",
    )
    p_scn.add_argument("--cycles", type=int, default=1500)
    p_scn.add_argument("--warmup", type=int, default=300)
    p_scn.add_argument("--seed", type=int, default=2)
    p_scn.add_argument("--quick", action="store_true",
                       help="cap windows at 400/100 cycles")
    p_scn.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the per-cell attribution report as JSON to PATH",
    )
    add_observing_flags(p_scn)
    p_scn.set_defaults(fn=cmd_scenarios, usage_error=p_scn.error)

    p_gold = sub.add_parser("golden", help="gate golden run logs at 0%% (CI)")
    p_gold.add_argument("names", nargs="*", metavar="NAME",
                        help=f"default: all of {' '.join(GOLDEN_RECIPES)}")
    p_gold.add_argument("--write", action="store_true",
                        help="rewrite each golden whose gate fails")
    p_gold.add_argument("--json", metavar="PATH", help="dump the diff as JSON")
    p_gold.add_argument("--report", metavar="PATH",
                        help="a scenarios recipe's attribution report")
    add_observing_flags(p_gold)
    p_gold.set_defaults(fn=cmd_golden, usage_error=p_gold.error)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # --log-json upgrades the whole repro logging tree to JSON lines;
    # commands without observability flags keep the (env-driven) default.
    if getattr(args, "log_json", False):
        configure_logging(json_mode=True)
    else:
        configure_logging()
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
