"""Experiment runners: one per table and figure of the paper's evaluation.

Every runner returns an :class:`ExperimentResult` whose ``rows`` carry the
same quantities the paper reports and whose ``rendered`` string prints the
table. Benchmarks in ``benchmarks/`` call these with ``quick=True`` (short
measurement windows); ``examples/reproduce_paper.py`` runs the full set.

Paper-expected shapes are recorded in each docstring and cross-checked in
EXPERIMENTS.md against measured output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.sweep import SweepResult, compare_saturation, load_sweep, run_point
from repro.analysis.tables import format_table
from repro.core import (
    own256_channels,
    own1024_channels,
    sdm_frequency_reuse_groups,
)
from repro.power import (
    CONFIGURATIONS,
    SCENARIOS,
    channels_for_config,
    config_average_energy_pj_per_bit,
    wireless_channel_table,
)
from repro.rf import ClassABPA, CascodeLNA, ColpittsOscillator, LinkBudget
from repro.runtime import (
    ControlSpec,
    Executor,
    FaultSpec,
    RunSpec,
    build_ref,
    get_executor,
)


@dataclass
class ExperimentResult:
    """Output of one experiment runner."""

    experiment: str
    headers: List[str]
    rows: List[List[object]]
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def rendered(self) -> str:
        return format_table(self.headers, self.rows, title=self.experiment)


# --------------------------------------------------------------------- #
# Topology registries used by the figure experiments
# --------------------------------------------------------------------- #

#: Paper display name -> execution-engine topology reference. The figure
#: experiments submit these as :class:`~repro.runtime.spec.RunSpec`s so
#: every simulation point is cacheable and parallelisable.
SPEC_BUILDERS_256: Dict[str, Tuple[str, Dict[str, object]]] = {
    "CMESH": ("cmesh", {"n_cores": 256}),
    "wCMESH": ("wcmesh", {"n_cores": 256}),
    "OptXB": ("optxb", {"n_cores": 256}),
    "p-Clos": ("pclos", {"n_cores": 256}),
    "OWN": ("own256", {}),
}

SPEC_BUILDERS_1024: Dict[str, Tuple[str, Dict[str, object]]] = {
    "CMESH": ("cmesh", {"n_cores": 1024}),
    "wCMESH": ("wcmesh", {"n_cores": 1024}),
    "OptXB": ("optxb", {"n_cores": 1024}),
    "p-Clos": ("pclos", {"n_cores": 1024, "n_middles": 32}),
    "OWN": ("own1024", {}),
}


# --------------------------------------------------------------------- #
# Tables I, II, III, IV
# --------------------------------------------------------------------- #


def table1_channels() -> ExperimentResult:
    """Table I: the 12 OWN-256 wireless connections by distance class."""
    rows = [
        [c.channel_index, c.name, c.distance_class, round(c.distance_mm, 1)]
        for c in own256_channels()
    ]
    return ExperimentResult(
        "Table I: OWN-256 wireless connections",
        ["channel", "link", "class", "distance_mm"],
        rows,
        notes={"sdm_groups": sdm_frequency_reuse_groups()},
    )


def table2_channels_1024() -> ExperimentResult:
    """Table II: OWN-1024 inter-/intra-group channel allocation."""
    rows = [
        [
            c.channel_index,
            f"g{c.src_group}->g{c.dst_group}",
            c.tx,
            "SWMR multicast" if c.src_group != c.dst_group else "intra-group",
            c.distance_class,
        ]
        for c in own1024_channels()
    ]
    return ExperimentResult(
        "Table II: OWN-1024 wireless channels",
        ["channel", "groups", "antenna", "mode", "class"],
        rows,
    )


def table3_wireless_tech() -> ExperimentResult:
    """Table III: 16-channel frequency/technology/energy plan, 2 scenarios."""
    rows: List[List[object]] = []
    for num, scen in SCENARIOS.items():
        for spec in wireless_channel_table(scen):
            rows.append(
                [
                    num,
                    spec.index,
                    spec.freq_ghz,
                    spec.bandwidth_ghz,
                    spec.technology,
                    round(spec.energy_pj_per_bit, 3),
                    spec.role,
                ]
            )
    return ExperimentResult(
        "Table III: wireless channel plan (ideal + conservative)",
        ["scenario", "ch", "freq_GHz", "BW_GHz", "tech", "pJ/bit", "role"],
        rows,
    )


def table4_configs() -> ExperimentResult:
    """Table IV: the four range->technology configurations + mean energies."""
    rows: List[List[object]] = []
    for cfg, mapping in CONFIGURATIONS.items():
        for num, scen in SCENARIOS.items():
            rows.append(
                [
                    cfg,
                    mapping["C2C"],
                    mapping["E2E"],
                    mapping["SR"],
                    num,
                    round(config_average_energy_pj_per_bit(cfg, scen), 4),
                ]
            )
    return ExperimentResult(
        "Table IV: WiNoC configurations",
        ["config", "long(C2C)", "medium(E2E)", "short(SR)", "scenario", "avg_pJ/bit"],
        rows,
    )


# --------------------------------------------------------------------- #
# Figures 3 and 4: RF substrate
# --------------------------------------------------------------------- #


def fig3_link_budget() -> ExperimentResult:
    """Fig. 3: required TX power vs distance for 0/5/10 dBi antennas.

    Paper anchor: >= 4 dBm at 50 mm with isotropic antennas, 32 Gbps,
    90 GHz carrier.
    """
    budget = LinkBudget()
    distances = [5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
    gains = [0.0, 5.0, 10.0]
    grid = budget.sweep(distances, gains)
    rows = []
    for j, d in enumerate(distances):
        rows.append([d] + [round(float(grid[i, j]), 2) for i in range(len(gains))])
    return ExperimentResult(
        "Fig. 3: OOK link budget (TX power dBm vs distance)",
        ["distance_mm"] + [f"{g:.0f}dBi" for g in gains],
        rows,
        notes={"anchor_50mm_0dBi_dbm": budget.required_tx_power_dbm(50.0)},
    )


def fig4_transceiver() -> ExperimentResult:
    """Fig. 4: oscillator PSD/phase noise, PA gain/compression, LNA gain.

    Paper anchors: 90 GHz oscillation, ~-86 dBc/Hz @ 1 MHz; PA peak gain
    3.5 dB, ~20 GHz 2-dB bandwidth, P1dB ~5 dBm, 14 mW DC; LNA 10 dB gain.
    """
    osc = ColpittsOscillator()
    pa = ClassABPA()
    lna = CascodeLNA()
    freqs = np.arange(70.0, 111.0, 5.0)
    rows = []
    for f in freqs:
        rows.append(
            [float(f), round(pa.gain_db(float(f)), 2), round(lna.gain_db(float(f)), 2)]
        )
    return ExperimentResult(
        "Fig. 4: transceiver building blocks (gain vs frequency)",
        ["freq_GHz", "PA_gain_dB", "LNA_gain_dB"],
        rows,
        notes={
            "osc_freq_ghz": osc.frequency_ghz,
            "osc_pn_1mhz_dbc": osc.phase_noise_dbc_hz(1e6),
            "pa_p1db_dbm": pa.compression_point_dbm(),
            "pa_dc_mw": pa.dc_power_mw,
            "lna_peak_gain_db": lna.gain_db(lna.center_ghz),
        },
    )


# --------------------------------------------------------------------- #
# Figure 5: average wireless link power per configuration
# --------------------------------------------------------------------- #


def fig5_wireless_power(
    quick: bool = False, rate: float = 0.03, executor: Optional[Executor] = None
) -> ExperimentResult:
    """Fig. 5: avg wireless link power, configs 1-4 x scenarios 1-2, UN.

    Paper shape: configs 1 and 3 (SiGe long-range) highest under both
    scenarios; config 2 cuts config 1 by ~60 % (S1) / ~47 % (S2); config 4
    by ~80 % (S1) / ~57 % (S2).
    """
    cycles = 800 if quick else 2000
    power_pairs = tuple(
        (cfg, scen_num) for scen_num in SCENARIOS for cfg in sorted(CONFIGURATIONS)
    )
    spec = RunSpec.create(
        "own256", pattern="UN", rate=rate, cycles=cycles, seed=11, power=power_pairs
    )
    run = get_executor(executor).run_one(spec)

    rows: List[List[object]] = []
    per_cfg: Dict[tuple, float] = {}
    for scen_num in SCENARIOS:
        for cfg in sorted(CONFIGURATIONS):
            avg_mw = run.power_for(cfg, scen_num)["avg_wireless_link_mw"]
            per_cfg[(scen_num, cfg)] = avg_mw
            rows.append([scen_num, cfg, round(avg_mw, 3)])
    notes = {}
    for scen_num in SCENARIOS:
        base = per_cfg[(scen_num, 1)]
        notes[f"s{scen_num}_reduction_cfg2_pct"] = 100 * (1 - per_cfg[(scen_num, 2)] / base)
        notes[f"s{scen_num}_reduction_cfg4_pct"] = 100 * (1 - per_cfg[(scen_num, 4)] / base)
    return ExperimentResult(
        "Fig. 5: average wireless link power (mW/link), random traffic",
        ["scenario", "config", "avg_link_power_mW"],
        rows,
        notes=notes,
    )


# --------------------------------------------------------------------- #
# Figure 6: 256-core power breakdown
# --------------------------------------------------------------------- #


def fig6_power_256(
    quick: bool = False, rate: float = 0.03, executor: Optional[Executor] = None
) -> ExperimentResult:
    """Fig. 6: component power for all 256-core architectures plus the four
    OWN configurations, uniform random traffic.

    Paper shape: OptXB least; OWN cfg4 next (about 2x OptXB); p-Clos
    slightly above OptXB; wCMESH above OWN; CMESH the most (OWN saves
    "in excess of 30%").
    """
    cycles = 800 if quick else 2000
    rows: List[List[object]] = []
    totals: Dict[str, float] = {}

    names = list(SPEC_BUILDERS_256)
    specs = []
    for name in names:
        key, kwargs = SPEC_BUILDERS_256[name]
        power = (
            tuple((cfg, 1) for cfg in sorted(CONFIGURATIONS))
            if name == "OWN"
            else ((4, 1),)
        )
        specs.append(
            RunSpec.create(
                key, pattern="UN", rate=rate, cycles=cycles, seed=11,
                topology_kwargs=kwargs, power=power,
            )
        )
    for name, run in zip(names, get_executor(executor).run(specs)):
        if name == "OWN":
            for cfg in sorted(CONFIGURATIONS):
                pb = run.power_for(cfg, 1)
                label = f"OWN-cfg{cfg}"
                totals[label] = pb["total_w"]
                rows.append(
                    [label, round(pb["router_w"], 3), round(pb["electrical_link_w"], 3),
                     round(pb["photonic_w"], 3), round(pb["wireless_w"], 3),
                     round(pb["total_w"], 3)]
                )
        else:
            pb = run.power_for(4, 1)
            totals[name] = pb["total_w"]
            rows.append(
                [name, round(pb["router_w"], 3), round(pb["electrical_link_w"], 3),
                 round(pb["photonic_w"], 3), round(pb["wireless_w"], 3),
                 round(pb["total_w"], 3)]
            )
    own = totals["OWN-cfg4"]
    notes = {
        "cmesh_vs_own_pct": 100 * (totals["CMESH"] / own - 1),
        "wcmesh_vs_own_pct": 100 * (totals["wCMESH"] / own - 1),
        "optxb_ratio": totals["OptXB"] / own,
        "pclos_over_optxb": totals["p-Clos"] / totals["OptXB"],
    }
    return ExperimentResult(
        "Fig. 6: 256-core power breakdown [W], UN traffic",
        ["network", "router", "electrical", "photonic", "wireless", "total"],
        rows,
        notes=notes,
    )


# --------------------------------------------------------------------- #
# Figure 7: 256-core throughput and latency
# --------------------------------------------------------------------- #

PAPER_PATTERNS = ("UN", "BR", "MT", "PS", "NBR")


def fig7a_throughput_256(
    quick: bool = False, executor: Optional[Executor] = None
) -> ExperimentResult:
    """Fig. 7(a): saturation throughput per synthetic pattern, 256 cores.

    Paper shape: throughputs are close across networks (similar bisection);
    OWN 1-2 % above CMESH / wCMESH; photonic nets marginally better than
    OWN on some patterns.
    """
    cycles = 900 if quick else 1500
    rates = (0.02, 0.03, 0.04) if quick else (0.02, 0.03, 0.04, 0.05, 0.06)
    rows: List[List[object]] = []
    for pattern in PAPER_PATTERNS:
        sweeps = compare_saturation(
            SPEC_BUILDERS_256, pattern, rates, cycles=cycles, executor=executor
        )
        row: List[object] = [pattern]
        for name in SPEC_BUILDERS_256:
            row.append(round(sweeps[name].saturation_throughput(), 4))
        rows.append(row)
    return ExperimentResult(
        "Fig. 7(a): saturation throughput [flits/core/cycle], 256 cores",
        ["pattern"] + list(SPEC_BUILDERS_256),
        rows,
    )


def fig7bc_latency_256(
    pattern: str = "UN", quick: bool = False, executor: Optional[Executor] = None
) -> ExperimentResult:
    """Fig. 7(b, c): latency vs offered load for UN (b) and BR (c).

    Paper shape: OWN saturates at the highest load; p-Clos ~10 % earlier;
    CMESH, wCMESH and OptXB ~20 % earlier; OWN's zero-load latency is the
    lowest (the 3-hop diameter), beating CMESH by ~50 % (abstract).
    """
    cycles = 900 if quick else 1500
    rates = (0.01, 0.02, 0.03, 0.04) if quick else (0.01, 0.02, 0.03, 0.035, 0.04, 0.045, 0.05, 0.06)
    results: Dict[str, SweepResult] = compare_saturation(
        SPEC_BUILDERS_256, pattern, rates, cycles=cycles, executor=executor
    )
    rows: List[List[object]] = []
    for name, sweep in results.items():
        for p in sweep.points:
            rows.append([name, p.offered, round(p.latency, 1), round(p.throughput, 4)])
    notes = {
        f"{name}_saturation": sweep.saturation_offered()
        for name, sweep in results.items()
    }
    notes.update(
        {f"{name}_zero_load": sweep.zero_load_latency() for name, sweep in results.items()}
    )
    return ExperimentResult(
        f"Fig. 7(b/c): latency vs load, {pattern} traffic, 256 cores",
        ["network", "offered", "latency_cycles", "accepted"],
        rows,
        notes=notes,
    )


# --------------------------------------------------------------------- #
# Figure 8: 1024-core throughput and power
# --------------------------------------------------------------------- #

FIG8_PATTERNS = ("UN", "BR", "PS")


def fig8a_throughput_1024(
    quick: bool = False, executor: Optional[Executor] = None
) -> ExperimentResult:
    """Fig. 8(a): 1024-core throughput on select synthetic traces.

    Paper shape: "The throughput variation is not significant across
    different architectures."
    """
    cycles = 600 if quick else 1200
    rates = (0.006, 0.01) if quick else (0.006, 0.01, 0.014)
    rows: List[List[object]] = []
    for pattern in FIG8_PATTERNS:
        sweeps = compare_saturation(
            SPEC_BUILDERS_1024, pattern, rates, cycles=cycles, executor=executor
        )
        row: List[object] = [pattern]
        for name in SPEC_BUILDERS_1024:
            row.append(round(sweeps[name].saturation_throughput(), 4))
        rows.append(row)
    return ExperimentResult(
        "Fig. 8(a): saturation throughput [flits/core/cycle], 1024 cores",
        ["pattern"] + list(SPEC_BUILDERS_1024),
        rows,
    )


def fig8b_power_1024(
    quick: bool = False, rate: float = 0.01, executor: Optional[Executor] = None
) -> ExperimentResult:
    """Fig. 8(b): average power per packet, 1024 cores.

    Paper shape: OWN ~30 % above OptXB (OptXB keeps the power edge; its
    objection is component count); wCMESH's wireless link power dominates
    its budget due to multi-hop XY routing; OWN slightly below wCMESH.
    """
    cycles = 600 if quick else 1500
    rows: List[List[object]] = []
    totals: Dict[str, float] = {}
    names = list(SPEC_BUILDERS_1024)
    specs = [
        RunSpec.create(
            SPEC_BUILDERS_1024[name][0], pattern="UN", rate=rate, cycles=cycles,
            seed=11, topology_kwargs=SPEC_BUILDERS_1024[name][1], power=((4, 1),),
        )
        for name in names
    ]
    for name, run in zip(names, get_executor(executor).run(specs)):
        pb = run.power_for(4, 1)
        totals[name] = pb["total_w"]
        rows.append(
            [name, round(pb["router_w"], 2), round(pb["electrical_link_w"], 2),
             round(pb["photonic_w"], 2), round(pb["wireless_w"], 2),
             round(pb["total_w"], 2), round(pb["energy_per_packet_nj"], 2)]
        )
    notes = {
        "own_over_optxb_pct": 100 * (totals["OWN"] / totals["OptXB"] - 1),
        "own_vs_wcmesh_pct": 100 * (totals["OWN"] / totals["wCMESH"] - 1),
    }
    return ExperimentResult(
        "Fig. 8(b): 1024-core power [W] and energy/packet [nJ], UN traffic",
        ["network", "router", "electrical", "photonic", "wireless", "total", "nJ/packet"],
        rows,
        notes=notes,
    )


# --------------------------------------------------------------------- #
# Ablations (design choices DESIGN.md calls out)
# --------------------------------------------------------------------- #


def ablation_token_latency(
    quick: bool = False, executor: Optional[Executor] = None
) -> ExperimentResult:
    """Token cost ablation: OptXB saturation vs token latency.

    Sec. V-B attributes OptXB's throughput dip to token transfer cycles;
    this sweep shows saturation throughput degrading as the token slows.
    """
    cycles = 800 if quick else 1500
    tokens = (0, 2, 4, 10, 20)
    rows = []
    points = [
        run_point(
            ("optxb", {"n_cores": 256, "token_latency": token}),
            "UN",
            0.04,
            cycles=cycles,
            executor=executor,
        )
        for token in tokens
    ]
    for token, point in zip(tokens, points):
        rows.append([token, round(point.latency, 1), round(point.throughput, 4)])
    return ExperimentResult(
        "Ablation: OptXB token latency vs performance (UN @ 0.04)",
        ["token_latency", "latency", "accepted_throughput"],
        rows,
    )


def ablation_antenna_placement(
    quick: bool = False, executor: Optional[Executor] = None
) -> ExperimentResult:
    """Corner vs centre antenna placement (Sec. III-A's motivation).

    "If all the wireless transceivers were located in close proximity
    (center of the cluster), then all inter-cluster traffic will be
    directed to the center which could lead to load and thermal imbalance.
    Therefore, by isolating the four transceivers to the four corners, we
    balance the load imbalance as well as thermal impact."

    The discriminating metric is *spatial concentration*: the share of a
    cluster's router activity that lands inside its hottest 2x2-tile window
    (a thermal-density proxy). Corner placement spreads gateway work across
    four distant corners; centre placement stacks all four gateways into
    one contiguous window.
    """
    cycles = 800 if quick else 1500
    specs = [
        RunSpec.create(
            "own256", pattern="UN", rate=0.035, cycles=cycles, warmup=300,
            seed=11, topology_kwargs={"antenna_placement": placement},
        )
        for placement in ("corners", "center")
    ]
    rows = []
    for run in get_executor(executor).run(specs):
        ref = (run.spec.topology, dict(run.spec.topology_kwargs))
        # Per-cluster activity heatmap over the 4x4 tile grid: buffer writes
        # + reads + crossbar traversals, a record's first three router fields.
        heat = np.zeros((4, 4, 4))
        for r, events in zip(build_ref(ref).network.routers, run.activity.routers):
            t = r.attrs["tile"]
            heat[r.attrs["cluster"], t // 4, t % 4] = sum(events[:3])
        worst_share = 0.0
        for grid in heat:
            total = grid.sum()
            if total == 0:
                continue
            windows = [
                grid[i : i + 2, j : j + 2].sum() / total
                for i in range(3)
                for j in range(3)
            ]
            worst_share = max(worst_share, max(windows))
        rows.append(
            [ref[1]["antenna_placement"], round(run.summary["latency_mean"], 1),
             round(run.summary["throughput"], 4), round(worst_share, 3)]
        )
    return ExperimentResult(
        "Ablation: antenna placement (UN @ 0.035)",
        ["placement", "latency", "throughput", "peak_2x2_activity_share"],
        rows,
    )


def ablation_sdm_channels() -> ExperimentResult:
    """SDM frequency reuse: CMOS channel demand vs supply (Sec. V-B).

    Configuration 4 wants 8 CMOS channels but the ideal plan has 4; SDM
    reuse on non-intersecting paths covers the gap.
    """
    rows = []
    for cfg in sorted(CONFIGURATIONS):
        chans = channels_for_config(cfg, SCENARIOS[1])
        reused = sum(1 for c in chans if c.sdm_reused)
        rows.append([cfg, len(chans), reused])
    groups = sdm_frequency_reuse_groups()
    return ExperimentResult(
        "Ablation: SDM frequency reuse demand (scenario 1)",
        ["config", "data_links", "sdm_reused_links"],
        rows,
        notes={"non_intersecting_groups": groups, "n_groups": len(groups)},
    )


def ablation_radix_vs_hops(
    quick: bool = False, executor: Optional[Executor] = None
) -> ExperimentResult:
    """Radix/hop tradeoff at 1024 cores (the paper's closing observation:
    "reducing the radix can enable building more power-efficient
    architectures, however the latency may increase due to multiple hops").
    """
    cycles = 500 if quick else 1000
    refs = {"OWN": ("own1024", {}), "wCMESH": ("wcmesh", {"n_cores": 1024})}
    specs = [
        RunSpec.create(
            key, pattern="UN", rate=0.008, cycles=cycles, seed=11,
            topology_kwargs=kwargs, power=((4, 1),),
        )
        for key, kwargs in refs.values()
    ]
    rows = []
    for name, run in zip(refs, get_executor(executor).run(specs)):
        # A record's router row ends with the radix the router is priced at.
        max_radix = max(events[-1] for events in run.activity.routers)
        rows.append(
            [name, max_radix, round(run.summary["avg_hops"], 2),
             round(run.summary["latency_mean"], 1), round(run.power_for(4, 1)["router_w"], 2)]
        )
    return ExperimentResult(
        "Ablation: radix vs hop count, 1024 cores (UN @ 0.008)",
        ["network", "max_radix", "avg_hops", "latency", "router_power_w"],
        rows,
    )


# --------------------------------------------------------------------- #
# Studies (substrate-backed analyses beyond the paper's figures)
# --------------------------------------------------------------------- #


def study_area_scaling() -> ExperimentResult:
    """Silicon footprint per architecture at 256 and 1024 cores.

    The Sec. I scalability argument in mm^2: the monolithic crossbar's ring
    count makes its photonic area explode 16x from 256 to 1024 cores while
    OWN's decomposed design grows linearly with cluster count.
    """
    from repro.power.area import AreaModel

    model = AreaModel()
    rows: List[List[object]] = []
    for scale, refs in ((256, SPEC_BUILDERS_256), (1024, SPEC_BUILDERS_1024)):
        for name, ref in refs.items():
            a = model.measure(build_ref(ref))
            rows.append(
                [scale, name, round(a.router_mm2, 2), round(a.wire_mm2, 2),
                 round(a.photonic_mm2, 2), round(a.wireless_mm2, 2),
                 round(a.total_mm2, 2)]
            )
    return ExperimentResult(
        "Study: silicon area [mm^2] per architecture",
        ["cores", "network", "router", "wire", "photonic", "wireless", "total"],
        rows,
    )


def study_thermal(
    quick: bool = False, executor: Optional[Executor] = None
) -> ExperimentResult:
    """Steady-state thermal comparison under equal traffic.

    Quantifies two paper claims: antenna placement changes the activity
    concentration (Sec. III-A) and big ring inventories pay gradient-chasing
    tuning power (Sec. I). ``total_W`` is Fig. 6's total plus the
    gradient-chasing tuning :func:`repro.thermal.thermal_report` adds.
    """
    from repro.thermal import thermal_report

    cycles = 500 if quick else 1000
    rows: List[List[object]] = []
    cases = [
        ("OWN corners", ("own256", {})),
        ("OWN center", ("own256", {"antenna_placement": "center"})),
        ("OptXB", ("optxb", {"n_cores": 256})),
        ("CMESH", ("cmesh", {"n_cores": 256})),
    ]
    specs = [
        RunSpec.create(
            key, pattern="UN", rate=0.03, cycles=cycles, seed=2,
            topology_kwargs=kwargs,
        )
        for _, (key, kwargs) in cases
    ]
    for (name, ref), run in zip(cases, get_executor(executor).run(specs)):
        rep = thermal_report(build_ref(ref), run.activity)
        rows.append(
            [name, round(rep.peak_c, 2), round(rep.gradient_c, 2),
             round(rep.tuning_power_w * 1e3, 2), round(rep.total_power_w, 2)]
        )
    return ExperimentResult(
        "Study: steady-state thermals (UN @ 0.03)",
        ["case", "peak_C", "gradient_C", "ring_tuning_mW", "total_W"],
        rows,
    )


def study_component_scaling() -> ExperimentResult:
    """Photonic component counts + worst-path laser power (Sec. I).

    Regenerates the introduction's arithmetic (448 modulators / 7
    waveguides / 28224 detectors at 64x64 SWMR; 7.3 M detectors at
    1024x1024) and adds the insertion-loss consequence: wall-plug laser
    power per waveguide for the monolithic snake vs OWN's cluster snake.
    """
    from repro.photonics import (
        mwsr_crossbar,
        own_inventory,
        swmr_crossbar,
        required_laser_power_mw,
        waveguide_path_loss_db,
    )

    rows: List[List[object]] = []
    for label, count in (
        ("SWMR 64x64", swmr_crossbar(64)),
        ("SWMR 1024x1024", swmr_crossbar(1024)),
        ("OptXB 64r (MWSR)", mwsr_crossbar(64, rings_per_modulator=1)),
        ("OptXB 256r (MWSR)", mwsr_crossbar(256, rings_per_modulator=1)),
        ("OWN-256 photonics", own_inventory(4)),
        ("OWN-1024 photonics", own_inventory(16)),
    ):
        rows.append(
            [label, count.modulators, count.photodetectors, count.waveguides,
             count.rings]
        )
    own_loss = waveguide_path_loss_db(100.0, 15 * 4)
    flat_loss = waveguide_path_loss_db(400.0, 63 * 64)
    notes = {
        "own_cluster_path_loss_db": own_loss,
        "optxb_snake_path_loss_db": flat_loss,
        "own_laser_mw_per_wg": required_laser_power_mw(own_loss, 4),
        "optxb_laser_mw_per_wg": required_laser_power_mw(flat_loss, 64),
    }
    return ExperimentResult(
        "Study: photonic component scaling (Sec. I arithmetic)",
        ["interconnect", "modulators", "detectors", "waveguides", "rings"],
        rows,
        notes=notes,
    )


def study_reconfiguration(
    quick: bool = False, executor: Optional[Executor] = None
) -> ExperimentResult:
    """Adaptive reconfiguration channels vs static OWN on hotspot traffic.

    The reconfigurable arm is :func:`study_adaptive`'s calm plant: spare
    hardware, a 300-cycle re-pointer and a monitor that never fires."""
    cycles = 1200 if quick else 2500
    hot = dict(
        pattern="HOT", rate=0.035, cycles=cycles, warmup=300, seed=2,
        hotspot_fraction=0.6, hotspots=tuple(range(128, 192)),
    )
    specs = [
        RunSpec.create("own256", **hot),
        RunSpec.create(
            "own256_ft", **hot,
            topology_kwargs={"with_reconfiguration": True},
            faults=FaultSpec(kind="bursty", burst_rate=0.0, failover=True, reconfig_epoch=300),
        ),
    ]
    rows: List[List[object]] = []
    for label, run in zip(("static", "reconfigurable"), get_executor(executor).run(specs)):
        reconfig = run.meta.get("reconfig")
        rows.append(
            [label, round(run.summary["latency_mean"], 1),
             round(run.summary["throughput"], 4),
             reconfig["summary"]["spare_flits"] if reconfig else 0]
        )
    return ExperimentResult(
        "Study: reconfiguration channels (hotspot @ 0.035)",
        ["mode", "latency", "accepted", "spare_flits"],
        rows,
    )


def study_fault_tolerance(
    quick: bool = False, executor: Optional[Executor] = None
) -> ExperimentResult:
    """Latency/throughput degradation as wireless channels fail."""
    cycles = 800 if quick else 1500
    fault_sets = [[], [(0, 2)], [(0, 2), (1, 3)], [(0, 2), (1, 3), (2, 1)]]
    specs = [
        RunSpec.create(
            "own256_ft", pattern="UN", rate=0.02, cycles=cycles, warmup=200,
            seed=2, topology_kwargs={"failed_channels": tuple(faults)},
        )
        for faults in fault_sets
    ]
    rows: List[List[object]] = []
    for faults, run in zip(fault_sets, get_executor(executor).run(specs)):
        rows.append(
            [len(faults), round(run.summary["latency_mean"], 1),
             round(run.summary["throughput"], 4),
             round(run.summary["avg_wireless_hops"], 3)]
        )
    return ExperimentResult(
        "Study: channel failures vs performance (UN @ 0.02)",
        ["failed_channels", "latency", "accepted", "avg_wireless_hops"],
        rows,
    )


def _bursty_spec(burst_factor: float, quick: bool, seed: int = 2) -> RunSpec:
    """One cell of :func:`study_bursty_traffic`: OWN-256, UN at 0.025."""
    return RunSpec.create(
        "own256", pattern="UN", rate=0.025, cycles=1000 if quick else 2000,
        warmup=300, seed=seed, traffic_kind="bursty", burst_factor=burst_factor,
    )


def study_bursty_traffic(
    quick: bool = False, executor: Optional[Executor] = None
) -> ExperimentResult:
    """OWN-256 under bursty (MMBP) traffic at equal mean load."""
    factors = (1.0, 4.0, 8.0)
    specs = [_bursty_spec(burst_factor, quick) for burst_factor in factors]
    rows: List[List[object]] = []
    for burst_factor, run in zip(factors, get_executor(executor).run(specs)):
        rows.append(
            [burst_factor, round(run.summary["latency_mean"], 1),
             round(run.summary["latency_p99"], 1),
             round(run.summary["throughput"], 4)]
        )
    return ExperimentResult(
        "Study: burstiness at equal mean load (UN @ 0.025)",
        ["burst_factor", "latency_mean", "latency_p99", "accepted"],
        rows,
    )


def study_degradation(
    quick: bool = False, executor: Optional[Executor] = None
) -> ExperimentResult:
    """Graceful degradation under runtime faults (:mod:`repro.faults`).

    Sweeps the interference-burst rate on the 12 wireless data channels
    (transient SNR dips sampled through the OOK BER model, recovered by
    link-layer retransmission) and finishes with a permanent transceiver
    death mid-run, where the health monitor fails the channel over to a
    pinned reconfiguration spare. Expected shape: latency and the
    retransmission-energy overhead grow with burst rate while accepted
    throughput stays at the offered load (nothing is lost, only retried);
    the zero-fault row is bit-identical to a run without the fault layer,
    so every protocol counter is 0. The death row completes with recovered
    packets and one failover instead of a deadlock.

    Each case is a declarative :class:`~repro.runtime.spec.FaultSpec`
    carried by its :class:`~repro.runtime.spec.RunSpec`, so the whole
    degradation sweep is cacheable and parallelisable like any other
    experiment.
    """
    cycles = 1000 if quick else 2000
    rate = 0.02
    burst_rates = (0.0, 0.0005, 0.002, 0.005)

    def base_spec(faults: Optional[FaultSpec], with_failover: bool) -> RunSpec:
        return RunSpec.create(
            "own256_ft",
            pattern="UN",
            rate=rate,
            cycles=cycles,
            warmup=200,
            seed=2,
            topology_kwargs={"with_reconfiguration": with_failover},
            drain=30_000,
            faults=faults,
            power=((4, 1),),
        )

    specs = [
        base_spec(
            FaultSpec(kind="bursty", seed=7, burst_rate=burst_rate,
                      burst_duration=50, snr_penalty_db=5.0),
            with_failover=False,
        )
        for burst_rate in burst_rates
    ]
    specs.append(
        base_spec(
            FaultSpec(kind="death", at=cycles // 4, target_index=0, failover=True),
            with_failover=True,
        )
    )
    labels = [f"bursts@{r}" for r in burst_rates] + ["death+failover"]

    rows: List[List[object]] = []
    notes: Dict[str, object] = {}
    runs = get_executor(executor).run(specs)
    for label, run in zip(labels, runs):
        s = run.summary
        rows.append(
            [
                label,
                round(s["latency_mean"], 1),
                round(s["latency_p99"], 1),
                round(s["throughput"], 4),
                int(s["packets_retransmitted"]),
                int(s["nacks"] + s["timeouts"]),
                int(s["packets_recovered"]),
                int(s["channels_failed_over"]),
                round(run.power_for(4, 1)["retx_overhead_w"] * 1e3, 3),
            ]
        )
    notes["failovers"] = int(runs[-1].summary["channels_failed_over"])
    notes["dead_link"] = runs[-1].meta.get("dead_link")
    return ExperimentResult(
        "Study: fault-rate degradation (UN @ 0.02, 5 dB bursts)",
        ["faults", "latency_mean", "latency_p99", "accepted",
         "retx_pkts", "nack+tmo", "recovered", "failovers", "retx_mw"],
        rows,
        notes=notes,
    )


def _adaptive_cells(quick: bool = False) -> List[Tuple[str, str, RunSpec]]:
    """The :func:`study_adaptive` matrix as ``(cell, arm, spec)`` triples."""
    cycles = 4000 if quick else 10_000
    rate = 0.03
    # Static arms: failover=True wires monitor + controller with the
    # open-loop utilisation-driven re-pointer; adaptive arms wire the same
    # two hooks through ControlSpec, at the same epochs, and the monitor
    # also probes failed-over channels back to service.
    burst = lambda fail: FaultSpec(  # noqa: E731 - local shorthand
        kind="bursty", burst_rate=0.0004, burst_duration=600,
        snr_penalty_db=14.0, max_channel=1, seed=9, failover=fail,
        reconfig_epoch=250,
    )
    death = lambda fail: FaultSpec(  # noqa: E731
        kind="death", at=cycles // 4, target_index=0, failover=fail,
        reconfig_epoch=250,
    )
    # A zero-rate campaign keeps the plant (monitor + spare hardware)
    # wired in both arms without injecting any fault, so the no-fault
    # cell checks that recovery alone changes nothing.
    calm = lambda fail: FaultSpec(  # noqa: E731
        kind="bursty", burst_rate=0.0, failover=fail,
        reconfig_epoch=250,
    )
    scenarios = [("hotspot", calm), ("hot+burst", burst), ("hot+death", death)]

    def cell_spec(name: str, make_faults, arm: str) -> RunSpec:
        adaptive = arm == "adaptive"
        return RunSpec.create(
            "own256_ft", pattern="HOT", rate=rate, cycles=cycles,
            warmup=400, seed=2, drain=30_000,
            hotspot_fraction=0.6, hotspots=tuple(range(128, 192)),
            topology_kwargs={"with_reconfiguration": True},
            faults=make_faults(not adaptive),
            control=ControlSpec(epoch_cycles=250) if adaptive else None,
            telemetry=True, tag=f"{name}/{arm}",
        )

    return [
        (name, arm, cell_spec(name, make_faults, arm))
        for name, make_faults in scenarios
        for arm in ("static", "adaptive")
    ]


def study_adaptive(
    quick: bool = False, executor: Optional[Executor] = None
) -> ExperimentResult:
    """Channel recovery vs open-loop failover under hotspot + faults.

    Crosses hotspot traffic (60% of load aimed at cluster 2) with three
    fault scenarios -- none, transient interference bursts on one
    channel, and a permanent transceiver death -- and runs each cell
    twice on OWN-256 with spare hardware:

    - **static**: the open-loop plant --
      :class:`~repro.faults.HealthMonitor` failover pinning spares onto
      dead channels plus the controller's utilisation-ranked periodic
      re-pointer on a 250-cycle epoch. Two-phase draining re-assignment
      (``docs/fault-tolerance.md``) makes periodic re-pointing safe under
      sustained hotspots. A channel that fails over stays failed over for
      the rest of the run even after the interference clears.
    - **adaptive**: the same plant, same placement, with recovery on
      (:class:`ControlSpec`): the :class:`~repro.faults.HealthMonitor`
      probes failed-over channels and returns healed ones to service,
      offering each freed spare to failed pairs still waiting for a pin.

    Expected shape: in the transient-burst cell the adaptive arm
    recovers the channel (``recovered`` > 0) and ends with lower mean and
    p99 latency than the static arm, which permanently sacrifices a
    spare. In the no-fault and death cells no channel recovers (the
    death cell's probes keep failing), so the two arms are the same run.
    Every row carries the telemetry-attribution verdict for the cell,
    and adaptive rows carry the decision-log CRC that the CI golden gate
    pins exactly.
    """
    from repro.analysis.attribution import NO_VERDICT, attribute_metrics

    cells = _adaptive_cells(quick)
    rows: List[List[object]] = []
    notes: Dict[str, object] = {}
    runs = get_executor(executor).run([spec for _, _, spec in cells])
    for (cell, arm, _), run in zip(cells, runs):
        s = run.summary
        attribution = attribute_metrics(run.metrics or {})
        rows.append(
            [
                cell,
                arm,
                round(s["latency_mean"], 1),
                round(s["latency_p99"], 1),
                round(s["throughput"], 4),
                int(s["channels_failed_over"]),
                int(s.get("channels_recovered_ctl", 0)),
                int(s.get("control_decisions", 0)),
                int(s["control_log_crc"]) if "control_log_crc" in s else "-",
                attribution.verdict if attribution else NO_VERDICT,
            ]
        )
    # Per-cell verdict: did recovery pay for itself?
    by_cell: Dict[str, Dict[str, Dict[str, float]]] = {}
    for (cell, arm, _), run in zip(cells, runs):
        by_cell.setdefault(cell, {})[arm] = run.summary
    wins = {
        cell: {
            "mean_gain": arms["static"]["latency_mean"] - arms["adaptive"]["latency_mean"],
            "p99_gain": arms["static"]["latency_p99"] - arms["adaptive"]["latency_p99"],
            "throughput_gain": arms["adaptive"]["throughput"] - arms["static"]["throughput"],
        }
        for cell, arms in by_cell.items()
    }
    notes["adaptive_gains"] = wins
    notes["recovered_transient"] = int(
        by_cell["hot+burst"]["adaptive"].get("channels_recovered_ctl", 0)
    )
    return ExperimentResult(
        "Study: adaptive control vs static failover (HOT @ 0.03)",
        ["cell", "arm", "latency_mean", "latency_p99", "accepted",
         "failovers", "recovered", "decisions", "log_crc", "verdict"],
        rows,
        notes=notes,
    )


def study_workloads(
    quick: bool = False, executor: Optional[Executor] = None
) -> ExperimentResult:
    """Application workloads across the scenario matrix (OWN-256).

    Runs every application model from :mod:`repro.workloads` -- the
    three generator families (microservice request DAGs, MPI
    collectives, directory coherence) plus the mixed and adversarial
    blends -- on OWN-256 under {clean, interference-burst} fault
    campaigns and {ideal, conservative} wireless technology scenarios
    (Table III), each cell annotated with its bottleneck-attribution
    verdict. The synthetic-traffic figures answer "how does the fabric
    handle rate X of pattern Y"; this study answers "what does a real
    application shape see, and what limits it".

    Expected shape: collectives and both blends saturate the wireless
    broadcast channels (wireless-occupancy verdicts), coherence is
    injection-bound at the home nodes, the sparse microservice DAG is
    token-wait bound, the blends show the worst p99, and the
    conservative wireless scenario costs power but not latency (the
    technology scenario scales transceiver energy, not timing).
    """
    from repro.workloads import run_scenarios, scenario_matrix

    cycles, warmup = (600, 150) if quick else (1500, 300)
    cells = scenario_matrix(
        topologies=("own256",), cycles=cycles, warmup=warmup
    )
    outcomes = run_scenarios(cells, executor)
    rows = [o.row() for o in outcomes]
    by_verdict: Dict[str, int] = {}
    for o in outcomes:
        by_verdict[o.verdict] = by_verdict.get(o.verdict, 0) + 1
    worst = max(outcomes, key=lambda o: o.result.summary["latency_p99"])
    notes: Dict[str, object] = {
        "verdict_histogram": by_verdict,
        "worst_p99_cell": worst.cell.key,
        "worst_p99": round(worst.result.summary["latency_p99"], 1),
    }
    from repro.workloads.scenarios import SCENARIO_HEADERS

    return ExperimentResult(
        "Study: application workloads x faults x wireless (OWN-256)",
        list(SCENARIO_HEADERS),
        rows,
        notes=notes,
    )


#: Registry used by benches and the reproduce-everything example.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1_channels,
    "table2": table2_channels_1024,
    "table3": table3_wireless_tech,
    "table4": table4_configs,
    "fig3": fig3_link_budget,
    "fig4": fig4_transceiver,
    "fig5": fig5_wireless_power,
    "fig6": fig6_power_256,
    "fig7a": fig7a_throughput_256,
    "fig7bc": fig7bc_latency_256,
    "fig8a": fig8a_throughput_1024,
    "fig8b": fig8b_power_1024,
    "ablation_token": ablation_token_latency,
    "ablation_antenna": ablation_antenna_placement,
    "ablation_sdm": ablation_sdm_channels,
    "ablation_radix": ablation_radix_vs_hops,
    "study_area": study_area_scaling,
    "study_thermal": study_thermal,
    "study_components": study_component_scaling,
    "study_reconfig": study_reconfiguration,
    "study_faults": study_fault_tolerance,
    "study_bursty": study_bursty_traffic,
    "study_degradation": study_degradation,
    "study_adaptive": study_adaptive,
    "study_workloads": study_workloads,
}
