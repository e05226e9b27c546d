"""Analysis harness: load sweeps, experiment runners, and the
observability stack (bottleneck attribution, congestion heatmaps,
run-record diffing, HTML diagnosis reports).

Nothing is imported up front: each name below is resolved from its module
on first use (PEP 562), so ``repro sweep`` loads the sweep harness and not
the experiment runners, nor the NumPy they import.
"""

import importlib

#: Re-exported name -> the module (under ``repro.analysis``) that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "SweepPoint", "SweepResult", "run_point", "load_sweep",
            "compare_saturation",
        ),
        "sweep",
    ),
    **dict.fromkeys(
        (
            "BisectionEntry", "measure_bisection", "bisection_report",
            "WIRELESS_CHANNEL_GBPS", "ELECTRICAL_LINK_GBPS", "WAVEGUIDE_GBPS",
        ),
        "bisection",
    ),
    **dict.fromkeys(("format_table", "format_csv", "ratio_note"), "tables"),
    **dict.fromkeys(
        (
            "Attribution", "StageBreakdown", "CONTENTION_STAGES", "OCCUPANCY_SATURATED",
            "NO_VERDICT", "attribute_metrics", "wireless_occupancies",
        ),
        "attribution",
    ),
    **dict.fromkeys(("Heatmap", "heatmaps_from_aggregator"), "congestion"),
    **dict.fromkeys(
        ("PointDiagnosis", "SweepDiagnosis", "diagnose_point", "diagnose_sweep"),
        "diagnose",
    ),
    **dict.fromkeys(
        (
            "LogDiff", "KeyDiff", "MetricDiff", "diff_runlogs", "format_diff",
        ),
        "diffing",
    ),
    **dict.fromkeys(("render_sweep_report",), "htmlreport"),
    **dict.fromkeys(("generate_report", "ARTIFACT_CONTEXT"), "report"),
    **dict.fromkeys(
        (
            "ChannelUtilisation", "UtilisationReport", "utilisation_report",
            "wireless_channel_table_rows",
        ),
        "utilization",
    ),
    **dict.fromkeys(
        (
            "DesignPoint", "EvaluatedPoint", "ExplorationResult", "default_space",
            "evaluate_point", "explore", "pareto_frontier",
        ),
        "design_space",
    ),
    **dict.fromkeys(("PredictedPerformance", "predict", "walk_route"), "model"),
    **dict.fromkeys(
        (
            "ExperimentResult", "EXPERIMENTS", "table1_channels",
            "table2_channels_1024", "table3_wireless_tech", "table4_configs",
            "fig3_link_budget", "fig4_transceiver", "fig5_wireless_power",
            "fig6_power_256", "fig7a_throughput_256", "fig7bc_latency_256",
            "fig8a_throughput_1024", "fig8b_power_1024", "ablation_token_latency",
            "ablation_antenna_placement", "ablation_sdm_channels",
            "ablation_radix_vs_hops", "study_area_scaling", "study_thermal",
            "study_component_scaling", "study_reconfiguration", "study_fault_tolerance",
            "study_bursty_traffic", "study_degradation", "study_adaptive",
            "study_workloads",
        ),
        "experiments",
    ),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
