"""Markdown run-report generation.

``python -m repro report -o report.md`` regenerates a fresh, dated
paper-vs-measured report from live runs -- the automated counterpart of the
hand-annotated EXPERIMENTS.md. Useful when model parameters are changed:
one command re-derives every artifact and renders them with their notes.
"""

from __future__ import annotations

import inspect
import io
import time
from typing import Dict, Iterable, List, Optional

from repro.analysis.experiments import EXPERIMENTS, ExperimentResult

#: Paper-section anchor printed above each artifact.
ARTIFACT_CONTEXT: Dict[str, str] = {
    "table1": "Table I — OWN-256 wireless connections (Sec. III-A)",
    "table2": "Table II — OWN-1024 channel allocation (Sec. III-B)",
    "table3": "Table III — wireless channel plan (Sec. IV)",
    "table4": "Table IV — WiNoC configurations (Sec. V-B)",
    "fig3": "Fig. 3 — OOK link budget (Sec. IV-A)",
    "fig4": "Fig. 4 — transceiver building blocks (Sec. IV-A)",
    "fig5": "Fig. 5 — average wireless link power (Sec. V-B)",
    "fig6": "Fig. 6 — 256-core power breakdown (Sec. V-B)",
    "fig7a": "Fig. 7(a) — throughput per pattern (Sec. V-B)",
    "fig7bc": "Fig. 7(b,c) — latency vs load (Sec. V-B)",
    "fig8a": "Fig. 8(a) — 1024-core throughput (Sec. V-C)",
    "fig8b": "Fig. 8(b) — 1024-core power (Sec. V-C)",
    "ablation_token": "Ablation — token arbitration cost (Sec. V-B)",
    "ablation_antenna": "Ablation — antenna placement (Sec. III-A)",
    "ablation_sdm": "Ablation — SDM frequency reuse (Sec. V-B)",
    "ablation_radix": "Ablation — radix vs hops (Sec. V-C)",
    "study_area": "Study — silicon area scaling",
    "study_thermal": "Study — steady-state thermals",
    "study_components": "Study — photonic component scaling (Sec. I)",
    "study_reconfig": "Study — reconfiguration channels (Sec. IV)",
    "study_faults": "Study — wireless channel failures",
    "study_bursty": "Study — bursty traffic",
    "study_degradation": "Study — runtime faults, retransmission, failover",
    "study_adaptive": "Study — channel recovery vs static failover",
    "study_workloads": "Study — application workloads scenario matrix",
}


def _render_markdown(result: ExperimentResult) -> str:
    """One experiment as a GitHub-flavoured markdown table + notes."""
    out = io.StringIO()
    headers = [str(h) for h in result.headers]
    out.write("| " + " | ".join(headers) + " |\n")
    out.write("|" + "|".join("---" for _ in headers) + "|\n")
    for row in result.rows:
        cells = [
            f"{v:.3f}" if isinstance(v, float) else str(v) for v in row
        ]
        out.write("| " + " | ".join(cells) + " |\n")
    if result.notes:
        out.write("\n")
        for k, v in result.notes.items():
            if isinstance(v, float):
                v = f"{v:.3f}"
            out.write(f"- `{k}`: {v}\n")
    return out.getvalue()


def generate_report(
    only: Optional[Iterable[str]] = None,
    quick: bool = True,
    title: str = "OWN reproduction — generated run report",
) -> str:
    """Run the selected experiments and render a markdown report.

    Parameters
    ----------
    only:
        Experiment ids to include (default: all registered).
    quick:
        Use short simulation windows (recommended; the full windows are for
        EXPERIMENTS.md regeneration).

    Raises
    ------
    KeyError
        For unknown experiment ids.
    """
    wanted: List[str] = list(only) if only else list(EXPERIMENTS)
    unknown = [w for w in wanted if w not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")

    out = io.StringIO()
    out.write(f"# {title}\n\n")
    out.write(f"Mode: {'quick' if quick else 'full'} windows. ")
    out.write("Regenerate with `python -m repro report`.\n\n")
    for key in wanted:
        runner = EXPERIMENTS[key]
        kwargs = {}
        if quick and "quick" in inspect.signature(runner).parameters:
            kwargs["quick"] = True
        t0 = time.time()
        result = runner(**kwargs)
        elapsed = time.time() - t0
        out.write(f"## {ARTIFACT_CONTEXT.get(key, key)}\n\n")
        out.write(f"*experiment `{key}`, {elapsed:.1f}s*\n\n")
        out.write(_render_markdown(result))
        out.write("\n")
    return out.getvalue()
