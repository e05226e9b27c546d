"""Congestion heatmaps and the self-contained HTML diagnosis report."""

import re

import pytest

from repro.analysis.attribution import NO_VERDICT, Attribution, StageBreakdown
from repro.analysis.congestion import Heatmap, heatmaps_from_aggregator
from repro.analysis.diagnose import PointDiagnosis, SweepDiagnosis
from repro.analysis.htmlreport import (
    HEATMAP_MAX_ROWS,
    STAGE_COLORS,
    heatmap_svg,
    ramp_color,
    render_sweep_report,
    stacked_bars_svg,
)
from repro.analysis.sweep import SweepPoint
from repro.telemetry import WindowedAggregator
from repro.telemetry.events import BUFFER_SAMPLE, FLIT_SEND, TraceEvent
from repro.telemetry.tracer import BREAKDOWN_STAGES


def breakdown(cls="all", count=10, **stages):
    total = sum(stages.values())
    return StageBreakdown(
        cls=cls, count=count, total_mean=total,
        stages={s: stages.get(s, 0.0) for s in BREAKDOWN_STAGES},
    )


def point(rate, verdict="token-wait", share=0.3, heatmaps=(), occ=None):
    ov = breakdown(token_wait=6.0, serialization=4.0, flight=8.0, other=2.0)
    att = Attribution(
        overall=ov, per_class={"C2C": ov},
        wireless_occupancy=occ or {"C2C": 0.4},
        verdict=verdict, verdict_share=share,
    )
    latency = 20.0 + rate * 100
    return PointDiagnosis(
        label=f"own256/UN@{rate:g}x400", topology="own256", pattern="UN",
        point=SweepPoint(rate, latency, rate, packets=10),
        summary={"latency_mean": latency, "throughput": rate},
        attribution=att, heatmaps=list(heatmaps),
        profile={"build_s": 0.1, "sim_s": 0.5, "measure_s": 0.01,
                 "sim_cycles": 400, "sim_cycles_per_sec": 800.0},
    )


class TestHeatmapsFromAggregator:
    def test_link_busy_normalised_to_fraction(self):
        agg = WindowedAggregator(window_cycles=10)
        for cycle in range(5):
            agg.on_event(TraceEvent(cycle, FLIT_SEND, "wg0", dur=2))
        hms = heatmaps_from_aggregator(agg)
        assert [h.kind for h in hms] == ["link_busy"]
        assert hms[0].rows == [[1.0]]  # 10 busy cycles clamped to 1.0
        assert hms[0].unit == "busy fraction"

    def test_buffer_occ_uses_means(self):
        agg = WindowedAggregator(window_cycles=8)
        agg.on_event(TraceEvent(0, BUFFER_SAMPLE, "sim",
                                args={"occupancy": {"r0": 2}}))
        agg.on_event(TraceEvent(4, BUFFER_SAMPLE, "sim",
                                args={"occupancy": {"r0": 6}}))
        (hm,) = heatmaps_from_aggregator(agg, kinds=["buffer_occ"])
        assert hm.rows == [[4.0]]

    def test_kind_filter(self):
        agg = WindowedAggregator()
        agg.on_event(TraceEvent(0, FLIT_SEND, "wg0", dur=1))
        assert heatmaps_from_aggregator(agg, kinds=["vc_stall"]) == []


class TestHeatmapValueObject:
    def make(self, n_rows=3, n_win=4):
        return Heatmap(
            kind="link_busy", title="t", unit="u", window_cycles=64,
            components=[f"c{i}" for i in range(n_rows)],
            rows=[[float(i * j) for j in range(n_win)] for i in range(n_rows)],
        )

    def test_vmax_and_shape(self):
        hm = self.make()
        assert hm.n_windows == 4
        assert hm.vmax == 6.0

    def test_top_rows_keeps_busiest_in_order(self):
        hm = self.make(n_rows=5)
        top = hm.top_rows(2)
        assert top.components == ["c3", "c4"]
        assert "top 2 of 5" in top.title
        assert hm.top_rows(5) is hm  # no-op when nothing to trim


class TestSvgRendering:
    def test_ramp_endpoints_and_clamp(self):
        assert ramp_color(0.0) == "#cde2fb"
        assert ramp_color(1.0) == "#0d366b"
        assert ramp_color(-2.0) == ramp_color(0.0)
        assert ramp_color(9.0) == ramp_color(1.0)

    def test_stacked_bars_have_all_stage_colors(self):
        svg = stacked_bars_svg([point(0.01), point(0.05)])
        legend, bars = svg.split("</div>", 1)
        assert len(STAGE_COLORS) == 6
        for color in STAGE_COLORS.values():  # the legend keys every stage
            assert f"background:{color}" in legend
        # ... but a zero-width stage (queueing, retx here) draws no bar.
        rect_fills = set(re.findall(r'<rect [^>]*fill="([^"]+)"', bars))
        drawn = {s for s, c in STAGE_COLORS.items() if c in rect_fills}
        assert drawn == {"token_wait", "serialization", "flight", "other"}
        assert "<title>" in svg  # hover tooltips, no JS

    def test_heatmap_caps_rows(self):
        hm = Heatmap(
            kind="buffer_occ", title="Buffers", unit="flits",
            window_cycles=64,
            components=[f"r{i}" for i in range(HEATMAP_MAX_ROWS + 8)],
            rows=[[float(i)] for i in range(HEATMAP_MAX_ROWS + 8)],
        )
        svg = heatmap_svg(hm)
        assert f"top {HEATMAP_MAX_ROWS} of {HEATMAP_MAX_ROWS + 8}" in svg

    def test_empty_heatmap_renders_placeholder(self):
        hm = Heatmap(kind="vc_stall", title="t", unit="u",
                     window_cycles=64, components=[], rows=[])
        assert "No data" in heatmap_svg(hm)


class TestFullReport:
    def diag(self):
        hm = Heatmap(
            kind="link_busy", title="Link occupancy", unit="busy fraction",
            window_cycles=64, components=["wg0", "ch<1>"],
            rows=[[0.2, 0.9], [0.5, 0.1]],
        )
        return SweepDiagnosis(
            topology="own256", pattern="UN",
            points=[
                point(0.01, verdict="token-wait"),
                point(0.05, verdict="wireless-occupancy",
                      heatmaps=[hm], occ={"C2C": 0.7}),
            ],
            knee=0.05,
        )

    def test_report_is_self_contained_and_js_free(self):
        html = render_sweep_report(self.diag())
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html

    def test_report_escapes_component_names(self):
        html = render_sweep_report(self.diag())
        assert "ch<1>" not in html
        assert "ch&lt;1&gt;" in html

    def test_report_carries_verdict_flip_banner(self):
        html = render_sweep_report(self.diag())
        assert "token-wait" in html and "wireless-occupancy" in html
        assert "flips" in html

    def test_report_sections_present(self):
        html = render_sweep_report(self.diag())
        for section in ("Latency decomposition", "Congestion heatmaps",
                        "Simulator self-profile",
                        "Wireless channel occupancy"):
            assert section in html

    def test_flip_none_when_no_knee_or_no_change(self):
        d = self.diag()
        d.knee = None
        assert d.verdict_flip() is None
        assert "never saturated" in render_sweep_report(d)
        d.knee = 0.05
        d.points[1].attribution.verdict = "token-wait"
        assert d.verdict_flip() is None

    def test_point_without_verdict_cannot_flip(self):
        # The only pre-knee point measured no packet: it has no verdict,
        # so there is nothing to flip from.
        d = self.diag()
        d.points[0].attribution = None
        assert d.points[0].verdict == NO_VERDICT
        assert d.verdict_flip() is None
