"""Markdown report generation."""

import pytest

from repro.analysis import ARTIFACT_CONTEXT, EXPERIMENTS, generate_report


class TestReport:
    def test_static_subset(self):
        text = generate_report(only=["table1", "table4"], quick=True)
        assert "# OWN reproduction" in text
        assert "Table I" in text and "Table IV" in text
        # Markdown tables present.
        assert "| channel | link | class |" in text

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError, match="bogus"):
            generate_report(only=["bogus"])

    def test_every_experiment_has_context(self):
        for key in EXPERIMENTS:
            assert key in ARTIFACT_CONTEXT, f"missing report context for {key}"

    def test_notes_rendered(self):
        text = generate_report(only=["fig3"], quick=True)
        assert "`anchor_50mm_0dBi_dbm`" in text

    def test_float_formatting(self):
        text = generate_report(only=["fig3"], quick=True)
        # Floats rendered with 3 decimals, not repr noise.
        assert "4.088" in text


class TestLatencyBreakdown:
    def test_queueing_vs_network_split(self):
        from repro.noc import Simulator
        from repro.topologies import build_cmesh
        from repro.traffic import SyntheticTraffic

        built = build_cmesh(64)
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(64, "UN", 0.08, 4, seed=1),
            warmup_cycles=200,
        )
        sim.run(800)
        s = sim.summary()
        assert s["network_latency_mean"] > 0
        assert s["queueing_latency_mean"] >= 0
        assert s["latency_mean"] == pytest.approx(
            s["network_latency_mean"] + s["queueing_latency_mean"], rel=0.01
        )

    def test_queueing_grows_with_load(self):
        from repro.noc import Simulator
        from repro.topologies import build_cmesh
        from repro.traffic import SyntheticTraffic

        queueing = {}
        for rate in (0.02, 0.1):
            built = build_cmesh(64)
            sim = Simulator(
                built.network,
                traffic=SyntheticTraffic(64, "UN", rate, 4, seed=1),
                warmup_cycles=200,
            )
            sim.run(800)
            queueing[rate] = sim.stats.queueing_latency_mean()
        assert queueing[0.1] > queueing[0.02]
