"""End-to-end diagnosis runs: exact sums, observation-only tracing, and
the paper-level acceptance check -- on an OWN-256 uniform-random load
sweep the dominant-bottleneck verdict flips from token-wait to
wireless-occupancy across the saturation knee."""

import pytest

from repro.analysis.diagnose import diagnose_point, diagnose_sweep
from repro.analysis.sweep import point_spec
from repro.runtime.executor import execute_inline
from repro.telemetry.tracer import BREAKDOWN_STAGES


CMESH64 = ("cmesh", {"n_cores": 64})


def cmesh_spec(rate, cycles, warmup):
    return point_spec(CMESH64, "UN", rate, cycles, warmup).with_(telemetry=True)


@pytest.fixture(scope="module")
def own_sweep():
    return diagnose_sweep(
        "own256", rates=(0.01, 0.03, 0.05, 0.07), cycles=400, warmup=100
    )


class TestDiagnosePoint:
    def test_cmesh_point_full_surface(self):
        spec = cmesh_spec(0.03, cycles=200, warmup=50)
        diag = diagnose_point(spec, window_cycles=32, sample_every=8)
        assert diag.attribution is not None
        ov = diag.attribution.overall
        assert ov.exact, "stage totals must sum exactly to end-to-end"
        assert ov.total_mean == pytest.approx(
            sum(ov.stages[s] for s in BREAKDOWN_STAGES)
        )
        kinds = {h.kind for h in diag.heatmaps}
        assert "link_busy" in kinds and "buffer_occ" in kinds
        assert diag.profile["sim_cycles"] == 200
        assert diag.profile["sim_cycles_per_sec"] > 0
        assert set(diag.profile) >= {"build_s", "sim_s", "measure_s"}

    def test_heatmaps_off(self):
        spec = cmesh_spec(0.02, cycles=120, warmup=0)
        diag = diagnose_point(spec, heatmaps=False)
        assert diag.heatmaps == []
        assert diag.attribution is not None

    def test_instrumentation_is_observation_only(self):
        # The acceptance bar: an analysis-enabled run must be
        # bit-identical in simulation results to an untraced run.
        spec = cmesh_spec(0.04, cycles=200, warmup=50)
        plain = execute_inline(spec.with_(telemetry=False))[2]
        diagnosed = diagnose_point(spec, window_cycles=32, sample_every=4)
        assert diagnosed.summary == plain.summary


class TestOwn256VerdictFlip:
    def test_exact_sum_at_every_load(self, own_sweep):
        for p in own_sweep.points:
            assert p.attribution is not None
            assert p.attribution.overall.exact

    def test_knee_detected(self, own_sweep):
        assert own_sweep.knee == 0.05

    def test_verdict_flips_across_the_knee(self, own_sweep):
        flip = own_sweep.verdict_flip()
        assert flip is not None
        assert flip["before"] == "token-wait"
        assert flip["after"] == "wireless-occupancy"
        # And the per-point story is monotone: token-wait at every
        # pre-knee load, wireless-occupancy at every post-knee load.
        for p in own_sweep.points:
            expected = (
                "token-wait" if p.rate < own_sweep.knee
                else "wireless-occupancy"
            )
            assert p.verdict == expected, f"rate {p.rate}"

    def test_wireless_occupancy_rises_through_knee(self, own_sweep):
        maxima = [
            max(p.attribution.wireless_occupancy.values())
            for p in own_sweep.points
        ]
        assert maxima[0] < 0.3
        assert maxima[-1] > 0.6

    def test_heatmaps_only_on_congested_points(self, own_sweep):
        with_heat = [p.rate for p in own_sweep.points if p.heatmaps]
        assert with_heat == [0.05, 0.07]

    def test_json_export_shape(self, own_sweep):
        d = own_sweep.to_json_dict()
        assert d["knee"] == 0.05
        assert d["verdict_flip"]["before"] == "token-wait"
        assert len(d["points"]) == 4
        assert d["points"][0]["attribution"]["overall"]["exact"] is True
