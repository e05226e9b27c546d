"""Bottleneck attribution: decomposition arithmetic and verdict rules."""

import pytest

from repro.analysis.attribution import (
    ATTRIBUTABLE_MIN,
    OCCUPANCY_SATURATED,
    attribute_metrics,
    packet_classes,
    wireless_occupancies,
)
from repro.analysis.sweep import SweepPoint, SweepResult
from repro.telemetry.tracer import BREAKDOWN_STAGES


def metrics_for(cls, count, stage_totals, occupancy=None):
    """Flat metrics dict for one class with exact stage totals."""
    total = sum(stage_totals.values())
    flat = {
        f"pkt_total[{cls}].count": count,
        f"pkt_total[{cls}].total": total,
        f"pkt_total[{cls}].mean": total / count,
    }
    for stage in BREAKDOWN_STAGES:
        st = stage_totals.get(stage, 0)
        flat[f"pkt_{stage}[{cls}].count"] = count
        flat[f"pkt_{stage}[{cls}].total"] = st
        flat[f"pkt_{stage}[{cls}].mean"] = st / count
    for k, v in (occupancy or {}).items():
        flat[f"wireless_occupancy[{k}]"] = v
    return flat


class TestParsing:
    def test_no_packets_returns_none(self):
        assert attribute_metrics({}) is None
        assert attribute_metrics({"pkt_total[C2C].count": 0}) is None

    def test_packet_classes_and_occupancies(self):
        flat = metrics_for("C2C", 4, {"flight": 8}, {"C2C": 0.4, "SR": 0.1})
        assert packet_classes(flat) == ["C2C"]
        assert wireless_occupancies(flat) == {"C2C": 0.4, "SR": 0.1}

    def test_exact_sum_flag(self):
        flat = metrics_for("C2C", 2, {"token_wait": 10, "flight": 6})
        att = attribute_metrics(flat)
        assert att.overall.exact is True
        assert att.overall.total_mean == 8.0
        assert att.overall.stages["token_wait"] == 5.0
        # Break the identity: flag must drop.
        flat["pkt_flight[C2C].total"] = 5
        assert attribute_metrics(flat).overall.exact is False

    def test_overall_is_count_weighted_across_classes(self):
        flat = {}
        flat.update(metrics_for("C2C", 1, {"flight": 30}))
        flat.update(metrics_for("SR", 3, {"flight": 30}))
        att = attribute_metrics(flat)
        assert att.overall.count == 4
        # (1 pkt @ 30) + (3 pkts @ 10) -> 60 cycles over 4 packets.
        assert att.overall.total_mean == pytest.approx(15.0)
        assert att.per_class["C2C"].total_mean == pytest.approx(30.0)
        assert att.per_class["SR"].total_mean == pytest.approx(10.0)
        assert set(att.per_class) == {"C2C", "SR"}

    def test_v1_records_without_totals_still_attribute(self):
        flat = metrics_for("C2C", 4, {"token_wait": 20, "flight": 20})
        for key in list(flat):
            if key.endswith(".total"):
                del flat[key]
        att = attribute_metrics(flat)
        assert att is not None
        assert att.overall.total_mean == pytest.approx(10.0)


class TestVerdicts:
    def test_token_wait_dominates_pre_knee(self):
        flat = metrics_for(
            "C2C", 10,
            {"token_wait": 60, "serialization": 40, "flight": 60, "other": 80},
            occupancy={"C2C": 0.45},
        )
        att = attribute_metrics(flat)
        assert att.verdict == "token-wait"
        assert att.verdict_share == pytest.approx(0.25)

    def test_wireless_occupancy_past_knee(self):
        flat = metrics_for(
            "C2C", 10,
            {"token_wait": 40, "queueing": 20, "other": 200, "flight": 40},
            occupancy={"C2C": OCCUPANCY_SATURATED + 0.05},
        )
        att = attribute_metrics(flat)
        assert att.verdict == "wireless-occupancy"
        assert att.verdict_share == pytest.approx(OCCUPANCY_SATURATED + 0.05)

    def test_saturated_occupancy_but_token_dominant_stays_token(self):
        # High occupancy alone is not enough: token wait must be beaten
        # by congestion (blocking + queueing) for the flip.
        flat = metrics_for(
            "C2C", 10,
            {"token_wait": 200, "other": 40, "flight": 40},
            occupancy={"C2C": 0.9},
        )
        assert attribute_metrics(flat).verdict == "token-wait"

    def test_queueing_and_retx_verdicts(self):
        q = metrics_for("C2C", 5, {"queueing": 50, "flight": 30})
        assert attribute_metrics(q).verdict == "injection-queueing"
        r = metrics_for("C2C", 5, {"retx": 50, "flight": 30})
        assert attribute_metrics(r).verdict == "retransmission"

    def test_switch_contention_without_wireless(self):
        # Electrical topology: no occupancy gauges, "other" dominates.
        flat = metrics_for("electrical", 10, {"other": 80, "flight": 20})
        assert attribute_metrics(flat).verdict == "switch-contention"

    def test_structural_when_contention_negligible(self):
        flat = metrics_for(
            "C2C", 10,
            {"token_wait": 1, "serialization": 40, "flight": 59},
        )
        att = attribute_metrics(flat)
        assert att.verdict == "structural"
        assert att.overall.share("token_wait") < ATTRIBUTABLE_MIN

    def test_json_dict_round_trip_fields(self):
        flat = metrics_for("C2C", 2, {"token_wait": 10, "flight": 6},
                           occupancy={"C2C": 0.2})
        d = attribute_metrics(flat).to_json_dict()
        assert d["verdict"] == "token-wait"
        assert d["overall"]["shares"]["token_wait"] == pytest.approx(10 / 16)
        assert d["per_class"]["C2C"]["count"] == 2


def sweep_of(loads, lats, accepted=None):
    """A sweep of the given points; with no acceptance data every point
    accepts all it is offered."""
    accepted = loads if accepted is None else accepted
    return SweepResult("net", "UN", [
        SweepPoint(load, lat, acc, packets=100)
        for load, lat, acc in zip(loads, lats, accepted)
    ])  # fmt: skip


class TestKnee:
    def test_latency_factor_knee(self):
        loads = [0.01, 0.02, 0.04, 0.08]
        lats = [20.0, 22.0, 30.0, 90.0]
        assert sweep_of(loads, lats).knee() == 0.08

    def test_acceptance_knee_fires_first(self):
        loads = [0.01, 0.02, 0.04]
        lats = [20.0, 22.0, 30.0]
        accepted = [0.01, 0.02, 0.02]  # 50% accepted at 0.04
        assert sweep_of(loads, lats, accepted).knee() == 0.04

    def test_no_knee(self):
        assert sweep_of([0.01, 0.02], [20.0, 21.0]).knee() is None
        assert sweep_of([], []).knee() is None

    def test_knee_boundary_agrees_with_saturation_offered(self):
        # Accepted fraction exactly 0.88 at 0.25: saturated for both.
        sweep = sweep_of([0.125, 0.25], [20.0, 21.0], [0.125, 0.22])
        assert sweep.saturation_offered() == 0.125
        assert sweep.knee() == 0.25

    def test_point_without_packets_skipped_by_both_rules(self):
        # NaN latency: nothing measured. Neither the knee nor the
        # zero-load reference, for the knee and the sweep rule alike.
        sweep = sweep_of([0.0, 0.125, 0.25, 0.5], [float("nan"), 20.0, 21.0, 70.0])
        assert sweep.saturation_offered() == 0.25
        assert sweep.knee() == 0.5
