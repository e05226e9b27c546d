"""Power as a pure fold over a run's activity record."""

import dataclasses
import json

import pytest

from repro.noc.simulator import Simulator
from repro.power import (
    ActivityRecord,
    DsentParams,
    PowerModel,
    measure_power,
    record_of,
)
from repro.runtime import ControlSpec, Executor, FaultSpec, RunResult, RunSpec
from repro.runtime.executor import execute_inline

SPEC = RunSpec.create(
    "own256", rate=0.02, cycles=300, warmup=100, seed=5, power=((4, 1),)
)

#: The recovery fault study: spare links are re-pointed while it runs.
FT_CONTROL = RunSpec.create(
    "own256_ft", topology_kwargs={"with_reconfiguration": True},
    pattern="HOT", rate=0.03, hotspot_fraction=0.6,
    hotspots=tuple(range(128, 192)), cycles=3000, warmup=300, seed=3,
    faults=FaultSpec(
        kind="bursty", seed=9, burst_rate=0.002, burst_duration=300,
        snr_penalty_db=14.0, max_channel=4, failover=False, reconfig_epoch=250,
    ),
    control=ControlSpec(epoch_cycles=250), telemetry=True, power=((4, 1),),
)


@pytest.fixture(scope="module")
def live():
    return execute_inline(SPEC)


def test_power_only_change_resimulates_nothing(tmp_path, monkeypatch, live):
    built, sim, _ = live
    ex = Executor(jobs=1, cache=str(tmp_path / "cache"))
    ex.run_one(SPEC)

    def refuse(self, cycles):
        raise AssertionError("a power-only change re-simulated")

    monkeypatch.setattr(Simulator, "run", refuse)
    asked = SPEC.with_(power=((1, 1), (4, 2)))
    result = ex.run_one(asked)
    assert result.cache_hit and result.spec == asked
    assert sorted(result.power) == ["cfg1_s1", "cfg4_s2"]
    for cfg, scen in asked.power:
        live_pb = measure_power(built, sim, config_id=cfg, scenario=scen)
        assert result.power_for(cfg, scen) == live_pb.as_dict()
    model = PowerModel(dsent=DsentParams(p_static_base_mw=0.8))
    assert model.measure(result.activity) == model.measure(record_of(built, sim))


def test_record_survives_json_round_trip(live):
    _, _, result = live
    record = result.activity
    back = ActivityRecord.from_dict(json.loads(json.dumps(record.to_dict())))
    assert back == record and back.crc32 == record.crc32
    for cfg in (1, 4):
        model = PowerModel(config_id=cfg)
        assert model.measure(back) == model.measure(record)
    tampered = record.to_dict()
    tampered["cycles"] += 1
    with pytest.raises(ValueError):
        ActivityRecord.from_dict(tampered)


def test_spares_priced_at_their_end_of_run_channels():
    built, sim, result = execute_inline(FT_CONTROL)
    live_pb = measure_power(built, sim).as_dict()
    stored = RunResult.from_payload(json.loads(json.dumps(result.to_payload())))
    assert result.power["cfg4_s1"] == stored.power["cfg4_s1"] == live_pb

    spares = {id(link) for link in built.notes["spare_links"].values()}
    carried = [link for link in built.network.links if link.bits_carried]
    assert any(id(link) in spares and link.channel_id for link in carried)
    record = record_of(built, sim)
    assert [row[2] for row in record.links] == [link.channel_id for link in carried]
    unassigned = dataclasses.replace(
        record,
        links=tuple(
            row[:2] + (None,) + row[3:] if id(link) in spares else row
            for link, row in zip(carried, record.links)
        ),
    )
    model = PowerModel()
    assert model.measure(unassigned) != model.measure(record)
