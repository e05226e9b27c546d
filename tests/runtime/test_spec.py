"""RunSpec value semantics: freezing, serialisation, content addressing."""

import hashlib
import os
from dataclasses import replace

import pytest

import repro
from repro.runtime import (
    SCHEMA_VERSION,
    ControlSpec,
    FaultSpec,
    RunSpec,
    TrafficSpec,
    code_fingerprint,
    freeze_kwargs,
)
from repro.runtime.spec import fingerprint_files


class TestFreezeKwargs:
    def test_empty(self):
        assert freeze_kwargs(None) == ()
        assert freeze_kwargs({}) == ()

    def test_sorted_and_hashable(self):
        a = freeze_kwargs({"b": 2, "a": 1})
        b = freeze_kwargs({"a": 1, "b": 2})
        assert a == b == (("a", 1), ("b", 2))
        hash(a)

    def test_recursive_lists_become_tuples(self):
        frozen = freeze_kwargs({"failed": [[0, 1], [2, 3]]})
        assert frozen == (("failed", ((0, 1), (2, 3))),)
        hash(frozen)

    def test_nested_dicts(self):
        frozen = freeze_kwargs({"cfg": {"y": [1], "x": 2}})
        assert frozen == (("cfg", (("x", 2), ("y", (1,)))),)


class TestSpecValidation:
    def test_traffic_kind_checked(self):
        with pytest.raises(ValueError):
            TrafficSpec(kind="telepathic")

    def test_fault_kind_checked(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="gremlins")

    @pytest.mark.parametrize(
        "field, value", [("target_index", -1), ("max_channel", 0), ("max_channel", -3)]
    )
    def test_fault_targets_bounded(self, field, value):
        # target_index=-1 used to kill the last data channel, and
        # max_channel=0 to inject no burst at any rate.
        with pytest.raises(ValueError, match=f"{field} must be >= "):
            FaultSpec(kind="death", **{field: value})

    def test_target_index_past_the_data_channels_is_named(self):
        from repro.runtime.executor import execute_inline

        spec = RunSpec.create(
            "own256_ft", cycles=10, faults=FaultSpec(kind="death", target_index=99)
        )
        with pytest.raises(ValueError, match="own256_ft has 12 data channels"):
            execute_inline(spec)

    def test_control_needs_faults(self):
        # Recovery probes failed-over channels: without a campaign it used
        # to wire a plant whose log only mirrored the controller's drains.
        with pytest.raises(ValueError, match="control requires faults"):
            RunSpec.create("own256_ft", control=ControlSpec())
        RunSpec.create(
            "own256_ft", control=ControlSpec(), faults=FaultSpec(burst_rate=0.0)
        )

    @pytest.mark.parametrize("cycles, warmup", [(200, 400), (200, 200), (200, -1), (0, 0)])
    def test_window_must_measure_something(self, cycles, warmup):
        with pytest.raises(ValueError, match="need 0 <= warmup < cycles"):
            RunSpec.create("own256", cycles=cycles, warmup=warmup)
        spec = RunSpec.create("own256", cycles=200, warmup=150)
        with pytest.raises(ValueError, match="need 0 <= warmup < cycles"):
            spec.with_(cycles=cycles, warmup=warmup)

    def test_workload_kind_needs_name(self):
        with pytest.raises(ValueError):
            TrafficSpec(kind="workload")

    def test_workload_name_needs_kind(self):
        with pytest.raises(ValueError):
            TrafficSpec(kind="synthetic", workload="coherence")

    def test_workload_params_frozen_and_order_free(self):
        a = TrafficSpec(kind="workload", workload="coherence",
                        workload_params=(("b", 2), ("a", 1)))
        b = TrafficSpec(kind="workload", workload="coherence",
                        workload_params=(("a", 1), ("b", 2)))
        assert a == b
        hash(a)


class TestDigest:
    def make(self, **over):
        kwargs = dict(
            pattern="UN", rate=0.02, cycles=300, warmup=100, seed=5,
            topology_kwargs={"n_cores": 64},
        )
        kwargs.update(over)
        return RunSpec.create("cmesh", **kwargs)

    def test_equal_specs_equal_digests(self):
        assert self.make() == self.make()
        assert self.make().digest() == self.make().digest()

    def test_kwargs_order_irrelevant(self):
        a = RunSpec.create("own256", topology_kwargs={"vc_depth": 4, "wireless_cycles_per_flit": 2})
        b = RunSpec.create("own256", topology_kwargs={"wireless_cycles_per_flit": 2, "vc_depth": 4})
        assert a == b and a.digest() == b.digest()

    def test_any_field_changes_digest(self):
        base = self.make().digest()
        assert self.make(rate=0.03).digest() != base
        assert self.make(seed=6).digest() != base
        assert self.make(cycles=301).digest() != base
        assert self.make(topology_kwargs={"n_cores": 256}).digest() != base
        assert self.make(faults=FaultSpec()).digest() != base
        assert self.make(power=((4, 1),)).digest() == base
        assert self.make(telemetry=True).digest() != base

    def test_workload_fields_change_digest_and_round_trip(self):
        base = self.make(traffic_kind="workload", workload="coherence")
        assert base.digest() != self.make().digest()
        tweaked = self.make(
            traffic_kind="workload", workload="coherence",
            workload_params={"miss_rate": 0.02},
        )
        assert tweaked.digest() != base.digest()
        back = RunSpec.from_dict(tweaked.to_dict())
        assert back == tweaked and back.digest() == tweaked.digest()
        assert back.traffic.workload == "coherence"

    def test_telemetry_round_trips(self):
        spec = self.make(telemetry=True)
        back = RunSpec.from_dict(spec.to_dict())
        assert back.telemetry is True
        assert back == spec and back.digest() == spec.digest()

    def test_telemetry_defaults_off_for_old_payloads(self):
        d = self.make().to_dict()
        del d["telemetry"]
        assert RunSpec.from_dict(d).telemetry is False

    def test_digest_is_hashlibs_sha256_of_the_same_bytes(self):
        spec = self.make(power=((4, 1),), telemetry=True)
        payload = replace(spec, power=()).canonical_json()
        payload += f"|code={code_fingerprint()}|schema={SCHEMA_VERSION}"
        assert spec.digest() == hashlib.sha256(payload.encode()).hexdigest()

    def test_code_fingerprint_is_hashlibs_sha256(self, monkeypatch):
        monkeypatch.delenv("REPRO_CODE_VERSION", raising=False)
        root = os.path.dirname(os.path.abspath(repro.__file__))
        h = hashlib.sha256()
        for rel in fingerprint_files():
            h.update(rel.encode())
            with open(os.path.join(root, rel), "rb") as fh:
                h.update(fh.read())
        assert code_fingerprint() == h.hexdigest()[:16]

    def test_code_version_folds_into_digest(self, monkeypatch):
        base = self.make().digest()
        monkeypatch.setenv("REPRO_CODE_VERSION", "someotherversion")
        assert code_fingerprint() == "someotherversion"
        assert self.make().digest() != base

    def test_schema_version_is_four(self):
        # Bumping SCHEMA_VERSION invalidates every cache: make it deliberate.
        # v2 (deliberate): result payloads grew the ``profile`` dict and run
        # records surface power/engine counters (docs/observability.md).
        # v3 (deliberate): payloads carry the activity record, not power.
        # v4 (deliberate): activity link rows carry their source router.
        assert SCHEMA_VERSION == 4

    def test_fingerprint_covers_hot_path_modules(self):
        # The fingerprint must invalidate cached results when the physics
        # *or* the engine changes; editing the vectorized kernels while
        # serving stale cached runs would hide a determinism bug.
        from repro.runtime.spec import fingerprint_files

        files = fingerprint_files()
        for mod in (
            "noc/kernels.py",
            "noc/router.py",
            "noc/simulator.py",
            "noc/buffers.py",
            "runtime/spec.py",
            # Workload traces are generated *inside* the run from the spec,
            # so editing a generator must invalidate cached workload runs.
            "traffic/trace.py",
            "traffic/bursty.py",
            "workloads/base.py",
            "workloads/microservice.py",
            "workloads/collectives.py",
            "workloads/coherence.py",
            "workloads/blends.py",
            "workloads/registry.py",
            "workloads/scenarios.py",
        ):
            assert mod in files, f"{mod} not covered by code_fingerprint()"
        assert all(f.endswith(".py") for f in files)


class TestRoundTrip:
    def test_to_from_dict(self):
        spec = RunSpec.create(
            "own256_ft",
            pattern="HS",
            rate=0.02,
            cycles=500,
            warmup=200,
            seed=2,
            topology_kwargs={"failed_channels": ((0, 1), (2, 3))},
            drain=1000,
            faults=FaultSpec(kind="death", at=125, failover=True),
            power=((4, 1), (1, 2)),
        )
        back = RunSpec.from_dict(spec.to_dict())
        assert back == spec
        assert back.digest() == spec.digest()

    def test_json_roundtrip_via_canonical(self):
        import json

        spec = RunSpec.create("cmesh", topology_kwargs={"n_cores": 64})
        back = RunSpec.from_dict(json.loads(spec.canonical_json()))
        assert back == spec and back.digest() == spec.digest()

    def test_with_refreezes_kwargs(self):
        spec = RunSpec.create("own256")
        varied = spec.with_(topology_kwargs={"vc_depth": 4})
        assert varied.topology_kwargs == (("vc_depth", 4),)
        assert varied.digest() != spec.digest()

    def test_label(self):
        spec = RunSpec.create("own256", pattern="BC", rate=0.035, cycles=1200)
        assert spec.label() == "own256/BC@0.035x1200"
