"""The traced output of a faulted, recovering run, pinned byte for byte.

Tracing must observe, never perturb -- and a refactor of the traced paths
(``Router.stage_sa``, the link layer's retransmissions, the recovery
plant) must not change what they emit. This run exercises all of them:
``own256_ft`` under hot-spot load with bursty wireless faults, a channel
failed over and recovered, and a tracer that records every event and
samples buffer occupancy every 16 cycles. The CRC32 of the canonical JSON
of its event list plus its flat metrics is pinned; any change to an event,
its order or a metric changes it.
"""

import json
import zlib
from collections import Counter

from repro.runtime.executor import execute_inline
from repro.runtime.spec import ControlSpec, FaultSpec, RunSpec
from repro.telemetry import VC_STALL, Tracer

#: CRC32 of the canonical trace of the run below.
TRACE_CRC = 4201024


def _traced_run():
    spec = RunSpec.create(
        "own256_ft", topology_kwargs={"with_reconfiguration": True},
        pattern="HOT", rate=0.06, hotspot_fraction=0.6,
        hotspots=tuple(range(128, 192)), cycles=900, warmup=100, seed=3,
        faults=FaultSpec(
            kind="bursty", seed=9, burst_rate=0.002, burst_duration=150,
            snr_penalty_db=14.0, max_channel=4, reconfig_epoch=150,
        ),
        control=ControlSpec(epoch_cycles=150),
    )  # fmt: skip
    tracer = Tracer(sample_every=16)
    _, sim, result = execute_inline(spec, tracer=tracer)
    return tracer, sim, result


def test_faulted_recovering_trace_is_pinned():
    tracer, sim, result = _traced_run()
    assert not sim._sa_kernel  # traced SA: Router.stage_sa
    summary = result.summary
    assert summary["flits_retransmitted"] > 0
    assert summary["channels_failed_over"] > 0 and summary["channels_recovered"] > 0
    # Stalls behind a medium token and behind a serializing link both
    # occur. None on credit: virtual cut-through admission reserves every
    # credit a packet needs, so an ACTIVE VC never lacks one.
    reasons = Counter(ev.args["reason"] for ev in tracer.events if ev.etype == VC_STALL)
    assert set(reasons) == {"token", "link"}, reasons
    canonical = json.dumps(
        [list(ev) for ev in tracer.events] + [tracer.metrics_dict()],
        sort_keys=True, separators=(",", ":"),
    )  # fmt: skip
    assert zlib.crc32(canonical.encode()) == TRACE_CRC
