"""Channel recovery for the reconfigurable wireless plant.

Table III reserves channels 13-16 "to adaptively be utilized to improve
performance" (Sec. IV). The spares are placed by one policy, the
utilisation re-pointer of
:class:`repro.core.reconfig.ReconfigurationController`, and the health
monitor fails channels over onto them. This package adds what the
open-loop plant lacks: a :class:`ControlLoop` simulator epoch hook that

* probes failed-over channels and returns healed ones to service
  (:meth:`FaultTolerantOwn256Routing.unfail_channel`), freeing their
  spares for the re-pointer;
* repairs failover pins (retry with backoff, eviction of dead spares).

Every actuation is appended to a :class:`DecisionLog` whose CRC is folded
into run-record summaries, so control behaviour is content-addressed and
diffable exactly like the physics. See ``docs/control.md``.
"""

from repro.control.decisions import DecisionLog
from repro.control.loop import ControlLoop

__all__ = [
    "ControlLoop",
    "DecisionLog",
]
