"""Runtime fault injection, link-layer retransmission, and online failover.

This package connects the calibrated RF physics (:mod:`repro.rf`) to the
cycle simulator (:mod:`repro.noc`): scheduled SNR dips, trimming drift and
transceiver deaths corrupt real in-flight traffic, a CRC + ACK/NACK link
layer masks the corruption by retransmission, and a health monitor retires
channels that stop earning their keep, failing traffic over to the relay
routes and spare channels of :mod:`repro.core`.

See ``docs/fault-tolerance.md`` for the protocol and failover state
machine.
"""

from repro.faults.campaign import FaultCampaign
from repro.faults.linklayer import FaultLayer, LinkLayerConfig
from repro.faults.models import (
    CORRUPT,
    LOST,
    LinkFaultState,
    PermanentFault,
    TransientFault,
    flit_error_probability,
)
from repro.faults.monitor import HealthMonitor

__all__ = [
    "CORRUPT",
    "LOST",
    "FaultCampaign",
    "FaultLayer",
    "HealthMonitor",
    "LinkFaultState",
    "LinkLayerConfig",
    "PermanentFault",
    "TransientFault",
    "flit_error_probability",
]
