"""Typed trace events.

One event is one ``TraceEvent`` -- a NamedTuple so hot-path construction
is a single allocation and tests read fields by name. Events are appended
in simulation order, so a tracer's event list is monotonically
non-decreasing in ``cycle`` (the regression suite locks this down).

Event vocabulary
----------------

=================  ====================================================
``flit_send``      A flit began link traversal (``dur`` = serialization
                   cycles; renders as a busy span on the link's track).
``flit_recv``      A flit entered a downstream buffer or ejected at a
                   sink (component is the endpoint name).
``flit_drop``      Receiver-side discard of a corrupt/lost flit.
``vc_stall``       An ACTIVE VC with a buffered flit could not move this
                   cycle (``args["reason"]``: token / link; it never lacks
                   a credit, see ``Endpoint.admit``).
``token_request``  A link began waiting for its shared medium's token.
``token_grant``    The medium's token was handed to a writer
                   (``args["wait"]`` = request-to-grant cycles).
``retx``           The link-layer engine began retransmitting a packet.
``failover``       The health monitor retired a channel.
``recovery``       A retired channel returned to service (probes passed).
``control``        A recovering health monitor decided (``args``: the
                   decision-log record -- probe, unfail, pin).
``packet_done``    A packet ejected; ``args`` carries the latency
                   breakdown (queueing / token_wait / serialization /
                   flight / retx / other).
``drain_start``    ``Simulator.drain`` paused traffic.
``drain_end``      The drain finished (``args``: moved, ejected,
                   drained).
``traffic_resumed``  ``Simulator.resume_traffic`` restored injection.
``deadlock``       The watchdog aborted the run.
``buffer_sample``  Periodic network-state snapshot (``args["occupancy"]``
                   maps router name -> buffered flits; emitted every
                   ``Tracer(sample_every=N)`` cycles).
=================  ====================================================
"""

from __future__ import annotations

from typing import NamedTuple, Optional

FLIT_SEND = "flit_send"
FLIT_RECV = "flit_recv"
FLIT_DROP = "flit_drop"
VC_STALL = "vc_stall"
TOKEN_REQUEST = "token_request"
TOKEN_GRANT = "token_grant"
RETX = "retx"
FAILOVER = "failover"
RECOVERY = "recovery"
CONTROL = "control"
PACKET_DONE = "packet_done"
DRAIN_START = "drain_start"
DRAIN_END = "drain_end"
TRAFFIC_RESUMED = "traffic_resumed"
DEADLOCK = "deadlock"
BUFFER_SAMPLE = "buffer_sample"

#: Every event type the tracer may emit (export validates against this).
EVENT_TYPES = (
    FLIT_SEND,
    FLIT_RECV,
    FLIT_DROP,
    VC_STALL,
    TOKEN_REQUEST,
    TOKEN_GRANT,
    RETX,
    FAILOVER,
    RECOVERY,
    CONTROL,
    PACKET_DONE,
    DRAIN_START,
    DRAIN_END,
    TRAFFIC_RESUMED,
    DEADLOCK,
    BUFFER_SAMPLE,
)

#: Event types rendered as duration spans ("X" phase) in Chrome traces;
#: everything else becomes an instant event.
SPAN_EVENTS = (FLIT_SEND,)


class TraceEvent(NamedTuple):
    """One cycle-stamped occurrence on a named component."""

    cycle: int
    etype: str
    component: str
    dur: int = 0
    args: Optional[dict] = None
