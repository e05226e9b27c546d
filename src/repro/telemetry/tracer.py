"""The :class:`Tracer`: cycle-level event/metric collection for one run.

The tracer is threaded through the simulator's hot paths behind a single
``is not None`` check per site -- with no tracer attached the cycle loop
does no telemetry work at all (the regression suite guards this with the
tracer's ``emits`` call counter, not wall-clock timing). With a tracer
attached it plays two roles:

* **events** -- a bounded, append-only list of :class:`TraceEvent` in
  simulation order, exportable to Chrome ``trace_event`` JSON
  (:mod:`repro.telemetry.export`);
* **metrics** -- counters/histograms in a :class:`MetricRegistry`, keyed
  by component (home waveguide, wireless channel) and channel class
  (C2C/E2E/SR, photonic vs wireless), flattened into JSONL run records.

Per-packet latency breakdown
----------------------------

Each measured packet's end-to-end latency is decomposed into:

``queueing``       source-NI wait (``t_inject - t_create``)
``token_wait``     cycles between medium VC-allocation and the head
                   flit's send, summed over shared-medium hops
``serialization``  head-to-tail spacing on the *last* traversed link --
                   the only hop whose serialization sits on the critical
                   path (earlier hops overlap downstream pipelining)
``flight``         propagation latency of each traversed link
``retx``           backoff + engine wait of link-layer retransmissions
``other``          the remainder (router pipeline + switch contention)

aggregated into per-channel-class histograms (``pkt_token_wait[C2C]``,
...). The class of a packet is the distance class of the wireless channel
it traversed, else ``photonic``/``electrical``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.telemetry.classify import infer_channel_classes, link_class
from repro.telemetry.events import (
    BUFFER_SAMPLE,
    CONTROL,
    DEADLOCK,
    DRAIN_END,
    DRAIN_START,
    FAILOVER,
    FLIT_DROP,
    FLIT_RECV,
    FLIT_SEND,
    PACKET_DONE,
    RECOVERY,
    RETX,
    TOKEN_GRANT,
    TOKEN_REQUEST,
    TRAFFIC_RESUMED,
    VC_STALL,
    TraceEvent,
)
from repro.telemetry.metrics import MetricRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.links import Endpoint, Link, SharedMedium
    from repro.noc.packet import Packet
    from repro.noc.router import Router
    from repro.noc.simulator import Simulator

#: Latency-breakdown stages, in reporting order.
BREAKDOWN_STAGES = (
    "queueing",
    "token_wait",
    "serialization",
    "flight",
    "retx",
    "other",
)


class _PacketTrace:
    """Mutable per-packet breakdown accumulator (alive until ejection)."""

    __slots__ = (
        "token_since",
        "token_wait",
        "serialization",
        "flight",
        "retx_wait",
        "head_cycle",
        "cls",
    )

    def __init__(self) -> None:
        self.token_since = -1  # cycle the packet started waiting for a token
        self.token_wait = 0
        self.serialization = 0
        self.flight = 0
        self.retx_wait = 0
        self.head_cycle = -1
        self.cls: Optional[str] = None  # wireless distance class, if any


class Tracer:
    """Collects events and metrics from one simulation.

    Off is ``tracer=None``: an untraced simulator invokes nothing here.
    Wireless channel classes are inferred from the network at :meth:`bind`
    time (OWN topologies).

    Parameters
    ----------
    record_events:
        Buffer :class:`TraceEvent` objects (needed for Chrome export).
        ``False`` keeps metrics only -- the cheap mode run records use.
    max_events:
        Hard cap on buffered events; beyond it events are counted in
        ``events_dropped`` instead of stored (runaway-trace protection).
    sample_every:
        If > 0, :meth:`bind` registers the tracer as an end-of-cycle hook
        (``Simulator.add_hook``) that calls :meth:`on_cycle_sample` every
        ``sample_every`` cycles, snapshotting per-router buffer occupancy
        into a ``buffer_sample`` event (the congestion-heatmap input).
        ``0`` (default) disables sampling entirely.
    sinks:
        Streaming event consumers (see :meth:`add_sink`). Sinks receive
        *every* event -- even with ``record_events=False`` and past the
        ``max_events`` buffer cap -- so memory-bounded consumers like
        :class:`repro.telemetry.windows.WindowedAggregator` can digest
        arbitrarily long runs without buffering the event list.
    """

    def __init__(
        self,
        record_events: bool = True,
        max_events: int = 1_000_000,
        sample_every: int = 0,
        sinks: Optional[List[object]] = None,
    ) -> None:
        self.record_events = record_events
        self.max_events = max_events
        self.sample_every = sample_every
        self.events: List[TraceEvent] = []
        self.events_dropped = 0
        #: Total hook invocations (an exact, host-independent activity count).
        self.emits = 0
        self.metrics = MetricRegistry()
        self.sim: Optional["Simulator"] = None
        self._channel_classes: Dict[int, str] = {}
        self._link_class: Dict["Link", str] = {}
        self._pkt: Dict[int, _PacketTrace] = {}
        self._req_since: Dict["Link", int] = {}
        self._retx_queued: Dict[tuple, int] = {}
        # Registry handles, bound on first use (the registry still owns them).
        self._pkt_hists: Dict[str, list] = {}
        self._grant_metrics: Dict["SharedMedium", tuple] = {}
        self._stall_counters: Dict[tuple, object] = {}
        self._finalized = False
        self._sinks: List[object] = []
        #: Do the event-emitting branches run at all? True when events are
        #: buffered or at least one streaming sink wants them.
        self._eventing = record_events
        for sink in sinks or ():
            self.add_sink(sink)

    def add_sink(self, sink: object) -> None:
        """Attach a streaming consumer (``sink.on_event(TraceEvent)``).

        Sinks see the event stream as it is produced, independent of the
        ``record_events`` buffer and its ``max_events`` cap. A sink may
        also define ``on_finalize(tracer, sim)``, called once from
        :meth:`finalize`.
        """
        self._sinks.append(sink)
        self._eventing = True

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def bind(self, sim: "Simulator") -> None:
        """Attach to a simulator (called by ``Simulator.__init__``).

        Precomputes the link -> class map; the stages reach the tracer
        through the simulator (``sim._tracer``).
        """
        self.sim = sim
        network = sim.network
        self._channel_classes = infer_channel_classes(network)
        for link in network.links:
            self._link_class[link] = link_class(link, self._channel_classes)
        if self.sample_every:
            sim.add_hook(self)

    def class_of(self, link: "Link") -> str:
        cls = self._link_class.get(link)
        if cls is None:
            cls = self._link_class[link] = link_class(link, self._channel_classes)
        return cls

    def _event(
        self,
        cycle: int,
        etype: str,
        component: str,
        dur: int = 0,
        args: Optional[dict] = None,
    ) -> None:
        ev = TraceEvent(cycle, etype, component, dur, args)
        if self.record_events:
            if len(self.events) < self.max_events:
                self.events.append(ev)
            else:
                self.events_dropped += 1
        for sink in self._sinks:
            sink.on_event(ev)

    # ------------------------------------------------------------------ #
    # Packet lifecycle (Simulator)
    # ------------------------------------------------------------------ #

    def on_packet_created(self, packet: "Packet", now: int) -> None:
        self.emits += 1
        self._pkt[packet.pid] = _PacketTrace()

    def on_flit_sent(self, link: "Link", packet: "Packet", seq: int, now: int) -> None:
        """Flit ``seq`` of ``packet`` (0 is the head) began traversal."""
        self.emits += 1
        pt = self._pkt.get(packet.pid)
        if pt is not None:
            if not seq:
                if pt.token_since >= 0 and link.medium is not None:
                    pt.token_wait += now - pt.token_since
                pt.token_since = -1
                pt.head_cycle = now
                pt.flight += link.latency
                if link.kind == "wireless":
                    pt.cls = self.class_of(link)
            if seq == packet.size_flits - 1 and pt.head_cycle >= 0:
                # Only the last hop's head-to-tail spacing sits on the
                # critical path (earlier hops' serialization overlaps
                # downstream pipelining), so overwrite rather than sum.
                pt.serialization = now - pt.head_cycle
        if self._eventing:
            self._event(
                now,
                FLIT_SEND,
                link.name,
                dur=link.cycles_per_flit,
                args={"pid": packet.pid, "seq": seq},
            )

    def on_flit_delivered(self, endpoint: "Endpoint", packet: "Packet", now: int) -> None:
        """A flit of ``packet`` entered a buffer or ejected at ``endpoint``."""
        self.emits += 1
        if self._eventing:
            self._event(now, FLIT_RECV, endpoint.name, args={"pid": packet.pid})

    def on_packet_ejected(self, packet: "Packet", now: int) -> None:
        self.emits += 1
        pt = self._pkt.pop(packet.pid, None)
        if pt is None:
            return
        total = now - packet.t_create
        queueing = (
            packet.t_inject - packet.t_create if packet.t_inject is not None else 0
        )
        parts = {
            "queueing": queueing,
            "token_wait": pt.token_wait,
            "serialization": pt.serialization,
            "flight": pt.flight,
            "retx": pt.retx_wait,
        }
        parts["other"] = max(0, total - sum(parts.values()))
        cls = pt.cls or ("photonic" if packet.photonic_hops else "electrical")
        # Warmup-epoch packets (injected before warmup_cycles, tagged by
        # the stats collector) stay out of the latency histograms, matching
        # the measured-window filtering in repro.noc.stats; their PACKET_DONE
        # event is still emitted for trace completeness.
        if packet.measured is not False:
            hists = self._pkt_hists.get(cls)
            if hists is None:
                hist = self.metrics.histogram
                hists = self._pkt_hists[cls] = [hist("pkt_total", cls)] + [
                    hist(f"pkt_{stage}", cls) for stage in parts
                ]
            for h, v in zip(hists, (total, *parts.values())):
                h.observe(v)
        if self._eventing:
            args = dict(parts)
            args.update({"pid": packet.pid, "total": total, "class": cls})
            self._event(now, PACKET_DONE, f"core{packet.dst_core}", args=args)

    # ------------------------------------------------------------------ #
    # Token arbitration (Router VCA + Simulator phase 2)
    # ------------------------------------------------------------------ #

    def on_medium_request(
        self, medium: "SharedMedium", link: "Link", packet: "Packet", now: int
    ) -> None:
        self.emits += 1
        pt = self._pkt.get(packet.pid)
        if pt is not None:
            pt.token_since = now
        if link not in self._req_since:
            self._req_since[link] = now
        if self._eventing:
            self._event(
                now, TOKEN_REQUEST, medium.name,
                args={"link": link.name, "pid": packet.pid},
            )

    def on_token_grant(self, medium: "SharedMedium", link: "Link", now: int) -> None:
        self.emits += 1
        wait = now - self._req_since.pop(link, now) + medium.arb_latency
        handles = self._grant_metrics.get(medium)
        if handles is None:
            m = self.metrics
            handles = self._grant_metrics[medium] = (
                m.counter("token_wait_cycles", medium.name),
                m.counter("token_grants", medium.name),
                m.histogram("token_wait", medium.kind),
            )
        cycles, grants, hist = handles
        cycles.value += wait
        grants.value += 1
        hist.observe(wait)
        if self._eventing:
            self._event(
                now, TOKEN_GRANT, medium.name,
                args={"link": link.name, "wait": wait},
            )

    # ------------------------------------------------------------------ #
    # Stalls (Router SA)
    # ------------------------------------------------------------------ #

    def on_vc_stall(
        self, router: "Router", port_kind: str, reason: str, now: int
    ) -> None:
        self.emits += 1
        counter = self._stall_counters.get((port_kind, reason))
        if counter is None:
            counter = self._stall_counters[port_kind, reason] = self.metrics.counter(
                "vc_stall_cycles", f"{port_kind}.{reason}")
        counter.value += 1
        if self._eventing:
            self._event(
                now, VC_STALL, f"r{router.rid}", args={"reason": reason}
            )

    # ------------------------------------------------------------------ #
    # Link-layer protocol (repro.faults.linklayer)
    # ------------------------------------------------------------------ #

    def on_flit_dropped(
        self, endpoint: "Endpoint", packet: "Packet", fate: str, now: int
    ) -> None:
        """The receiver discarded a flit of ``packet``, whose attempt the
        link layer fated ``fate`` (``"corrupt"`` or ``"lost"``)."""
        self.emits += 1
        router = endpoint.router
        kind = (
            router.input_ports[endpoint.in_port].kind
            if router is not None
            else "sink"
        )
        self.metrics.counter("flit_drops", kind).add(1)
        if self._eventing:
            self._event(
                now, FLIT_DROP, endpoint.name,
                args={"pid": packet.pid, "fate": fate},
            )

    def on_retx_queued(self, link: "Link", packet: "Packet", now: int) -> None:
        self.emits += 1
        self._retx_queued[(id(link), packet.pid)] = now

    def on_retx_start(
        self, link: "Link", packet: "Packet", attempts: int, now: int
    ) -> None:
        self.emits += 1
        queued = self._retx_queued.pop((id(link), packet.pid), now)
        pt = self._pkt.get(packet.pid)
        if pt is not None:
            pt.retx_wait += now - queued
        self.metrics.counter("retx_packets", self.class_of(link)).add(1)
        if self._eventing:
            self._event(
                now, RETX, link.name,
                args={"pid": packet.pid, "attempts": attempts},
            )

    def on_failover(self, link: "Link", now: int) -> None:
        self.emits += 1
        self.metrics.counter("failovers", self.class_of(link)).add(1)
        if self._eventing:
            self._event(now, FAILOVER, link.name)

    def on_recovery(self, link: "Link", now: int) -> None:
        self.emits += 1
        self.metrics.counter("recoveries", self.class_of(link)).add(1)
        if self._eventing:
            self._event(now, RECOVERY, link.name)

    # ------------------------------------------------------------------ #
    # Recovery decisions (HealthMonitor with recover=True)
    # ------------------------------------------------------------------ #

    def on_control(self, action: str, detail: dict, now: int) -> None:
        """One recovery decision (probe, unfail, pin).

        ``detail`` is the decision-log record (already JSON-safe); it rides
        along in the event args so Chrome traces and HTML reports show what
        the monitor did at each recovery epoch.
        """
        self.emits += 1
        self.metrics.counter("control_actions", action).add(1)
        if self._eventing:
            self._event(now, CONTROL, "control", args=dict(detail))

    # ------------------------------------------------------------------ #
    # Run-phase markers (Simulator drain / resume / watchdog)
    # ------------------------------------------------------------------ #

    def on_drain_start(self, now: int, occupancy: int, backlog: int) -> None:
        self.emits += 1
        if self._eventing:
            self._event(
                now, DRAIN_START, "sim",
                args={"occupancy": occupancy, "backlog": backlog},
            )

    def on_drain_end(
        self, now: int, moved: int, ejected: int, drained: bool
    ) -> None:
        self.emits += 1
        if self._eventing:
            self._event(
                now, DRAIN_END, "sim",
                args={"moved": moved, "ejected": ejected, "drained": drained},
            )

    def on_traffic_resumed(self, now: int, restored: bool) -> None:
        self.emits += 1
        if self._eventing:
            self._event(now, TRAFFIC_RESUMED, "sim", args={"restored": restored})

    def on_deadlock(self, now: int, occupancy: int) -> None:
        self.emits += 1
        if self._eventing:
            self._event(now, DEADLOCK, "sim", args={"occupancy": occupancy})

    # ------------------------------------------------------------------ #
    # Periodic state sampling (an end-of-cycle hook, bound with sample_every)
    # ------------------------------------------------------------------ #

    def __call__(self, sim: "Simulator") -> None:
        """End-of-cycle hook: sample on the ``sample_every`` grid."""
        if sim.now % self.sample_every == 0:
            self.on_cycle_sample(sim.now)

    def next_wake(self, now: int) -> int:
        """The next sampling cycle: a fast-forward wake source."""
        return -(-now // self.sample_every) * self.sample_every

    def on_cycle_sample(self, now: int) -> None:
        """Snapshot per-router buffer occupancy into a ``buffer_sample``.

        Pure observation: reads router occupancy counters, never touches
        simulation state, so sampled runs stay bit-identical to unsampled
        ones. Only routers with buffered flits appear in the snapshot.
        """
        self.emits += 1
        occ: Dict[str, int] = {}
        for router in self.sim.network.routers:
            if router._nflits:
                occ[f"r{router.rid}"] = router.occupancy()
        if self._eventing:
            self._event(now, BUFFER_SAMPLE, "sim", args={"occupancy": occ})
        self.metrics.counter("buffer_samples").add(1)
        self.metrics.histogram("buffer_occupancy").observe(sum(occ.values()))

    # ------------------------------------------------------------------ #
    # Finalization
    # ------------------------------------------------------------------ #

    def finalize(self, sim: Optional["Simulator"] = None) -> None:
        """Fold post-run link/medium activity into the registry.

        Wireless channel occupancy (per class and per channel) and
        photonic-medium utilisation are cheaper to compute once from the
        links' own activity counters than to sample per cycle. Idempotent.
        """
        sim = sim or self.sim
        if self._finalized or sim is None:
            return
        self._finalized = True
        for sink in self._sinks:
            on_finalize = getattr(sink, "on_finalize", None)
            if on_finalize is not None:
                on_finalize(self, sim)
        elapsed = max(1, sim.now)
        counter = self.metrics.counter
        gauge = self.metrics.gauge
        busy_by_class: Dict[str, int] = {}
        links_by_class: Dict[str, int] = {}
        for link in sim.network.links:
            if link.kind != "wireless":
                continue
            cls = self.class_of(link)
            links_by_class[cls] = links_by_class.get(cls, 0) + 1
            if link.flits_carried == 0:
                continue
            busy = link.flits_carried * link.cycles_per_flit
            busy_by_class[cls] = busy_by_class.get(cls, 0) + busy
            counter("wireless_flits", cls).add(link.flits_carried)
            counter("channel_busy_cycles", link.name).add(busy)
        for cls, busy in busy_by_class.items():
            counter("wireless_busy_cycles", cls).add(busy)
            # Average busy fraction across the class's channels (0..1).
            gauge("wireless_occupancy", cls).set(
                busy / (elapsed * links_by_class[cls])
            )
        photonic_busy = 0
        for medium in sim.network.mediums:
            if medium.flits_carried == 0:
                continue
            cpf = medium.members[0].cycles_per_flit if medium.members else 1
            busy = medium.flits_carried * cpf
            gauge("medium_occupancy", medium.name).set(busy / elapsed)
            if medium.kind == "photonic":
                photonic_busy += busy
        if photonic_busy:
            counter("photonic_busy_cycles", "photonic").add(photonic_busy)

    def metrics_dict(self) -> Dict[str, Optional[float]]:
        """Flat, JSON-safe metrics (call after :meth:`finalize`)."""
        return self.metrics.as_flat_dict()
