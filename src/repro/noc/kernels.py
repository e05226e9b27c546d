"""Flat slot layout and the network-wide switch-allocation sweep.

The object model (:mod:`repro.noc.router`, ``buffers``, ``links``) holds
every piece of flow-control state: credits and VC-busy flags on the
``Endpoint``, queue / state / route on the ``VirtualChannel``, serialization
timers on the ``Link``, token position on the ``SharedMedium``. This module
adds no second copy of any of it. It numbers the network's input VCs into
one flat *slot* space and runs switch allocation as a single pass over the
sorted slots that currently compete, reading the objects directly --
``Router.stage_sa`` with the per-router dispatch, request-vector building
and arbiter objects stripped out.

Slot layout
-----------
One slot per (router, input port, VC), assigned contiguously in router-id
order::

    slot = vslot_base[rid] + in_port * num_vcs + vc

``num_vcs`` is required to be uniform network-wide (true for every topology
builder; ``supported`` is ``False`` otherwise and the simulator falls back
to ``Router.stage_sa``). Uniformity makes the input-port identity
recoverable arithmetically (``port_base = slot - slot % num_vcs``), and a
sorted slot list is automatically grouped by router and, within a router,
by ascending (in_port, vc) -- exactly the deterministic iteration order of
the reference loop.

State owned here
----------------
* **sa_slots** -- the SA work set as slot ids, kept in lockstep with the
  routers' ``_sa_active`` sets at every add/discard site (audited by
  ``invariants.check_kernel_coherence``).
* **in_ptr / out_ptr** -- the sweep's round-robin pointers (one per input
  port / per link). Initialised from the object arbiters at bind time and
  *path-local* thereafter: a run uses either the sweep or the object
  ``stage_sa`` throughout, never both, so the two pointer sets are never
  mixed (and the invariant audit deliberately does not compare them).

Determinism contract
--------------------
:meth:`KernelState.sa_sweep` reproduces the reference ``Router.stage_sa``
sweep bit-for-bit (property-tested in ``tests/runtime`` and gated by the 0%
golden diffs in CI): eligibility is evaluated lazily per candidate in
ascending slot order, transmits are issued in ascending (router,
output-group) order -- the reference event-append order -- and the
round-robin winner is ``argmin (i - ptr) % n`` with the pointer advancing
to ``winner + 1``, identical to the inlined object arbiters.
"""

from __future__ import annotations

from typing import Callable, List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.network import Network


class KernelState:
    """Slot layout and SA work set of one :class:`~repro.noc.network.Network`.

    Build with :meth:`build` (the network must be finalized). Binding
    installs ``router._kern`` (so the router stages keep ``sa_slots`` in
    lockstep with ``_sa_active``), ``vc.gslot`` and ``link.index``.
    """

    __slots__ = (
        "supported",
        "num_vcs",
        "vslot_base",
        "router_top",
        "slot_router",
        "slot_ip",
        "slot_vc",
        # sweep-local arbitration state:
        "in_ptr",
        "out_ptr",
        "out_n",
        # switch-allocation work set (slot ids; lockstep with _sa_active):
        "sa_slots",
    )

    def __init__(self) -> None:
        self.supported = False
        self.num_vcs = 0
        self.sa_slots: set = set()

    # ------------------------------------------------------------------ #
    # Binding
    # ------------------------------------------------------------------ #

    @classmethod
    def build(cls, network: "Network") -> "KernelState":
        """Lay out ``network``'s input VCs as slots and bind the objects.

        Safe to call on a mid-life network: the work set and round-robin
        pointers are initialised from the current object state.
        """
        k = cls()
        routers = network.routers
        num_vcs = network.num_vcs
        if any(r.num_vcs != num_vcs for r in routers):
            # Mixed VC counts break the arithmetic slot layout; the
            # simulator falls back to Router.stage_sa.
            return k
        k.supported = True
        k.num_vcs = num_vcs

        # --- slot layout -------------------------------------------------
        vslot_base: List[int] = []
        base = 0
        for r in routers:
            vslot_base.append(base)
            base += len(r.input_ports) * num_vcs
        k.vslot_base = vslot_base
        k.router_top = [
            vslot_base[rid] + len(r.input_ports) * num_vcs
            for rid, r in enumerate(routers)
        ]
        k.slot_router = [None] * base
        k.slot_ip = [0] * base
        k.slot_vc = [None] * base
        # Round-robin pointers, indexed by port-base slot / link index.
        k.in_ptr = [0] * base

        for rid, r in enumerate(routers):
            r._kern = k
            rbase = vslot_base[rid]
            for ip, port in enumerate(r.input_ports):
                pbase = rbase + ip * num_vcs
                k.in_ptr[pbase] = r._in_arbs[ip]._next
                for iv, vc in enumerate(port.vcs):
                    s = pbase + iv
                    vc.gslot = s
                    k.slot_router[s] = r
                    k.slot_ip[s] = ip
                    k.slot_vc[s] = vc

        # --- per-link output pointers ------------------------------------
        links = network.links
        k.out_ptr = [0] * len(links)
        k.out_n = [1] * len(links)
        for li, link in enumerate(links):
            link.index = li
            src = link.src_router
            if src is not None:
                k.out_ptr[li] = src._out_arbs[link.out_port]._next
                k.out_n[li] = max(1, len(src.input_ports))

        # --- SA work set (usually empty at bind time) --------------------
        for r in routers:
            rbase = vslot_base[r.rid]
            for (ip, iv) in r._sa_active:
                k.sa_slots.add(rbase + ip * num_vcs + iv)
        return k

    # ------------------------------------------------------------------ #
    # The switch-allocation sweep
    # ------------------------------------------------------------------ #

    def sa_sweep(self, now: int, send_fn: Callable, credit_fn: Callable) -> int:
        """One network-wide SA/ST phase over the flat slot space.

        Bit-identical replacement for iterating ``stage_sa`` over the
        sorted active-router snapshot: a single pass in ascending slot
        order that evaluates eligibility lazily from the objects and finds
        each round-robin winner by inline pointer arithmetic. Returns the
        number of flits moved.
        """
        slots = sorted(self.sa_slots)
        n = len(slots)
        V = self.num_vcs
        in_ptr = self.in_ptr
        out_ptr = self.out_ptr
        out_n = self.out_n
        slot_router = self.slot_router
        slot_ip = self.slot_ip
        slot_vc = self.slot_vc
        router_top = self.router_top
        sa = self.sa_slots
        moved = 0
        i = 0
        while i < n:
            r = slot_router[slots[i]]
            rtop = router_top[r.rid]
            out_links = r.out_links
            winners = None
            # --- input-port arbitration over this router's segment -------
            while i < n and slots[i] < rtop:
                pb = slots[i]
                pb -= pb % V
                ptop = pb + V
                ptr = in_ptr[pb]
                best = V
                win = -1
                win_vc = None
                while i < n and slots[i] < ptop:
                    s = slots[i]
                    i += 1
                    vc = slot_vc[s]
                    endpoint = vc.endpoint
                    if not (endpoint.is_sink or endpoint.credits[vc.out_vc] > 0):
                        continue
                    link = out_links[vc.out_port]
                    if now < link.busy_until:
                        continue
                    medium = link.medium
                    if medium is not None and not (
                        medium.holder is link
                        and now >= medium.grant_at
                        and now >= medium.busy_until
                        and now >= medium.blocked_until
                    ):
                        if medium.holder is not link:
                            # Token held elsewhere: park on the link
                            # (re-armed by SharedMedium.try_grant), same
                            # as the reference path.
                            key = (slot_ip[s], vc.index)
                            sa.discard(s)
                            r._sa_active.discard(key)
                            link.sa_token_waiters.append((r, key))
                        continue
                    d = (s - pb - ptr) % V
                    if d < best:
                        best = d
                        win = s
                        win_vc = vc
                if win >= 0:
                    in_ptr[pb] = (win - pb + 1) % V
                    if winners is None:
                        winners = [(slot_ip[win], win_vc)]
                    else:
                        winners.append((slot_ip[win], win_vc))
            if winners is None:
                continue
            # --- output-port arbitration among the winners ---------------
            if len(winners) == 1:
                ip, vc = winners[0]
                li = out_links[vc.out_port].index
                out_ptr[li] = (ip + 1) % out_n[li]
                r._transmit(now, ip, vc, send_fn, credit_fn)
                moved += 1
                continue
            by_out = {}
            for ip, vc in winners:
                by_out.setdefault(vc.out_port, []).append((ip, vc))
            for out_port, contenders in by_out.items():
                li = out_links[out_port].index
                if len(contenders) == 1:
                    ip, vc = contenders[0]
                else:
                    nn = out_n[li]
                    ptr = out_ptr[li]
                    best = nn
                    ip, vc = contenders[0]
                    for cip, cvc in contenders:
                        d = (cip - ptr) % nn
                        if d < best:
                            best, ip, vc = d, cip, cvc
                out_ptr[li] = (ip + 1) % out_n[li]
                r._transmit(now, ip, vc, send_fn, credit_fn)
                moved += 1
        return moved
