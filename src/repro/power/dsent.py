"""DSENT-style electrical router and wire energy model.

The paper "used Dsent v. 0.91 to calculate the area and power of the wired
links and routers for a bulk 45nm LVT technology" (Sec. V). We reproduce the
model's *structure* -- per-event energies whose scaling laws match DSENT's
components -- with coefficients in the published 45 nm range:

* input buffers: energy per flit write/read proportional to flit width,
* crossbar: per-traversal energy grows linearly with the port count
  (loading of the output lines) -- this is what makes high-radix OWN / OptXB
  routers individually hungrier but low-hop networks cheaper overall,
* allocators: small per-grant energy, quadratic-in-radix leakage share,
* clock + leakage: static power proportional to buffering and radix.

Absolute watts are not the reproduction target (different tech assumptions
shift them); the *relative* Fig. 6 / Fig. 8 breakdowns are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.noc.router import Router


def router_events(router: Router) -> Tuple[int, ...]:
    """A router's DSENT events as an activity record keeps them: buffer
    writes, buffer reads, crossbar traversals, SA grants, VCA grants, and
    the radix it is priced at (the paper's, where the topology records it)."""
    return (
        router.buffer_writes, router.buffer_reads, router.xbar_traversals,
        router.sa_grants, router.vca_grants,
        router.attrs.get("paper_radix", router.radix),
    )


@dataclass(frozen=True)
class DsentParams:
    """Coefficients of the electrical energy model (bulk 45 nm LVT)."""

    flit_width_bits: int = 128
    clock_ghz: float = 2.5

    #: Buffer array energies [pJ per flit]. A 128-bit flit through the
    #: input buffer + pipeline registers costs tens of pJ at bulk 45 nm LVT
    #: (DSENT's dominant router component -- "the majority of the power is
    #: dissipated in the routers" for CMESH, Sec. V-B).
    e_buffer_write_pj: float = 25.0
    e_buffer_read_pj: float = 18.0

    #: Crossbar traversal [pJ per flit] at the reference radix, scaled
    #: linearly with port count: e = e_xbar_pj * (radix / xbar_ref_radix).
    e_xbar_pj: float = 0.5
    xbar_ref_radix: int = 8

    #: Allocation energy per SA/VCA grant [pJ].
    e_arbiter_pj: float = 0.5

    #: Repeated global wire [pJ per bit per mm] (45 nm: ~0.05-0.1).
    e_wire_pj_per_bit_mm: float = 0.045

    #: Static router power [mW]: base + per-port share (buffers + clock).
    #: Together with the radix-scaled crossbar term this is why "the high
    #: radix of OptXB adds considerable power" at 1024 cores (Sec. V-C)
    #: while OptXB still undercuts OWN there, as the paper reports.
    p_static_base_mw: float = 0.4
    p_static_per_port_mw: float = 0.05

    def events_energy_pj(self, events: Tuple[int, ...]) -> float:
        """Dynamic energy of one router's :func:`router_events`."""
        writes, reads, xbar, sa_grants, vca_grants, radix = events
        xbar_scale = radix / self.xbar_ref_radix
        return (
            writes * self.e_buffer_write_pj
            + reads * self.e_buffer_read_pj
            + xbar * self.e_xbar_pj * xbar_scale
            + (sa_grants + vca_grants) * self.e_arbiter_pj
        )

    def static_power_mw(self, radix: int) -> float:
        """Static power of one router priced at ``radix``."""
        return self.p_static_base_mw + self.p_static_per_port_mw * radix

    def wire_energy_pj(self, bits: int, length_mm: float) -> float:
        """Dynamic energy of ``bits`` traversing a repeated wire."""
        if length_mm < 0:
            raise ValueError(f"length must be >= 0, got {length_mm}")
        return bits * length_mm * self.e_wire_pj_per_bit_mm

    def cycles_to_seconds(self, cycles: int) -> float:
        return cycles / (self.clock_ghz * 1e9)
