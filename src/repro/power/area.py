"""Area model: the other half of the paper's DSENT usage.

"We used Dsent v. 0.91 to calculate the area and power of the wired links
and routers for a bulk 45nm LVT technology" (Sec. V). This module estimates
silicon footprint per architecture with DSENT-like scaling laws, plus the
photonic and wireless component footprints the electrical tool does not
cover:

* router: input buffers (SRAM bits), crossbar (~ radix^2 * flit width),
  allocators,
* wires: repeater area per mm of traversed link,
* photonics: ring resonators (modulator + detector + tuning footprint) and
  waveguide routing area,
* wireless: per-transceiver-end analog area (PA + LNA + oscillator +
  detector) and the on-chip antenna.

This quantifies the Sec. I scalability argument in mm^2: OptXB-1024's four
million rings dwarf OWN's photonic budget even though both are "photonic"
architectures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.power.accounting import photonic_ring_count
from repro.topologies.base import BuiltTopology


@dataclass(frozen=True)
class AreaParams:
    """Footprint coefficients (bulk 45 nm class)."""

    #: SRAM buffer cell [um^2 per bit] including periphery.
    buffer_um2_per_bit: float = 1.2
    #: Crossbar area [um^2] = coeff * radix^2 * flit_width_bits.
    xbar_um2_per_port2_bit: float = 0.9
    #: Allocator + control overhead per port [um^2].
    control_um2_per_port: float = 900.0
    #: Repeated-wire area [um^2 per bit per mm].
    wire_um2_per_bit_mm: float = 0.9
    #: One ring resonator site incl. heater + spacing [um^2].
    ring_um2: float = 400.0
    #: Waveguide footprint [um^2 per mm] (0.5 um core + 5 um pitch).
    waveguide_um2_per_mm: float = 5500.0
    #: Analog transceiver end (PA/LNA/osc/detector) [mm^2].
    transceiver_mm2: float = 0.25
    #: On-chip mm-wave antenna [mm^2].
    antenna_mm2: float = 0.4

    flit_width_bits: int = 128


@dataclass
class AreaBreakdown:
    """Per-component silicon footprint [mm^2]."""

    router_mm2: float = 0.0
    wire_mm2: float = 0.0
    photonic_mm2: float = 0.0
    wireless_mm2: float = 0.0

    @property
    def total_mm2(self) -> float:
        return self.router_mm2 + self.wire_mm2 + self.photonic_mm2 + self.wireless_mm2

    def as_dict(self) -> Dict[str, float]:
        return {
            "router_mm2": self.router_mm2,
            "wire_mm2": self.wire_mm2,
            "photonic_mm2": self.photonic_mm2,
            "wireless_mm2": self.wireless_mm2,
            "total_mm2": self.total_mm2,
        }


class AreaModel:
    """Computes an :class:`AreaBreakdown` for a built topology."""

    def __init__(self, params: AreaParams = AreaParams()) -> None:
        self.params = params

    def router_area_um2(self, radix: int, num_vcs: int, vc_depth: int) -> float:
        """One router's footprint from its geometry."""
        if radix < 1:
            raise ValueError(f"radix must be >= 1, got {radix}")
        p = self.params
        buffer_bits = radix * num_vcs * vc_depth * p.flit_width_bits
        return (
            buffer_bits * p.buffer_um2_per_bit
            + radix * radix * p.flit_width_bits * p.xbar_um2_per_port2_bit / 100.0
            + radix * p.control_um2_per_port
        )

    def measure(self, built: BuiltTopology) -> AreaBreakdown:
        p = self.params
        net = built.network
        out = AreaBreakdown()

        for router in net.routers:
            radix = router.attrs.get("paper_radix", router.radix)
            out.router_mm2 += (
                self.router_area_um2(radix, net.num_vcs, net.vc_depth) * 1e-6
            )

        seen_media = set()
        waveguide_mm = 0.0
        wireless_ends = 0
        for link in net.links:
            if link.name.startswith("eject"):
                continue
            if link.kind == "electrical":
                out.wire_mm2 += (
                    p.flit_width_bits * link.length_mm * p.wire_um2_per_bit_mm * 1e-6
                )
            elif link.kind == "photonic":
                # Waveguide length counts once per physical medium.
                key = id(link.medium) if link.medium is not None else id(link)
                if key not in seen_media:
                    seen_media.add(key)
                    waveguide_mm += link.length_mm
            elif link.kind == "wireless":
                if link.medium is not None:
                    if id(link.medium) in seen_media:
                        continue
                    seen_media.add(id(link.medium))
                    wireless_ends += 1 + link.multicast_degree
                else:
                    wireless_ends += 2

        rings = photonic_ring_count(built)
        out.photonic_mm2 = (
            rings * p.ring_um2 * 1e-6 + waveguide_mm * p.waveguide_um2_per_mm * 1e-6
        )
        out.wireless_mm2 = wireless_ends * (p.transceiver_mm2 + p.antenna_mm2)
        return out


def area_comparison(built_list) -> Dict[str, AreaBreakdown]:
    """Area breakdowns for several topologies (one AreaModel instance)."""
    model = AreaModel()
    return {b.network.name: model.measure(b) for b in built_list}
