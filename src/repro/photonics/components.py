"""Photonic component inventories: the scalability arithmetic of Sec. I/V.

The paper's complexity argument against monolithic photonic crossbars is
quantitative: "a 64x64 crossbar using photonics will require 448 modulators,
7 waveguides and 28224 photodetectors using single-writer multiple-reader
(SWMR). If we scale to 1024x1024, then we will need approximately 7168
modulators, 112 waveguides, and 7.3 million photodetectors" and "designing
optical snake-like waveguide interconnecting 64 routers with 64 wavelengths
will require more than a million ring resonators" (Sec. V-B, Corona-style
MWSR).

These closed forms reproduce every one of those numbers (tests pin them):

* SWMR, n nodes, ``w`` wavelengths per node channel, ``l`` wavelengths per
  waveguide: modulators = n*w, waveguides = ceil(n*w/l),
  photodetectors = n*w*(n-1).
* MWSR, n nodes, ``l`` wavelengths per waveguide: modulator rings =
  n*(n-1)*l, detector rings = n*l; with ``rings_per_modulator`` trimming /
  redundancy rings per site the Corona-style 64x64x64-lambda crossbar tops
  one million rings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ComponentCount:
    """Photonic bill of materials for one interconnect."""

    modulators: int
    photodetectors: int
    waveguides: int
    rings: int


def swmr_crossbar(
    n_nodes: int, wavelengths_per_channel: int = 7, wavelengths_per_waveguide: int = 64
) -> ComponentCount:
    """SWMR crossbar inventory (the Sec. I scalability numbers).

    Every node modulates its own ``wavelengths_per_channel``-wide channel;
    every other node carries detectors for every channel.
    """
    if n_nodes < 2:
        raise ValueError(f"need >= 2 nodes, got {n_nodes}")
    mods = n_nodes * wavelengths_per_channel
    dets = mods * (n_nodes - 1)
    wgs = math.ceil(mods / wavelengths_per_waveguide)
    return ComponentCount(
        modulators=mods, photodetectors=dets, waveguides=wgs, rings=mods + dets
    )


def mwsr_crossbar(
    n_nodes: int, wavelengths_per_waveguide: int = 64, rings_per_modulator: int = 4
) -> ComponentCount:
    """MWSR (Corona-style) crossbar inventory.

    Each node owns a home waveguide; the other ``n-1`` nodes each need
    modulator rings on every wavelength of that waveguide. With the
    trimming/redundancy factor the 64-node, 64-wavelength design exceeds
    one million rings, matching Sec. V-B's "more than a million".
    """
    if n_nodes < 2:
        raise ValueError(f"need >= 2 nodes, got {n_nodes}")
    mod_sites = n_nodes * (n_nodes - 1) * wavelengths_per_waveguide
    det_sites = n_nodes * wavelengths_per_waveguide
    rings = mod_sites * rings_per_modulator + det_sites
    return ComponentCount(
        modulators=mod_sites,
        photodetectors=det_sites,
        waveguides=n_nodes,
        rings=rings,
    )


def own_cluster_crossbar(
    tiles: int = 16, total_wavelengths: int = 64, rings_per_modulator: int = 1
) -> ComponentCount:
    """OWN's per-cluster MWSR crossbar (Sec. III-A).

    The 64 off-chip laser wavelengths are "split across 16 tiles", i.e.
    each tile's home waveguide carries ``total_wavelengths / tiles``
    wavelengths; the other 15 tiles write to it.
    """
    if total_wavelengths % tiles != 0:
        raise ValueError(
            f"wavelengths {total_wavelengths} must divide evenly over {tiles} tiles"
        )
    lam = total_wavelengths // tiles
    mod_sites = tiles * (tiles - 1) * lam
    det_sites = tiles * lam
    return ComponentCount(
        modulators=mod_sites,
        photodetectors=det_sites,
        waveguides=tiles,
        rings=mod_sites * rings_per_modulator + det_sites,
    )


def own_inventory(n_clusters: int, tiles: int = 16, total_wavelengths: int = 64) -> ComponentCount:
    """Whole-chip OWN photonic inventory (``n_clusters`` cluster crossbars)."""
    one = own_cluster_crossbar(tiles, total_wavelengths)
    return ComponentCount(
        modulators=one.modulators * n_clusters,
        photodetectors=one.photodetectors * n_clusters,
        waveguides=one.waveguides * n_clusters,
        rings=one.rings * n_clusters,
    )


def pclos_inventory(
    n_nodes: int, n_middles: int, wavelengths_per_waveguide: int = 64
) -> ComponentCount:
    """p-Clos photonic inventory: up-waveguides (MWSR by all nodes into each
    middle) + down-waveguides (MWSR by all middles into each node)."""
    up_mods = n_middles * n_nodes * wavelengths_per_waveguide
    down_mods = n_nodes * n_middles * wavelengths_per_waveguide
    dets = (n_middles + n_nodes) * wavelengths_per_waveguide
    return ComponentCount(
        modulators=up_mods + down_mods,
        photodetectors=dets,
        waveguides=n_middles + n_nodes,
        rings=up_mods + down_mods + dets,
    )
