"""OWN: the paper's contribution -- hybrid photonic-wireless NoC.

* :mod:`repro.core.coords`    -- (g, c, t, p) addressing,
* :mod:`repro.core.floorplan` -- cluster geometry, antenna placement,
* :mod:`repro.core.channels`  -- Table I / Table II channel allocation + SDM,
* :mod:`repro.core.routing`   -- 3-hop hierarchical routing, VC partitioning,
* :mod:`repro.core.own256` / :mod:`repro.core.own1024` -- builders,
* :mod:`repro.core.faults`    -- relay routing around failed wireless channels.
"""

from repro.core.coords import OwnDims, OWN256_DIMS, OWN1024_DIMS
from repro.core.floorplan import (
    Antenna,
    antenna,
    all_antennas,
    classify_distance,
    distance_mm,
    tile_position_mm,
    segments_intersect,
    LD_FACTOR,
    NOMINAL_DISTANCE_MM,
    DISTANCE_CLASSES,
    CLUSTER_EDGE_MM,
)
from repro.core.channels import (
    ChannelAssignment,
    own256_channels,
    own256_channel_map,
    own1024_channels,
    own1024_channel_map,
    sdm_frequency_reuse_groups,
    channel_segments,
    CLUSTER_PAIR_ANTENNAS,
    GROUP_OFFSET_ANTENNA,
)
from repro.core.routing import (
    Own256Routing,
    Own1024Routing,
    group_pair_vc,
    ASCENDING_VCS,
    DESCENDING_VCS,
)
from repro.core.own256 import build_own256, make_reconfig_controller
from repro.core.own1024 import build_own1024
from repro.core.reconfig import ReconfigurationController, SpareAssignment, N_SPARE_CHANNELS
from repro.core.faults import (
    RELAY_VC_ORDER,
    RelayRouting,
    FaultTolerantOwn256Routing,
    FaultTolerantOwn1024Routing,
    UnroutableError,
    build_fault_tolerant_own256,
    build_fault_tolerant_own1024,
)

__all__ = [
    "OwnDims",
    "OWN256_DIMS",
    "OWN1024_DIMS",
    "Antenna",
    "antenna",
    "all_antennas",
    "classify_distance",
    "distance_mm",
    "tile_position_mm",
    "segments_intersect",
    "LD_FACTOR",
    "NOMINAL_DISTANCE_MM",
    "DISTANCE_CLASSES",
    "CLUSTER_EDGE_MM",
    "ChannelAssignment",
    "own256_channels",
    "own256_channel_map",
    "own1024_channels",
    "own1024_channel_map",
    "sdm_frequency_reuse_groups",
    "channel_segments",
    "CLUSTER_PAIR_ANTENNAS",
    "GROUP_OFFSET_ANTENNA",
    "Own256Routing",
    "Own1024Routing",
    "group_pair_vc",
    "ASCENDING_VCS",
    "DESCENDING_VCS",
    "build_own256",
    "build_own1024",
    "make_reconfig_controller",
    "ReconfigurationController",
    "SpareAssignment",
    "N_SPARE_CHANNELS",
    "RELAY_VC_ORDER",
    "RelayRouting",
    "FaultTolerantOwn256Routing",
    "UnroutableError",
    "build_fault_tolerant_own256",
    "FaultTolerantOwn1024Routing",
    "build_fault_tolerant_own1024",
]
