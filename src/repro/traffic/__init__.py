"""Synthetic traffic: patterns, open-loop generation, trace record/replay."""

from repro.traffic.patterns import (
    TrafficPattern,
    PATTERN_NAMES,
    EXTENDED_PATTERN_NAMES,
    bit_reversal,
    matrix_transpose,
    perfect_shuffle,
    bit_complement,
    neighbor,
    tornado,
)
from repro.traffic.generator import SyntheticTraffic, ScriptedTraffic
from repro.traffic.trace import TrafficTrace, TraceTraffic
from repro.traffic.bursty import BurstyTraffic

__all__ = [
    "TrafficPattern",
    "PATTERN_NAMES",
    "EXTENDED_PATTERN_NAMES",
    "bit_reversal",
    "matrix_transpose",
    "perfect_shuffle",
    "bit_complement",
    "neighbor",
    "tornado",
    "SyntheticTraffic",
    "ScriptedTraffic",
    "TrafficTrace",
    "TraceTraffic",
    "BurstyTraffic",
]
