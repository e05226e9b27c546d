"""Synthetic traffic patterns.

The paper evaluates "uniform (UN), bit-reversal (BR), matrix transpose (MT),
perfect shuffle (PS), and neighbor (NBR)" (Sec. V). These are the classic
Dally/Towles permutations; each is expressed as a destination map
``dst = f(src)`` over ``n`` cores. Uniform draws a fresh destination per
packet; the others are fixed permutations.

We additionally provide bit-complement, tornado and hotspot generators used
by the extension benches (they are standard companions of the paper's five
and exercise different bisection/locality regimes).

All bit-permutations require ``n`` to be a power of two, as in the paper's
256/1024-core configurations.

A pattern draws a destination from one scalar, ``rnd.random()``, of
whatever stream its source hands it: a stdlib ``random.Random`` for the
arrival clock of :class:`~repro.traffic.generator.SyntheticTraffic`, a NumPy
``Generator`` for :class:`~repro.traffic.bursty.BurstyTraffic`. Nothing
here needs NumPy.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.utils.validation import check_power_of_two, check_probability

#: Canonical short names used throughout the benches (paper's notation).
PATTERN_NAMES = ("UN", "BR", "MT", "PS", "NBR")
EXTENDED_PATTERN_NAMES = PATTERN_NAMES + ("BC", "TOR", "HOT")


def _log2(n: int) -> int:
    check_power_of_two("n_cores", n)
    return n.bit_length() - 1


def bit_reversal(src: int, n: int) -> int:
    """BR: destination is the bit-reversed source index.

    >>> bit_reversal(0b0001, 16)
    8
    """
    b = _log2(n)
    out = 0
    x = src
    for _ in range(b):
        out = (out << 1) | (x & 1)
        x >>= 1
    return out


def matrix_transpose(src: int, n: int) -> int:
    """MT: swap the high and low halves of the address bits.

    On a square grid this is exactly the (row, col) -> (col, row) transpose.

    >>> matrix_transpose(0b0001, 16)
    4
    """
    b = _log2(n)
    if b % 2 != 0:
        raise ValueError(f"matrix transpose needs an even number of address bits, n={n}")
    half = b // 2
    lo = src & ((1 << half) - 1)
    hi = src >> half
    return (lo << half) | hi


def perfect_shuffle(src: int, n: int) -> int:
    """PS: rotate the address bits left by one.

    >>> perfect_shuffle(0b1000, 16)
    1
    """
    b = _log2(n)
    return ((src << 1) | (src >> (b - 1))) & (n - 1)


def bit_complement(src: int, n: int) -> int:
    """BC: flip every address bit (longest-distance permutation)."""
    _log2(n)
    return src ^ (n - 1)


def neighbor(src: int, n: int) -> int:
    """NBR: nearest-neighbour on the square core grid (+1 in x, wrapping).

    Exercises locality: with 4-core concentration most NBR packets stay
    within a tile or adjacent tiles.
    """
    side = int(round(n**0.5))
    if side * side != n:
        raise ValueError(f"neighbor pattern needs a square core count, n={n}")
    x, y = src % side, src // side
    return y * side + (x + 1) % side


def tornado(src: int, n: int) -> int:
    """TOR: half-way around each grid dimension (adversarial for rings)."""
    side = int(round(n**0.5))
    if side * side != n:
        raise ValueError(f"tornado pattern needs a square core count, n={n}")
    x, y = src % side, src // side
    return y * side + (x + side // 2 - (1 if side % 2 == 0 else 0)) % side


PermutationFn = Callable[[int, int], int]

_PERMUTATIONS: Dict[str, PermutationFn] = {
    "BR": bit_reversal,
    "MT": matrix_transpose,
    "PS": perfect_shuffle,
    "NBR": neighbor,
    "BC": bit_complement,
    "TOR": tornado,
}


class TrafficPattern:
    """Destination selection for a traffic source.

    Parameters
    ----------
    name:
        One of ``UN``, ``BR``, ``MT``, ``PS``, ``NBR``, ``BC``, ``TOR`` or
        ``HOT`` (hotspot; see ``hotspot_fraction``).
    n_cores:
        Network size.
    hotspot_fraction:
        For ``HOT``: probability a packet targets one of the hotspot cores
        (default 0.2); remaining packets are uniform.
    hotspots:
        For ``HOT``: the hotspot core set (default: core 0).
    """

    def __init__(
        self,
        name: str,
        n_cores: int,
        hotspot_fraction: float = 0.2,
        hotspots: Optional[Sequence[int]] = None,
    ) -> None:
        name = name.upper()
        if name not in EXTENDED_PATTERN_NAMES:
            raise ValueError(f"unknown traffic pattern {name!r}; known: {EXTENDED_PATTERN_NAMES}")
        self.name = name
        self.n_cores = n_cores
        self.hotspot_fraction = check_probability("hotspot_fraction", hotspot_fraction)
        self.hotspots = [int(h) for h in hotspots] if hotspots is not None else [0]
        # Checked here, not in TrafficSpec, which does not know n_cores: an
        # out-of-range hotspot would otherwise surface mid-run as a bare
        # IndexError at injection (or, negative, silently wrap around).
        if not self.hotspots or not all(0 <= h < n_cores for h in self.hotspots):
            raise ValueError(
                f"hotspots must be a non-empty set of cores in [0, {n_cores}), "
                f"got {self.hotspots}"
            )
        self._table: Optional[List[int]] = None
        if name in _PERMUTATIONS:
            fn = _PERMUTATIONS[name]
            self._table = [fn(s, n_cores) for s in range(n_cores)]

    @classmethod
    def resolve(cls, pattern: "TrafficPattern | str", n_cores: int) -> "TrafficPattern":
        """``pattern`` (an instance or a name) as a pattern over ``n_cores``.

        The one place a traffic source turns its ``pattern`` argument into
        a destination map, so every source rejects a mis-sized instance
        (whose destinations would all land in, or index past, the wrong
        core range) the same way.
        """
        if isinstance(pattern, str):
            return cls(pattern, n_cores)
        if pattern.n_cores != n_cores:
            raise ValueError(
                f"pattern sized for {pattern.n_cores} cores, network has {n_cores}"
            )
        return pattern

    @property
    def is_permutation(self) -> bool:
        return self._table is not None

    def destination(self, src: int, rnd) -> int:
        """The destination of one packet from core ``src``.

        A permutation draws nothing; a random pattern reads exactly one
        ``rnd.random()`` and maps it by inversion (``HOT``: below
        ``hotspot_fraction`` picks a hotspot, above it a uniform core).
        Self-addressed results are possible (fixed points of the
        permutations, e.g. palindromic indices under BR, and uniform
        self-draws); the generators filter those out, matching standard
        practice.
        """
        if self._table is not None:
            return self._table[src]
        u = rnd.random()
        if self.name == "UN":
            return int(u * self.n_cores)
        # HOT: the mixture of hotspot-directed and uniform traffic; each
        # branch rescales u to [0, 1). Only the upper one can round up to 1
        # (at u = 1 - 2**-53), hence its min().
        f = self.hotspot_fraction
        if u < f:
            return self.hotspots[int(u / f * len(self.hotspots))]
        return min(int((u - f) / (1.0 - f) * self.n_cores), self.n_cores - 1)

    def fixed_destination(self, src: int) -> Optional[int]:
        """The permutation target for ``src`` (``None`` for random patterns)."""
        if self._table is None:
            return None
        return self._table[src]
