"""Deterministic random-number stream management.

Cycle-accurate simulation must be exactly reproducible for a given seed:
the latency/throughput tables in EXPERIMENTS.md are regenerated from fixed
seeds. Every consumer of randomness gets an *independent* stream derived
from a master seed plus a stable stream key (:func:`derive_seed`), so adding
a new consumer never perturbs the draws seen by existing ones (a classic
reproducibility bug in monolithic-RNG simulators).

A consumer that draws one scalar at a time (the arrival clock of
:class:`~repro.traffic.generator.SyntheticTraffic`) seeds a stdlib
``random.Random`` with ``derive_seed(seed, *key)``: a scalar draw there is a
C call, where a NumPy ``Generator`` pays microseconds of dispatch per call.
A consumer that draws vectors takes a NumPy ``Generator`` from
:class:`RngStreams`; NumPy is imported on the first such stream, so a run
that draws no vector never loads it.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def derive_seed(master_seed: int, *key_parts: object) -> int:
    """Derive a 63-bit child seed from ``master_seed`` and a stream key.

    The derivation hashes the textual representation of the key parts with
    SHA-256, which makes it stable across Python versions and processes
    (unlike ``hash()``).

    >>> derive_seed(42, "traffic", 7) == derive_seed(42, "traffic", 7)
    True
    >>> derive_seed(42, "traffic", 7) != derive_seed(42, "traffic", 8)
    True
    """
    payload = repr((int(master_seed),) + tuple(key_parts)).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF


class RngStreams:
    """A factory of named, independent ``numpy.random.Generator`` streams.

    Parameters
    ----------
    master_seed:
        The experiment-level seed. Two ``RngStreams`` with the same master
        seed produce identical streams for identical keys.

    Examples
    --------
    >>> streams = RngStreams(123)
    >>> g1 = streams.get("traffic", 0)
    >>> g2 = streams.get("traffic", 1)
    >>> g1 is streams.get("traffic", 0)   # cached
    True
    """

    def __init__(self, master_seed: int) -> None:
        self.master_seed = int(master_seed)
        self._cache: Dict[Tuple[object, ...], np.random.Generator] = {}

    def get(self, *key_parts: object) -> np.random.Generator:
        """Return (and cache) the generator for stream ``key_parts``."""
        key = tuple(key_parts)
        gen = self._cache.get(key)
        if gen is None:
            import numpy as np

            gen = np.random.default_rng(derive_seed(self.master_seed, *key))
            self._cache[key] = gen
        return gen

    def spawn(self, *key_parts: object) -> "RngStreams":
        """Create a child ``RngStreams`` namespaced under ``key_parts``.

        Useful to hand a subsystem its own seed-space without threading the
        full key through every call site.
        """
        return RngStreams(derive_seed(self.master_seed, "spawn", *key_parts))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RngStreams(master_seed={self.master_seed}, streams={len(self._cache)})"
