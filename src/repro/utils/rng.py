"""Deterministic random-number stream management.

Cycle-accurate simulation must be exactly reproducible for a given seed:
the latency/throughput tables in EXPERIMENTS.md are regenerated from fixed
seeds. Every consumer of randomness gets an *independent* stream derived
from a master seed plus a stable stream key (:func:`derive_seed`), so adding
a new consumer never perturbs the draws seen by existing ones (a classic
reproducibility bug in monolithic-RNG simulators).

A consumer that draws one scalar at a time seeds a stdlib
``random.Random`` with ``derive_seed(seed, *key)``: a scalar draw there is a
C call, where a NumPy ``Generator`` pays microseconds of dispatch per call.
These are the arrival clock of
:class:`~repro.traffic.generator.SyntheticTraffic` and the whole fault
plant: the burst clock of :meth:`~repro.faults.FaultCampaign.bursty`, the
link layer's CRC outcomes and the health monitor's probes, one stream per
link each (:class:`ScalarStreams`). Bernoulli-per-cycle processes among
them skip the cycles without an event through :func:`geometric_gap`.

A consumer that draws vectors (bursty traffic, the workload generators)
takes a NumPy ``Generator`` from :class:`RngStreams`; NumPy is imported on
the first such stream, so a run that draws no vector never loads it.

:func:`sha256` is the package's one SHA-256 constructor (seeds here, run
digests and the code fingerprint in :mod:`repro.runtime.spec`).
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

# CPython's builtin SHA-256, taken the way ``random`` takes ``_sha512``:
# ``hashlib`` would load OpenSSL's libcrypto (~3.5 MiB resident, ~4 ms of
# import) for a hash of a few dozen bytes. Same digest either way.
try:
    from _sha256 import sha256  # CPython <= 3.11
except ImportError:  # pragma: no cover - depends on the interpreter
    try:
        from _sha2 import sha256  # CPython >= 3.12
    except ImportError:
        from hashlib import sha256


def derive_seed(master_seed: int, *key_parts: object) -> int:
    """Derive a 63-bit child seed from ``master_seed`` and a stream key.

    The derivation hashes the textual representation of the key parts with
    SHA-256, which makes it stable across Python versions and processes
    (unlike ``hash()``). The hash is :func:`sha256`, CPython's builtin
    module rather than ``hashlib``'s OpenSSL binding: on inputs this short
    it is faster, and it keeps libcrypto out of a run's process.

    >>> derive_seed(42, "traffic", 7) == derive_seed(42, "traffic", 7)
    True
    >>> derive_seed(42, "traffic", 7) != derive_seed(42, "traffic", 8)
    True
    """
    payload = repr((int(master_seed),) + tuple(key_parts)).encode("utf-8")
    digest = sha256(payload).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF


#: The gap of a Bernoulli process too rare to succeed within any run.
NEVER = 1 << 62


def geometric_log_q(p: float) -> float:
    """``log(1 - p)``: the scale :func:`geometric_gap` takes for a rate ``0 < p <= 1``."""
    return math.log1p(-p) if p < 1.0 else -math.inf


def geometric_gap(rnd: random.Random, log_q: float) -> int:
    """One ``Geometric(p)`` gap on ``{1, 2, ...}``, by inversion of one draw.

    The gaps between the successes of a Bernoulli(``p``)-per-cycle process
    are ``1 + floor(log(1 - U) / log(1 - p))`` with ``U`` uniform, so
    stepping a clock by these gaps samples the same law as one trial per
    cycle with about ``p`` draws per cycle. ``log_q`` is
    :func:`geometric_log_q` of ``p``; a vanishing rate makes the quotient
    huge or infinite, and the gap :data:`NEVER`.

    >>> geometric_gap(random.Random(0), geometric_log_q(1.0))
    1
    """
    g = math.log(1.0 - rnd.random()) / log_q
    return int(g) + 1 if g < NEVER else NEVER


class ScalarStreams(dict):
    """Stdlib ``random.Random`` streams ``(*prefix, name)`` of ``seed``, one per
    name, made on first use: ``streams[name].random()``.

    For consumers that draw scalars per named resource (a link's burst
    starts, CRC outcomes or probes): a name's draws never depend on which
    other names draw, or when.

    >>> streams = ScalarStreams(7, "linklayer")
    >>> streams["wch1"] is streams["wch1"]
    True
    """

    def __init__(self, seed: int, *prefix: object) -> None:
        super().__init__()
        self.seed = int(seed)
        self.prefix = prefix

    def __missing__(self, name: object) -> random.Random:
        rnd = self[name] = random.Random(derive_seed(self.seed, *self.prefix, name))
        return rnd


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
