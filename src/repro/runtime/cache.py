"""Content-addressed on-disk result cache.

Results are stored as one JSON file per :meth:`RunSpec.digest` under a
two-level fan-out directory (``ab/abcdef....json``). The digest already
folds in the spec, a fingerprint of the ``repro`` source tree and the
payload schema version, so *any* code edit invalidates every entry --
cache poisoning by stale physics is structurally impossible. Writes are
atomic (temp file + rename) so concurrent executors can share one cache
directory; a corrupt or truncated entry reads as a miss and is
re-simulated.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

#: Default cache location (relative to the working directory) used by the
#: CLI's bare ``--cache`` flag; override with ``--cache DIR`` or the
#: ``REPRO_CACHE_DIR`` environment variable.
DEFAULT_CACHE_DIR = ".repro-cache"


class ResultCache:
    """Digest -> result-payload store on the local filesystem."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def get(self, digest: str) -> Optional[Dict[str, object]]:
        """Stored payload for ``digest``; ``None`` (a miss) when absent
        or unreadable."""
        path = self._path(digest)
        try:
            with open(path, "r") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, digest: str, payload: Dict[str, object]) -> None:
        """Atomically persist ``payload`` under ``digest``."""
        # Imported here: importing the engine loads no ``repro.utils``.
        from repro.utils.files import write_atomic

        # json.dumps, not json.dump: only the one-shot encoder is the C
        # one, and a payload carries a whole activity record.
        write_atomic(self._path(digest), json.dumps(payload))

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        return {"hits": self.hits, "misses": self.misses, "hit_rate": self.hit_rate}
