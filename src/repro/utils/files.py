"""Crash-safe file writes."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union


def write_atomic(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` so a reader sees the old file or the new
    one, never a torn one: a temp file in the target directory, then
    ``os.replace`` (the temp file is removed if anything fails)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
