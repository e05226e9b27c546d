"""Structured logging for the repro toolchain.

One logging setup serves two audiences:

* **humans** (the default) -- diagnostic lines on stderr, formatted as
  plain messages exactly like the bare ``print(..., file=sys.stderr)``
  calls they replace (warnings and errors get a ``level:`` prefix);
* **machines** (opt-in) -- one strict-JSON object per line with
  correlation fields (``run`` digest, ``label``, ``worker``, ``phase``,
  ...) carried as first-class keys, so a fleet of workers can be grepped
  / ``jq``-ed by spec.

JSON mode is opt-in via the ``--log-json`` CLI flag or the ``REPRO_LOG``
environment variable (``REPRO_LOG=json``; ``human`` forces the default;
``off`` silences the repro logger entirely; an optional ``:LEVEL``
suffix, e.g. ``json:debug``, sets the threshold).

Everything here is stdlib-only and import-light on purpose: this module
is imported by hot-path-adjacent code (``repro.runtime.spec``) and must
never create an import cycle with the runtime layer.
"""

from __future__ import annotations

import json
import logging
import sys
import os
from typing import Dict, Optional

from repro.obs.events import json_safe

#: The package logger every repro module hangs off.
ROOT_LOGGER = "repro"

#: LogRecord attributes that are plumbing, not payload -- anything else
#: found on a record (i.e. passed via ``extra=``) is a correlation field
#: and lands in the JSON document.
_RESERVED = frozenset(
    (
        "args", "asctime", "created", "exc_info", "exc_text", "filename",
        "funcName", "levelname", "levelno", "lineno", "message", "module",
        "msecs", "msg", "name", "pathname", "process", "processName",
        "relativeCreated", "stack_info", "taskName", "thread", "threadName",
    )
)


class JsonLinesFormatter(logging.Formatter):
    """One strict-JSON object per record; ``extra=`` fields ride along."""

    def format(self, record: logging.LogRecord) -> str:
        doc: Dict[str, object] = {
            "ts": round(record.created, 3),
            "level": record.levelname.lower(),
            "logger": record.name,
            "msg": record.getMessage(),
        }
        for key, value in record.__dict__.items():
            if key in _RESERVED or key.startswith("_") or key in doc:
                continue
            doc[key] = value
        if record.exc_info:
            doc["exc"] = self.formatException(record.exc_info)
        return json.dumps(
            json_safe(doc), sort_keys=True, default=str, allow_nan=False
        )


class HumanFormatter(logging.Formatter):
    """Message-only rendering, matching the prints this layer replaced.

    Warnings and errors are prefixed (``warning: ...``) so they stay
    recognisable in a scrolling stderr stream; info/debug lines pass
    through verbatim.
    """

    def format(self, record: logging.LogRecord) -> str:
        msg = record.getMessage()
        if record.exc_info:
            msg = f"{msg}\n{self.formatException(record.exc_info)}"
        if record.levelno >= logging.WARNING:
            return f"{record.levelname.lower()}: {msg}"
        return msg


class _DynamicStderrHandler(logging.Handler):
    """Writes to whatever ``sys.stderr`` is *at emit time*.

    A plain ``StreamHandler(sys.stderr)`` captures the stream object once
    at configure time and keeps writing to it forever -- invisible to
    pytest's ``capsys`` and to any later redirection. Resolving the
    stream per record keeps the logger byte-compatible with the
    ``print(..., file=sys.stderr)`` calls it replaced.
    """

    def emit(self, record: logging.LogRecord) -> None:
        try:
            sys.stderr.write(self.format(record) + "\n")
        except Exception:  # pragma: no cover - mirrors logging.Handler
            self.handleError(record)


_configured: Optional[bool] = None  # None = never configured; else json flag


def _env_config() -> tuple[Optional[bool], Optional[int]]:
    """Parse ``REPRO_LOG`` into ``(json_mode, level)`` (None = default)."""
    raw = os.environ.get("REPRO_LOG", "").strip().lower()
    if not raw:
        return None, None
    mode, _, level_name = raw.partition(":")
    json_mode: Optional[bool] = None
    level: Optional[int] = None
    if mode in ("json", "jsonl"):
        json_mode = True
    elif mode in ("human", "text", "plain"):
        json_mode = False
    elif mode in ("off", "0", "none"):
        level = logging.CRITICAL + 10  # silences everything
        json_mode = False
    if level_name:
        level = getattr(logging, level_name.upper(), None) or level
    return json_mode, level


def configure_logging(
    json_mode: Optional[bool] = None,
    level: Optional[int] = None,
    force: bool = False,
) -> logging.Logger:
    """Install the repro log handler (idempotent).

    ``json_mode=None`` defers to ``REPRO_LOG`` and defaults to human
    format. Re-invocation with the same effective mode is a no-op;
    passing ``force=True`` (or a different explicit mode) reconfigures,
    which is what the CLI's ``--log-json`` does after an implicit
    human-mode setup.
    """
    global _configured
    env_mode, env_level = _env_config()
    if json_mode is None:
        json_mode = env_mode if env_mode is not None else False
    if level is None:
        level = env_level if env_level is not None else logging.INFO
    logger = logging.getLogger(ROOT_LOGGER)
    if _configured == json_mode and not force:
        return logger
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    handler = _DynamicStderrHandler()
    handler.setFormatter(JsonLinesFormatter() if json_mode else HumanFormatter())
    logger.addHandler(handler)
    logger.setLevel(level)
    logger.propagate = False
    _configured = json_mode
    return logger


class ContextLogger(logging.LoggerAdapter):
    """LoggerAdapter that merges bound correlation fields into ``extra``.

    Per-call ``extra=`` keys win over bound context, so a logger bound to
    a run digest can still override ``phase`` per message.
    """

    def process(self, msg, kwargs):
        extra = dict(self.extra or {})
        extra.update(kwargs.get("extra") or {})
        kwargs["extra"] = extra
        return msg, kwargs

    def bind(self, **context) -> "ContextLogger":
        merged = dict(self.extra or {})
        merged.update(context)
        return ContextLogger(self.logger, merged)


def get_logger(name: str = ROOT_LOGGER, **context) -> ContextLogger:
    """A context-carrying logger below the repro root.

    Lazily installs the default (human) handler on first use so replaced
    ``print`` diagnostics keep appearing without any explicit setup;
    ``configure_logging(json_mode=True)`` upgrades the whole tree to
    JSON lines at any point.
    """
    if _configured is None:
        configure_logging()
    if name != ROOT_LOGGER and not name.startswith(ROOT_LOGGER + "."):
        name = f"{ROOT_LOGGER}.{name}"
    return ContextLogger(logging.getLogger(name), context)
