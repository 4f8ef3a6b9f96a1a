"""Structured JSON logging with correlation context.

One logger family (``repro.*``), one record shape: every line is a
JSON object with a timestamp, level, logger, message, pid, the
ambient *correlation context* (``run_key``, ``job_id``,
``task_hash``, ``worker_pid``, …), and any per-call fields.  The
correlation context lives in a :class:`contextvars.ContextVar`, so it
follows the control flow — a scheduler thread binds ``job_id`` once
and every record emitted while running that job carries it.

Process pools don't inherit contextvars, so the executor passes the
context dict explicitly to the worker function, which rebinds it with
:func:`correlation` before evaluating the cell; one ``jq 'select(
.job_id=="…")'`` then reconstructs a cell's lifecycle across process
boundaries.

The library stays silent by default (NullHandler).  Entry points that
want logs call :func:`configure`, which installs a single
JSON-formatting stream handler on the ``repro`` root logger.
"""

from __future__ import annotations

import contextlib
import contextvars
import datetime
import io
import json
import logging
import sys
from typing import Any

_context: contextvars.ContextVar[dict[str, Any]] = contextvars.ContextVar(
    "repro_log_context", default={}
)

_ROOT = "repro"

# keep the library quiet unless an entry point opts in
logging.getLogger(_ROOT).addHandler(logging.NullHandler())


def context() -> dict[str, Any]:
    """The current correlation context (a copy)."""
    return dict(_context.get())


@contextlib.contextmanager
def correlation(**fields: Any):
    """Bind correlation fields for the dynamic extent of the block.

    ``None``-valued fields are dropped; nested blocks layer on top of
    the enclosing context and unwind cleanly on exit.
    """
    merged = dict(_context.get())
    merged.update({k: v for k, v in fields.items() if v is not None})
    token = _context.set(merged)
    try:
        yield merged
    finally:
        _context.reset(token)


class JsonFormatter(logging.Formatter):
    """Format records as one JSON object per line."""

    def format(self, record: logging.LogRecord) -> str:
        stamp = datetime.datetime.fromtimestamp(
            record.created, tz=datetime.timezone.utc
        )
        line: dict[str, Any] = {
            "ts": stamp.isoformat(timespec="milliseconds"),
            "level": record.levelname.lower(),
            "logger": record.name,
            "message": record.getMessage(),
            "pid": record.process,
        }
        line.update(_context.get())
        fields = getattr(record, "fields", None)
        if fields:
            line.update(fields)
        if record.exc_info and record.exc_info[1] is not None:
            line["error"] = repr(record.exc_info[1])
        return json.dumps(line, default=str, sort_keys=False)


def configure(
    stream: io.TextIOBase | None = None, level: int | str = logging.INFO
) -> logging.Logger:
    """Install the JSON handler on the ``repro`` logger (idempotent).

    Re-invoking replaces the previous stream/level rather than
    stacking handlers, so tests and long-lived processes can
    reconfigure freely.
    """
    root = logging.getLogger(_ROOT)
    if isinstance(level, str):
        level = logging.getLevelName(level.upper())
    for handler in list(root.handlers):
        if isinstance(handler, _JsonHandler):
            root.removeHandler(handler)
    handler = _JsonHandler(stream or sys.stderr)
    handler.setFormatter(JsonFormatter())
    root.addHandler(handler)
    root.setLevel(level)
    return root


class _JsonHandler(logging.StreamHandler):
    """Tagged subclass so :func:`configure` can find its own handler."""


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` namespace (``repro.<name>``)."""
    if name == _ROOT or name.startswith(_ROOT + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT}.{name}")


def log_event(
    logger: logging.Logger, level: int, message: str, **fields: Any
) -> None:
    """Emit ``message`` with structured ``fields`` riding the record."""
    if logger.isEnabledFor(level):
        logger.log(
            level,
            message,
            extra={"fields": {k: v for k, v in fields.items() if v is not None}},
        )


def worker_context(extra: dict[str, Any] | None = None) -> dict[str, Any]:
    """Context dict to ship across a process boundary.

    The parent calls this to capture its correlation context; the
    worker rebinds it via :func:`correlation`, adding its own
    ``worker_pid=os.getpid()``.
    """
    shipped = context()
    if extra:
        shipped.update({k: v for k, v in extra.items() if v is not None})
    return shipped
