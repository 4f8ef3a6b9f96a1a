"""Event-level execution tracing: the *when* and *why* behind the metrics.

:mod:`repro.obs` answers "how much" (counters, histograms, cells/sec);
this module records "when": a bounded timeline of **span**, **instant**
and **counter-sample** events addressed by dotted paths like the
metric registry's ("tmu.tg.layer0", "sim.core", "runtime.executor", ...).

Design points, mirroring the metrics layer:

* a process-wide on/off switch — instrumented call sites ask the module
  for the active :class:`Tracer` and get :data:`NULL_TRACER`, whose
  ``enabled`` is false, unless tracing is enabled, so dormant hooks cost
  one attribute read;
* a **bounded ring buffer** (``capacity``) that drops the *oldest*
  fine-grained events under pressure, preserving the end-of-run summary
  spans the stall report folds;
* **sampling** (``sample_every``) applied to instants and counter
  samples only — spans and summaries are always kept — so full figure
  sweeps stay tractable;
* worker :meth:`Tracer.merge` so the process-pool executor can fold
  worker timelines back into the parent, like it does for registries.

Timestamps are *virtual ticks* on a per-tracer monotonic clock: the TMU
engine advances one tick per TG ``gite`` step, the interval core model
allocates its cycle totals, and the executor allocates wall-clock
microseconds.  Each subsystem gets its own process track in the
Perfetto export (:mod:`repro.obs.export`), so units never need to
align across subsystems.

Traces serialize to the versioned ``repro.trace/1`` JSON schema
(:func:`make_trace` / :func:`validate_trace` / :func:`write_trace` /
:func:`load_trace`) consumed by ``repro trace export|report``.
"""

from __future__ import annotations

import json
import platform
import time
from contextlib import contextmanager
from pathlib import Path

from ..errors import ObsError

#: bump on any breaking change to the trace event layout
TRACE_SCHEMA = "repro.trace/1"

#: event phases: complete span, instant, counter sample (Chrome trace
#: phase letters, reused verbatim by the Perfetto exporter)
PHASES = ("X", "i", "C")

#: default ring-buffer capacity (events)
DEFAULT_CAPACITY = 65536


class Tracer:
    """One run's worth of timeline events.

    Events are stored as plain lists ``[ts, dur, phase, track, name,
    args]`` — cheap to append, JSON-able as-is.
    """

    #: real tracers answer True to the ``enabled`` guard at hot sites
    enabled = True

    def __init__(
        self,
        *,
        capacity: int = DEFAULT_CAPACITY,
        sample_every: int = 1,
        meta: dict | None = None,
    ) -> None:
        if capacity < 1:
            raise ObsError(f"trace capacity must be >= 1, got {capacity}")
        if sample_every < 1:
            raise ObsError(f"sample_every must be >= 1, got {sample_every}")
        self.capacity = capacity
        self.sample_every = sample_every
        self.meta: dict = dict(meta or {})
        self.events: list[list] = []
        self.dropped = 0
        self._now = 0
        self._seq = 0

    # ------------------------------------------------------------- clock

    @property
    def now(self) -> int:
        """The current virtual-clock reading (ticks)."""
        return self._now

    def tick(self, n: int = 1) -> int:
        """Advance the virtual clock by ``n`` ticks; returns the new now."""
        self._now += n
        return self._now

    def alloc(self, dur: int) -> int:
        """Reserve ``dur`` ticks on the timeline; returns the start
        timestamp (components with externally computed durations — cycle
        counts, wall-clock — lay their spans out with this)."""
        start = self._now
        self._now += max(0, int(dur))
        return start

    # ------------------------------------------------------------ events

    def _append(self, event: list) -> None:
        if len(self.events) >= self.capacity:
            # ring behaviour: drop the oldest event, keep the newest
            # (summaries are emitted last and must survive)
            del self.events[0]
            self.dropped += 1
        self.events.append(event)

    def span(
        self,
        track: str,
        name: str,
        ts: int,
        dur: int,
        args: dict | None = None,
    ) -> None:
        """A complete span [ts, ts+dur) on ``track`` (never sampled)."""
        self._append([int(ts), max(0, int(dur)), "X", track, name, args])

    def instant(
        self,
        track: str,
        name: str,
        ts: int | None = None,
        args: dict | None = None,
    ) -> None:
        """A point event (subject to ``sample_every`` decimation)."""
        self._seq += 1
        if self._seq % self.sample_every:
            return
        t = self._now if ts is None else int(ts)
        self._append([t, 0, "i", track, name, args])

    def sample(
        self,
        track: str,
        name: str,
        value: float,
        ts: int | None = None,
    ) -> None:
        """A counter sample (queue occupancy, fill level...), decimated
        like instants."""
        self._seq += 1
        if self._seq % self.sample_every:
            return
        t = self._now if ts is None else int(ts)
        self._append([t, 0, "C", track, name, {"value": value}])

    # ---------------------------------------------------- (de)serialization

    def as_dict(self) -> dict:
        """The tracer body (JSON-able), shipped back from workers."""
        return {
            "ticks": self._now,
            "dropped": self.dropped,
            "sample_every": self.sample_every,
            "capacity": self.capacity,
            "events": [list(e) for e in self.events],
        }

    def merge(self, body: dict, *, offset: int | None = None) -> None:
        """Fold a tracer body (from :meth:`as_dict`, e.g. a worker's)
        into this tracer, shifting its timeline to start at ``offset``
        (default: this tracer's current now)."""
        at = self._now if offset is None else int(offset)
        for ts, dur, phase, track, name, args in body.get("events", ()):
            self._append([int(ts) + at, dur, phase, track, name, args])
        self.dropped += int(body.get("dropped", 0))
        self._now = max(self._now, at + int(body.get("ticks", 0)))


class _NullTracer:
    """Shared stand-in for the tracer when tracing is disabled: every
    call site checks ``enabled`` before it records."""

    __slots__ = ()

    enabled = False
    now = 0


#: the disabled fast path allocates nothing
NULL_TRACER = _NullTracer()

_active: Tracer | None = None


def enable_tracing(
    tracer: Tracer | None = None,
    *,
    capacity: int = DEFAULT_CAPACITY,
    sample_every: int = 1,
) -> Tracer:
    """Install (and return) the process-wide tracer."""
    global _active
    if tracer is None:
        tracer = Tracer(capacity=capacity, sample_every=sample_every)
    _active = tracer
    return _active


def disable_tracing() -> None:
    """Turn tracing off; instrumented code reverts to no-ops."""
    global _active
    _active = None


def tracing_enabled() -> bool:
    return _active is not None


def tracer():
    """The active tracer (:data:`NULL_TRACER` when disabled)."""
    return _active if _active is not None else NULL_TRACER


@contextmanager
def trace_capture(tracer: Tracer | None = None, **kwargs):
    """Scoped tracing: enable for the block, restore the previous state
    after (tests, worker processes)."""
    global _active
    previous = _active
    _active = tracer if tracer is not None else Tracer(**kwargs)
    try:
        yield _active
    finally:
        _active = previous


# ------------------------------------------------------------------ schema

def make_trace(tracer: Tracer | None = None, meta: dict | None = None) -> dict:
    """Serialize a tracer into a schema-versioned trace dict."""
    if tracer is None:
        tracer = Tracer()
    full_meta = {
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    full_meta.update(tracer.meta)
    full_meta.update(meta or {})
    out = {
        "schema": TRACE_SCHEMA,
        "created_unix": time.time(),
        "meta": full_meta,
    }
    out.update(tracer.as_dict())
    return out


def trace_snapshot(meta: dict | None = None) -> dict:
    """Snapshot the active tracer (an empty tracer when disabled, so
    callers can always write a schema-valid file)."""
    return make_trace(_active, meta)


def validate_trace(trace: object) -> dict:
    """Check a trace against the ``repro.trace/1`` schema; returns it on
    success, raises :class:`~repro.errors.ObsError` on the first
    violation found."""
    if not isinstance(trace, dict):
        raise ObsError(
            f"trace must be a JSON object, got {type(trace).__name__}"
        )
    schema = trace.get("schema")
    if schema != TRACE_SCHEMA:
        raise ObsError(
            f"unsupported trace schema {schema!r}; expected {TRACE_SCHEMA!r}"
        )
    if not isinstance(trace.get("created_unix"), (int, float)):
        raise ObsError("trace is missing a numeric 'created_unix'")
    if not isinstance(trace.get("meta"), dict):
        raise ObsError("trace is missing the 'meta' object")
    for field in ("ticks", "dropped", "sample_every", "capacity"):
        if not isinstance(trace.get(field), int):
            raise ObsError(f"trace is missing the integer {field!r} field")
    events = trace.get("events")
    if not isinstance(events, list):
        raise ObsError("trace is missing the 'events' list")
    for k, event in enumerate(events):
        if not isinstance(event, list) or len(event) != 6:
            raise ObsError(
                f"event {k} must be a [ts, dur, phase, track, name, args] "
                "list"
            )
        ts, dur, phase, track, name, args = event
        if not isinstance(ts, (int, float)) or not isinstance(
            dur, (int, float)
        ):
            raise ObsError(f"event {k} has non-numeric ts/dur")
        if phase not in PHASES:
            raise ObsError(f"event {k} has unknown phase {phase!r}")
        if not isinstance(track, str) or not isinstance(name, str):
            raise ObsError(f"event {k} has non-string track/name")
        if args is not None and not isinstance(args, dict):
            raise ObsError(f"event {k} args must be an object or null")
    return trace


def write_trace(trace: dict, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace, sort_keys=True) + "\n")
    return path


def load_trace(path: str | Path) -> dict:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ObsError(f"trace not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ObsError(f"trace {path} is not valid JSON: {exc}") from None
    return validate_trace(data)
