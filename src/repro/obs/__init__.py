"""``repro.obs`` — the simulator telemetry layer.

Hierarchical named counters, gauges, histograms and wall-clock timers,
with a process-wide on/off switch and near-zero overhead when disabled:
instrumented call sites check :func:`enabled` and record nothing unless
a registry is active.

Usage::

    from repro import obs

    with obs.capture() as registry:          # or obs.enable()
        run_experiments()
        snap = obs.snapshot(meta={"scale": "small"})
    obs.write_snapshot(snap, "run.json")

Instrumented library code records through the active registry::

    if obs.enabled():
        obs.active().counter("store.ingest_failures").add()
    with obs.timer("sim.memsys.profile"):  # a no-op timer when disabled
        ...

Snapshots serialize to the stable JSON schema in
:mod:`repro.obs.snapshot`; ``repro stats`` dumps and diffs them, and
``repro query regressions`` gates their cells/sec once ``repro ingest``
has stored them.

The metrics answer *how much*; :mod:`repro.obs.tracing` answers *when*:
an event timeline (spans / instants / counter samples on the same
dotted paths) behind its own switch (:func:`enable_tracing` /
:func:`trace_capture`), exported to Perfetto or folded into a stall
report by :mod:`repro.obs.export` and the ``repro trace`` CLI.

The *live* plane renders the same data while a process runs:
:mod:`repro.obs.live` turns any registry into Prometheus text
exposition (mounted at ``GET /metrics`` by ``repro serve``),
:mod:`repro.obs.logging` is the structured JSON log layer with
contextvar correlation ids, and :mod:`repro.obs.report` renders the
experiment store as a self-contained HTML flight recorder (``repro
report``; imported lazily by the CLI, not re-exported here, because it
reads from :mod:`repro.store`).
"""

from __future__ import annotations

from contextlib import contextmanager

from .metrics import (
    NULL_TIMER,
    Counter,
    Gauge,
    Histogram,
    Timer,
)
from .registry import PrefixedRegistry, Registry
from .live import PROM_CONTENT_TYPE, to_prometheus
from .logging import (
    configure as configure_logging,
    correlation,
    get_logger,
    log_event,
)
from .export import (
    fold_trace,
    stall_report,
    to_perfetto,
    write_perfetto,
)
from .tracing import (
    NULL_TRACER,
    TRACE_SCHEMA,
    Tracer,
    disable_tracing,
    enable_tracing,
    load_trace,
    make_trace,
    trace_capture,
    trace_snapshot,
    tracer,
    tracing_enabled,
    validate_trace,
    write_trace,
)
from .snapshot import (
    SCHEMA,
    bench_rev,
    current_rev,
    diff_snapshots,
    load_snapshot,
    make_snapshot,
    render_diff,
    render_snapshot,
    validate_snapshot,
    worktree_dirty,
    write_bench_snapshot,
    write_snapshot,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "Registry",
    "PrefixedRegistry",
    "SCHEMA",
    "enable",
    "disable",
    "enabled",
    "active",
    "capture",
    "timer",
    "snapshot",
    "make_snapshot",
    "validate_snapshot",
    "load_snapshot",
    "write_snapshot",
    "write_bench_snapshot",
    "diff_snapshots",
    "render_diff",
    "render_snapshot",
    "current_rev",
    "bench_rev",
    "worktree_dirty",
    "Tracer",
    "NULL_TRACER",
    "TRACE_SCHEMA",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "tracer",
    "trace_capture",
    "trace_snapshot",
    "make_trace",
    "validate_trace",
    "load_trace",
    "write_trace",
    "to_perfetto",
    "write_perfetto",
    "fold_trace",
    "stall_report",
    "to_prometheus",
    "PROM_CONTENT_TYPE",
    "configure_logging",
    "correlation",
    "get_logger",
    "log_event",
]

_active: Registry | None = None


def enable(registry: Registry | None = None) -> Registry:
    """Install (and return) the process-wide registry."""
    global _active
    _active = registry if registry is not None else Registry()
    return _active


def disable() -> None:
    """Turn telemetry off; instrumented code reverts to no-ops."""
    global _active
    _active = None


def enabled() -> bool:
    return _active is not None


def active() -> Registry | None:
    """The live registry, or None when telemetry is off."""
    return _active


@contextmanager
def capture(registry: Registry | None = None):
    """Scoped telemetry: enable for the block, restore the previous
    state after (tests, the benchmark harness, worker processes)."""
    global _active
    previous = _active
    _active = registry if registry is not None else Registry()
    try:
        yield _active
    finally:
        _active = previous


def timer(name: str):
    """The named timer of the active registry (no-op when disabled)."""
    return _active.timer(name) if _active is not None else NULL_TIMER


def snapshot(meta: dict | None = None) -> dict:
    """Snapshot the active registry (an empty registry when disabled,
    so callers can always write a schema-valid file)."""
    return make_snapshot(_active if _active is not None else Registry(), meta)
