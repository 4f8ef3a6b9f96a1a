"""The hierarchical metric registry.

Metrics are addressed by dotted paths mirroring the simulator layers
("runtime.executor.cells", "sim.cache.l1.hits", ...).  A registry is a
flat name -> instrument map — the hierarchy lives in the names, which
keeps lookups to one dict access and makes snapshots trivially sortable
and diffable by prefix.

Registries from worker processes are folded back into the parent with
:meth:`Registry.merge`, so telemetry survives the process-pool executor.
"""

from __future__ import annotations

from ..errors import ObsError
from .metrics import Counter, Gauge, Histogram, Timer

_KINDS = {
    "counters": Counter,
    "gauges": Gauge,
    "histograms": Histogram,
    "timers": Timer,
}


class Registry:
    """One run's worth of named instruments."""

    def __init__(self, meta: dict | None = None) -> None:
        self.meta: dict = dict(meta or {})
        self._metrics: dict[str, object] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, cls):
            raise ObsError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, requested {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def timer(self, name: str) -> Timer:
        return self._get(name, Timer)

    # ------------------------------------------------------ serialization

    def as_dict(self) -> dict:
        """The registry body grouped by instrument kind (JSON-able)."""
        body: dict[str, dict] = {kind: {} for kind in _KINDS}
        for name, metric in sorted(self._metrics.items()):
            body[metric.kind + "s"][name] = metric.as_dict()
        return body

    def merge(self, body: dict) -> None:
        """Fold a registry body (from :meth:`as_dict`, e.g. shipped back
        from a worker process) into this registry."""
        for kind, cls in _KINDS.items():
            for name, data in body.get(kind, {}).items():
                self._get(name, cls).merge(data)

    def prefixed(self, prefix: str) -> "PrefixedRegistry":
        """A view that prepends ``prefix.`` to every metric name."""
        return PrefixedRegistry(self, prefix)


class PrefixedRegistry:
    """A registry view rooted at a dotted-path prefix."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: Registry, prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix.rstrip(".") + "."

    def counter(self, name: str) -> Counter:
        return self._registry.counter(self._prefix + name)

    def gauge(self, name: str) -> Gauge:
        return self._registry.gauge(self._prefix + name)

    def histogram(self, name: str) -> Histogram:
        return self._registry.histogram(self._prefix + name)

    def timer(self, name: str) -> Timer:
        return self._registry.timer(self._prefix + name)
