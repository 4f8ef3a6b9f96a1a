"""The TMU memory arbiter (paper Section 5.4).

The TMU issues memory requests at cache-line granularity.  Each cycle
it picks the next line to request with a fixed hierarchy: leftmost
layers (outer loops) first, TUs within a layer round-robin, streams
within a TU in configuration order, requests within a stream in order.

The functional model records every element *touch* and coalesces
consecutive same-line touches per stream into line *requests* — exactly
what the sequential queues of the hardware produce.  The ordered
request streams are exported as :class:`repro.sim.trace.AccessStream`
objects so the timing model can replay them against the LLC.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TMUConfigError
from ..sim.trace import AccessStream
from .streams import Stream
from .tu import TraversalUnit

LINE_BYTES = 64


@dataclass
class StreamRequestLog:
    """Per-stream request bookkeeping."""

    layer: int
    lane: int
    config_order: int
    label: str
    touches: int = 0
    last_line: int = -1
    lines: list[int] = field(default_factory=list)

    def record(self, address: int) -> bool:
        """Log one element touch; True when it opened a new line
        request (an arbiter grant)."""
        self.touches += 1
        line = address // LINE_BYTES
        if line != self.last_line:
            self.lines.append(line)
            self.last_line = line
            return True
        return False


class MemoryArbiter:
    """Collects and orders the TMU's memory requests."""

    def __init__(self) -> None:
        self._logs: dict[Stream, StreamRequestLog] = {}
        self._observed: dict[str, int] = {}  # telemetry deltas
        self.tracer = None  # set by the engine while tracing is on

    def register(self, tu: TraversalUnit, stream: Stream) -> None:
        if stream in self._logs:
            raise TMUConfigError(f"stream {stream.name} registered twice")
        self._logs[stream] = StreamRequestLog(
            layer=tu.layer,
            lane=tu.lane,
            config_order=stream.index_in_tu,
            label=stream.name,
        )

    def record_touch(self, tu: TraversalUnit, stream: Stream,
                     address: int) -> None:
        log = self._logs.get(stream)
        if log is None:
            self.register(tu, stream)
            log = self._logs[stream]
        granted = log.record(address)
        if granted and self.tracer is not None:
            self.tracer.instant("tmu.arbiter", "grant", args={
                "stream": log.label,
                "layer": log.layer,
                "lane": log.lane,
            })

    # -- reporting ----------------------------------------------------

    def priority_order(self) -> list[StreamRequestLog]:
        """Logs sorted by the arbiter's selection hierarchy."""
        return sorted(
            self._logs.values(),
            key=lambda log: (log.layer, log.lane, log.config_order),
        )

    @property
    def total_touches(self) -> int:
        return sum(log.touches for log in self._logs.values())

    @property
    def total_line_requests(self) -> int:
        return sum(len(log.lines) for log in self._logs.values())

    def total_bytes(self) -> int:
        return self.total_line_requests * LINE_BYTES

    def access_streams(self) -> list[AccessStream]:
        """Export ordered line-request streams for the timing model,
        in arbiter priority order."""
        streams = []
        for log in self.priority_order():
            streams.append(AccessStream(
                np.asarray(log.lines, dtype=np.int64),
                elem_bytes=LINE_BYTES,
                kind="read",
                label=log.label,
                stride=LINE_BYTES,
            ))
        return streams

    def observe(self, view) -> None:
        """Publish request totals and the per-(layer, lane) grant
        distribution into a telemetry registry view."""
        from ..obs import add_deltas

        totals = {
            "touches": self.total_touches,
            "lines": self.total_line_requests,
            "bytes": self.total_bytes(),
        }
        for log in self.priority_order():
            key = f"layer{log.layer}.lane{log.lane}.lines"
            totals[key] = totals.get(key, 0) + len(log.lines)
        add_deltas(view, totals, self._observed)
        view.gauge("streams").set(len(self._logs))
