"""The TMU memory arbiter (paper Section 5.4).

The TMU issues memory requests at cache-line granularity.  Each cycle
it picks the next line to request with a fixed hierarchy: leftmost
layers (outer loops) first, TUs within a layer round-robin, streams
within a TU in configuration order, requests within a stream in order.

The functional model records every element *touch* and coalesces
consecutive same-line touches per stream into line *requests* — exactly
what the sequential queues of the hardware produce.  It counts touches,
line requests and bytes for :class:`repro.tmu.engine.RunStats` and,
while tracing is on, marks each grant on the timeline.  The timing
models in :mod:`repro.programs` build their own streams and never
replay these.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TMUConfigError
from .streams import Stream
from .tu import TraversalUnit

LINE_BYTES = 64


@dataclass
class StreamRequestLog:
    """Per-stream request bookkeeping."""

    layer: int
    lane: int
    label: str
    touches: int = 0
    line_requests: int = 0
    last_line: int = -1

    def record(self, address: int) -> bool:
        """Log one element touch; True when it opened a new line
        request (an arbiter grant)."""
        self.touches += 1
        line = address // LINE_BYTES
        if line != self.last_line:
            self.line_requests += 1
            self.last_line = line
            return True
        return False


class MemoryArbiter:
    """Collects and counts the TMU's memory requests."""

    def __init__(self) -> None:
        self._logs: dict[Stream, StreamRequestLog] = {}
        self.tracer = None  # set by the engine while tracing is on

    def register(self, tu: TraversalUnit, stream: Stream) -> None:
        if stream in self._logs:
            raise TMUConfigError(f"stream {stream.name} registered twice")
        self._logs[stream] = StreamRequestLog(
            layer=tu.layer,
            lane=tu.lane,
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

    @property
    def total_touches(self) -> int:
        return sum(log.touches for log in self._logs.values())

    @property
    def total_line_requests(self) -> int:
        return sum(log.line_requests for log in self._logs.values())

    def total_bytes(self) -> int:
        return self.total_line_requests * LINE_BYTES
