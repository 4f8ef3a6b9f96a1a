"""Output queue construction (paper Section 5.3).

The TMU pushes ``(callback id, operands)`` records into the current
outQ chunk; when a chunk fills, the core starts processing it while the
TMU populates the next one (double buffering).  outQ generation is
serialized across TGs in loop-nest order so the core observes callbacks
exactly as the equivalent software loop would fire them — the recursive
execution of :mod:`repro.tmu.engine` produces that order by
construction, and this module accounts for the chunking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..errors import TMUConfigError

#: bytes of a record header (callback ID + operand count)
RECORD_HEADER_BYTES = 4
#: bytes of one scalar operand (double / pointer)
SCALAR_BYTES = 8
#: bytes of one marshaled predicate (multi-hot lane mask)
MASK_BYTES = 2


class MaskValue(int):
    """A multi-hot lane predicate marshaled as an operand (2 bytes on
    the wire instead of a full scalar)."""


@dataclass(frozen=True)
class OutQueueRecord:
    """One outQ entry the core will process."""

    callback_id: str
    operands: tuple
    mask: int
    layer: int

    def nbytes(self) -> int:
        total = RECORD_HEADER_BYTES
        for operand in self.operands:
            if isinstance(operand, tuple):
                total += SCALAR_BYTES * len(operand)
            elif isinstance(operand, MaskValue):
                total += MASK_BYTES
            else:
                total += SCALAR_BYTES
        return total


class OutQueue:
    """The memory-mapped, chunked, double-buffered output queue."""

    def __init__(self, chunk_bytes: int = 4096) -> None:
        if chunk_bytes < RECORD_HEADER_BYTES + SCALAR_BYTES:
            raise TMUConfigError("outQ chunks must fit at least one record")
        self.chunk_bytes = chunk_bytes
        self.records: list[OutQueueRecord] = []
        self.total_bytes = 0
        self._current_chunk_fill = 0
        self.chunks_completed = 0
        self.max_record_bytes = 0
        self.max_chunk_fill = 0  # high-water mark of the filling chunk
        self.records_pushed = 0  # monotonic (records may be drained)
        self._observed: dict[str, int] = {}  # telemetry deltas
        self.tracer = None  # set by the engine while tracing is on

    def push(self, record: OutQueueRecord) -> None:
        size = record.nbytes()
        self.records.append(record)
        self.records_pushed += 1
        self.total_bytes += size
        self.max_record_bytes = max(self.max_record_bytes, size)
        self._current_chunk_fill += size
        if self._current_chunk_fill > self.max_chunk_fill:
            self.max_chunk_fill = min(self._current_chunk_fill,
                                      self.chunk_bytes)
        tracer = self.tracer
        while self._current_chunk_fill >= self.chunk_bytes:
            self._current_chunk_fill -= self.chunk_bytes
            self.chunks_completed += 1
            if tracer is not None:
                tracer.instant("tmu.outq", "chunk_complete",
                               args={"bytes": self.chunk_bytes})
        if tracer is not None:
            tracer.sample("tmu.outq", "chunk_fill", self._current_chunk_fill)

    @property
    def num_records(self) -> int:
        return len(self.records)

    @property
    def num_chunks(self) -> int:
        """Chunks produced, counting the trailing partial chunk."""
        partial = 1 if self._current_chunk_fill > 0 else 0
        return self.chunks_completed + partial

    def __iter__(self) -> Iterator[OutQueueRecord]:
        return iter(self.records)

    def drain(self) -> list[OutQueueRecord]:
        """Remove and return all buffered records (the core's read)."""
        out, self.records = self.records, []
        return out

    def observe(self, view) -> None:
        """Publish traffic counters and fill high-water marks into a
        telemetry registry view."""
        from ..obs import add_deltas

        add_deltas(view, {
            "records": self.records_pushed,
            "bytes": self.total_bytes,
            "chunks": self.num_chunks,
        }, self._observed)
        view.gauge("max_record_bytes").set(self.max_record_bytes)
        view.gauge("max_chunk_fill").set(self.max_chunk_fill)
