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
        self.tracer = None  # set by the engine while tracing is on

    def push(self, record: OutQueueRecord) -> None:
        size = record.nbytes()
        self.records.append(record)
        self.total_bytes += size
        self._current_chunk_fill += size
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
