"""Traversal Units: the per-fiber iteration FSM (paper Section 5.1).

A TU iterates one fiber::

    for (i = beg; i < end; i += stride)

with ``beg``/``end`` either configuration constants (``DnsFbrT``) or
read from a leftward TU's streams (``RngFbrT``/``IdxFbrT``, Table 1).
Each ``fite`` step pushes one element into every data stream of the TU
(all queues advance together) and a ``0`` token into the binary control
sequence; exhaustion pushes a ``1`` token (``fend``) and re-arms the
FSM (``fbeg``).

The functional model exposes the FSM through ``begin`` / ``peek`` /
``consume``: the TG peeks lane heads to merge, then consumes the lanes
its predicate selects — the queue hand-off of the hardware collapsed to
a one-slot buffer, which is exact for functional purposes (queue depth
only affects timing, handled in :mod:`repro.sim.machine`).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from .. import obs
from ..errors import TMUConfigError, TMURuntimeError
from .streams import (
    IteStream,
    LinStream,
    MemoryArray,
    MemStream,
    Stream,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import TmuEngine


class PrimitiveKind(enum.Enum):
    """Traversal primitives of Table 1."""

    DENSE = "DnsFbrT"
    RANGE = "RngFbrT"
    INDEX = "IdxFbrT"


class TuState(enum.Enum):
    """TU FSM states (Section 5.1)."""

    FBEG = "fbeg"
    FITE = "fite"
    FEND = "fend"


class Slot:
    """One queue entry: the values of every stream for one iteration.

    Values are stored positionally (``values[stream.index_in_tu]``)
    instead of in a per-iteration dict; ``slot[stream]`` keeps the
    mapping-style access the TGs, the engine and the callbacks use, and
    ``items()`` iterates ``(stream, value)`` pairs.
    """

    __slots__ = ("streams", "values")

    def __init__(self, streams: list[Stream], values: list) -> None:
        self.streams = streams
        self.values = values

    def __getitem__(self, stream: Stream):
        return self.values[stream.index_in_tu]

    def items(self):
        return zip(self.streams, self.values)

    def __repr__(self) -> str:
        pairs = {s.name: v for s, v in self.items()}
        return f"Slot({pairs!r})"


#: precompiled per-stream opcodes (see ``TraversalUnit._build_plan``)
_OP_LOCAL, _OP_REMOTE = range(2)


class TraversalUnit:
    """One TU: iteration logic plus its tree of data streams."""

    def __init__(self, layer: int, lane: int, kind: PrimitiveKind, *,
                 beg=0, end=None, size=None, offset: int = 0,
                 stride: int = 1, name: str = "") -> None:
        if stride == 0:
            raise TMUConfigError("TU stride must be non-zero")
        self.layer = layer
        self.lane = lane
        self.kind = kind
        self.beg = beg
        self.end = end
        self.size = size
        self.offset = offset
        self.stride = stride
        self.name = name or f"TU[{layer},{lane}]"

        self.ite = IteStream(f"{self.name}.ite")
        self.streams: list[Stream] = [self.ite]
        self._attach(self.ite)
        self.merge_key: Stream = self.ite

        self._validate_bounds()

        # runtime state
        self.state = TuState.FBEG
        self._cur = 0
        self._end = 0
        self._fwd_values: dict[Stream, object] = {}
        self._head: Slot | None = None
        # precompiled per-stream derivation plan
        self._plan: list[tuple] | None = None
        self._plan_len = 0
        self.iterations = 0
        self.fiber_count = 0
        self.control_tokens: int = 0  # total tokens emitted (0s and 1s)
        self._trace_track = f"tmu.tu.layer{layer}.lane{lane}"
        self._trace_t0: int | None = None  # fiber start (virtual ticks)
        self._trace_it0 = 0

    # -- configuration -------------------------------------------------

    def _validate_bounds(self) -> None:
        if self.kind is PrimitiveKind.DENSE:
            if not isinstance(self.beg, int) or not isinstance(self.end, int):
                raise TMUConfigError("DnsFbrT needs constant beg/end")
        elif self.kind is PrimitiveKind.RANGE:
            if not isinstance(self.beg, Stream) or not isinstance(
                    self.end, Stream):
                raise TMUConfigError("RngFbrT needs stream beg/end")
        elif self.kind is PrimitiveKind.INDEX:
            if not isinstance(self.beg, Stream):
                raise TMUConfigError("IdxFbrT needs a stream beg")
            if not isinstance(self.size, int):
                raise TMUConfigError("IdxFbrT needs a constant size")

    def _attach(self, stream: Stream) -> None:
        stream.tu = self
        stream.index_in_tu = len(self.streams) - 1

    def add_mem_stream(self, array: MemoryArray, parent: Stream | None = None,
                       offset: int = 0, name: str = "") -> MemStream:
        """``add_mem_str``: load ``array`` at the parent stream's value
        (default parent: this TU's ``ite``)."""
        stream = MemStream(array, parent or self.ite, offset, name)
        self._check_parent(stream.parent)
        self.streams.append(stream)
        self._attach(stream)
        return stream

    def add_lin_stream(self, a: float, b: float,
                       parent: Stream | None = None,
                       name: str = "") -> LinStream:
        stream = LinStream(a, b, parent or self.ite, name)
        self._check_parent(stream.parent)
        self.streams.append(stream)
        self._attach(stream)
        return stream

    def _check_parent(self, parent: Stream) -> None:
        if parent.tu is not self and parent.tu is not None:
            if parent.tu.layer >= self.layer:
                raise TMUConfigError(
                    f"{self.name}: stream parents must live in this TU "
                    "or a leftward layer"
                )

    def set_merge_key(self, stream: Stream) -> None:
        """Designate the stream holding the fiber's coordinate (used by
        merging TGs to sort lanes).  Defaults to ``ite``."""
        if stream not in self.streams:
            raise TMUConfigError("merge key must be one of this TU's streams")
        self.merge_key = stream

    # -- runtime --------------------------------------------------------

    def _build_plan(self) -> None:
        """Compile the stream tree into a flat per-stream plan.

        ``peek`` resolves each non-ite stream through one precompiled
        ``(op, stream, src, touches)`` tuple: a parent in this TU is
        read from the slot (``src`` is its index), a parent in a
        leftward layer from the values the engine forwarded at
        ``begin`` (``src`` is the stream); ``touches`` is true for the
        streams that touch memory."""
        plan: list[tuple] = []
        for stream in self.streams[1:]:
            parent = stream.parent  # type: ignore[attr-defined]
            if parent.tu is self:
                op, src = _OP_LOCAL, parent.index_in_tu
            else:
                op, src = _OP_REMOTE, parent
            touches = (type(stream).touched_address
                       is not Stream.touched_address)
            plan.append((op, stream, src, touches))
        self._plan = plan
        self._plan_len = len(self.streams)

    def begin(self, beg_value: int, end_value: int,
              fwd_values: dict[Stream, object] | None = None) -> None:
        """``fbeg``: latch iteration bounds for a new fiber."""
        if self._plan is None or self._plan_len != len(self.streams):
            self._build_plan()
        self._cur = int(beg_value) + self.offset
        self._end = int(end_value)
        self._head = None
        self._fwd_values = fwd_values or {}
        self.state = TuState.FITE
        self.fiber_count += 1
        tracer = obs.tracer()
        if tracer.enabled:
            self._trace_t0 = tracer.now
            self._trace_it0 = self.iterations
        else:
            self._trace_t0 = None

    def peek(self, engine: "TmuEngine | None" = None) -> Slot | None:
        """Return the head slot, producing it if needed; None at fiber
        end (after emitting the ``fend`` token)."""
        if self.state is TuState.FBEG:
            raise TMURuntimeError(f"{self.name}: peek before begin")
        if self._head is not None:
            return self._head
        if self.state is TuState.FEND:
            return None
        forward = (self._cur < self._end) if self.stride > 0 else (
            self._cur > self._end)
        if not forward:
            self.state = TuState.FEND
            self.control_tokens += 1  # the `1` end token
            if self._trace_t0 is not None:
                tracer = obs.tracer()
                fiber_len = self.iterations - self._trace_it0
                tracer.span(self._trace_track, "fiber", self._trace_t0,
                            tracer.now - self._trace_t0,
                            {"iterations": fiber_len})
                tracer.sample(self._trace_track, "fiber_len", fiber_len)
                self._trace_t0 = None
            return None
        if self._plan is None or self._plan_len != len(self.streams):
            self._build_plan()
        cur = self._cur
        values = [cur] * self._plan_len
        slot = Slot(self.streams, values)
        for i, (op, stream, src, touches) in enumerate(self._plan, 1):
            if op == _OP_LOCAL:
                x = values[src]
            else:  # _OP_REMOTE
                x = self._fwd_values.get(src)
                if x is None:
                    raise TMURuntimeError(
                        f"{self.name}: parent value for "
                        f"{stream.name} not forwarded"
                    )
            values[i] = stream.derive(x)
            if touches and engine is not None:
                addr = stream.touched_address(x)
                if addr is not None:
                    engine.arbiter.record_touch(self, stream, addr)
        self._head = slot
        self.control_tokens += 1  # the `0` iteration token
        return self._head

    def consume(self) -> Slot:
        """Pop the head slot (the TG selected this lane)."""
        if self._head is None:
            raise TMURuntimeError(f"{self.name}: consume without a head")
        slot = self._head
        self._head = None
        self._cur += self.stride
        self.iterations += 1
        return slot

    def key_of(self, slot: Slot):
        return slot[self.merge_key]

    def __repr__(self) -> str:
        return (f"TraversalUnit({self.name}, {self.kind.value}, "
                f"streams={len(self.streams)})")
