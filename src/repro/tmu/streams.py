"""TU data streams (paper Table 2).

Every Traversal Unit owns a tree of data streams rooted at its ``ite``
stream (the loop induction variable).  When the TU's FSM executes an
``fite`` step, each stream derives one element from its parent's new
element:

=======  ==========================================================
``ite``  the iteration index itself
``mem``  ``p[x]`` — loads array ``p`` at the parent element ``x``
``lin``  ``a·x + b`` — linear transform of the parent element
``map``  ``a[x]`` — 16-entry lookup table indexed by the parent
``ldr``  ``&p[x]`` — the *address* of element ``x`` of array ``p``
``fwd``  forwards a leftward TU's stream value to this layer
``msk``  the layer predicate (produced by the TG, not by a TU)
=======  ==========================================================

Streams are implemented as bounded circular queues; all queues of one
TU advance together (single push/pull command, Section 5.1), so the
queue storage lives in the TU and streams only define *how an element
is generated*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import TMUConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .tu import TraversalUnit

#: maximum entries of a `map` stream's lookup table (Table 2: "a small
#: map a={v1, ..., v16}")
MAP_TABLE_SIZE = 16


@dataclass(frozen=True)
class MemoryArray:
    """An operand array in simulated memory: numpy data plus the byte
    address the arbiter sees."""

    data: np.ndarray
    base_address: int
    elem_bytes: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.data.ndim != 1:
            raise TMUConfigError("TMU memory arrays must be 1-D")

    def address_of(self, index: int) -> int:
        return self.base_address + int(index) * self.elem_bytes

    def load(self, index: int):
        if not 0 <= index < self.data.size:
            raise TMUConfigError(
                f"out-of-bounds TMU load: {self.name}[{index}] "
                f"(size {self.data.size})"
            )
        return self.data[index]


class Stream:
    """Base class of all TU data streams.

    ``derive(x)`` computes this stream's element from the parent's new
    element ``x``; memory-backed streams additionally report the byte
    address they touch so the engine can drive the arbiter.  A stream
    that overrides :meth:`touched_address` (today only ``MemStream``)
    is detected structurally by the TU's precompiled plan, which logs
    each of its touches with the arbiter — overriding on a subclass is
    all it takes to reach the arbiter.

    ``index_in_tu`` is the stream's position in its TU's stream list,
    assigned at attach time; it doubles as the positional key into
    :class:`~repro.tmu.tu.Slot` values, so it must never change after
    slots have been produced.
    """

    kind = "abstract"

    def __init__(self, name: str = "") -> None:
        self.name = name or self.kind
        self.tu: "TraversalUnit | None" = None
        self.index_in_tu: int = -1

    def derive(self, x):
        raise NotImplementedError

    def touched_address(self, x) -> int | None:
        """Byte address read by deriving from ``x`` (None = no access)."""
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class IteStream(Stream):
    """The root stream: the TU's current iteration index."""

    kind = "ite"

    def derive(self, x):
        return x


class MemStream(Stream):
    """``p[x]``: loads array ``p`` at the parent element."""

    kind = "mem"

    def __init__(self, array: MemoryArray, parent: Stream,
                 offset: int = 0, name: str = "") -> None:
        super().__init__(name or f"mem:{array.name}")
        self.array = array
        self.parent = parent
        self.offset = offset

    def derive(self, x):
        return self.array.load(int(x) + self.offset)

    def touched_address(self, x) -> int:
        return self.array.address_of(int(x) + self.offset)


class LinStream(Stream):
    """``a·x + b``: linear transform of the parent element."""

    kind = "lin"

    def __init__(self, a: float, b: float, parent: Stream,
                 name: str = "") -> None:
        super().__init__(name)
        self.a = a
        self.b = b
        self.parent = parent

    def derive(self, x):
        return self.a * x + self.b


class MapStream(Stream):
    """``a[x]``: small lookup table (at most 16 entries)."""

    kind = "map"

    def __init__(self, table, parent: Stream, name: str = "") -> None:
        super().__init__(name)
        table = list(table)
        if not 0 < len(table) <= MAP_TABLE_SIZE:
            raise TMUConfigError(
                f"map stream table must have 1..{MAP_TABLE_SIZE} entries"
            )
        self.table = table
        self.parent = parent

    def derive(self, x):
        xi = int(x)
        if not 0 <= xi < len(self.table):
            raise TMUConfigError(
                f"map stream index {xi} outside table of "
                f"{len(self.table)} entries"
            )
        return self.table[xi]


class LdrStream(Stream):
    """``&p[x]``: the address of element ``x`` of array ``p`` — used to
    hand the core pointers into operand arrays (e.g. MTTKRP P2 output
    rows)."""

    kind = "ldr"

    def __init__(self, array: MemoryArray, parent: Stream,
                 name: str = "") -> None:
        super().__init__(name or f"ldr:{array.name}")
        self.array = array
        self.parent = parent

    def derive(self, x):
        return self.array.address_of(int(x))


class FwdStream(Stream):
    """Forwards a leftward TU's stream to this layer: the element is the
    *parent layer's* current value of ``source``, held constant for the
    whole child fiber."""

    kind = "fwd"

    def __init__(self, source: Stream, name: str = "") -> None:
        super().__init__(name or f"fwd:{source.name}")
        self.source = source

    def derive(self, x):
        # Resolution happens in the engine, which snapshots the parent
        # slot; `derive` is never called directly for fwd streams.
        raise TMUConfigError("fwd streams are resolved by the engine")
