"""TU data streams (paper Table 2).

Every Traversal Unit owns a tree of data streams rooted at its ``ite``
stream (the loop induction variable).  When the TU's FSM executes an
``fite`` step, each stream derives one element from its parent's new
element:

=======  ==========================================================
``ite``  the iteration index itself
``mem``  ``p[x]`` — loads array ``p`` at the parent element ``x``
``lin``  ``a·x + b`` — linear transform of the parent element
``msk``  the layer predicate (produced by the TG, not by a TU)
=======  ==========================================================

A stream's parent may live in a leftward layer: the engine forwards
that layer's current values to the TU at ``fbeg``, which is how a value
crosses layers.  Table 2's ``map`` (small lookup table), ``ldr``
(address of an element) and ``fwd`` (explicit forwarding) streams are
not modeled: no Table 4 program needs them.

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

    Every stream but the root ``IteStream`` (whose element is the TU's
    iteration index) defines ``derive(x)``, which computes its element
    from the parent's new element ``x``; memory-backed streams also
    report the byte address they touch so the engine can drive the
    arbiter.  A stream that overrides :meth:`touched_address` (today
    only ``MemStream``) is detected structurally by the TU's precompiled
    plan, which logs each of its touches with the arbiter — overriding
    on a subclass is all it takes to reach the arbiter.

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

    def touched_address(self, x) -> int | None:
        """Byte address read by deriving from ``x`` (None = no access)."""
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class IteStream(Stream):
    """The root stream: the TU's current iteration index."""

    kind = "ite"


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
