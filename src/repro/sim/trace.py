"""Kernel characterization records consumed by the timing model.

A :class:`KernelTrace` summarizes one kernel execution on one input:
the committed instruction mix (for the commit/frontend axes of the
interval model), the floating-point work (for rooflines), and the
ordered memory *access streams* (for the cache model, which turns them
into per-level hit/miss profiles).

An access stream is a base address, a stride and an *index*, the way
the TMU's own ``mem``/``lin`` data streams are an array base plus
positions (Table 2): access ``i`` is at ``base + stride * p`` for the
``i``-th position ``p`` of the index.  The index is an integer array of
positions (a gather passes the operand's own array), a :class:`Ranges`
(sequential walks and fiber scans), or a :class:`Gather` (a key array
read at a :class:`Ranges`' positions, as an accumulator indexed by the
keys a fiber scan reads), so characterizing a kernel costs a few numpy
passes over its structure, and a stream holds no per-access address
the walk does not need.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import SimulationError

#: Virtual base addresses for the operand arrays of a simulated kernel.
#: Arrays are placed on disjoint 1 GiB-aligned regions so streams never
#: alias; the cache model only cares about line/set bits.
_REGION_BYTES = 1 << 30


class AddressSpace:
    """Hands out disjoint virtual regions for operand arrays.

    ``first_region`` resumes where another space stopped (its
    :attr:`next_region`): arrays placed here get the addresses they
    would have got from that space.
    """

    def __init__(self, first_region: int = 1) -> None:
        self.next_region = first_region

    def place(self, nbytes: int) -> int:
        """Reserve a region of at least ``nbytes`` and return its base."""
        if nbytes < 0:
            raise SimulationError("cannot place a negative-size array")
        regions = max(1, -(-nbytes // _REGION_BYTES))
        base = self.next_region * _REGION_BYTES
        self.next_region += regions
        return base


class Ranges:
    """The positions ``arange(s, s + l)`` for each ``(s, l)`` of
    ``starts`` and ``lengths``, concatenated in order.

    A sequential walk is one range (:meth:`span`), a scan of fibers one
    range per fiber (:meth:`fibers`), a scan that wraps around an array
    one range per pass (:meth:`cyclic`).  Lengths may be zero, and may be
    a broadcast view (``np.broadcast_to``) when all are equal.
    """

    def __init__(self, starts, lengths) -> None:
        self.starts = np.asarray(starts, dtype=np.int64)
        self.lengths = np.asarray(lengths, dtype=np.int64)
        if self.starts.ndim != 1 or self.starts.shape != self.lengths.shape:
            raise SimulationError("ranges need 1-D starts and lengths "
                                  "of one shape")
        if self.lengths.size and self.lengths.min() < 0:
            raise SimulationError("a range length is negative")
        self.size = int(self.lengths.sum())

    @classmethod
    def span(cls, count: int) -> Ranges:
        """The positions ``0 .. count - 1``."""
        return cls(np.zeros(1, dtype=np.int64), np.array([count]))

    @classmethod
    def fibers(cls, ptrs: np.ndarray, keys: np.ndarray) -> Ranges:
        """The positions of fiber ``keys[k]`` of a compressed level
        with pointer array ``ptrs``, for each ``k`` in order."""
        keys = np.asarray(keys)
        starts = ptrs[keys]
        return cls(starts, ptrs[keys + 1] - starts)

    @classmethod
    def cyclic(cls, count: int, period: int) -> Ranges:
        """The positions ``arange(count) % period``."""
        full, rest = divmod(count, period)
        lengths = np.full(full + bool(rest), period, dtype=np.int64)
        if rest:
            lengths[-1] = rest
        return cls(np.zeros(lengths.size, dtype=np.int64), lengths)

    def expand(self, base: int = 0, stride: int = 1) -> np.ndarray:
        """``base + stride * p`` for every position ``p`` in order,
        materialized as one int64 array: a fill and a running sum, with
        each range's first entry set to its jump from the previous
        range's last."""
        starts, lengths = self.starts, self.lengths
        if starts.size == 1:
            first = base + stride * int(starts[0])
            return np.arange(first, first + stride * self.size, stride,
                             dtype=np.int64)
        keep = lengths > 0
        if not keep.all():
            starts, lengths = starts[keep], lengths[keep]
        out = np.full(self.size, stride, dtype=np.int64)
        if starts.size:
            jumps = starts.copy()
            jumps[1:] -= starts[:-1] + lengths[:-1] - 1
            out[np.cumsum(lengths) - lengths] = jumps * stride
            out[0] += base
            np.cumsum(out, out=out)
        return out


class Gather:
    """The entries ``values[p]`` for each position ``p`` of ``ranges``,
    in order: a key array read through a scan's fiber references (the
    accumulator of Gustavson's B-row scans is indexed by the column
    index at each scanned position).  ``values`` and ``ranges`` are
    held, not copied: the scan streams over ``ranges`` share it."""

    def __init__(self, values, ranges: Ranges) -> None:
        self.values = np.asarray(values)
        if self.values.ndim != 1 or self.values.dtype.kind != "i":
            raise SimulationError("a gather reads a 1-D integer array")
        self.ranges = ranges
        self.size = ranges.size

    def expand(self) -> np.ndarray:
        """``values`` at every position of ``ranges``, in order."""
        return self.values[self.ranges.expand()]


@dataclass
class AccessStream:
    """One ordered stream of memory accesses: access ``i`` is at byte
    address ``base + stride * index[i]``.

    Attributes
    ----------
    index:
        The accessed positions in program order: an integer array, a
        :class:`Ranges` or a :class:`Gather`.  Streams over the same
        positions share one index object.
    elem_bytes:
        Element size (4 for indexes, 8 for values).
    kind:
        ``'read'`` or ``'write'``.
    label:
        Human-readable operand name (``'b[idx]'``, ``'row_ptrs'``...).
    dependent:
        True when each access's address depends on a previous load's
        *data* (indirect access) — these bound the MLP the core can
        extract.
    gather:
        True for single-element ``B[A[i]]`` indirections — the pattern
        the Indirect Memory Prefetcher detects and covers.  Dependent
        range scans (e.g. Gustavson's B-row walks) are *not* gathers:
        IMP has no handler for them.
    base, stride:
        Byte address of position 0 and bytes per position step.  The
        defaults read the index as byte addresses.
    """

    index: np.ndarray | Ranges | Gather
    elem_bytes: int
    kind: str = "read"
    label: str = ""
    dependent: bool = False
    gather: bool = False
    base: int = 0
    stride: int = 1
    #: ``(index, digest)`` once :meth:`digest` has hashed it.
    _digest: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.index, (Ranges, Gather)):
            index = np.asarray(self.index)
            if index.dtype.kind != "i":
                index = index.astype(np.int64)
            self.index = index
        self.base, self.stride = int(self.base), int(self.stride)
        if self.kind not in ("read", "write"):
            raise SimulationError(f"bad access kind {self.kind!r}")
        if not 1 <= self.elem_bytes <= 256:
            # 4/8 for scalar index/value elements; up to a full vector
            # register (or cache line) for one SIMD access.
            raise SimulationError(f"bad element size {self.elem_bytes}")
        if self.stride < 1:
            raise SimulationError(f"bad stride {self.stride}")

    @property
    def count(self) -> int:
        return int(self.index.size)

    @property
    def bytes(self) -> int:
        return self.count * self.elem_bytes

    @property
    def addresses(self) -> np.ndarray:
        """The byte addresses in program order, materialized as a new
        read-only int64 array on every read (the walk never reads
        them)."""
        index = self.index
        if isinstance(index, Ranges):
            out = index.expand(self.base, self.stride)
        else:
            if isinstance(index, Gather):
                index = index.expand()
            out = np.multiply(index, self.stride, dtype=np.int64)
            out += self.base
        out.flags.writeable = False
        return out

    def index_arrays(self) -> tuple[np.ndarray, ...]:
        """The arrays the index is made of."""
        index = self.index
        if isinstance(index, Ranges):
            return index.starts, index.lengths
        if isinstance(index, Gather):
            return index.values, index.ranges.starts, index.ranges.lengths
        return (index,)

    def digest(self) -> str:
        """sha256 over ``base``, ``stride``, ``elem_bytes``, the index
        form and each index array's dtype and raw bytes, computed on
        first use and cached on the stream.  The index arrays are marked
        read-only once digested, so a write that would stale the digest
        raises instead."""
        index = self.index
        if self._digest is None or self._digest[0] is not index:
            arrays = self.index_arrays()
            h = hashlib.sha256(repr((
                type(index).__name__, self.base, self.stride,
                self.elem_bytes, [(str(a.dtype), a.size) for a in arrays],
            )).encode())
            for a in arrays:
                h.update(np.ascontiguousarray(a).data)
                a.flags.writeable = False
            self._digest = (index, h.hexdigest())
        return self._digest[1]


@dataclass
class KernelTrace:
    """Characterization of one kernel run on one input.

    The instruction-mix fields count *committed* instructions of the
    scalar (or SVE-vectorized, where noted) software implementation.
    """

    name: str
    #: scalar ALU/FP instructions (address arithmetic, compares, ...)
    scalar_ops: int = 0
    #: SIMD instructions at the configured vector width
    vector_ops: int = 0
    #: scalar/gather loads issued by the core
    loads: int = 0
    #: stores issued by the core
    stores: int = 0
    #: all conditional branches
    branches: int = 0
    #: the data-dependent, hard-to-predict subset of ``branches``
    datadep_branches: int = 0
    #: double-precision floating-point operations performed (roofline y)
    flops: float = 0.0
    #: ordered memory access streams (reads and writes)
    streams: list[AccessStream] = field(default_factory=list)
    #: fraction of loads whose address depends on an earlier load's data
    dependent_load_fraction: float = 0.0
    #: work items (e.g. rows) over which the kernel parallelizes
    parallel_units: int = 1

    def total_instructions(self) -> int:
        return (self.scalar_ops + self.vector_ops + self.loads
                + self.stores + self.branches)
