"""Kernel characterization records consumed by the timing model.

A :class:`KernelTrace` summarizes one kernel execution on one input:
the committed instruction mix (for the commit/frontend axes of the
interval model), the floating-point work (for rooflines), and the
ordered memory *address streams* (for the cache model, which turns them
into per-level hit/miss profiles).

Address streams are plain numpy arrays of byte addresses in program
order.  Builders below construct them vectorized from the tensor
structures, so characterizing a kernel costs a few numpy passes instead
of an instrumented interpreter run.
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


@dataclass
class AccessStream:
    """One ordered stream of memory accesses.

    Attributes
    ----------
    addresses:
        Byte addresses in program order.
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
    """

    addresses: np.ndarray
    elem_bytes: int
    kind: str = "read"
    label: str = ""
    dependent: bool = False
    gather: bool = False
    #: ``(addresses, digest)`` once :meth:`digest` has hashed them.
    _digest: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)

    def __post_init__(self) -> None:
        self.addresses = np.asarray(self.addresses, dtype=np.int64)
        if self.kind not in ("read", "write"):
            raise SimulationError(f"bad access kind {self.kind!r}")
        if not 1 <= self.elem_bytes <= 256:
            # 4/8 for scalar index/value elements; up to a full vector
            # register (or cache line) for one SIMD access.
            raise SimulationError(f"bad element size {self.elem_bytes}")

    @property
    def count(self) -> int:
        return int(self.addresses.size)

    @property
    def bytes(self) -> int:
        return self.count * self.elem_bytes

    def digest(self) -> str:
        """sha256 over the addresses' dtype and raw bytes, computed on
        first use and cached on the stream.  The addresses are marked
        read-only once digested, so a write that would stale the digest
        raises instead."""
        a = self.addresses
        if self._digest is None or self._digest[0] is not a:
            c = np.ascontiguousarray(a)
            h = hashlib.sha256(str(c.dtype).encode())
            h.update(c.data)
            a.flags.writeable = False
            self._digest = (a, h.hexdigest())
        return self._digest[1]


def strided_addresses(base: int, count: int, elem_bytes: int,
                      stride_elems: int = 1) -> np.ndarray:
    """Addresses of a sequential (or strided) array walk."""
    return base + np.arange(count, dtype=np.int64) * (
        elem_bytes * stride_elems
    )


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

    def total_bytes(self, kind: str | None = None) -> int:
        return sum(s.bytes for s in self.streams
                   if kind is None or s.kind == kind)

    def arithmetic_intensity(self) -> float:
        """Flops per byte moved — the roofline x axis."""
        total = self.total_bytes()
        return self.flops / total if total else 0.0
