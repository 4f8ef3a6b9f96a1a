"""Shared helpers for kernel implementations and characterization."""

from __future__ import annotations

import functools

import numpy as np

from ..formats.csr import CsrMatrix
from ..memo import IdentityLRU
from ..sim.trace import AddressSpace
from ..types import INDEX_BYTES, VALUE_BYTES

#: entries the operand memo keeps.  A full paper evaluation needs about
#: a dozen per suite input (derived operands, scan arrays, stream sets);
#: architecture sweeps cycle through every input of one workload per
#: machine, so the bound must cover one workload's inputs with room.
MEMO_ENTRIES = 128

_MEMO = IdentityLRU(MEMO_ENTRIES)


def operand_memo(fn):
    """Memoize ``fn`` on the identity of its positional arguments (the
    value and position of its ``int`` ones).

    Architecture sweeps re-run a kernel on the same operands under many
    machines; everything that depends only on the operands (derived
    operands, scan arrays, address streams) is built once and shared.
    All memoized functions share one :class:`~repro.memo.IdentityLRU`
    of :data:`MEMO_ENTRIES` entries, which holds the operands weakly:
    an entry lives as long as its operands do, so the memo never keeps
    an operand that the input loaders have dropped, nor anything built
    from it.  A non-``int`` argument must support weak references.
    Results are shared by every caller: their arrays (and the
    operands') are marked read-only.
    """

    @functools.wraps(fn)
    def wrapper(*args):
        key = (wrapper, *(a if type(a) is int else None for a in args))
        objs = [a for a in args if type(a) is not int]
        value = _MEMO.get(key, objs)
        if value is None:
            value = fn(*args)
            _MEMO.put(key, objs, value)
        return value

    return wrapper


def ceil_div(a: int, b: int) -> int:
    """Ceiling integer division for non-negative operands."""
    return -(-a // b)


def sve_lanes(vector_bits: int, elem_bytes: int = VALUE_BYTES) -> int:
    """Number of elements one SVE vector holds."""
    return max(1, vector_bits // (8 * elem_bytes))


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer key array.

    Sort-plus-boundary-scan beats ``np.unique`` by an order of magnitude
    on the multi-million-element packed-key arrays the vectorized
    characterizations build (numpy ≥ 2.3 routes ``unique`` through a
    hash table that loses badly to a radix-friendly int64 sort here).
    """
    if keys.size == 0:
        return keys
    keys = np.sort(keys)
    boundary = np.empty(keys.size, dtype=bool)
    boundary[0] = True
    np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
    return keys[boundary]


class CsrOperand:
    """Virtual placement of a CSR matrix's three arrays, with address
    helpers for characterization."""

    def __init__(self, space: AddressSpace, matrix: CsrMatrix) -> None:
        self.matrix = matrix
        self.ptrs_base = space.place((matrix.num_rows + 1) * INDEX_BYTES)
        self.idxs_base = space.place(matrix.nnz * INDEX_BYTES)
        self.vals_base = space.place(matrix.nnz * VALUE_BYTES)

    def ptr_addresses(self) -> np.ndarray:
        """Sequential walk over the row-pointer array."""
        n = self.matrix.num_rows + 1
        return self.ptrs_base + np.arange(n, dtype=np.int64) * INDEX_BYTES

    def idx_addresses(self, positions=None) -> np.ndarray:
        if positions is None:
            positions = np.arange(self.matrix.nnz, dtype=np.int64)
        return self.idxs_base + np.asarray(positions, np.int64) * INDEX_BYTES

    def val_addresses(self, positions=None) -> np.ndarray:
        if positions is None:
            positions = np.arange(self.matrix.nnz, dtype=np.int64)
        return self.vals_base + np.asarray(positions, np.int64) * VALUE_BYTES


class DenseOperand:
    """Virtual placement of a dense array."""

    def __init__(self, space: AddressSpace, num_elems: int,
                 elem_bytes: int = VALUE_BYTES) -> None:
        self.base = space.place(num_elems * elem_bytes)
        self.elem_bytes = elem_bytes
        self.num_elems = num_elems

    def addresses(self, indices=None) -> np.ndarray:
        if indices is None:
            indices = np.arange(self.num_elems, dtype=np.int64)
        return self.base + np.asarray(indices, np.int64) * self.elem_bytes


def row_chunk_count(row_nnz: np.ndarray, lanes: int) -> int:
    """Total vectorized inner-loop iterations when each row is processed
    in ``lanes``-wide chunks (the SVE baseline's trip count)."""
    return int(np.sum(-(-row_nnz // lanes)))


def gather_scan_positions(ptrs, keys) -> np.ndarray:
    """Positions visited when scanning fiber ``keys[k]`` of a compressed
    structure for each k, concatenated in order (vectorized).

    Equivalent to ``concatenate([arange(ptrs[k], ptrs[k+1]) for k in
    keys])`` without the Python loop.
    """
    ptrs = np.asarray(ptrs)
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        return np.zeros(0, dtype=np.int64)
    starts = ptrs[keys].astype(np.int64)
    lens = (ptrs[keys + 1] - ptrs[keys]).astype(np.int64)
    total = int(lens.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.repeat(np.cumsum(lens) - lens, lens)
    return np.repeat(starts, lens) + (np.arange(total, dtype=np.int64)
                                      - offsets)
