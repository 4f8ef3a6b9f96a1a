"""Shared helpers for kernel implementations and characterization."""

from __future__ import annotations

import functools

import numpy as np

from ..formats.csr import CsrMatrix
from ..memo import IdentityLRU
from ..sim.trace import AccessStream, AddressSpace, Ranges
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
    """Virtual placement of a CSR matrix's three arrays, and the
    streams that walk them (the index and value walks share one
    index)."""

    def __init__(self, space: AddressSpace, matrix: CsrMatrix) -> None:
        self.matrix = matrix
        self.ptrs_base = space.place((matrix.num_rows + 1) * INDEX_BYTES)
        self.idxs_base = space.place(matrix.nnz * INDEX_BYTES)
        self.vals_base = space.place(matrix.nnz * VALUE_BYTES)
        self._nnz = Ranges.span(matrix.nnz)

    def ptr_stream(self, label: str) -> AccessStream:
        """Sequential walk over the row-pointer array."""
        return AccessStream(Ranges.span(self.matrix.num_rows + 1),
                            INDEX_BYTES, "read", label,
                            base=self.ptrs_base, stride=INDEX_BYTES)

    def idx_stream(self, label: str, index=None, **flags) -> AccessStream:
        """Reads of the index array at ``index`` (all of it in order by
        default)."""
        return AccessStream(self._nnz if index is None else index,
                            INDEX_BYTES, "read", label,
                            base=self.idxs_base, stride=INDEX_BYTES, **flags)

    def val_stream(self, label: str, index=None, **flags) -> AccessStream:
        """Reads of the value array at ``index`` (all of it in order by
        default)."""
        return AccessStream(self._nnz if index is None else index,
                            VALUE_BYTES, "read", label,
                            base=self.vals_base, stride=VALUE_BYTES, **flags)


def sequential_stream(space: AddressSpace, count: int, elem_bytes: int,
                      kind: str, label: str) -> AccessStream:
    """A sequential walk over a fresh ``count``-element array placed
    in ``space``."""
    base = space.place(count * elem_bytes)
    return AccessStream(Ranges.span(count), elem_bytes, kind, label,
                        base=base, stride=elem_bytes)


def output_streams(space: AddressSpace, nnz: int
                   ) -> tuple[AccessStream, AccessStream]:
    """The sequential writes of a compressed result's ``nnz`` indexes
    and values (``Z idxs``, ``Z vals``), placed in ``space`` in that
    order, over one index."""
    idxs_base = space.place(nnz * INDEX_BYTES)
    vals_base = space.place(nnz * VALUE_BYTES)
    walk = Ranges.span(nnz)
    return (
        AccessStream(walk, INDEX_BYTES, "write", "Z idxs",
                     base=idxs_base, stride=INDEX_BYTES),
        AccessStream(walk, VALUE_BYTES, "write", "Z vals",
                     base=vals_base, stride=VALUE_BYTES),
    )


def row_chunk_count(row_nnz: np.ndarray, lanes: int) -> int:
    """Total vectorized inner-loop iterations when each row is processed
    in ``lanes``-wide chunks (the SVE baseline's trip count)."""
    return int(np.sum(-(-row_nnz // lanes)))
