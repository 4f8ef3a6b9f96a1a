"""Shared scalar types and small helpers used across the library."""

from __future__ import annotations

import math

import numpy as np

#: dtype used for coordinate/index arrays throughout the library.
INDEX_DTYPE = np.int64

#: dtype used for non-zero values throughout the library.
VALUE_DTYPE = np.float64

#: Size in bytes of one index element as stored by the simulated machine.
#: The paper's kernels use 32-bit indexes and 64-bit pointers; we model a
#: uniform 4-byte index like TACO's default.
INDEX_BYTES = 4

#: Size in bytes of one value element (double precision).
VALUE_BYTES = 8

#: Cache line size of the simulated machine, in bytes.
CACHELINE_BYTES = 64


def as_index_array(data) -> np.ndarray:
    """Return ``data`` as a contiguous int64 numpy array."""
    return np.ascontiguousarray(np.asarray(data, dtype=INDEX_DTYPE))


def as_value_array(data) -> np.ndarray:
    """Return ``data`` as a contiguous float64 numpy array."""
    return np.ascontiguousarray(np.asarray(data, dtype=VALUE_DTYPE))


def _packed_dtype(bound: int, n: int):
    """Narrowest signed dtype holding ``key << pos_bits | position`` for
    keys below ``bound`` and ``n`` positions, with the position bit count;
    the dtype is ``None`` when 63 bits cannot hold it."""
    pos_bits = max(1, (n - 1).bit_length())
    bits = max(0, bound - 1).bit_length() + pos_bits
    if bits <= 31:
        return np.int32, pos_bits
    if bits <= 63:
        return np.int64, pos_bits
    return None, pos_bits


def _packed_sort(keys, bound: int):
    """Sorted ``key << pos_bits | position`` values of ``keys`` (all
    below ``bound``) and the position bit count; the values are
    ``None`` when 63 bits cannot hold the pack."""
    n = keys.size
    dtype, pos_bits = _packed_dtype(int(bound), n)
    if dtype is None:
        return None, pos_bits
    packed = np.left_shift(keys, pos_bits, dtype=dtype)
    packed |= np.arange(n, dtype=dtype)
    packed.sort()
    return packed, pos_bits


def stable_order(keys, bound: int) -> np.ndarray:
    """Stable sorting permutation of non-negative integer ``keys``, all
    below ``bound``: exactly the permutation a stable argsort returns.

    Each key is packed above its position, ``key << pos_bits | position``,
    so the packed values are distinct and a plain ``np.sort`` of them
    orders equal keys by position.  The pack is int32 when it fits 31
    bits (measurably faster) and int64 when it fits 63; beyond that the
    stable argsort runs instead.
    """
    keys = np.asarray(keys)
    packed, pos_bits = _packed_sort(keys, bound)
    if packed is None:
        return np.argsort(keys, kind="stable")
    packed &= (1 << pos_bits) - 1
    return packed


def stable_runs(keys, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`stable_order` of ``keys`` plus ``same``, where ``same[i]``
    tells whether sorted positions ``i`` and ``i + 1`` hold equal keys.

    The packed sort answers ``same`` from its own sorted values, with no
    gather of the keys: two packed values share a key iff their XOR has
    no bit above the position bits.
    """
    keys = np.asarray(keys)
    packed, pos_bits = _packed_sort(keys, bound)
    if packed is None:
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        return order, ordered[1:] == ordered[:-1]
    same = (packed[1:] ^ packed[:-1]) < (1 << pos_bits)
    packed &= (1 << pos_bits) - 1
    return packed, same


def lex_order(coords, shape) -> np.ndarray:
    """Permutation sorting coordinate tuples lexicographically, first
    dimension major: exactly the permutation NumPy's ``lexsort`` returns
    for the keys in reverse.

    ``coords`` holds one in-bounds index array per dimension of
    ``shape``.  The tuples are linearized row-major into one key that
    :func:`stable_order` sorts; ``lexsort`` itself runs only when the
    extents' product and the position bits overflow 63 bits.
    """
    bound = math.prod(int(s) for s in shape)
    if _packed_dtype(bound, coords[0].size)[0] is None:
        return np.lexsort(tuple(reversed(coords)))
    key = np.array(coords[0], dtype=np.int64)
    for c, extent in zip(coords[1:], shape[1:]):
        key *= int(extent)
        key += c
    return stable_order(key, bound)


def ptrs_from_ids(ids, num_groups: int) -> np.ndarray:
    """CSR-style pointers from each element's group id: group ``g``
    owns positions ``ptrs[g]:ptrs[g + 1]`` of a grouped layout."""
    ptrs = np.zeros(num_groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=num_groups), out=ptrs[1:])
    return ptrs


def geomean(values) -> float:
    """Geometric mean of a sequence of positive numbers.

    Returns ``nan`` for an empty sequence, mirroring ``numpy.mean``.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return float("nan")
    if np.any(arr <= 0):
        raise ValueError("geomean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))
