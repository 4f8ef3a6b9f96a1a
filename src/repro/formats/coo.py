"""Coordinate (COO) format for matrices and order-n tensors (Figure 1a).

COO explicitly stores every non-zero as an n-dimensional coordinate plus
a value.  Coordinates are kept sorted lexicographically (row-major
multidimensional ordering), the invariant that the paper's merge
machinery and the ``singleton`` level traversal both rely on.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import FormatError
from ..types import (INDEX_BYTES, VALUE_BYTES, as_index_array, as_value_array,
                     lex_order)


class CooTensor:
    """An order-n sparse tensor in coordinate format.

    Parameters
    ----------
    shape:
        Extent of each dimension.
    coords:
        One integer array per dimension, all the same length (the number
        of stored non-zeros).
    values:
        The non-zero values, aligned with ``coords``.
    sum_duplicates:
        When true (default), coordinates appearing multiple times are
        collapsed by summing their values, as tensor assembly requires.
    assume_sorted:
        When true the caller guarantees the coordinates are already in
        lexicographic order and the construction-time sort is skipped.
        Filtering an already-sorted tensor preserves the invariant, so
        splitters can rebuild parts without paying a re-sort.
    """

    def __init__(self, shape: Sequence[int], coords, values, *,
                 sum_duplicates: bool = True,
                 assume_sorted: bool = False) -> None:
        self.shape = tuple(int(s) for s in shape)
        if any(s < 0 for s in self.shape):
            raise FormatError("tensor dimensions must be non-negative")
        coords = [as_index_array(c) for c in coords]
        values = as_value_array(values)
        if len(coords) != len(self.shape):
            raise FormatError(
                f"got {len(coords)} coordinate arrays for an order-"
                f"{len(self.shape)} tensor"
            )
        if any(c.shape != values.shape for c in coords):
            raise FormatError("coordinate/value arrays have mismatched length")
        for dim, c in enumerate(coords):
            if c.size and (c.min() < 0 or c.max() >= self.shape[dim]):
                raise FormatError(
                    f"coordinate out of bounds in dimension {dim} "
                    f"(extent {self.shape[dim]})"
                )
        if values.size:
            if not assume_sorted:
                order = lex_order(coords, self.shape)
                coords = [c[order] for c in coords]
                values = values[order]
            if sum_duplicates:
                coords, values = self._sum_duplicates(coords, values)
        self.coords = coords
        self.values = values

    @staticmethod
    def _sum_duplicates(coords, values):
        stacked = np.stack(coords)
        change = np.any(stacked[:, 1:] != stacked[:, :-1], axis=0)
        boundaries = np.concatenate(([True], change))
        group = np.cumsum(boundaries) - 1
        num_groups = int(group[-1]) + 1
        out_vals = np.zeros(num_groups, dtype=values.dtype)
        np.add.at(out_vals, group, values)
        firsts = np.flatnonzero(boundaries)
        return [c[firsts] for c in coords], out_vals

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def nbytes(self) -> int:
        """Storage footprint as the simulated machine sees it."""
        return self.nnz * (self.ndim * INDEX_BYTES + VALUE_BYTES)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=self.values.dtype)
        if self.nnz:
            dense[tuple(self.coords)] = self.values
        return dense

    @classmethod
    def from_dense(cls, array) -> "CooTensor":
        array = np.asarray(array, dtype=float)
        coords = np.nonzero(array)
        return cls(array.shape, [c for c in coords], array[coords])

    def __eq__(self, other) -> bool:
        if not isinstance(other, CooTensor):
            return NotImplemented
        return (
            self.shape == other.shape
            and all(np.array_equal(a, b) for a, b in zip(self.coords, other.coords))
            and np.allclose(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.shape}, nnz={self.nnz})"


class CooMatrix(CooTensor):
    """An order-2 :class:`CooTensor` with row/col conveniences."""

    def __init__(self, shape, rows, cols, values, *, sum_duplicates=True,
                 assume_sorted=False):
        if len(shape) != 2:
            raise FormatError("CooMatrix is strictly order-2")
        super().__init__(shape, [rows, cols], values,
                         sum_duplicates=sum_duplicates,
                         assume_sorted=assume_sorted)

    @property
    def rows(self) -> np.ndarray:
        return self.coords[0]

    @property
    def cols(self) -> np.ndarray:
        return self.coords[1]

    @property
    def num_rows(self) -> int:
        return self.shape[0]

    @classmethod
    def from_dense(cls, array) -> "CooMatrix":
        array = np.asarray(array, dtype=float)
        if array.ndim != 2:
            raise FormatError("CooMatrix.from_dense needs a 2-D array")
        r, c = np.nonzero(array)
        return cls(array.shape, r, c, array[r, c])
