"""Compressed Sparse Row format (Figure 1b).

CSR replaces the explicit row indexes of COO with a ``ptrs`` array of
``num_rows + 1`` entries where ``ptrs[i] .. ptrs[i+1]`` delimits row
``i``'s slice of the ``idxs``/``vals`` arrays.  Column indexes are sorted
within each row — the invariant the paper's conjunctive/disjunctive
mergers rely on.
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError
from ..types import (INDEX_BYTES, VALUE_BYTES, as_index_array, as_value_array,
                     ptrs_from_ids, stable_order)


class CsrMatrix:
    """A sparse matrix in CSR format.

    Attributes
    ----------
    ptrs:
        ``num_rows + 1`` row pointers into ``idxs``/``vals``.
    idxs:
        Column index of each stored non-zero, sorted within each row.
    vals:
        Value of each stored non-zero.
    """

    def __init__(self, shape, ptrs, idxs, vals, *, validate: bool = True):
        self.shape = (int(shape[0]), int(shape[1]))
        self.ptrs = as_index_array(ptrs)
        self.idxs = as_index_array(idxs)
        self.vals = as_value_array(vals)
        if validate:
            self._validate()

    def _validate(self) -> None:
        rows, cols = self.shape
        if rows < 0 or cols < 0:
            raise FormatError("matrix dimensions must be non-negative")
        if self.ptrs.size != rows + 1:
            raise FormatError(
                f"ptrs must have num_rows+1={rows + 1} entries, "
                f"got {self.ptrs.size}"
            )
        if self.idxs.size != self.vals.size:
            raise FormatError("idxs and vals must be the same length")
        if self.ptrs.size and self.ptrs[0] != 0:
            raise FormatError("ptrs[0] must be 0")
        if np.any(np.diff(self.ptrs) < 0):
            raise FormatError("ptrs must be non-decreasing")
        if self.ptrs.size and self.ptrs[-1] != self.idxs.size:
            raise FormatError("ptrs[-1] must equal the number of non-zeros")
        if self.idxs.size:
            if self.idxs.min() < 0 or self.idxs.max() >= cols:
                raise FormatError("column index out of bounds")
            for i in np.flatnonzero(np.diff(self.ptrs) > 1):
                seg = self.idxs[self.ptrs[i]:self.ptrs[i + 1]]
                if np.any(np.diff(seg) <= 0):
                    raise FormatError(
                        f"row {i} has unsorted or duplicate column indexes"
                    )

    @property
    def num_rows(self) -> int:
        return self.shape[0]

    @property
    def num_cols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def nbytes(self) -> int:
        """Storage footprint as the simulated machine sees it."""
        return (
            (self.num_rows + 1) * INDEX_BYTES
            + self.nnz * (INDEX_BYTES + VALUE_BYTES)
        )

    def row_slice(self, i: int) -> tuple[int, int]:
        """Return the ``[begin, end)`` positions of row ``i``."""
        return int(self.ptrs[i]), int(self.ptrs[i + 1])

    def row_nnz(self) -> np.ndarray:
        """Non-zeros per row."""
        return np.diff(self.ptrs)

    def transpose(self) -> "CsrMatrix":
        """Return the transpose, also in CSR (i.e. this matrix in CSC)."""
        rows, cols = self.shape
        t_ptrs = ptrs_from_ids(self.idxs, cols)
        row_of = np.repeat(np.arange(rows, dtype=self.idxs.dtype),
                           np.diff(self.ptrs))
        # Stable grouping by column keeps per-row order, i.e. the
        # transposed rows come out with sorted column indexes.
        order = stable_order(self.idxs, cols)
        return CsrMatrix((cols, rows), t_ptrs, row_of[order],
                         self.vals[order], validate=False)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=self.vals.dtype)
        row_of = np.repeat(np.arange(self.num_rows), np.diff(self.ptrs))
        dense[row_of, self.idxs] = self.vals
        return dense

    @classmethod
    def from_dense(cls, array) -> "CsrMatrix":
        array = np.asarray(array, dtype=float)
        if array.ndim != 2:
            raise FormatError("CsrMatrix.from_dense needs a 2-D array")
        r, c = np.nonzero(array)
        ptrs = ptrs_from_ids(r, array.shape[0])
        return cls(array.shape, ptrs, c, array[r, c], validate=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CsrMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.ptrs, other.ptrs)
            and np.array_equal(self.idxs, other.idxs)
            and np.allclose(self.vals, other.vals)
        )

    def __repr__(self) -> str:
        return f"CsrMatrix(shape={self.shape}, nnz={self.nnz})"
