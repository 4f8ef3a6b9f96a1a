"""Doubly-Compressed Sparse Row format (Figure 1c).

DCSR additionally compresses *empty rows* out of the CSR ``ptrs`` array:
only non-empty rows keep a pointer, and their row indexes are stored
explicitly in ``row_idxs``.  The paper's SpKAdd kernel stores its K input
matrices in DCSR because cyclic row distribution leaves most rows empty.
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError
from ..types import INDEX_BYTES, VALUE_BYTES, as_index_array, as_value_array


class DcsrMatrix:
    """A sparse matrix in DCSR format.

    Attributes
    ----------
    row_idxs:
        Sorted indexes of the non-empty rows.
    ptrs:
        ``len(row_idxs) + 1`` pointers delimiting each non-empty row's
        slice of ``idxs``/``vals``.
    idxs, vals:
        Column indexes (sorted within each row) and values.
    """

    def __init__(self, shape, row_idxs, ptrs, idxs, vals, *,
                 validate: bool = True):
        self.shape = (int(shape[0]), int(shape[1]))
        self.row_idxs = as_index_array(row_idxs)
        self.ptrs = as_index_array(ptrs)
        self.idxs = as_index_array(idxs)
        self.vals = as_value_array(vals)
        if validate:
            self._validate()

    def _validate(self) -> None:
        rows, cols = self.shape
        if self.ptrs.size != self.row_idxs.size + 1:
            raise FormatError("ptrs must have len(row_idxs)+1 entries")
        if self.ptrs.size and self.ptrs[0] != 0:
            raise FormatError("ptrs[0] must be 0")
        if np.any(np.diff(self.ptrs) <= 0):
            raise FormatError("DCSR rows must be non-empty and ptrs increasing")
        if self.ptrs.size and self.ptrs[-1] != self.idxs.size:
            raise FormatError("ptrs[-1] must equal the number of non-zeros")
        if self.row_idxs.size:
            if np.any(np.diff(self.row_idxs) <= 0):
                raise FormatError("row_idxs must be strictly increasing")
            if self.row_idxs.min() < 0 or self.row_idxs.max() >= rows:
                raise FormatError("row index out of bounds")
        if self.idxs.size != self.vals.size:
            raise FormatError("idxs and vals must be the same length")
        if self.idxs.size:
            if self.idxs.min() < 0 or self.idxs.max() >= cols:
                raise FormatError("column index out of bounds")
            for k in range(self.row_idxs.size):
                seg = self.idxs[self.ptrs[k]:self.ptrs[k + 1]]
                if np.any(np.diff(seg) <= 0):
                    raise FormatError(
                        f"row {int(self.row_idxs[k])} has unsorted or "
                        "duplicate column indexes"
                    )

    @property
    def num_rows(self) -> int:
        return self.shape[0]

    @property
    def num_nonempty_rows(self) -> int:
        return int(self.row_idxs.size)

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def nbytes(self) -> int:
        """Storage footprint as the simulated machine sees it."""
        return (
            self.num_nonempty_rows * INDEX_BYTES
            + (self.num_nonempty_rows + 1) * INDEX_BYTES
            + self.nnz * (INDEX_BYTES + VALUE_BYTES)
        )

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=self.vals.dtype)
        row_of = np.repeat(self.row_idxs, np.diff(self.ptrs))
        dense[row_of, self.idxs] = self.vals
        return dense

    @classmethod
    def from_dense(cls, array) -> "DcsrMatrix":
        from .convert import coo_to_dcsr
        from .coo import CooMatrix

        return coo_to_dcsr(CooMatrix.from_dense(array))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DcsrMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.row_idxs, other.row_idxs)
            and np.array_equal(self.ptrs, other.ptrs)
            and np.array_equal(self.idxs, other.idxs)
            and np.allclose(self.vals, other.vals)
        )

    def __repr__(self) -> str:
        return (
            f"DcsrMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"nonempty_rows={self.num_nonempty_rows})"
        )
