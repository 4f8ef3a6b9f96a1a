"""Compressed Sparse Fiber format for order-n tensors (Smith & Karypis).

CSF generalizes DCSR to arbitrary order: every dimension is a compressed
level.  The tensor is a tree — level 0 stores the distinct coordinates of
the first dimension, and each node at level ``l`` points (via
``ptrs[l+1]``) to the slice of its children's coordinates at level
``l+1``.  Values are aligned with the leaf level.

The paper stores SpTC/SpTTV/SpTTM operands in CSF and merges CSF fibers
hierarchically on the TMU.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import FormatError
from ..types import INDEX_BYTES, VALUE_BYTES, as_index_array, as_value_array


class CsfTensor:
    """An order-n sparse tensor in CSF format.

    Attributes
    ----------
    idxs:
        ``ndim`` coordinate arrays; ``idxs[l][p]`` is the coordinate of
        tree node ``p`` at level ``l``.
    ptrs:
        ``ndim`` pointer arrays.  ``ptrs[0]`` is ``[0, len(idxs[0])]``
        (a single root fiber); for ``l > 0``, ``ptrs[l][p]..ptrs[l][p+1]``
        delimits the children of node ``p`` of level ``l-1``.
    vals:
        One value per leaf node (``len(idxs[-1])`` entries).
    """

    def __init__(self, shape: Sequence[int], ptrs, idxs, vals, *,
                 validate: bool = True) -> None:
        self.shape = tuple(int(s) for s in shape)
        self.ptrs = [as_index_array(p) for p in ptrs]
        self.idxs = [as_index_array(i) for i in idxs]
        self.vals = as_value_array(vals)
        if validate:
            self._validate()

    def _validate(self) -> None:
        n = len(self.shape)
        if n < 1:
            raise FormatError("CSF tensor must have at least one dimension")
        if len(self.ptrs) != n or len(self.idxs) != n:
            raise FormatError("need one ptrs and one idxs array per level")
        if self.ptrs[0].size != 2 or self.ptrs[0][0] != 0:
            raise FormatError("ptrs[0] must be [0, num_root_nodes]")
        if self.ptrs[0][1] != self.idxs[0].size:
            raise FormatError("ptrs[0][1] must equal len(idxs[0])")
        for lvl in range(1, n):
            if self.ptrs[lvl].size != self.idxs[lvl - 1].size + 1:
                raise FormatError(
                    f"ptrs[{lvl}] must have one entry per level-{lvl - 1} "
                    "node plus one"
                )
            if self.ptrs[lvl].size and self.ptrs[lvl][0] != 0:
                raise FormatError(f"ptrs[{lvl}][0] must be 0")
            if np.any(np.diff(self.ptrs[lvl]) <= 0):
                raise FormatError(
                    f"level {lvl} fibers must be non-empty and pointers "
                    "increasing"
                )
            if self.ptrs[lvl].size and self.ptrs[lvl][-1] != self.idxs[lvl].size:
                raise FormatError(
                    f"ptrs[{lvl}][-1] must equal len(idxs[{lvl}])"
                )
        for lvl in range(n):
            if self.idxs[lvl].size and (
                self.idxs[lvl].min() < 0
                or self.idxs[lvl].max() >= self.shape[lvl]
            ):
                raise FormatError(f"coordinate out of bounds at level {lvl}")
            ptr = self.ptrs[lvl]
            for f in range(ptr.size - 1):
                seg = self.idxs[lvl][ptr[f]:ptr[f + 1]]
                if np.any(np.diff(seg) <= 0):
                    raise FormatError(
                        f"level {lvl} fiber {f} has unsorted or duplicate "
                        "coordinates"
                    )
        if self.vals.size != self.idxs[-1].size:
            raise FormatError("vals must align with the leaf level")

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def nbytes(self) -> int:
        """Storage footprint as the simulated machine sees it."""
        total = self.vals.size * VALUE_BYTES
        for lvl in range(self.ndim):
            total += self.idxs[lvl].size * INDEX_BYTES
            total += self.ptrs[lvl].size * INDEX_BYTES
        return int(total)

    def fiber(self, level: int, parent_pos: int):
        """Return (coords, positions) of the fiber under ``parent_pos``.

        ``positions`` indexes into level ``level``'s node arrays so
        callers can descend further or read leaf values.
        """
        beg = int(self.ptrs[level][parent_pos])
        end = int(self.ptrs[level][parent_pos + 1])
        return self.idxs[level][beg:end], np.arange(beg, end)

    def to_coo_arrays(self) -> tuple[list[np.ndarray], np.ndarray]:
        """Expand the tree back to aligned coordinate arrays + values."""
        n = self.ndim
        coords = [None] * n
        coords[n - 1] = self.idxs[n - 1].copy()
        # Walk upward: repeat each level's coordinates by the sizes of the
        # subtrees hanging off each node.
        reps = np.ones(self.idxs[n - 1].size, dtype=np.int64)
        for lvl in range(n - 2, -1, -1):
            child_sizes = np.diff(self.ptrs[lvl + 1])
            # subtree leaf count per node at `lvl`
            leaf_counts = np.add.reduceat(
                reps, self.ptrs[lvl + 1][:-1]
            ) if reps.size else np.zeros(0, dtype=np.int64)
            coords[lvl] = np.repeat(self.idxs[lvl], leaf_counts)
            reps = leaf_counts
            del child_sizes
        return [np.asarray(c) for c in coords], self.vals.copy()

    def to_dense(self) -> np.ndarray:
        coords, vals = self.to_coo_arrays()
        dense = np.zeros(self.shape, dtype=self.vals.dtype)
        if vals.size:
            dense[tuple(coords)] = vals
        return dense

    def __repr__(self) -> str:
        return f"CsfTensor(shape={self.shape}, nnz={self.nnz})"
