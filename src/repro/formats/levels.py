"""Hierarchical *level format* abstraction (Chou et al., Section 2.2).

A tensor format is described as a stack of per-dimension levels:

* :class:`DenseLevel` — the dimension is materialized; positions are
  computed arithmetically (``parent_pos * size + idx``).
* :class:`CompressedLevel` — only non-empty coordinates are stored, with
  a pointer array delimiting each parent's fiber.
* :class:`SingletonLevel` — one coordinate per parent position (COO's
  trailing dimensions).

With this vocabulary, CSR is ``(dense, compressed)``, DCSR is
``(compressed, compressed)``, COO is ``(compressed, singleton, ...)``,
and CSF is a stack of compressed levels.  The TMU's traversal primitives
(Table 1) map one-to-one onto these levels: ``DnsFbrT`` traverses dense
levels, ``RngFbrT`` compressed levels, and ``IdxFbrT`` performs the
lookup-and-scan of dense fibers.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..errors import FormatError
from ..types import INDEX_BYTES, as_index_array, ptrs_from_ids


class Level:
    """Abstract level: maps parent positions to (coordinate, position)
    pairs of this dimension."""

    kind: str = "abstract"

    def fiber_bounds(self, parent_pos: int) -> tuple[int, int]:
        """Position range ``[beg, end)`` of the fiber under
        ``parent_pos``."""
        raise NotImplementedError

    def coordinate(self, pos: int) -> int:
        """Coordinate stored at position ``pos``."""
        raise NotImplementedError

    def iter_fiber(self, parent_pos: int) -> Iterator[tuple[int, int]]:
        """Yield ``(coordinate, position)`` pairs of one fiber."""
        beg, end = self.fiber_bounds(parent_pos)
        for pos in range(beg, end):
            yield self.coordinate(pos), pos

    def num_positions(self) -> int:
        """Total number of positions materialized at this level."""
        raise NotImplementedError

    def nbytes(self) -> int:
        """Metadata storage this level occupies."""
        raise NotImplementedError


class DenseLevel(Level):
    """A fully materialized dimension of extent ``size``."""

    kind = "dense"

    def __init__(self, size: int, parent_positions: int = 1) -> None:
        if size < 0 or parent_positions < 0:
            raise FormatError("dense level extent must be non-negative")
        self.size = int(size)
        self.parent_positions = int(parent_positions)

    def fiber_bounds(self, parent_pos: int) -> tuple[int, int]:
        return parent_pos * self.size, (parent_pos + 1) * self.size

    def coordinate(self, pos: int) -> int:
        return pos % self.size if self.size else 0

    def num_positions(self) -> int:
        return self.parent_positions * self.size

    def nbytes(self) -> int:
        return 0  # dense levels store no metadata


class CompressedLevel(Level):
    """A compressed dimension: ``ptrs`` delimits fibers, ``idxs`` stores
    sorted coordinates."""

    kind = "compressed"

    def __init__(self, ptrs, idxs) -> None:
        self.ptrs = as_index_array(ptrs)
        self.idxs = as_index_array(idxs)
        if self.ptrs.size == 0 or self.ptrs[0] != 0:
            raise FormatError("compressed level ptrs must start at 0")
        if np.any(np.diff(self.ptrs) < 0):
            raise FormatError("compressed level ptrs must be non-decreasing")
        if self.ptrs[-1] != self.idxs.size:
            raise FormatError("compressed level ptrs must cover idxs")

    def fiber_bounds(self, parent_pos: int) -> tuple[int, int]:
        return int(self.ptrs[parent_pos]), int(self.ptrs[parent_pos + 1])

    def coordinate(self, pos: int) -> int:
        return int(self.idxs[pos])

    def num_positions(self) -> int:
        return int(self.idxs.size)

    def nbytes(self) -> int:
        return int((self.ptrs.size + self.idxs.size) * INDEX_BYTES)


class SingletonLevel(Level):
    """One coordinate per parent position (COO trailing dimensions)."""

    kind = "singleton"

    def __init__(self, idxs) -> None:
        self.idxs = as_index_array(idxs)

    def fiber_bounds(self, parent_pos: int) -> tuple[int, int]:
        return parent_pos, parent_pos + 1

    def coordinate(self, pos: int) -> int:
        return int(self.idxs[pos])

    def num_positions(self) -> int:
        return int(self.idxs.size)

    def nbytes(self) -> int:
        return int(self.idxs.size * INDEX_BYTES)


class LevelTensor:
    """A tensor expressed as a stack of levels plus leaf values.

    This is the representation the TMU program builders consume: each
    level tells them which traversal primitive and which data streams to
    instantiate.
    """

    def __init__(self, shape: Sequence[int], levels: Sequence[Level],
                 vals) -> None:
        self.shape = tuple(int(s) for s in shape)
        self.levels = list(levels)
        self.vals = np.asarray(vals, dtype=np.float64)
        if len(self.levels) != len(self.shape):
            raise FormatError("need exactly one level per dimension")
        if self.levels and self.vals.size != self.levels[-1].num_positions():
            raise FormatError("values must align with the leaf level")

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def format_spec(self) -> tuple[str, ...]:
        """The per-level kinds, e.g. ``('dense', 'compressed')`` for CSR."""
        return tuple(level.kind for level in self.levels)

    def nbytes(self) -> int:
        return sum(level.nbytes() for level in self.levels) + int(
            self.vals.nbytes
        )

    def iter_nonzeros(self) -> Iterator[tuple[tuple[int, ...], float]]:
        """Yield ``(coords, value)`` in lexicographic order by walking
        the level tree — the reference traversal of Section 2.3."""

        def walk(level_no: int, parent_pos: int, prefix: tuple[int, ...]):
            level = self.levels[level_no]
            for coord, pos in level.iter_fiber(parent_pos):
                coords = prefix + (coord,)
                if level_no == self.ndim - 1:
                    yield coords, float(self.vals[pos])
                else:
                    yield from walk(level_no + 1, pos, coords)

        if self.ndim:
            yield from walk(0, 0, ())

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        for coords, val in self.iter_nonzeros():
            dense[coords] += val
        return dense

    def __repr__(self) -> str:
        return (
            f"LevelTensor(shape={self.shape}, "
            f"format={'/'.join(self.format_spec())}, nnz={self.nnz})"
        )


def build_level_tensor(coo, spec: Sequence[str]) -> LevelTensor:
    """Build a :class:`LevelTensor` with the given per-dimension level
    kinds from a :class:`~repro.formats.coo.CooTensor`.

    Supported kinds: ``dense``, ``compressed``, ``compressed_nonunique``
    and ``singleton``.  ``compressed_nonunique`` keeps duplicate
    coordinates (one entry per stored non-zero) — it is the root level of
    COO-style formats, whose trailing dimensions are ``singleton`` levels
    holding exactly one coordinate per parent position.
    """
    spec = tuple(spec)
    if len(spec) != coo.ndim:
        raise FormatError("spec must name one level kind per dimension")
    known = ("dense", "compressed", "compressed_nonunique", "singleton")
    for kind in spec:
        if kind not in known:
            raise FormatError(f"unknown level kind {kind!r}")

    coords = [np.asarray(c) for c in coo.coords]
    vals = np.asarray(coo.values)
    levels: list[Level] = []
    # `parent_id` assigns each stored nonzero to its parent fiber at the
    # level currently being built.
    parent_id = np.zeros(vals.size, dtype=np.int64)
    num_parents = 1

    for dim, kind in enumerate(spec):
        extent = coo.shape[dim]
        c = coords[dim]
        if kind == "dense":
            levels.append(DenseLevel(extent, num_parents))
            parent_id = parent_id * extent + c
            num_parents *= extent
        elif kind == "singleton":
            if dim == 0 or spec[dim - 1] == "dense":
                raise FormatError(
                    "singleton level requires a compressed/singleton parent"
                )
            if num_parents != vals.size:
                raise FormatError(
                    "singleton level requires one parent position per "
                    "stored non-zero (use compressed_nonunique above it)"
                )
            levels.append(SingletonLevel(c))
            # one child per parent position: ids stay distinct per nnz
            parent_id = np.arange(vals.size, dtype=np.int64)
            num_parents = vals.size
        elif kind == "compressed_nonunique":
            ptrs = ptrs_from_ids(parent_id, num_parents)
            levels.append(CompressedLevel(ptrs, c.copy()))
            parent_id = np.arange(vals.size, dtype=np.int64)
            num_parents = vals.size
        else:  # compressed
            # Group consecutive nonzeros sharing (parent_id, coordinate).
            if vals.size:
                key_change = np.concatenate(
                    ([True],
                     (parent_id[1:] != parent_id[:-1]) | (c[1:] != c[:-1]))
                )
            else:
                key_change = np.zeros(0, dtype=bool)
            node_of_nnz = np.cumsum(key_change) - 1 if vals.size else parent_id
            node_firsts = np.flatnonzero(key_change)
            idxs = c[node_firsts] if vals.size else np.zeros(0, dtype=np.int64)
            node_parents = parent_id[node_firsts] if vals.size else node_firsts
            ptrs = ptrs_from_ids(node_parents, num_parents)
            levels.append(CompressedLevel(ptrs, idxs))
            parent_id = node_of_nnz
            num_parents = idxs.size

    # Accumulate duplicate leaves (can only happen if the last level is
    # dense — compressed/singleton leaves are already unique per parent).
    leaf_positions = (
        levels[-1].num_positions() if levels else 0
    )
    out_vals = np.zeros(leaf_positions, dtype=np.float64)
    if vals.size:
        np.add.at(out_vals, parent_id, vals)
    return LevelTensor(coo.shape, levels, out_vals)
