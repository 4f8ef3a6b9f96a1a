"""Synthetic sparse matrix generators.

Each generator mimics the structure of one SuiteSparse *domain* the
paper draws its inputs from (Table 6): banded structural/FEM problems,
3-D fluid-dynamics stencils, power-law circuit netlists, and
low-degree road networks.  What matters for the evaluation is the
nnz-per-row distribution and the column-index locality — both are
reproduced; absolute scale is a free parameter.

All generators are deterministic given ``seed`` and return
:class:`~repro.formats.csr.CsrMatrix`.
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError
from ..formats.coo import CooMatrix
from ..formats.convert import coo_to_csr
from ..formats.csr import CsrMatrix


def _assemble(rows: int, cols: int, r, c, rng) -> CsrMatrix:
    """Clip, dedupe and assemble coordinate lists into CSR with random
    values in [0.5, 1.5) (well-conditioned, away from zero)."""
    r = np.asarray(r, dtype=np.int64)
    c = np.asarray(c, dtype=np.int64)
    keep = (r >= 0) & (r < rows) & (c >= 0) & (c < cols)
    r, c = r[keep], c[keep]
    vals = rng.uniform(0.5, 1.5, size=r.size)
    coo = CooMatrix((rows, cols), r, c, vals)  # sorts + sums duplicates
    return coo_to_csr(coo)


def uniform_random_matrix(rows: int, cols: int, nnz_per_row: float,
                          seed: int = 0) -> CsrMatrix:
    """Erdős–Rényi-style matrix: every position equally likely."""
    if nnz_per_row <= 0:
        raise FormatError("nnz_per_row must be positive")
    rng = np.random.default_rng(seed)
    total = int(rows * nnz_per_row)
    r = rng.integers(0, rows, size=total)
    c = rng.integers(0, cols, size=total)
    return _assemble(rows, cols, r, c, rng)


def banded_matrix(rows: int, nnz_per_row: int, bandwidth: int,
                  seed: int = 0) -> CsrMatrix:
    """FEM/structural-style matrix: non-zeros clustered in a band around
    the diagonal (mimics af_0_k101/halfb/test1)."""
    rng = np.random.default_rng(seed)
    r = np.repeat(np.arange(rows), nnz_per_row)
    offsets = rng.integers(-bandwidth, bandwidth + 1, size=r.size)
    c = np.clip(r + offsets, 0, rows - 1)
    # Always keep the diagonal, like FEM stiffness matrices do.
    r = np.concatenate((r, np.arange(rows)))
    c = np.concatenate((c, np.arange(rows)))
    return _assemble(rows, rows, r, c, rng)


def stencil_3d_matrix(nx: int, ny: int, nz: int, *, points: int = 7,
                      seed: int = 0) -> CsrMatrix:
    """3-D finite-difference stencil on an nx×ny×nz grid (mimics
    atmosmodm: ~7 nnz/row, perfectly regular structure)."""
    if points not in (7, 27):
        raise FormatError("only 7- and 27-point stencils are supported")
    rng = np.random.default_rng(seed)
    n = nx * ny * nz
    x, y, z = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                          indexing="ij")
    x, y, z = x.ravel(), y.ravel(), z.ravel()
    rows_list, cols_list = [], []
    if points == 7:
        neighbourhood = [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0),
                         (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    else:
        neighbourhood = [(dx, dy, dz)
                         for dx in (-1, 0, 1)
                         for dy in (-1, 0, 1)
                         for dz in (-1, 0, 1)]
    for dx, dy, dz in neighbourhood:
        nxx, nyy, nzz = x + dx, y + dy, z + dz
        valid = ((nxx >= 0) & (nxx < nx) & (nyy >= 0) & (nyy < ny)
                 & (nzz >= 0) & (nzz < nz))
        rows_list.append((x * ny * nz + y * nz + z)[valid])
        cols_list.append((nxx * ny * nz + nyy * nz + nzz)[valid])
    r = np.concatenate(rows_list)
    c = np.concatenate(cols_list)
    return _assemble(n, n, r, c, rng)


def power_law_matrix(rows: int, nnz_per_row: float, *, alpha: float = 2.1,
                     max_degree: int | None = None,
                     seed: int = 0) -> CsrMatrix:
    """Scale-free matrix: Zipf-distributed row degrees and
    popularity-skewed column targets (mimics Freescale1 and general
    graph/circuit inputs)."""
    rng = np.random.default_rng(seed)
    if max_degree is None:
        # Bounded hubs: circuit matrices are skewed but not scale-free
        # to the point of quadratic A·Aᵀ blow-up.
        max_degree = max(8, int(nnz_per_row * 8))

    def build(target: float) -> CsrMatrix:
        degrees = np.minimum(rng.zipf(alpha, size=rows), max_degree)
        scale = target / max(degrees.mean(), 1e-9)
        degrees = np.maximum(1, np.minimum(
            max_degree, (degrees * scale).astype(np.int64)))
        r = np.repeat(np.arange(rows), degrees)
        # Column targets: a configuration-model shuffle of the same
        # degree multiset (in-degrees follow the same bounded power law
        # as out-degrees, so neither axis blows A·Aᵀ up), with most
        # endpoints rewired near the source row — circuit netlists are
        # strongly clustered, which is what keeps their scans
        # cache-friendly at any scale.
        c = rng.permutation(r)
        local = rng.random(r.size) < 0.7
        jitter = rng.integers(-200, 201, size=r.size)
        c = np.where(local, np.clip(r + jitter, 0, rows - 1), c)
        return _assemble(rows, rows, r, c, rng)

    # Hub collisions collapse duplicates, so one corrective pass
    # rescales the degree target toward the requested density (capped
    # to avoid runaway hub growth).
    matrix = build(nnz_per_row)
    achieved = matrix.nnz / max(1, rows)
    if achieved < 0.8 * nnz_per_row:
        boost = min(2.5, nnz_per_row / max(achieved, 1e-9))
        matrix = build(nnz_per_row * boost)
    return matrix


def road_network_matrix(rows: int, seed: int = 0) -> CsrMatrix:
    """Road-network-style matrix: ~2 nnz/row, near-diagonal chain plus
    sparse shortcuts (mimics gb_osm)."""
    rng = np.random.default_rng(seed)
    # Chain edges: i -> i+1 and i -> i-1 with high probability.
    fwd = np.arange(rows - 1)
    keep_fwd = rng.random(rows - 1) < 0.85
    r = np.concatenate((fwd[keep_fwd], fwd[keep_fwd] + 1))
    c = np.concatenate((fwd[keep_fwd] + 1, fwd[keep_fwd]))
    # Occasional intersections: short jumps within a neighbourhood.
    n_extra = rows // 5
    src = rng.integers(0, rows, size=n_extra)
    dst = np.clip(src + rng.integers(-64, 65, size=n_extra), 0, rows - 1)
    r = np.concatenate((r, src, dst))
    c = np.concatenate((c, dst, src))
    # OSM node numbering does not follow geography: a third of the
    # edges connect far-apart ids, which is what makes gb_osm's gathers
    # cache-hostile in the paper.
    n_far = rows // 3
    fsrc = rng.integers(0, rows, size=n_far)
    fdst = rng.integers(0, rows, size=n_far)
    r = np.concatenate((r, fsrc, fdst))
    c = np.concatenate((c, fdst, fsrc))
    return _assemble(rows, rows, r, c, rng)


def fixed_nnz_per_row_matrix(rows: int, nnz_per_row: int,
                             seed: int = 0) -> CsrMatrix:
    """Every row stores exactly ``nnz_per_row`` non-zeros at columns
    ``0..nnz_per_row-1`` — the synthetic ceiling matrices of Figure 12c
    ("ideal spatio-temporal locality")."""
    if nnz_per_row < 1:
        raise FormatError("nnz_per_row must be >= 1")
    rng = np.random.default_rng(seed)
    ptrs = np.arange(rows + 1, dtype=np.int64) * nnz_per_row
    idxs = np.tile(np.arange(nnz_per_row, dtype=np.int64), rows)
    vals = rng.uniform(0.5, 1.5, size=rows * nnz_per_row)
    cols = max(rows, nnz_per_row)
    return CsrMatrix((rows, cols), ptrs, idxs, vals, validate=False)
