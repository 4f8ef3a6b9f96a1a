"""The functional oracle of every Table 4 kernel: the einsum it implements.

Table 4 writes each kernel as one einsum, or a sum of them: SpMV is
``ij,j->i``, SpTC is ``ikl,lkj->ij``, and SpKAdd sums K matrices.  A TMU
program is checked directly against that einsum, evaluated by
``np.einsum`` over ``to_dense()`` of small operands, the way SAM and
TeAAL check a dataflow against the expression it implements.

Operand values are small positive integers stored as float64
(:func:`small_ints`, :func:`with_small_ints`).  Every product and partial
sum of them is an integer far below 2**53, so every summation order gives
the same float and nothing cancels: each check against the oracle is
``np.array_equal``, and the einsum's non-zeros are exactly the structural
ones.
"""

from __future__ import annotations

import numpy as np

from repro.formats.coo import CooTensor
from repro.formats.csf import CsfTensor
from repro.formats.csr import CsrMatrix

#: operand values are drawn from ``1..MAX_VALUE``
MAX_VALUE = 8


def small_ints(rng: np.random.Generator, size) -> np.ndarray:
    """Integers in ``1..MAX_VALUE`` as float64.

    They scale ``rng.random(size)``, so they consume the same draws:
    swapping them in for ``rng.random`` leaves every later draw as it was.
    """
    return np.floor(rng.random(size) * MAX_VALUE) + 1.0


def _revalued(x, vals: np.ndarray):
    """``x`` with its pattern kept and its stored values replaced."""
    if isinstance(x, CsrMatrix):
        return CsrMatrix(x.shape, x.ptrs, x.idxs, vals, validate=False)
    if isinstance(x, CsfTensor):
        return CsfTensor(x.shape, x.ptrs, x.idxs, vals, validate=False)
    if isinstance(x, CooTensor):
        return CooTensor(
            x.shape, x.coords, vals, sum_duplicates=False, assume_sorted=True
        )
    raise TypeError(f"no sparse operand: {type(x).__name__}")


def with_small_ints(x, seed: int = 0):
    """Sparse operand ``x`` with its pattern kept and :func:`small_ints`
    as its values."""
    return _revalued(x, small_ints(np.random.default_rng(seed), x.nnz))


def pattern(x):
    """Sparse operand ``x`` with every stored entry 1: the indicator of its
    structure, whatever its values."""
    return _revalued(x, np.ones(x.nnz))


def sparse_vector(
    rng: np.random.Generator, size: int, nnz: int
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """A sparse vector of length ``size`` as ``(idxs, vals)`` (sorted
    distinct coordinates, :func:`small_ints` values) and its dense view."""
    idxs = np.sort(rng.choice(size, nnz, replace=False))
    vals = small_ints(rng, nnz)
    dense = np.zeros(size)
    dense[idxs] = vals
    return (idxs, vals), dense


def _dense(x) -> np.ndarray:
    return x.to_dense() if hasattr(x, "to_dense") else np.asarray(x)


def einsum(spec: str, *operands) -> np.ndarray:
    """``np.einsum(spec)`` over dense views of the operands (``to_dense()``
    of the sparse ones)."""
    return np.einsum(spec, *(_dense(x) for x in operands))


def pattern_counts(spec: str, *operands) -> np.ndarray:
    """Per-row non-zero counts of the einsum over the operands' patterns
    (every stored entry as 1): the output sizes a symbolic phase finds
    (SpMSpM, SpTC).  A row is a value of the output's first index."""
    product = einsum(spec, *(pattern(x) for x in operands))
    return np.count_nonzero(product.reshape(product.shape[0], -1), axis=1)


def map_matches(out: dict, ref: np.ndarray) -> bool:
    """Whether a ``coordinate -> value`` map (SpTTV's and SpTTM's
    semi-sparse outputs) holds exactly ``ref``'s non-zero fibers, each with
    ``ref``'s value.  A key indexes ``ref``'s leading axes; its value is a
    scalar or the row along the remaining axes."""
    if not out:
        return not ref.any()
    key_axes = len(next(iter(out)))
    held = ref.any(axis=tuple(range(key_axes, ref.ndim)))
    if set(out) != set(zip(*np.nonzero(held))):
        return False
    return all(np.array_equal(val, ref[key]) for key, val in out.items())
