"""CP-ALS: canonical polyadic tensor decomposition via alternating
least squares (GenTen-style), built on COO MTTKRP.

Each sweep updates every factor matrix in turn::

    A_n ← MTTKRP(X, {A_m}_{m≠n}) · pinv(Π_{m≠n} A_mᵀA_m)

then renormalizes columns into the weight vector λ.  The paper runs
CP-ALS as a *real application*: partial results (factors and Gram
matrices) are consumed between kernels, which is exactly the pattern
near-core acceleration handles and discrete accelerators do not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import MachineConfig
from ..errors import WorkloadError
from ..formats.coo import CooTensor
from ..sim.trace import KernelTrace
from .mttkrp import characterize_mttkrp, mttkrp


@dataclass
class CpDecomposition:
    """Result of a CP-ALS run: ``X ≈ Σ_r λ_r a_r ∘ b_r ∘ c_r``."""

    weights: np.ndarray
    factors: list[np.ndarray]
    fit_history: list[float]


def _normalize_columns(factor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(factor, axis=0)
    norms[norms == 0] = 1.0
    return factor / norms, norms


def cp_als(tensor: CooTensor, rank: int, *, iterations: int = 5,
           seed: int = 0, tolerance: float = 0.0) -> CpDecomposition:
    """Run CP-ALS on an order-3 COO tensor.

    Returns the factor matrices, weights and the fit (1 - relative
    residual) after each sweep.
    """
    if tensor.ndim != 3:
        raise WorkloadError("cp_als reference expects an order-3 tensor")
    if rank < 1:
        raise WorkloadError("rank must be >= 1")
    rng = np.random.default_rng(seed)
    factors = [rng.standard_normal((s, rank)) for s in tensor.shape]
    weights = np.ones(rank)
    norm_x = float(np.linalg.norm(tensor.values))
    fit_history: list[float] = []
    prev_fit = -np.inf

    for _ in range(iterations):
        for mode in range(3):
            others = [m for m in range(3) if m != mode]
            m_mat = mttkrp(tensor, factors[others[0]], factors[others[1]],
                           mode=mode)
            gram = (factors[others[0]].T @ factors[others[0]]) * (
                factors[others[1]].T @ factors[others[1]]
            )
            factor = m_mat @ np.linalg.pinv(gram)
            factor, weights = _normalize_columns(factor)
            factors[mode] = factor
        fit = _fit(tensor, factors, weights, norm_x)
        fit_history.append(fit)
        if tolerance and abs(fit - prev_fit) < tolerance:
            break
        prev_fit = fit
    return CpDecomposition(weights, factors, fit_history)


def _fit(tensor: CooTensor, factors, weights, norm_x: float) -> float:
    """Fit = 1 - ||X - X̂|| / ||X||, evaluated only at stored non-zeros
    plus the factor norms (exact for the residual's cross terms)."""
    a, b, c = factors
    i, k, l = tensor.coords
    approx_at_nnz = np.einsum(
        "r,nr,nr,nr->n", weights, a[i], b[k], c[l]
    )
    # ||X̂||² via the Gram matrices.
    gram = (a.T @ a) * (b.T @ b) * (c.T @ c)
    norm_hat_sq = float(weights @ gram @ weights)
    inner = float(np.dot(tensor.values, approx_at_nnz))
    residual_sq = max(0.0, norm_x ** 2 - 2 * inner + norm_hat_sq)
    return 1.0 - np.sqrt(residual_sq) / norm_x if norm_x else 1.0


def characterize_cpals(tensor: CooTensor, rank: int,
                       machine: MachineConfig) -> KernelTrace:
    """Characterize one CP-ALS sweep: three MTTKRPs (one per mode) plus
    the dense Gram/solve updates, which stay on the core."""
    base = characterize_mttkrp(tensor, rank, machine)
    n_rows = sum(tensor.shape)
    dense_flops = (2.0 * n_rows * rank * rank + 6.0 * rank ** 3
                   + 2.0 * tensor.nnz * rank)
    dense_vec_ops = int(dense_flops / 8)
    return KernelTrace(
        name="cpals",
        scalar_ops=3 * base.scalar_ops,
        vector_ops=3 * base.vector_ops + dense_vec_ops,
        loads=3 * base.loads + dense_vec_ops // 2,
        stores=3 * base.stores + dense_vec_ops // 4,
        branches=3 * base.branches,
        datadep_branches=3 * base.datadep_branches,
        flops=3.0 * base.flops + dense_flops,
        streams=base.streams * 3,
        dependent_load_fraction=base.dependent_load_fraction * 0.8,
        parallel_units=base.parallel_units,
    )
