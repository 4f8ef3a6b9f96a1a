"""The evaluated workload registry (paper Section 6).

Each :class:`Workload` couples one kernel's software-baseline
characterization with its TMU workload model so experiments can run
``baseline``, ``tmu``, ``single-lane`` and ``imp`` variants uniformly.
Figures that reuse the same cell get it from the experiment runtime's
result cache (:mod:`repro.runtime`), not from a memo here.

Workload categories follow the paper's grouping:

* memory-intensive: SpMV, PR, MTTKRP (both schemes), CP-ALS
* compute-intensive: SpMSpM
* merge-intensive: SpKAdd, TC, SpTC
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..config import MachineConfig
from ..errors import WorkloadError
from ..formats.coo import CooTensor
from ..formats.convert import coo_to_csf
from ..generators.suite import load_matrix, load_tensor, matrix_ids, \
    tensor_ids
from ..kernels import split_rows_cyclic
from ..kernels.common import operand_memo
from ..kernels.cpals import characterize_cpals
from ..kernels.mttkrp import characterize_mttkrp
from ..kernels.pagerank import characterize_pagerank
from ..kernels.spadd import characterize_spadd
from ..kernels.spkadd import characterize_spkadd
from ..kernels.spmspm import characterize_spmspm
from ..kernels.spmv import characterize_spmv
from ..kernels.sptc import characterize_sptc
from ..kernels.triangle import characterize_triangle, lower_triangle
from ..programs.cpals import cpals_runs
from ..programs import (
    cpals_timing_model,
    mttkrp_timing_model,
    pagerank_timing_model,
    spkadd_timing_model,
    spmspm_timing_model,
    spmv_timing_model,
    sptc_timing_model,
    triangle_timing_model,
)
from ..sim.machine import (
    SystemResult,
    run_baseline,
    run_imp,
    run_single_lane,
    run_tmu,
)
from ..sim.trace import KernelTrace

#: K of the SpKAdd kernel (Section 6: k=8)
SPKADD_K = 8

#: factor-matrix rank for MTTKRP/CP-ALS
FACTOR_RANK = 16


def as_order3(tensor: CooTensor) -> CooTensor:
    """Fold trailing modes so order-n tensors fit the order-3 kernels
    (mode folding is standard practice for MTTKRP evaluations).

    Folded coordinates are relabeled densely — only composite
    coordinates that actually occur get an index — so the folded mode's
    extent stays proportional to the data (a factor matrix over the raw
    cartesian product would be absurd, and real pipelines re-index the
    same way)."""
    if tensor.ndim == 3:
        return tensor
    if tensor.ndim < 3:
        raise WorkloadError("tensor kernels need at least 3 modes")
    rest = tensor.coords[2].copy()
    for d in range(3, tensor.ndim):
        rest = rest * tensor.shape[d] + tensor.coords[d]
    uniq, dense = np.unique(rest, return_inverse=True)
    extent = int(uniq.size) if uniq.size else 1
    # Folding trailing modes of a sorted, duplicate-free tensor keeps it
    # sorted and duplicate-free: the row-major fold and the dense
    # relabeling are both monotone and one-to-one.
    return CooTensor(
        (tensor.shape[0], tensor.shape[1], extent),
        [tensor.coords[0], tensor.coords[1], dense],
        tensor.values,
        assume_sorted=True,
        sum_duplicates=False,
    )


@dataclass(frozen=True)
class Workload:
    """One evaluated kernel: its input kind, intensity category, and
    builder callables."""

    id: str
    label: str
    category: str                 # memory / compute / merge
    input_kind: str               # matrix / tensor
    baseline: Callable[[object, MachineConfig], KernelTrace]
    #: ``None`` for a kernel without a TMU mapping
    tmu_model: Callable[[object, MachineConfig], object] | None
    #: whether the kernel relies on merging (Single-Lane/IMP excluded)
    needs_merge: bool = False
    #: optional composite runner returning (baseline, tmu) directly
    #: (multi-phase applications like CP-ALS)
    composite: Callable[[object, MachineConfig], tuple] | None = None
    #: optional derivation of the kernel operand from the loaded input,
    #: run once per cell: both halves take the same operand, and it
    #: (with everything the operand memo built from it) leaves with
    #: the cell instead of living as long as the input
    operand: Callable[[object], object] | None = None

    @property
    def variants(self) -> tuple[str, ...]:
        """The system variants :func:`run_workload` can produce: a
        composite gives its (baseline, TMU) pair only, and a kernel
        without a TMU mapping has no TMU-side variant."""
        if self.composite is not None:
            return ("baseline", "tmu")
        if self.tmu_model is None:
            return ("baseline", "imp")
        return ("baseline", "tmu", "single_lane", "imp")


# Derived operands, built once per input: architecture sweeps
# (Figure 14) rebuild the same operands dozens of times otherwise.
_transposed = operand_memo(lambda a: a.transpose())
_lower = operand_memo(lower_triangle)
_csf_ikl = operand_memo(coo_to_csf)
_csf_lki = operand_memo(lambda t: coo_to_csf(t, mode_order=(2, 1, 0)))
# Folding an order-n tensor builds a fresh object; memoizing it keeps
# input identity stable across cells, so the operand memo shares
# derived operands and streams between them.  ``as_order3`` is looked
# up per fold, so a profiler's wrapper of it sees every fold.
_order3 = operand_memo(lambda t: as_order3(t))


def _split(a):
    """SpKAdd's K inputs.  Split per cell (``Workload.operand``), not
    memoized: their streams are as large as the split itself, and a
    split held per input would keep both."""
    return split_rows_cyclic(a, SPKADD_K)


WORKLOADS: dict[str, Workload] = {
    "spmv": Workload(
        "spmv", "SpMV", "memory", "matrix",
        baseline=lambda a, m: characterize_spmv(a, m),
        tmu_model=lambda a, m: spmv_timing_model(a, m),
    ),
    "spmspm": Workload(
        "spmspm", "SpMSpM", "compute", "matrix",
        baseline=lambda a, m: characterize_spmspm(a, _transposed(a), m),
        tmu_model=lambda a, m: spmspm_timing_model(a, _transposed(a), m),
    ),
    "spkadd": Workload(
        "spkadd", "SpKAdd", "merge", "matrix",
        baseline=lambda ms, m: characterize_spkadd(ms, m),
        tmu_model=lambda ms, m: spkadd_timing_model(ms, m),
        needs_merge=True,
        operand=lambda a: _split(a),
    ),
    "pr": Workload(
        "pr", "PR", "memory", "matrix",
        baseline=lambda a, m: characterize_pagerank(a, m),
        tmu_model=lambda a, m: pagerank_timing_model(a, m),
    ),
    "tc": Workload(
        "tc", "TC", "merge", "matrix",
        baseline=lambda a, m: characterize_triangle(_lower(a), m),
        tmu_model=lambda a, m: triangle_timing_model(_lower(a), m),
        needs_merge=True,
    ),
    "mttkrp_mp": Workload(
        "mttkrp_mp", "MTTKRP_MP", "memory", "tensor",
        baseline=lambda t, m: characterize_mttkrp(t, FACTOR_RANK, m,
                                                  "mode"),
        tmu_model=lambda t, m: mttkrp_timing_model(t, FACTOR_RANK, m,
                                                   parallel="mode"),
    ),
    "mttkrp_cp": Workload(
        "mttkrp_cp", "MTTKRP_CP", "memory", "tensor",
        baseline=lambda t, m: characterize_mttkrp(t, FACTOR_RANK, m,
                                                  "rank"),
        tmu_model=lambda t, m: mttkrp_timing_model(t, FACTOR_RANK, m,
                                                   parallel="rank"),
    ),
    "cpals": Workload(
        "cpals", "CP-ALS", "memory", "tensor",
        baseline=lambda t, m: characterize_cpals(t, FACTOR_RANK, m),
        tmu_model=lambda t, m: cpals_timing_model(t, FACTOR_RANK, m),
        composite=lambda t, m: cpals_runs(t, FACTOR_RANK, m),
    ),
    "sptc": Workload(
        "sptc", "SpTC", "merge", "tensor",
        baseline=lambda t, m: characterize_sptc(
            _csf_ikl(t), _csf_lki(t), m),
        tmu_model=lambda t, m: sptc_timing_model(
            _csf_ikl(t), _csf_lki(t), m),
        needs_merge=True,
    ),
    # SpAdd appears only in the Figure 3 motivation study.
    "spadd": Workload(
        "spadd", "SpAdd", "merge", "matrix",
        baseline=lambda a, m: characterize_spadd(a, _transposed(a), m),
        tmu_model=None,
        needs_merge=True,
    ),
}


def _spec(workload_id: str) -> Workload:
    if workload_id not in WORKLOADS:
        raise WorkloadError(
            f"unknown workload {workload_id!r}; known: {sorted(WORKLOADS)}"
        )
    return WORKLOADS[workload_id]


def inputs_for(workload_id: str) -> list[str]:
    spec = _spec(workload_id)
    return matrix_ids() if spec.input_kind == "matrix" else tensor_ids()


def check_variants(workload_id: str, variants) -> None:
    """Raise :class:`WorkloadError` unless the workload can produce
    every one of ``variants``."""
    spec = _spec(workload_id)
    missing = sorted(set(variants) - set(spec.variants))
    if missing:
        raise WorkloadError(
            f"workload {workload_id!r} cannot produce variants {missing}; "
            f"it produces {list(spec.variants)}")


@dataclass
class WorkloadRun:
    """All system variants of one (workload, input) pair."""

    workload: str
    input_id: str
    baseline: SystemResult
    tmu: SystemResult | None = None
    single_lane: SystemResult | None = None
    imp: SystemResult | None = None

    @property
    def speedup(self) -> float:
        return self.baseline.cycles / self.tmu.cycles if self.tmu else 0.0


def _load_input(spec: Workload, input_id: str, scale: str):
    if spec.input_kind == "matrix":
        data = load_matrix(input_id, scale)
    else:
        data = _order3(load_tensor(input_id, scale))
    return data if spec.operand is None else spec.operand(data)


def run_workload(workload_id: str, input_id: str,
                 machine: MachineConfig, scale: str = "small", *,
                 variants: tuple[str, ...] = ("baseline", "tmu"),
                 ) -> WorkloadRun:
    """Run one workload on one input under one machine.

    ``variants`` selects which systems to evaluate: ``baseline``,
    ``tmu``, ``single_lane``, ``imp``.  A variant the workload cannot
    produce (:attr:`Workload.variants`) raises :class:`WorkloadError`.
    """
    check_variants(workload_id, variants)
    spec = WORKLOADS[workload_id]
    data = _load_input(spec, input_id, scale)
    if spec.composite is not None:
        base, tmu = spec.composite(data, machine)
        run = WorkloadRun(workload=workload_id, input_id=input_id,
                          baseline=base)
        if "tmu" in variants:
            run.tmu = tmu
        return run
    trace = spec.baseline(data, machine)
    run = WorkloadRun(
        workload=workload_id,
        input_id=input_id,
        baseline=run_baseline(trace, machine),
    )
    model = spec.tmu_model(data, machine) if "tmu" in variants or (
        "single_lane" in variants) else None
    if "tmu" in variants:
        run.tmu = run_tmu(model, machine)
    if "single_lane" in variants:
        run.single_lane = run_single_lane(model, machine)
    if "imp" in variants:
        run.imp = run_imp(trace, machine)
    return run
