"""Synthetic input generators reproducing Table 6's workload suite.

The paper evaluates six SuiteSparse matrices (M1–M6) and four FROSTT
tensors (T1–T4).  Distributing those datasets is impractical here, so
:mod:`repro.generators.matrices` and :mod:`repro.generators.tensors`
synthesize structurally equivalent inputs: same domain flavour (banded
FEM, 3-D stencil, power-law circuit, road network, ...), matching
nnz-per-row statistics, scaled to a size a pure-Python simulation can
traverse.  :mod:`repro.generators.suite` registers them under the
paper's M*/T* names.
"""

from .matrices import (
    banded_matrix,
    fixed_nnz_per_row_matrix,
    power_law_matrix,
    road_network_matrix,
    stencil_3d_matrix,
    uniform_random_matrix,
)
from .tensors import clustered_tensor, uniform_random_tensor
from .suite import (
    InputSpec,
    MATRIX_SUITE,
    TENSOR_SUITE,
    load_matrix,
    load_tensor,
    matrix_ids,
    tensor_ids,
)

__all__ = [
    "banded_matrix",
    "fixed_nnz_per_row_matrix",
    "power_law_matrix",
    "road_network_matrix",
    "stencil_3d_matrix",
    "uniform_random_matrix",
    "clustered_tensor",
    "uniform_random_tensor",
    "InputSpec",
    "MATRIX_SUITE",
    "TENSOR_SUITE",
    "load_matrix",
    "load_tensor",
    "matrix_ids",
    "tensor_ids",
]
