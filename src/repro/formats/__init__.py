"""Sparse tensor storage formats.

This package implements the storage substrate of the paper:

* :mod:`repro.formats.coo` — Coordinate format (Figure 1a).
* :mod:`repro.formats.csr` — Compressed Sparse Row (Figure 1b).
* :mod:`repro.formats.dcsr` — Doubly-Compressed Sparse Row (Figure 1c).
* :mod:`repro.formats.csf` — Compressed Sparse Fiber for order-n tensors.
* :mod:`repro.formats.convert` — conversions from COO into the others
  (and CSR back to COO).
"""

from .coo import CooMatrix, CooTensor
from .csf import CsfTensor
from .csr import CsrMatrix
from .dcsr import DcsrMatrix
from .convert import (
    coo_to_csf,
    coo_to_csr,
    coo_to_dcsr,
    csr_to_coo,
)

__all__ = [
    "CooMatrix",
    "CooTensor",
    "CsfTensor",
    "CsrMatrix",
    "DcsrMatrix",
    "coo_to_csr",
    "coo_to_dcsr",
    "coo_to_csf",
    "csr_to_coo",
]
