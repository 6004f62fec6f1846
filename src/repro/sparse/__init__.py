"""Sparse-matrix substrate.

The paper's entire argument about absolute convergence rests on the cost of
index-compressed sparse updates versus dense vector updates, so the library
implements its own compact CSR container (:class:`~repro.sparse.csr.CSRMatrix`)
plus the handful of index-compressed kernels (:mod:`repro.sparse.ops`) that
the solvers build on; it depends on NumPy alone.
"""

from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import sparse_norm_sq
from repro.sparse.io import load_libsvm, save_libsvm, parse_libsvm_line
from repro.sparse.stats import DatasetStats, gradient_sparsity, psi, rho, describe_dataset

__all__ = [
    "CSRMatrix",
    "sparse_norm_sq",
    "load_libsvm",
    "save_libsvm",
    "parse_libsvm_line",
    "DatasetStats",
    "gradient_sparsity",
    "psi",
    "rho",
    "describe_dataset",
]
