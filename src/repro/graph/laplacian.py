"""Matrix assembly: adjacency ``A``, degree ``D`` and Laplacian ``Q = D - A``.

These are the matrices of Section 1.1 of the paper.  All are returned as
scipy sparse matrices suitable for the Lanczos / eigsh solvers in
:mod:`repro.spectral`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

if TYPE_CHECKING:  # pragma: no cover
    from .graph import Graph

__all__ = [
    "adjacency_matrix",
    "degree_matrix",
    "laplacian_matrix",
    "negated_laplacian",
]


def adjacency_matrix(g: "Graph") -> sp.csr_matrix:
    """The symmetric weighted adjacency matrix ``A`` of ``g`` (CSR).

    Assembled directly from :meth:`Graph.csr_arrays` (installed by the
    intersection build, or built from the adjacency lists on first
    use), with no COO intermediate: rows complete, columns sorted,
    float64 values.
    """
    n = g.num_vertices
    indptr, indices, data = g.csr_arrays()
    return sp.csr_matrix((data, indices, indptr), shape=(n, n), copy=False)


def degree_matrix(g: "Graph") -> sp.csr_matrix:
    """The diagonal matrix ``D`` with ``D_ii = d(v_i)`` (CSR)."""
    return sp.diags(
        np.asarray(g.degrees(), dtype=float), format="csr"
    )


def laplacian_matrix(g: "Graph") -> sp.csr_matrix:
    """The Laplacian ``Q = D - A`` used throughout the paper.

    ``Q`` is symmetric positive semidefinite; its smallest eigenvalue is 0
    with eigenvector ``(1, 1, ..., 1)/sqrt(n)``, and its second-smallest
    eigenvalue bounds the optimal ratio cut from below (Theorem 1).
    """
    return (degree_matrix(g) - adjacency_matrix(g)).tocsr()


def negated_laplacian(g: "Graph") -> sp.csr_matrix:
    """``-Q = A - D``, whose *largest* eigenvalues the Lanczos code targets.

    The paper computes the second-largest eigenpair of ``A - D`` because
    Kaniel–Paige–Saad theory shows Lanczos converges faster to extreme
    (largest) eigenvalues; negating gives the second-smallest pair of
    ``Q``.
    """
    return (adjacency_matrix(g) - degree_matrix(g)).tocsr()
