"""Sparse reference solvers, independent of the Bloch path the package takes.

The package solves every operator exactly by its Bloch blocks, so it needs no
sparse matrices and no ARPACK.  These two helpers give the tests (acceptance
criterion 4 among them) a reference that shares none of that code: the full
lattice as a scipy CSR matrix and its smallest-magnitude eigenvalues by
shift-invert ARPACK.
"""

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

import patchtooth as pt


def full_lattice_operator_2d_sparse(profile, shape, spacing=(1.0, 1.0)):
    """Sparse CSR variant of full_lattice_operator_2d for large lattices.

    The CSR matrix holds the stored entries of the operator, built in O(nnz)
    time and memory; no dense matrix is formed.
    """
    op = pt.full_lattice_operator_2d(profile, shape, spacing)
    rows, cols, values = op.triplets()
    return scipy.sparse.csr_matrix((values, (rows, cols)), shape=(op.dimension,) * 2)


def smallest_magnitude_eigenvalues(matrix, count: int):
    """Smallest-|lambda| eigenvalues of a large sparse symmetric operator.

    Shift-invert about sigma = 0.1, which for a negative semidefinite
    operator is never an eigenvalue, so the factorisation is always
    nonsingular (sigma = 0 would hit the constant kernel mode).  ARPACK
    starts from a seeded random vector, so repeated calls agree bit for bit;
    the ones vector would not do, as it spans the kernel, an invariant
    subspace.
    """
    start = np.random.default_rng(0).standard_normal(matrix.shape[0])
    vals = scipy.sparse.linalg.eigsh(
        matrix, k=count, sigma=0.1, which="LM", v0=start, return_eigenvectors=False
    )
    return vals[np.argsort(np.abs(vals), kind="stable")]
