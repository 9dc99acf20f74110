"""Reference solvers, independent of the paths the package takes.

The package solves every operator exactly by its Bloch blocks, so it needs no
sparse matrices and no ARPACK.  Two helpers give the tests (acceptance
criterion 4 among them) a reference that shares none of that code: the full
lattice as a scipy CSR matrix and its smallest-magnitude eigenvalues by
shift-invert ARPACK.

_refined_eigh and _bloch_eigh are the symmetric Bloch solve as it was when
it read every block densely in extended precision: it forms the Hermitian
part of each whole block from assembly._bloch_batches and takes each slow
quotient with a dense extended precision matmul.  The package forms it on
the stored pairs only and must agree with this bit for bit.

bloch_entries_dft sums the Bloch entries of the stored pairs directly from
the first block row, in extended precision, without the FFT and without the
patch-local shortcut of assembly._bloch_entry_batch.

matvec is the product A x gathered over every patch, the reference for the
first-block-row sums of assembly._kernel_residual; the package forms no
global product.  rk4_extended is the plain RK4 step loop on such gathered
products in extended precision, the reference for timestep.evolve_rk4.
spectral_radius is max |eigvals| of the dense matrix, the reference for the
row-sum bound of assembly._row_sum_bound.

quartic_coefficient reads K4 off the slow branch of the 1D symbol in 60-digit
arithmetic, without the Taylor series the package sums.
"""

import math

import mpmath
import numpy as np
import scipy.sparse
import scipy.sparse.linalg

import patchtooth as pt
from patchtooth.assembly import (
    _batch_blocks,
    _bloch_batches,
    _blocking,
    _orbits,
    _patch_sum,
    _state_layout,
)
from patchtooth.spectra import _slow_vector


def full_lattice_operator_2d_sparse(profile, shape, spacing=(1.0, 1.0)):
    """Sparse CSR variant of full_lattice_operator_2d for large lattices.

    The CSR matrix holds the stored entries of the operator, built in O(nnz)
    time and memory; no dense matrix is formed.
    """
    op = pt.full_lattice_operator_2d(profile, shape, spacing)
    rows, cols, values = op.triplets()
    return scipy.sparse.csr_matrix((values, (rows, cols)), shape=(op.dimension,) * 2)


def matvec(op, x) -> np.ndarray:
    """The product A x, gathered over the patch index: O(nnz) work."""
    layout = _state_layout(op.layout)
    k = layout.patch_axes
    patches, b, _ = _blocking(layout)
    K = math.prod(patches)
    # one row per patch, indexed by (member, local point) like the blocks
    X = np.moveaxis(np.asarray(x, dtype=float).reshape(layout.shape), 0, k).reshape(K, b)
    Y = np.zeros_like(X)
    targets, starts = np.unique(op.rows, return_index=True)
    chunk = max(1, 2**20 // max(op.values.size, 1))
    for start in range(0, K, chunk):
        P = np.arange(start, min(start + chunk, K))[:, None]
        gathered = X[_patch_sum(P, op.offsets, patches), op.cols] * op.values
        Y[start : start + chunk, targets] = np.add.reduceat(gathered, starts, axis=1)
    Y = Y.reshape(patches + (layout.members,) + layout.shape[1 + k :])
    return np.moveaxis(Y, k, 0).ravel()


def spectral_radius(op) -> float:
    """The largest eigenvalue magnitude of the dense matrix: O(dim^3) work."""
    return float(np.max(np.abs(np.linalg.eigvals(op.matrix)), initial=0.0))


def rk4_extended(op, u0, dt: float, steps: int, stride: int = 1) -> np.ndarray:
    """The initial state and every stride-th state of the plain RK4 step loop
    in extended precision (np.longdouble), four products A x per step
    gathered over the global triplets; no Bloch block is formed."""
    rows, cols, values = op.triplets()
    order = np.argsort(rows, kind="stable")
    rows, cols = rows[order], cols[order]
    values = values[order].astype(np.longdouble)
    targets, starts = np.unique(rows, return_index=True)

    def apply(x):
        y = np.zeros_like(x)
        y[targets] = np.add.reduceat(values * x[cols], starts)
        return y

    u, h = np.asarray(u0, dtype=np.longdouble), np.longdouble(dt)
    states = [u]
    for step in range(1, steps + 1):
        k1 = apply(u)
        k2 = apply(u + h / 2 * k1)
        k3 = apply(u + h / 2 * k2)
        k4 = apply(u + h * k3)
        u = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if step % stride == 0:
            states.append(u)
    return np.array(states)


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


def _refined_eigh(H: np.ndarray, vectors: bool):
    """Eigenvalues of a stack of Hermitian blocks of one slow mode each, that mode refined.

    H is (k, b, b) in extended precision.  Returns (w, V, slow) of shapes
    (k, b), (k, b, b) and (k, 1): the eigenvalues of a double precision
    eigvalsh, or of eigh with its eigenvectors V when `vectors` (else V is
    None), with the eigenvalue of smallest magnitude, at the index `slow`,
    replaced by the Rayleigh quotient of its eigenvector against H.  That
    eigenvector is eigh's own, or from _slow_vector, O(b^3) work less than
    eigh's eigenvectors.  Such a quotient's error is quadratic in the
    eigenvector error, so the slow macro mode, a small difference of
    O(1/d^2) entries, keeps its relative accuracy instead of an absolute
    error of eps * ||H||.  The fast modes are microscale modes of magnitude
    at least about ||H|| / n^2, where that error is already a small
    relative one: refining them would cost O(b^3) extended precision work
    per block for no accuracy that matters.
    """
    Hd = H.astype(complex)
    w, V = np.linalg.eigh(Hd) if vectors else (np.linalg.eigvalsh(Hd), None)
    slow = np.argsort(np.abs(w), axis=1, kind="stable")[:, :1]
    # _slow_vector shifts Hd in place; nothing reads it after eigvalsh
    Vs = np.take_along_axis(V, slow[:, None, :], axis=2) if vectors else _slow_vector(Hd, w, slow)
    # the diagonal of Vs^H H Vs; the matmul sums each quotient in row order
    rayleigh = np.diagonal(Vs.conj().swapaxes(1, 2) @ (H @ Vs), axis1=1, axis2=2)
    np.put_along_axis(w, slow, rayleigh.real.astype(float), axis=1)
    return w, V, slow


def _bloch_eigh(op, select=None, vectors: bool = False):
    """_refined_eigh of the Hermitian parts of the Bloch blocks, one batch at a time.

    Each block is split into its g member orbits (assembly._orbits), g
    blocks of size m = b / g with one slow mode each.  Yields (w, V, slow)
    for each batch of k of the blocks of assembly._bloch_batches that
    `select` names (all of them if None), assembly._batch_blocks(b) at a
    time: w (k, b) holds each block's eigenvalues orbit by orbit, V the
    (k * g, m, m) eigenvectors of the orbit blocks when `vectors` (else
    None), and slow the (k, g) indices into w of the orbits' slow modes in
    ascending magnitude.  The Hermitian part
    0.5 (B + B^H) of each block B is formed in place on the blocks that
    _bloch_batches hands over, bit for bit as that expression forms it.
    """
    orbits = _orbits(op)
    g, m = orbits.shape
    blocks = np.concatenate(list(_bloch_batches(op)))
    blocks = blocks if select is None else blocks[select]
    step = _batch_blocks(g * m)
    for start in range(0, len(blocks), step):
        H = blocks[start : start + step]
        H += H.conj().swapaxes(1, 2)
        H *= 0.5
        k = H.shape[0]
        if g > 1:
            H = H[:, orbits[:, :, None], orbits[:, None, :]].reshape(k * g, m, m)
        w, V, slow = _refined_eigh(H, vectors)
        w, slow = w.reshape(k, g * m), slow.reshape(k, g) + m * np.arange(g)
        order = np.argsort(np.abs(np.take_along_axis(w, slow, axis=1)), axis=1, kind="stable")
        yield w, V, np.take_along_axis(slow, order, axis=1)


def bloch_entries_dft(op, select=None):
    """H(j)[row, col] = sum_m A[0, m] exp(+2 pi i j.m / N) at every stored pair.

    A direct DFT of the stored first block row in np.longdouble: each
    entry's phase j.m / N is reduced exactly, as the integer sum over the
    patch axes of (j_a m_a mod N_a) K / N_a taken mod K for K patches, and
    folded into [-K/2, K/2) before it becomes an angle.  j runs over the half
    spectrum of rfftn (the last patch axis halved), C order, or over the
    `select`ed indices into it.  Returns the sorted pair indices row * b + col
    and the entries, (blocks, pairs).
    """
    k = op.layout.patch_axes
    patches = op.layout.shape[1 : 1 + k]
    K = math.prod(patches)
    b = op.dimension // K
    pairs, pair = np.unique(op.rows * b + op.cols, return_inverse=True)
    half = patches[:-1] + (patches[-1] // 2 + 1,)
    j = np.indices(half).reshape(k, -1)
    if select is not None:
        j = j[:, select]
    m = np.unravel_index(op.offsets, patches)
    turns = sum(
        (j_a[:, None] * m_a[None, :]) % N_a * (K // N_a) for j_a, m_a, N_a in zip(j, m, patches)
    ) % K
    turns = np.where(2 * turns >= K, turns - K, turns)
    angle = 8 * np.arctan(np.longdouble(1)) * turns.astype(np.longdouble) / K
    terms = op.values.astype(np.longdouble) * (np.cos(angle) + 1j * np.sin(angle))
    entries = np.zeros((j.shape[1], pairs.size), dtype=np.clongdouble)
    np.add.at(entries, (slice(None), pair), terms)
    return pairs, entries


def quartic_coefficient(values, dps: int = 60) -> float:
    """K4 of lambda(k) = -K2 k^2 + K4 k^4 + O(k^6) for the 1D diffusivities `values`.

    The symbol of the homogenize module docstring is built entry by entry in
    mpmath at `dps` digits, and its largest eigenvalue, the slow branch,
    taken at k = 1e-4 and 2e-4.  f(k) = (lambda(k) + K2 k^2) / k^4 is
    K4 + O(k^2), and the Richardson step (4 f(k) - f(2k)) / 3 leaves an
    O(k^4) = 1e-16 relative remainder.
    """
    with mpmath.workdps(dps):
        v = [mpmath.mpf(float(x)) for x in values]
        p = len(v)
        K2 = p / sum(1 / x for x in v)

        def f(k):
            A = mpmath.zeros(p, p)
            for l in range(p):
                A[l, (l + 1) % p] += v[l] * mpmath.expj(k)
                A[l, (l - 1) % p] += v[(l - 1) % p] * mpmath.expj(-k)
                A[l, l] -= v[l] + v[(l - 1) % p]
            return (max(mpmath.eighe(A, eigvals_only=True)) + K2 * k**2) / k**4

        k = mpmath.mpf("1e-4")
        return float((4 * f(k) - f(2 * k)) / 3)
