"""Eigen-spectral verification of assembled operators.

The spectrum of a patch operator splits into N_macro macroscale modes (one
per patch, approximating the homogenised continuum) and fast microscale
modes, separated by a wide gap.  Reports sort eigenvalues by ascending
magnitude and record the kernel quality, the gap ratio, and mode-by-mode
error tables against a reference operator.

eigen_symmetric refuses operators whose relative symmetry defect exceeds
1e-10: feeding an asymmetric matrix to a symmetric eigensolver silently
produces garbage, so the precondition is enforced rather than documented.
The report it returns carries that symmetry measurement.

Patch operators are block-circulant in the patch index: every patch carries
the same interior block and the edge couplings are circulant stencils over
patch offsets.  A DFT over the patch axes therefore splits an operator on N
patches exactly into N Bloch blocks H(j) of size b = members * n (members *
n_x * n_y in 2D), one per patch wavenumber j.  assembly._bloch_batches
builds them from the stored first block row, a bounded batch of wavenumbers
at a time, and the solvers consume them batch by batch: eigen_symmetric,
eigen_general and timestep.evolve_exact cost O(N b^3) time instead of
O(dim^3) and never hold a dim x dim matrix.  Blocks j and -j are complex
conjugates, so only the half spectrum of rfftn is solved and the mirrored
blocks contribute the same (symmetric case) or conjugate (general case)
eigenvalues.  A full lattice is a patch operator too (see microscale), so
every solver here takes an AssembledOperator and has no dense path.

A symmetric block is solved by a double precision eigh, and only its
Layout.slow eigenvalues of smallest magnitude, the slow macro modes, are
refined as Rayleigh quotients against the extended precision block.  A slow
eigenvalue is a small difference of O(1/d^2) entries, so the absolute error
eps * ||H|| of eigh would be a large relative one.  A fast eigenvalue is a
microscale mode of the patch interior, at least about ||H|| / n^2, so the
same error is already a small relative one: on the benchmark operators the
fast eigenvalues lie within 19 eps relative of their Rayleigh quotients.
The refinement costs O(b^2 g) per block for g slow modes, not O(b^3).

eigen_general handles the wave system specially.  Its exact double zero
eigenvalue is defective (Jordan block on span{(1,0), (0,1)} with 1 the
constant vector), which general eigensolvers scatter into small complex
pairs.  Since the complement S = {1.u = 0, 1.v = 0} is invariant, the
spectrum is computed on S and the exact pair {0, 0} appended.  Every Bloch
block j != 0 already lies in S; only block j = 0 is projected onto its
zero-sum complement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    Layout,
    SymmetryReport,
    _bloch_batches,
    _patch_layout,
    symmetry_defect,
)


class SymmetryPreconditionError(ValueError):
    """Operator fails the symmetry tolerance required by a solver.

    `symmetry` holds the measurement that failed it.
    """

    def __init__(self, message: str, symmetry: SymmetryReport | None = None):
        super().__init__(message)
        self.symmetry = symmetry


def _require_symmetric(op, consequence: str) -> SymmetryReport:
    report = symmetry_defect(op)
    if report.relative > 1e-10:
        raise SymmetryPreconditionError(
            f"relative symmetry defect {report.relative:.3e} exceeds 1e-10; {consequence}",
            report,
        )
    return report


def _mirror_counts(layout: Layout) -> np.ndarray:
    """Full-spectrum blocks each half-spectrum block stands for: 1 or 2.

    Block -j is the conjugate of block j.  It lies outside the half spectrum
    unless the halved wavenumber j_last satisfies j_last = -j_last (mod N).
    """
    n_last = layout.shape[layout.patch_axes]
    j = np.arange(n_last // 2 + 1)
    counts = np.where((j == 0) | (2 * j == n_last), 1, 2)
    return np.broadcast_to(counts, layout.shape[1 : layout.patch_axes] + counts.shape).ravel()


def _bloch_eigh(op, layout: Layout):
    """Eigenpairs of the Hermitian parts of the Bloch blocks, one batch at a time.

    Yields (w, V) of shapes (k, b) and (k, b, b) for each batch of
    assembly._bloch_batches, with the eigenvectors and eigenvalues of a
    double precision eigh.  Only the layout.slow eigenvalues of smallest
    magnitude in each block are replaced, by the Rayleigh quotients of their
    eigenvectors against the extended precision block.  Such a quotient's
    error is quadratic in the eigenvector error, so the slow macro modes,
    small differences of O(1/d^2) entries, keep their relative accuracy
    instead of an absolute error of eps * ||H||.  The fast modes are
    microscale modes of magnitude at least about ||H|| / n^2, where that
    error is already a small relative one: refining them would cost O(b^3)
    extended precision work per block for no accuracy that matters.
    """
    for blocks in _bloch_batches(op, layout):
        H = 0.5 * (blocks + blocks.conj().swapaxes(1, 2))
        w, V = np.linalg.eigh(H.astype(complex))
        slow = np.argsort(np.abs(w), axis=1, kind="stable")[:, : layout.slow]
        Vs = np.take_along_axis(V, slow[:, None, :], axis=2)
        # the diagonal of Vs^H H Vs; the matmul sums each quotient in row order
        rayleigh = np.diagonal(Vs.conj().swapaxes(1, 2) @ (H @ Vs), axis1=1, axis2=2)
        rayleigh = rayleigh.real.astype(float)
        np.put_along_axis(w, slow, rayleigh, axis=1)
        yield w, V


@dataclass
class SpectrumReport:
    """Eigenvalues sorted by ascending magnitude, split macro/micro.

    `symmetry` is the symmetry measurement a symmetric solve was checked
    against, None when no check was made.
    """

    eigenvalues: np.ndarray
    n_macro: int
    symmetry: SymmetryReport | None = None
    macro: np.ndarray = field(init=False)
    micro: np.ndarray = field(init=False)
    gap_ratio: float = field(init=False)
    zero_mode_magnitude: float = field(init=False)

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues)
        order = np.argsort(np.abs(ev), kind="stable")
        ev = ev[order]
        self.eigenvalues = ev
        if not 0 < self.n_macro <= ev.size:
            raise ValueError(
                f"macro mode count {self.n_macro} outside 1..{ev.size}"
            )
        self.macro = ev[: self.n_macro]
        self.micro = ev[self.n_macro :]
        self.zero_mode_magnitude = float(np.abs(ev[0]))
        macro_scale = float(np.max(np.abs(self.macro)))
        if self.micro.size == 0 or macro_scale == 0.0:
            self.gap_ratio = float("inf")
        else:
            self.gap_ratio = float(np.abs(self.micro[0])) / macro_scale


def eigen_symmetric(op, n_macro: int | None = None) -> SpectrumReport:
    """Full real spectrum of a symmetric operator, sorted by magnitude.

    Precondition: relative symmetry defect at most 1e-10.  The operator is
    solved block by block in the patch wavenumber.
    """
    symmetry = _require_symmetric(
        op, "this operator must not be fed to a symmetric eigensolver"
    )
    layout = _patch_layout(op)
    w = np.concatenate([w for w, _ in _bloch_eigh(op, layout)])
    vals = np.repeat(w, _mirror_counts(layout), axis=0).ravel()
    if n_macro is None:
        n_macro = layout.n_macro or vals.size
    return SpectrumReport(eigenvalues=vals, n_macro=n_macro, symmetry=symmetry)


def _bloch_eigenvalues(op, layout: Layout) -> np.ndarray:
    """Eigenvalues of every Bloch block, those of the mirrored blocks as conjugates.

    The wave system W = [[0, I], [A, eps B]] is solved on S, plus the exact
    zero pair.
    """
    wave = op.layout.half is not None
    counts = _mirror_counts(layout)
    head, tail, solved = [], [], []
    for W in _bloch_batches(op, layout):
        W = W.astype(complex)
        if wave and not solved:
            # Block j = 0 is real; S meets it in the zero-sum vectors of u and
            # of v, spanned by the right singular vectors of the ones row
            # after the first.
            b = W.shape[1] // 2
            Q = np.linalg.svd(np.ones((1, b)))[2][1:].T
            P = np.zeros((2 * b, 2 * (b - 1)))
            P[:b, : b - 1] = Q
            P[b:, b - 1 :] = Q
            head, tail = [np.linalg.eigvals(P.T @ W[0].real @ P)], [[0.0, 0.0]]
            W, counts = W[1:], counts[1:]
        solved.append(np.linalg.eigvals(W))
    solved = np.concatenate(solved)
    return np.concatenate([*head, solved.ravel(), np.conj(solved[counts == 2]).ravel(), *tail])


def eigen_general(op, n_macro: int | None = None) -> SpectrumReport:
    """Complex spectrum of a general operator, sorted by magnitude.

    The operator is solved block by block in the patch wavenumber; wave
    operators are also deflated onto the zero-sum invariant subspace, so
    their exact defective zero pair stays exactly zero in the report.
    """
    layout = _patch_layout(op)
    vals = _bloch_eigenvalues(op, layout)
    if n_macro is None:
        n_macro = layout.n_macro or vals.size
    return SpectrumReport(eigenvalues=vals, n_macro=n_macro)


def smallest_magnitude_eigenvalues(matrix, count: int):
    """Smallest-|lambda| eigenvalues of a large sparse symmetric operator.

    Shift-invert about sigma = 0.1, which for a negative semidefinite
    operator is never an eigenvalue, so the factorisation is always
    nonsingular (sigma = 0 would hit the constant kernel mode).  ARPACK
    starts from a seeded random vector, so repeated calls agree bit for bit;
    the ones vector would not do, as it spans the kernel, an invariant
    subspace.
    """
    import scipy.sparse.linalg  # only this solver needs scipy; keep it off the import path

    start = np.random.default_rng(0).standard_normal(matrix.shape[0])
    vals = scipy.sparse.linalg.eigsh(
        matrix, k=count, sigma=0.1, which="LM", v0=start, return_eigenvectors=False
    )
    return vals[np.argsort(np.abs(vals), kind="stable")]


@dataclass
class ErrorTable:
    """Mode-by-mode relative errors between two macroscale spectra."""

    indices: np.ndarray
    test_values: np.ndarray
    reference_values: np.ndarray
    relative_errors: np.ndarray


def _unique_macro_modes(report: SpectrumReport) -> np.ndarray:
    """Nonzero macro eigenvalues with near-degenerate pairs collapsed.

    Drops kernel modes (magnitude below 1e-7 of the macro scale), then merges
    consecutive eigenvalues within 0.5% relative into their mean; the wave
    pairs +-k collapse to one entry per wavenumber magnitude.
    """
    macro = np.real(np.asarray(report.macro))
    mags = np.abs(macro)
    scale = float(mags.max()) if macro.size else 0.0
    if scale == 0.0:
        return np.array([])
    keep = macro[mags > 1e-7 * scale]
    keep = keep[np.argsort(np.abs(keep), kind="stable")]
    groups: list[list[float]] = []
    for lam in keep:
        if groups:
            mean = float(np.mean(groups[-1]))
            if abs(lam - mean) <= 0.005 * max(abs(lam), abs(mean)):
                groups[-1].append(float(lam))
                continue
        groups.append([float(lam)])
    return np.array([np.mean(g) for g in groups])


def error_table(test: SpectrumReport, reference: SpectrumReport, count: int) -> ErrorTable:
    """Relative errors of the first `count` distinct nonzero macro modes."""
    if count < 1:
        raise ValueError("need at least one table row")
    test_modes = _unique_macro_modes(test)
    ref_modes = _unique_macro_modes(reference)
    if test_modes.size < count or ref_modes.size < count:
        raise ValueError(
            f"need {count} distinct nonzero macro modes, have "
            f"{test_modes.size} (test) and {ref_modes.size} (reference)"
        )
    t = test_modes[:count]
    rf = ref_modes[:count]
    return ErrorTable(
        indices=np.arange(1, count + 1),
        test_values=t,
        reference_values=rf,
        relative_errors=np.abs(t - rf) / np.abs(rf),
    )


def convergence_slope(N_list, errors) -> float:
    """Least-squares slope of log(error) against log(N).

    Needs at least three resolutions and strictly positive errors; patch
    counts must be strictly increasing.
    """
    N_arr = np.asarray(N_list, dtype=float)
    err = np.asarray(errors, dtype=float)
    if N_arr.size != err.size:
        raise ValueError("resolution and error lists differ in length")
    if N_arr.size < 3:
        raise ValueError("need at least three resolutions for a slope")
    if np.any(N_arr <= 0) or np.any(np.diff(N_arr) <= 0):
        raise ValueError("patch counts must be positive and increasing")
    if np.any(err <= 0):
        raise ValueError("errors must be strictly positive to take logs")
    return float(np.polyfit(np.log(N_arr), np.log(err), 1)[0])
