"""Eigen-spectral verification of assembled operators.

The spectrum of a patch operator splits into N_macro macroscale modes (g
per patch, approximating the homogenised continuum; g = 1 for a single
phase, see Layout.slow) and fast microscale modes, separated by a wide gap.
Reports sort eigenvalues by ascending magnitude and record the kernel
quality, the gap ratio, and mode-by-mode error tables against a reference
operator.

eigen_symmetric refuses operators whose relative symmetry defect exceeds
1e-10: feeding an asymmetric matrix to a symmetric eigensolver silently
produces garbage, so the precondition is enforced rather than documented.
The report it returns carries that symmetry measurement.  Both solvers also
refuse a patch operator whose diffusivities span so wide a range that the
round-off of its largest stencil entry would swamp the slowest macro mode,
full lattices included.

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

eigen_symmetric solves each symmetric block by a double precision eigvalsh,
which computes no eigenvectors, and refines only its Layout.slow slow macro
modes as Rayleigh quotients against the extended precision block.  A
phase-shift ensemble's block is block diagonal over its g member orbits,
each with one slow mode, its eigenvalue of smallest magnitude, so it is
solved as g blocks of size b / g; each slow eigenvector comes from two steps
of shifted inverse iteration (Parlett, The Symmetric Eigenvalue Problem, SIAM
1998, ch. 4).  A slow eigenvalue is a small difference of O(1/d^2) entries,
so the absolute error eps * ||H|| of eigvalsh would be a large relative one.
A fast eigenvalue is a microscale mode of the patch interior, at least about
||H|| / n^2, so the same error is already a small relative one: on the
benchmark operators the fast eigenvalues lie within 19 eps relative of their
Rayleigh quotients.  Per block that is g eigvalsh and 2g LU factorizations
of size b / g, O(b^3 / g^2) work, where eigh of the whole block with its
eigenvectors is several times O(b^3).  Only timestep.evolve_exact, which
needs every eigenvector, takes that eigh.

eigen_symmetric labels every eigenvalue by its Bloch block and its rank
among the block's g slow modes (-1 for a fast mode).  A block's label is its
wavenumber: the half-spectrum j, with j and -j counted once, numbered in
ascending continuum |k|^2, so in 1D it is |j|.  error_table pairs the test
and reference modes of a label: row k is wavenumber k, and for g > 1 it
reports the worst rank.  A caller that reads only wavenumbers 1..m passes
modes=m, and only those blocks are solved, O(m b^3) work where the full
spectrum costs O(N b^3); each of them must hold its slow modes clearly below
its fast ones, or the labels would pair arbitrary modes and the solve
raises.  The errors are bitwise those of the full solve, since each block is
the same batched solve of the same rfftn lines, and the start vector of
inverse iteration is the same in every batch.

eigen_general handles the wave system specially.  Its exact double zero
eigenvalue is defective (Jordan block on span{(1,0), (0,1)} with 1 the
constant vector), which general eigensolvers scatter into small complex
pairs.  Since the complement S = {1.u = 0, 1.v = 0} is invariant, the
spectrum is computed on S and the exact pair {0, 0} appended.  Every Bloch
block j != 0 already lies in S; only block j = 0 is projected onto its
zero-sum complement.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    Layout,
    SymmetryReport,
    _bloch_batches,
    _orbits,
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


def _axis_lengths(op, layout: Layout) -> tuple[np.ndarray, np.ndarray]:
    """Length L_a and spacing d_a of each lattice axis, x first.

    An operator without a grid, a full lattice, takes L_a as its points
    along axis a at unit spacing d_a = 1.
    """
    if op.grid is not None:
        return np.array([g.L for g in op.grid.axes]), np.array([g.d for g in op.grid.axes])
    k = layout.patch_axes
    points = np.multiply(layout.shape[1 : 1 + k], layout.shape[1 + k :])[::-1]
    return points.astype(float), np.ones(k)


def _require_dynamic_range(op, layout: Layout) -> None:
    """Refuse a profile whose slowest macro mode would drown in round-off.

    The solvers resolve an eigenvalue to about eps ||H||, with ||H|| estimated
    by the largest stencil entry, 2 max(bonds) / d^2 summed over the axes.
    The slowest nonzero macro eigenvalue is about the smallest over the axes
    of K (2 pi / L)^2, K the harmonic mean of that axis's bonds.  Their ratio
    must stay below 1e-4, so the macro modes keep four significant digits.
    It does not depend on the scale of d and L, so a full lattice is checked
    at the unit spacing of _axis_lengths.
    """
    lengths, spacings = _axis_lengths(op, layout)
    bonds = op.profile.bonds
    with np.errstate(over="ignore", divide="ignore"):
        norm = sum(2.0 * np.max(b) / np.square(d) for d, b in zip(spacings, bonds))
        slowest = min(
            b.size / np.sum(1.0 / b) * np.square(2.0 * np.pi / L) for L, b in zip(lengths, bonds)
        )
        ratio = np.finfo(float).eps * norm / slowest
    if not ratio <= 1e-4:
        raise ValueError(
            f"dynamic range: eps * ||H|| is {ratio:.3g} times the slowest macro "
            f"eigenvalue, about {slowest:.3g}; round-off would swamp the macro modes"
        )


def _mirror_counts(layout: Layout) -> np.ndarray:
    """Full-spectrum blocks each half-spectrum block stands for: 1 or 2.

    Block -j is the conjugate of block j.  It lies outside the half spectrum
    unless the halved wavenumber j_last satisfies j_last = -j_last (mod N).
    """
    n_last = layout.shape[layout.patch_axes]
    j = np.arange(n_last // 2 + 1)
    counts = np.where((j == 0) | (2 * j == n_last), 1, 2)
    return np.broadcast_to(counts, layout.shape[1 : layout.patch_axes] + counts.shape).ravel()


@functools.lru_cache(maxsize=8)
def _start_vector(b: int) -> np.ndarray:
    """A fixed pseudo-random start vector of length b, read-only."""
    x = np.random.default_rng(0).standard_normal(b)
    x.flags.writeable = False
    return x


def _slow_vector(H: np.ndarray, w: np.ndarray, slow: np.ndarray) -> np.ndarray:
    """The eigenvector of the one slow eigenvalue of each Hermitian block.

    Two steps of shifted inverse iteration, one batched solve each, from
    _start_vector(b), the same in every block and batch, against
    H - (w_s + 1e-12 max|w|) I with w_s = w[slow].  On the nonpositive
    spectra of these operators the shift sits just beside w_s on the side
    towards zero, away from the larger fast modes; the offset keeps the
    shifted block nonsingular, and a zero block takes it from max|w| = 1.
    Each step shrinks a fast component by 1e-12 ||H|| over its distance from
    the shift.  Returns the unit vectors, (k, b, 1).
    """
    k, b = w.shape
    scale = np.max(np.abs(w), axis=1, initial=0.0)
    shift = np.take_along_axis(w, slow, axis=1) + 1e-12 * np.where(scale > 0, scale, 1.0)[:, None]
    shifted = H.copy()
    diagonal = np.arange(b)
    shifted[:, diagonal, diagonal] -= shift
    X = np.broadcast_to(_start_vector(b)[:, None], (k, b, 1))
    for _ in range(2):
        X = np.linalg.solve(shifted, X)
        X = X / np.linalg.norm(X, axis=1, keepdims=True)
    return X


def _refined_eigh(H: np.ndarray, g: int, vectors: bool = True):
    """Eigenvalues of a stack of Hermitian blocks, the g slowest of each refined.

    H is (k, b, b) in extended precision.  Returns (w, V, slow) of shapes
    (k, b), (k, b, b) and (k, g): the eigenvalues and eigenvectors of a
    double precision eigh.  Only the g eigenvalues of smallest magnitude in
    each block, at the indices `slow` in ascending magnitude, are replaced,
    by the Rayleigh quotients of their eigenvectors against H.  With
    vectors=False each block must hold one slow mode, g = 1: w comes from
    eigvalsh, V is None, and the slow eigenvector from _slow_vector, O(b^3)
    work less than eigh's eigenvectors.  Such a quotient's error is
    quadratic in the eigenvector error, so the slow macro modes, small
    differences of O(1/d^2) entries, keep their relative accuracy instead
    of an absolute error of eps * ||H||.  The fast modes are microscale
    modes of magnitude at least about ||H|| / n^2, where that error is
    already a small relative one: refining them would cost O(b^3) extended
    precision work per block for no accuracy that matters.
    """
    Hd = H.astype(complex)
    w, V = np.linalg.eigh(Hd) if vectors else (np.linalg.eigvalsh(Hd), None)
    slow = np.argsort(np.abs(w), axis=1, kind="stable")[:, :g]
    Vs = np.take_along_axis(V, slow[:, None, :], axis=2) if vectors else _slow_vector(Hd, w, slow)
    # the diagonal of Vs^H H Vs; the matmul sums each quotient in row order
    rayleigh = np.diagonal(Vs.conj().swapaxes(1, 2) @ (H @ Vs), axis1=1, axis2=2)
    np.put_along_axis(w, slow, rayleigh.real.astype(float), axis=1)
    return w, V, slow


def _bloch_eigh(op, layout: Layout, select=None, vectors: bool = True):
    """_refined_eigh of the Hermitian parts of the Bloch blocks, one batch at a time.

    Yields (w, V, slow) for each batch of assembly._bloch_batches (only the
    blocks `select` names, if given), refining the layout.slow slow modes.
    With vectors=False each block is split into its g member orbits
    (assembly._orbits), g blocks of one slow mode each: its eigenvalues come
    orbit by orbit, and `slow` holds the orbits' slow modes in ascending
    magnitude.
    """
    orbits = None if vectors else _orbits(layout, op.profile.periods)
    for blocks in _bloch_batches(op, layout, select):
        H = 0.5 * (blocks + blocks.conj().swapaxes(1, 2))
        if vectors:
            yield _refined_eigh(H, layout.slow)
            continue
        k, (g, m) = H.shape[0], orbits.shape
        if g > 1:
            H = H[:, orbits[:, :, None], orbits[:, None, :]].reshape(k * g, m, m)
        w, _, slow = _refined_eigh(H, 1, vectors=False)
        w, slow = w.reshape(k, g * m), slow.reshape(k, g) + m * np.arange(g)
        order = np.argsort(np.abs(np.take_along_axis(w, slow, axis=1)), axis=1, kind="stable")
        yield w, None, np.take_along_axis(slow, order, axis=1)


def _wavenumber_labels(op, layout: Layout) -> np.ndarray:
    """The wavenumber label of each half-spectrum Bloch block, in rfftn order.

    Each patch axis a of N_a patches folds j_a into (-N_a/2, N_a/2]; j and
    -j form one class, represented by the larger of the two, x component
    first.  The classes are numbered 0, 1, 2, ... in ascending continuum
    |k|^2 = sum_a (2 pi j_a / L_a)^2, ties broken by the larger
    representative first (x component, then y).  So in 1D the label is |j|,
    and in 2D on a square domain (1, 0) comes before (0, 1), and (1, 1)
    before (1, -1).  Each axis has the length of _axis_lengths.
    """
    k = layout.patch_axes
    patches = layout.shape[1 : 1 + k]
    half = patches[:-1] + (patches[-1] // 2 + 1,)
    N = np.array(patches[::-1])[:, None]  # x first from here on
    j = np.indices(half).reshape(k, -1)[::-1]

    def fold(x):
        x = x % N
        return np.where(2 * x <= N, x, x - N)

    plus, minus = fold(j), fold(-j)
    first = np.argmax(plus != minus, axis=0)  # the first component that differs
    larger = np.take_along_axis(plus - minus, first[None], axis=0)[0] >= 0
    classes, inverse = np.unique(np.where(larger, plus, minus), axis=1, return_inverse=True)
    lengths = _axis_lengths(op, layout)[0]
    ksq = np.sum((2 * np.pi * classes / lengths[:, None]) ** 2, axis=0)
    order = np.lexsort((*-classes[::-1], ksq))
    place = np.empty(order.size, dtype=np.intp)
    place[order] = np.arange(order.size)
    return place[inverse.reshape(-1)]


def _require_separated(w: np.ndarray, ranks: np.ndarray, labels: np.ndarray) -> None:
    """Raise unless every block's slow modes lie below half its smallest fast one.

    Rank labels pair the g slow modes of a block only while they are the g
    smallest by a clear margin; where a fast mode meets a slow one, which of
    them is ranked slow is arbitrary.
    """
    mags = np.abs(w)
    slow = np.max(np.where(ranks >= 0, mags, 0.0), axis=1)
    fast = np.min(np.where(ranks < 0, mags, np.inf), axis=1)
    mixed = np.flatnonzero(~(slow <= 0.5 * fast))
    if mixed.size:
        at = mixed[0]
        raise ValueError(
            f"the Bloch block of wavenumber {labels[at]} does not separate its "
            f"{np.count_nonzero(ranks[at] >= 0)} slow modes from its fast ones: "
            f"largest slow magnitude {slow[at]:.6g}, smallest fast {fast[at]:.6g}"
        )


@dataclass
class SpectrumReport:
    """Eigenvalues sorted by ascending magnitude, split macro/micro.

    `symmetry` is the symmetry measurement a symmetric solve was checked
    against, None when no check was made.  `wavenumbers` and `ranks`, when
    given, label each eigenvalue by its Bloch block and by its rank among
    that block's slow modes, -1 for a fast mode; they are sorted along with
    the eigenvalues.
    """

    eigenvalues: np.ndarray
    n_macro: int
    symmetry: SymmetryReport | None = None
    wavenumbers: np.ndarray | None = None
    ranks: np.ndarray | None = None
    macro: np.ndarray = field(init=False)
    micro: np.ndarray = field(init=False)
    gap_ratio: float = field(init=False)
    zero_mode_magnitude: float = field(init=False)

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues)
        order = np.argsort(np.abs(ev), kind="stable")
        ev = ev[order]
        self.eigenvalues = ev
        if (self.wavenumbers is None) != (self.ranks is None):
            raise ValueError("wavenumbers and ranks label the eigenvalues together")
        if self.wavenumbers is not None:
            labels = [np.asarray(part, dtype=np.intp) for part in (self.wavenumbers, self.ranks)]
            if any(part.shape != ev.shape for part in labels):
                raise ValueError("need one wavenumber and one rank per eigenvalue")
            self.wavenumbers, self.ranks = (part[order] for part in labels)
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


def eigen_symmetric(op, n_macro: int | None = None, modes: int | None = None) -> SpectrumReport:
    """Real spectrum of a symmetric operator, sorted by magnitude and labelled.

    Preconditions: the profile's dynamic range (see _require_dynamic_range)
    and a relative symmetry defect at most 1e-10.  The operator is
    solved block by block in the patch wavenumber, and each eigenvalue is
    labelled by its block's wavenumber (see _wavenumber_labels) and its rank
    among the block's Layout.slow slow modes.  Without `modes` every block is
    solved.  With it only the blocks of wavenumbers 1..modes are, O(modes
    b^3) work, and each of them must hold its slow modes below half its
    smallest fast one, or a ValueError names the block.
    """
    layout = _patch_layout(op)
    _require_dynamic_range(op, layout)
    symmetry = _require_symmetric(
        op, "this operator must not be fed to a symmetric eigensolver"
    )
    labels, counts = _wavenumber_labels(op, layout), _mirror_counts(layout)
    select = None
    if modes is not None:
        if not 1 <= modes <= labels.max(initial=0):
            raise ValueError(
                f"asked for wavenumbers 1..{modes}; the grid has {labels.max(initial=0)}"
            )
        select = np.flatnonzero((labels >= 1) & (labels <= modes))
        labels, counts = labels[select], counts[select]
    w, ranks = [], []
    for vals, _, slow in _bloch_eigh(op, layout, select, vectors=False):
        rank = np.full(vals.shape, -1, dtype=np.intp)
        np.put_along_axis(rank, slow, np.arange(layout.slow), axis=1)
        w.append(vals)
        ranks.append(rank)
    w, ranks = np.concatenate(w), np.concatenate(ranks)
    if modes is not None:
        _require_separated(w, ranks, labels)
    vals = np.repeat(w, counts, axis=0).ravel()
    if n_macro is None and modes is not None:
        n_macro = layout.slow * int(np.sum(counts))  # the labelled slow modes
    elif n_macro is None:
        n_macro = layout.n_macro or vals.size
    return SpectrumReport(
        eigenvalues=vals,
        n_macro=n_macro,
        symmetry=symmetry,
        wavenumbers=np.repeat(np.repeat(labels, counts), w.shape[1]),
        ranks=np.repeat(ranks, counts, axis=0).ravel(),
    )


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
    Precondition: the profile's dynamic range (see _require_dynamic_range).
    """
    layout = _patch_layout(op)
    _require_dynamic_range(op, layout)
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


def _slow_modes(report: SpectrumReport, count: int, role: str) -> np.ndarray:
    """The (count, g) slow modes of wavenumbers 1..count by rank, each the mean of its copies."""
    if report.wavenumbers is None:
        raise ValueError(f"the {role} spectrum carries no wavenumber labels to pair by")
    keep = (report.ranks >= 0) & (report.wavenumbers >= 1) & (report.wavenumbers <= count)
    wavenumbers, ranks = report.wavenumbers[keep], report.ranks[keep]
    g = int(ranks.max(initial=-1)) + 1
    key = (wavenumbers - 1) * g + ranks
    copies = np.bincount(key, minlength=count * g)
    if copies.size == 0 or np.any(copies == 0):
        raise ValueError(
            f"need the slow modes of wavenumbers 1..{count}; the {role} spectrum has "
            f"{np.unique(wavenumbers).size} of them"
        )
    sums = np.bincount(key, weights=np.real(report.eigenvalues[keep]), minlength=count * g)
    return (sums / copies).reshape(count, g)


def error_table(test: SpectrumReport, reference: SpectrumReport, count: int) -> ErrorTable:
    """Relative errors of the slow modes of wavenumbers 1..count, paired by label.

    Row k is wavenumber k: each of its slow modes is paired with the
    reference mode of the same wavenumber and rank, and a label that occurs
    more than once, as blocks j and -j do, stands for the mean of its copies
    (bitwise equal copies in 1D).  With g > 1 slow modes per block a row
    reports the rank of largest relative error, so it bounds every slow mode
    of its wavenumber.  Both spectra must be labelled, as eigen_symmetric
    labels them, on the same grid.
    """
    if count < 1:
        raise ValueError("need at least one table row")
    t = _slow_modes(test, count, "test")
    rf = _slow_modes(reference, count, "reference")
    if t.shape != rf.shape:
        raise ValueError(
            f"{t.shape[1]} slow modes per wavenumber in the test spectrum, "
            f"{rf.shape[1]} in the reference"
        )
    errors = np.abs(t - rf) / np.abs(rf)
    worst = np.argmax(errors, axis=1)[:, None]
    t, rf, errors = (np.take_along_axis(part, worst, axis=1)[:, 0] for part in (t, rf, errors))
    return ErrorTable(
        indices=np.arange(1, count + 1),
        test_values=t,
        reference_values=rf,
        relative_errors=errors,
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
