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
n_x * n_y in 2D), one per patch wavenumber j.  assembly._bloch_entries
gives the entries of every block at its stored (row, col) pairs, in
extended precision: a patch-local pair (the diagonal and the interior
bonds, stored at patch offset 0 alone) holds its value in every block, and
only the other pairs, the edge couplings, are transformed, 2 of the 30 of a
sweep1d-patches operator.  It returns them as one read-only (blocks, pairs)
array, which each solver slices into batches of assembly._batch_blocks(b)
wavenumbers and consumes batch by batch: eigen_symmetric, eigen_general
and timestep.evolve_exact cost O(N b^3) time instead of O(dim^3) and never
hold a dim x dim matrix.  eigen_general (through
assembly._bloch_eigenvalues) and timestep.evolve_rk4 read the dense
extended precision view of assembly._bloch_batches, at most about 4 MB of
blocks per batch.  The symmetric solvers read the pair entries only
(a block of the eigen2d-ens benchmark stores 180 of its 1,296 entries): they
form the Hermitian part on the pairs and their mirrors, and the only dense
blocks they hold are the double precision ones of the eigensolve.  Blocks j
and -j are complex conjugates, so only the half spectrum of rfftn is solved
and the mirrored blocks contribute the same (symmetric case) or conjugate
(general case) eigenvalues.  A full lattice is a patch operator too (see
microscale), so every solver here takes an AssembledOperator and has no
dense path.

Both symmetric solvers, eigen_symmetric and timestep.evolve_exact, take one
per-batch solve, _solve_batch.  A phase-shift ensemble's block is block
diagonal over its g member orbits, each with one slow mode, its eigenvalue
of smallest magnitude, so every symmetric block is solved as g blocks of
size b / g (g = 1 for a single phase), and only the slow mode of each is
refined, as a Rayleigh quotient against the extended precision block, taken
from its stored pairs bit for bit as a dense extended precision matmul would
sum it: O(pairs) extended precision work per block.  eigen_symmetric takes a
double precision eigvalsh, which computes no eigenvectors, and each slow
eigenvector from two steps of shifted inverse iteration (Parlett, The
Symmetric Eigenvalue Problem, SIAM 1998, ch. 4); evolve_exact, which needs
every eigenvector, takes eigh of the orbit blocks and refines with eigh's
own slow vector.  No two slow modes share an orbit block, so neither path
mixes them.  A slow eigenvalue is a small difference of O(1/d^2) entries, so
the absolute error eps * ||H|| of eigvalsh would be a large relative one.  A
fast eigenvalue is a microscale mode of the patch interior, at least about
||H|| / n^2, so the same error is already a small relative one: on the
benchmark operators the fast eigenvalues lie within 19 eps relative of their
Rayleigh quotients.  Per block eigen_symmetric does g eigvalsh and 2g LU
factorizations of size b / g, evolve_exact g eigh: O(b^3 / g^2) work, where
eigh of the whole block with its eigenvectors is several times O(b^3).

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
inverse iteration is the same in every batch.  Whole and selected spectra
have one driver, _symmetric_solves, which takes a list of operators: a
sweep hands it all of them at once.  Each per-operator step (symmetry,
labels, Bloch entries, ranks, separation) is one array pass over the list,
and it stacks the (selected) blocks of the operators that share a stored
pair pattern and solves each stack in batches by _solve_batch, since a
solve of a few small blocks costs mostly per-call overhead;
eigen_symmetric is that driver on one operator, and _error_rows takes the
error rows of a whole sweep in one pass.  Nothing is kept from one call to
the next: each call makes the _pair_plan of each of its groups.

eigen_general solves a wave operator like any other, then sets its zeros by
count.  On Bloch block j = 0 the wave system has one defective zero pair per
member orbit o (a Jordan block on span{(1_o, 0), (0, 1_o)}), which a general
eigensolver scatters into a complex pair of about sqrt(eps ||H||).  The 2g
eigenvalues of block 0 nearest zero, g = Layout.slow, become exact zeros
(assembly._bloch_eigenvalues).  Within the dynamic range the solvers admit,
the rest of block 0 lies at least 100 times further from zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    Layout,
    SymmetryReport,
    _batch_blocks,
    _bloch_entries,
    _bloch_entry_batch,
    _bloch_eigenvalues,
    _orbits,
    _patch_layout,
    _symmetry_defects,
)


class SymmetryPreconditionError(ValueError):
    """Operator fails the symmetry tolerance required by a solver.

    `symmetry` holds the measurement that failed it.
    """

    def __init__(self, message: str, symmetry: SymmetryReport | None = None):
        super().__init__(message)
        self.symmetry = symmetry


def _require_symmetric(symmetry: SymmetryReport, consequence: str) -> SymmetryReport:
    """The measurement of symmetry_defect, unless it exceeds the tolerance of the solvers."""
    if symmetry.relative > 1e-10:
        raise SymmetryPreconditionError(
            f"relative symmetry defect {symmetry.relative:.3e} exceeds 1e-10; {consequence}",
            symmetry,
        )
    return symmetry


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


def _slow_vector(H: np.ndarray, w: np.ndarray, slow: np.ndarray) -> np.ndarray:
    """The eigenvector of the one slow eigenvalue of each Hermitian block.

    Two steps of shifted inverse iteration, one batched solve each, from a
    fixed pseudo-random start vector, the same in every block and batch,
    against H - (w_s + 1e-12 max|w|) I with w_s = w[slow].  On the
    nonpositive spectra of these operators the shift sits just beside w_s on
    the side towards zero, away from the larger fast modes; the offset keeps the
    shifted block nonsingular, and a zero block takes it from max|w| = 1.
    Each step shrinks a fast component by 1e-12 ||H|| over its distance from
    the shift.  H is shifted in place, so it must be a copy the caller no
    longer reads.  Returns the unit vectors, (k, b, 1).
    """
    k, b = w.shape
    scale = np.max(np.abs(w), axis=1, initial=0.0)
    shift = np.take_along_axis(w, slow, axis=1) + 1e-12 * np.where(scale > 0, scale, 1.0)[:, None]
    diagonal = np.arange(b)
    H[:, diagonal, diagonal] -= shift
    X = np.broadcast_to(np.random.default_rng(0).standard_normal((b, 1)), (k, b, 1))
    for _ in range(2):
        X = np.linalg.solve(H, X)
        X = X / np.linalg.norm(X, axis=1, keepdims=True)
    return X


def _refined_eigh(H: np.ndarray, product, vectors: bool):
    """Eigenvalues of a stack of Hermitian blocks of one slow mode each, that mode refined.

    H is (k, b, b) in double precision, and product(X) returns the
    extended precision block times X, (k, b, 1), for X of that shape.
    Returns (w, V, slow) of shapes (k, b), (k, b, b) and (k, 1): the
    eigenvalues of eigvalsh, or of eigh with its eigenvectors V when
    `vectors` (else V is None), with the eigenvalue of smallest magnitude,
    at the index `slow`, replaced by the Rayleigh quotient of its
    eigenvector against the extended precision block.  That eigenvector is
    eigh's own, or from _slow_vector, O(b^3) work less than eigh's
    eigenvectors.  Such a quotient's error is quadratic in the eigenvector
    error, so the slow macro mode, a small difference of O(1/d^2) entries,
    keeps its relative accuracy instead of an absolute error of eps * ||H||.
    The fast modes are microscale modes of magnitude at least about
    ||H|| / n^2, where that error is already a small relative one: refining
    them would cost O(b^3) extended precision work per block for no accuracy
    that matters.  H may be overwritten.
    """
    w, V = np.linalg.eigh(H) if vectors else (np.linalg.eigvalsh(H), None)
    slow = np.argsort(np.abs(w), axis=1, kind="stable")[:, :1]
    # _slow_vector shifts H in place; nothing reads it after eigvalsh
    Vs = np.take_along_axis(V, slow[:, None, :], axis=2) if vectors else _slow_vector(H, w, slow)
    # the diagonal of Vs^H H Vs; the matmul sums each quotient in row order
    rayleigh = np.diagonal(Vs.conj().swapaxes(1, 2) @ product(Vs), axis1=1, axis2=2)
    np.put_along_axis(w, slow, rayleigh.real.astype(float), axis=1)
    return w, V, slow


def _locate(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Index of each wanted key in the sorted `keys`, keys.size where it is missing."""
    at = np.searchsorted(keys, wanted)
    return np.where(keys.take(at, mode="clip") == wanted, at, keys.size)


def _pair_plan(pairs: np.ndarray, orbits: np.ndarray) -> tuple:
    """Where the entries of a Bloch block's Hermitian part go, from its pairs.

    `pairs` are the sorted pair indices of assembly._bloch_entries and
    `orbits` the (g, m) unknowns of assembly._orbits.  A plan costs tens of
    microseconds, and each call of a solver makes one per group of operators
    that share both.  The Hermitian part lives on the union of the pairs and
    their mirrors, the pairs themselves when every mirror is stored.
    Returns index arrays over that union, sorted like the pairs: `take`, the
    stored pair of each union entry, pairs.size where none is stored (None
    when the union is the pairs); `mirror`, the union index of its mirror;
    `dense`, its place in the g orbit blocks of m x m, rows and columns
    numbered orbit by orbit; `slots`, its place in the (b, width) slots of
    the rows, each row's entries in column order; and `gather`, the
    orbit-numbered column of each slot, 0 where a slot is empty, shaped
    (b, width, 1).
    """
    g, m = orbits.shape
    b = g * m
    rows, cols = np.divmod(pairs, b)
    mirror = _locate(pairs, cols * b + rows)
    take = None
    if np.any(mirror == pairs.size):  # some pair lacks its mirror: work on the union
        union = np.union1d(pairs, cols * b + rows)
        take = _locate(pairs, union)
        rows, cols = np.divmod(union, b)
        mirror = _locate(union, cols * b + rows)
    # the rank of each entry among its row's, which are sorted by column
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    width = int(rank.max(initial=-1)) + 1
    if g > 1:  # rows and columns numbered orbit by orbit, in the same order within one
        place = np.empty(b, dtype=np.intp)
        place[orbits.ravel()] = np.arange(b)
        rows, cols = place[rows], place[cols]
    slots = rows * width + rank
    gather = np.zeros(b * width, dtype=np.intp)
    gather[slots] = cols
    return take, mirror, rows * m + cols % m, slots, gather.reshape(b, width, 1)


def _solve_batch(E: np.ndarray, plan: tuple, g: int, vectors: bool):
    """_refined_eigh of the Hermitian parts of a batch of Bloch blocks, orbit by orbit.

    E is (k, pairs): the extended precision entries of k blocks at the
    stored pairs that `plan`, of _pair_plan, places in blocks of g member
    orbits (assembly._orbits) of size m = b / g, one slow mode each.
    Returns (w, V, slow): w (k, b) holds each block's eigenvalues orbit by
    orbit, V the (k * g, m, m) eigenvectors of the orbit blocks when
    `vectors` (else None), and slow the (k, g) indices into w of the
    orbits' slow modes in ascending magnitude.

    The Hermitian part 0.5 (B + B^H) of each block B is formed on the
    stored pairs and their mirrors only (see _pair_plan), in extended
    precision, bit for bit as that expression forms it on the dense block,
    whose other entries are zero; no stored entry couples two orbits.  It is
    scattered into double precision orbit blocks for the eigensolve.  Each
    Rayleigh quotient is taken from the pair entries in extended precision:
    the entries of a row sit in slots of one matmul, in column order, which
    sums their products from zero as the dense extended precision matmul
    sums the whole row; the zero entries it leaves out change none of those
    sums.  Every step acts on each block alone (LAPACK and the extended
    precision matmuls take one matrix at a time), so a block's results do
    not depend on the batch it is solved in.
    """
    take, mirror, dense, slots, gather = plan
    b, width = gather.shape[:2]
    m = b // g
    k = E.shape[0]
    if take is not None:  # the dense entries on the union, conj(0j) where none is stored
        E = np.concatenate([E, np.conj(np.zeros((k, 1), E.dtype))], axis=1)[:, take]
    H = E + np.conj(E[:, mirror])
    H *= 0.5
    Hd = np.zeros((k, g * m * m), dtype=complex)
    Hd[:, dense] = H
    Hs = np.zeros((k, b, 1, width), dtype=H.dtype)
    Hs.reshape(k, -1)[:, slots] = H

    def product(X):
        return (Hs @ X.reshape(k, b)[:, gather]).reshape(k * g, m, 1)

    w, V, slow = _refined_eigh(Hd.reshape(k * g, m, m), product, vectors)
    w, slow = w.reshape(k, b), slow.reshape(k, g) + m * np.arange(g)
    order = np.argsort(np.abs(np.take_along_axis(w, slow, axis=1)), axis=1, kind="stable")
    return w, V, np.take_along_axis(slow, order, axis=1)


def _bloch_eigh(op, layout: Layout):
    """_solve_batch with eigenvectors of each batch of an operator's Bloch blocks.

    Yields (w, V, slow) of _solve_batch, vectors=True, for each batch of
    assembly._batch_blocks(b) blocks of assembly._bloch_entries, each block
    split into its g member orbits: the eigenvectors timestep.evolve_exact
    propagates with.  Spectra take the same per-batch solve, without
    eigenvectors, through _symmetric_solves.
    """
    pairs, entries = _bloch_entries(op, layout)
    plan = _pair_plan(pairs, _orbits(layout, op.profile.periods))
    step = _batch_blocks(plan[4].shape[0])
    for start in range(0, len(entries), step):
        yield _solve_batch(entries[start : start + step], plan, layout.slow, vectors=True)


def _wavenumber_labels(op, layout: Layout) -> np.ndarray:
    """The wavenumber label of each half-spectrum Bloch block: _grid_labels of one grid."""
    grid = layout.shape[1 : 1 + layout.patch_axes], _axis_lengths(op, layout)[0]
    return _grid_labels([grid])[0][0]


def _grid_labels(grids) -> list[tuple[np.ndarray, np.ndarray]]:
    """The labels and mirror counts of the half-spectrum Bloch blocks of each grid, in one pass.

    A grid is (patches, lengths): its patch shape in C order and the axis
    lengths of _axis_lengths, x first; its blocks are in rfftn order.  Each
    patch axis a of N_a patches folds j_a into (-N_a/2, N_a/2]; j and -j
    form one class, represented by the larger of the two, x component
    first.  The classes are numbered 0, 1, 2, ... in ascending continuum
    |k|^2 = sum_a (2 pi j_a / L_a)^2, ties broken by the larger
    representative first (x component, then y).  So in 1D the label is |j|,
    and in 2D on a square domain (1, 0) comes before (0, 1), and (1, 1)
    before (1, -1).  When all lengths are equal the key is the integer
    sum_a j_a^2, so classes of equal |k|^2 tie exactly.  A mirror count is
    the number of full-spectrum blocks a block stands for (see
    assembly._mirror_counts).  The blocks of all grids lie along one axis,
    patch axes padded with axes of one patch, sorted by one lexsort.
    """
    depth = max(len(patches) for patches, _ in grids)
    N = np.array([patches[::-1] + (1,) * (depth - len(patches)) for patches, _ in grids])
    # |k|^2 = sum_a (scale j_a / length_a)^2: (2 pi j_a / L_a)^2, or j_a^2 on equal lengths
    equal = [len(set(L.tolist())) == 1 for _, L in grids]
    scale = np.where(equal, 1.0, 2 * np.pi)
    length = np.array([[1.0] * depth if same else [*L, *[1.0] * (depth - L.size)]
                       for same, (_, L) in zip(equal, grids)])
    half = N.copy()
    half[:, 0] = N[:, 0] // 2 + 1  # the x axis is halved, the last of C order
    sizes = half.prod(axis=1)
    grid = np.repeat(np.arange(len(grids)), sizes)
    rest, j = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes), []
    for a in range(depth):  # x first, the fastest axis of rfftn's output
        rest, digit = np.divmod(rest, half[grid, a])
        j.append(digit)
    j, Nb = np.array(j), N[grid].T

    def fold(x):
        x = x % Nb
        return np.where(2 * x <= Nb, x, x - Nb)

    plus, minus = fold(j), fold(-j)
    first = np.argmax(plus != minus, axis=0)  # the first component that differs
    represented = np.where((plus - minus)[first, np.arange(first.size)] >= 0, plus, minus)
    # one integer key per class; the lexsort below fixes the order of the classes
    K = N.prod(axis=1)
    key, stride = (np.cumsum(K) - K)[grid], 1
    for a in range(depth):
        key, stride = key + represented[a] % Nb[a] * stride, stride * Nb[a]
    _, at, inverse = np.unique(key, return_index=True, return_inverse=True)
    classes, owner = represented[:, at], grid[at]
    ksq = np.sum((scale[owner] * classes / length[owner].T) ** 2, axis=0)
    order = np.lexsort((*-classes[::-1], ksq, owner))
    place = np.empty(order.size, dtype=np.intp)
    place[order] = np.arange(order.size)
    found = np.bincount(owner, minlength=len(grids))
    labels = place[inverse] - (np.cumsum(found) - found)[grid]
    counts = np.where((j[0] == 0) | (2 * j[0] == Nb[0]), 1, 2)
    ends = np.cumsum(sizes).tolist()
    return [(labels[end - n : end], counts[end - n : end]) for end, n in zip(ends, sizes.tolist())]


def _unseparated(w: np.ndarray, ranks: np.ndarray, labels: np.ndarray):
    """The first block whose slow modes do not lie below half its smallest fast one.

    Rank labels pair the g slow modes of a block only while they are the g
    smallest by a clear margin; where a fast mode meets a slow one, which of
    them is ranked slow is arbitrary.  Returns (block, ValueError), or None
    when every block separates.
    """
    mags = np.abs(w)
    slow = np.max(np.where(ranks >= 0, mags, 0.0), axis=1)
    fast = np.min(np.where(ranks < 0, mags, np.inf), axis=1)
    mixed = np.flatnonzero(~(slow <= 0.5 * fast))
    if mixed.size:
        at = mixed[0]
        return at, ValueError(
            f"the Bloch block of wavenumber {labels[at]} does not separate its "
            f"{np.count_nonzero(ranks[at] >= 0)} slow modes from its fast ones: "
            f"largest slow magnitude {slow[at]:.6g}, smallest fast {fast[at]:.6g}"
        )
    return None


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


def _symmetric_solves(ops, modes: int | None = None) -> list[tuple]:
    """The symmetric Bloch solve of each operator, each step one pass over the list.

    The one symmetric spectrum driver: whole spectra (modes None), selected
    wavenumbers 1..modes, and the sweeps of the CLI.  Once per list: the
    symmetry (assembly._symmetry_defects), the labels and mirror counts of
    each distinct (patch shape, lengths) grid (_grid_labels) and the
    (selected) Bloch entries (assembly._bloch_entry_batch).  Once per
    operator, in plain Python: its layout and, per distinct (lengths,
    spacings, bonds), the dynamic-range check; once per grid, the blocks
    of wavenumbers 1..modes.  Operators that share their stored pairs and
    member orbits, such as one stencil on every grid of a patch sweep, form
    a plan group: one _pair_plan and one stack of entries (a single
    operator's as they are), which _solve_batch solves _batch_blocks blocks
    at a time, so the 96 blocks of sweep1d-patches take one call.  The
    ranks and, with `modes`, _unseparated take the group's eigenvalues at
    once.  Each block is solved alone, so each solve is bitwise the one
    its operator gets alone.

    Returns (symmetry, labels, counts, macro, w, ranks) per operator: the
    labels and mirror counts of its blocks, its macro mode count, its
    (blocks, b) eigenvalues and their ranks among the block's slow modes,
    -1 if fast.  An operator that fails a precondition ends the list: those
    before it are solved and checked first, so the error raised is that of
    the first operator that fails, as one call per operator would raise it.
    """
    kept, failure, ranges = [], None, set()
    for op in ops:
        try:
            layout = _patch_layout(op)
            lengths, spacings = _axis_lengths(op, layout)
            bonds = ((b.shape, b.tobytes()) for b in op.profile.bonds)
            inputs = (lengths.tobytes(), spacings.tobytes(), *bonds)
            if inputs not in ranges:
                _require_dynamic_range(op, layout)
                ranges.add(inputs)
        except (TypeError, ValueError) as exc:
            failure = exc
            break
        kept.append((op, layout, (layout.shape[1 : 1 + layout.patch_axes], lengths)))
    # each later check moves the failure to an earlier operator, or leaves it
    symmetry = _symmetry_defects([op for op, _, _ in kept])
    for i, report in enumerate(symmetry):
        try:
            _require_symmetric(report, "this operator must not be fed to a symmetric eigensolver")
        except ValueError as exc:
            failure = exc
            del kept[i:]
            break
    grids = {(patches, lengths.tobytes()): (patches, lengths) for _, _, (patches, lengths) in kept}
    selected = {}
    for grid, (labels, counts) in zip(grids, _grid_labels(list(grids.values())) if grids else ()):
        select = None if modes is None else np.flatnonzero((labels >= 1) & (labels <= modes))
        if select is not None:
            labels, counts = labels[select], counts[select]
        selected[grid] = int(labels.max(initial=0)), select, labels, counts, int(np.sum(counts))
    for i, (op, layout, (patches, lengths)) in enumerate(kept):
        top = selected[patches, lengths.tobytes()][0]
        if modes is not None and not 1 <= modes <= top:
            failure = ValueError(f"asked for wavenumbers 1..{modes}; the grid has {top}")
            del kept[i:]
            break
    solves, groups = [], {}
    chosen = [selected[patches, lengths.tobytes()] for _, _, (patches, lengths) in kept]
    entries = _bloch_entry_batch([op for op, _, _ in kept], [layout for _, layout, _ in kept],
                                 [select for _, select, _, _, _ in chosen]) if kept else []
    for i, ((op, layout, _), (pairs, stack), (_, _, labels, counts, copies)) in enumerate(
        zip(kept, entries, chosen)
    ):
        orbits = _orbits(layout, op.profile.periods)
        _, _, members, stacked = groups.setdefault(
            (pairs.tobytes(), orbits.shape, orbits.tobytes()), (pairs, orbits, [], [])
        )
        members.append(i)
        stacked.append(stack)
        # by default the labelled slow modes are the macro modes
        macro = layout.n_macro or op.dimension if modes is None else layout.slow * copies
        solves.append([symmetry[i], labels, counts, macro])
    del entries
    mixed = None  # (operator, error) of the first operator with a mixed block
    for pairs, orbits, members, stacked in groups.values():
        stack = stacked[0] if len(stacked) == 1 else np.concatenate(stacked)
        stacked.clear()
        plan = _pair_plan(pairs, orbits)
        step = _batch_blocks(plan[4].shape[0])
        w, _, slow = zip(*(
            _solve_batch(stack[start : start + step], plan, len(orbits), vectors=False)
            for start in range(0, len(stack), step)
        ))
        del stack
        w, slow = np.concatenate(w), np.concatenate(slow)
        ranks = np.full(w.shape, -1, dtype=np.intp)
        np.put_along_axis(ranks, slow, np.arange(slow.shape[1]), axis=1)
        ends = np.cumsum([solves[i][1].size for i in members])
        labels = np.concatenate([solves[i][1] for i in members])
        if modes is not None and (found := _unseparated(w, ranks, labels)) is not None:
            i = members[np.searchsorted(ends, found[0], side="right")]
            if mixed is None or i < mixed[0]:
                mixed = i, found[1]
        for i, w_i, ranks_i in zip(members, np.split(w, ends[:-1]), np.split(ranks, ends[:-1])):
            solves[i] += [w_i, ranks_i]
    if mixed is not None:
        raise mixed[1]
    if failure is not None:
        raise failure
    return solves


def _symmetric_spectra(
    ops, modes: int | None = None, n_macro: int | None = None
) -> list[SpectrumReport]:
    """eigen_symmetric(op, n_macro, modes) of each operator, as reports of _symmetric_solves.

    Once per list: the symmetry pass, the labels of every distinct grid,
    the Bloch entries; once per grid: the selection of wavenumbers
    1..modes; once per plan group: the pair plan, the batched solves, the
    ranks and the separation check.  Only the reports are per operator.
    """
    reports = []
    for symmetry, labels, counts, macro, w, ranks in _symmetric_solves(ops, modes):
        # each half-spectrum block stands for `counts` blocks of the full spectrum
        reports.append(SpectrumReport(
            eigenvalues=np.repeat(w, counts, axis=0).ravel(),
            n_macro=macro if n_macro is None else n_macro,
            symmetry=symmetry,
            wavenumbers=np.repeat(np.repeat(labels, counts), w.shape[1]),
            ranks=np.repeat(ranks, counts, axis=0).ravel(),
        ))
    return reports


def eigen_symmetric(op, n_macro: int | None = None, modes: int | None = None) -> SpectrumReport:
    """Real spectrum of a symmetric operator, sorted by magnitude and labelled.

    Preconditions: the profile's dynamic range (see _require_dynamic_range)
    and a relative symmetry defect at most 1e-10.  The operator is
    solved block by block in the patch wavenumber, and each eigenvalue is
    labelled by its block's wavenumber (see _grid_labels) and its rank
    among the block's Layout.slow slow modes.  Without `modes` every block is
    solved.  With it only the blocks of wavenumbers 1..modes are, O(modes
    b^3) work, and each of them must hold its slow modes below half its
    smallest fast one, or a ValueError names the block.  Both go through
    _symmetric_spectra of this one operator.
    """
    return _symmetric_spectra([op], modes, n_macro)[0]


def eigen_general(op, n_macro: int | None = None) -> SpectrumReport:
    """Complex spectrum of a general operator, sorted by magnitude.

    The operator is solved block by block in the patch wavenumber.  A wave
    operator has one defective zero pair per member orbit, set by count to
    exact zeros in the report.
    Precondition: the profile's dynamic range (see _require_dynamic_range).
    """
    layout = _patch_layout(op)
    _require_dynamic_range(op, layout)
    vals = _bloch_eigenvalues(op, layout)
    if n_macro is None:
        n_macro = layout.n_macro or vals.size
    return SpectrumReport(eigenvalues=vals, n_macro=n_macro)


@dataclass
class ErrorTable:
    """Mode-by-mode relative errors between two macroscale spectra."""

    indices: np.ndarray
    test_values: np.ndarray
    reference_values: np.ndarray
    relative_errors: np.ndarray


def error_table(test: SpectrumReport, reference: SpectrumReport, count: int) -> ErrorTable:
    """Relative errors of the slow modes of wavenumbers 1..count, paired by label.

    Row k is wavenumber k: each of its slow modes is paired with the
    reference mode of the same wavenumber and rank, and a label that occurs
    more than once, as blocks j and -j do, stands for the mean of its copies
    (bitwise equal copies in 1D).  With g > 1 slow modes per block a row
    reports the rank of largest relative error, so it bounds every slow mode
    of its wavenumber.  Both spectra must be labelled, as eigen_symmetric
    labels them, on the same grid.  _error_rows of one pair.
    """
    spectra = [
        None if report.wavenumbers is None else (
            report.eigenvalues[:, None], report.ranks[:, None], report.wavenumbers,
            np.ones(report.eigenvalues.size),
        )
        for report in (test, reference)
    ]
    t, rf, errors = (part[0] for part in _error_rows(spectra, count))
    return ErrorTable(
        indices=np.arange(1, count + 1),
        test_values=t,
        reference_values=rf,
        relative_errors=errors,
    )


def _error_rows(spectra, count: int):
    """error_table's rows of each (test, reference) pair of a list of spectra, in one pass.

    `spectra` alternate test and reference, each (values, ranks, labels,
    copies), or None without labels: eigenvalues and ranks in rows of one
    width (one eigenvalue of a report, or one block of _symmetric_solves),
    each row's label and the copies it stands for.  A slow mode is the mean
    of its copies, one bincount for the batch; a label of eigen_symmetric
    has at most two copies, so count x value sums as the copies do.  Each
    spectrum has its own g.  Returns the (pairs, count) test values,
    reference values and relative errors, each row its worst rank.
    """
    if count < 1:
        raise ValueError("need at least one table row")
    roles = ["test", "reference"] * (len(spectra) // 2)
    for spectrum, role in zip(spectra, roles):
        if spectrum is None:
            raise ValueError(f"the {role} spectrum carries no wavenumber labels to pair by")
    values, ranks, labels, copies = (np.concatenate(part) for part in zip(*spectra))
    which = np.repeat(np.arange(len(spectra)), [len(spectrum[2]) for spectrum in spectra])
    keep = (ranks >= 0) & ((labels >= 1) & (labels <= count))[:, None]
    which, labels, copies = (np.broadcast_to(part[:, None], keep.shape)[keep]
                             for part in (which, labels, copies))
    ranks, values = ranks[keep], np.real(values[keep])
    g = np.zeros(len(spectra), dtype=np.intp)
    np.maximum.at(g, which, ranks + 1)
    shape = (len(spectra), count, int(g.max(initial=0)))
    key = (which * count + labels - 1) * shape[2] + ranks
    found, sums = (np.bincount(key, weights=weights, minlength=math.prod(shape)).reshape(shape)
                   for weights in (copies, values * copies))
    valid = np.arange(shape[2]) < g[:, None, None]
    for s in np.flatnonzero(np.any((found == 0) & valid, axis=(1, 2)) | (g == 0))[:1]:
        raise ValueError(
            f"need the slow modes of wavenumbers 1..{count}; the {roles[s]} spectrum has "
            f"{np.unique(labels[which == s]).size} of them"
        )
    for p in np.flatnonzero(g[0::2] != g[1::2])[:1]:
        raise ValueError(
            f"{g[2 * p]} slow modes per wavenumber in the test spectrum, "
            f"{g[2 * p + 1]} in the reference"
        )
    means = np.divide(sums, found, out=np.ones(shape), where=found > 0)
    t, rf = means[0::2], means[1::2]
    errors = np.where(valid[1::2], np.abs(t - rf) / np.abs(rf), -np.inf)
    worst = np.argmax(errors, axis=2)[..., None]
    return tuple(np.take_along_axis(part, worst, axis=2)[..., 0] for part in (t, rf, errors))


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
