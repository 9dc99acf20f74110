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
have one driver, _symmetric_spectra, which takes a list of operators: a
sweep hands it all of them at once.  It stacks the (selected) blocks of the
operators that share a stored pair pattern and solves each stack in
batches by _solve_batch, since a solve of a few small blocks costs mostly
per-call overhead; eigen_symmetric is that driver on one operator.

eigen_general handles the wave system specially.  Its exact double zero
eigenvalue is defective (Jordan block on span{(1,0), (0,1)} with 1 the
constant vector), which general eigensolvers scatter into small complex
pairs.  Since the complement S = {1.u = 0, 1.v = 0} is invariant, the
spectrum is computed on S and the exact pair {0, 0} appended.  Every Bloch
block j != 0 already lies in S; only block j = 0 is projected onto its
zero-sum complement (assembly._bloch_eigenvalues).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    Layout,
    SymmetryReport,
    _batch_blocks,
    _bloch_entries,
    _bloch_eigenvalues,
    _mirror_counts,
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
    the shift.  H is shifted in place, so it must be a copy the caller no
    longer reads.  Returns the unit vectors, (k, b, 1).
    """
    k, b = w.shape
    scale = np.max(np.abs(w), axis=1, initial=0.0)
    shift = np.take_along_axis(w, slow, axis=1) + 1e-12 * np.where(scale > 0, scale, 1.0)[:, None]
    diagonal = np.arange(b)
    H[:, diagonal, diagonal] -= shift
    X = np.broadcast_to(_start_vector(b)[:, None], (k, b, 1))
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


@functools.lru_cache(maxsize=8)
def _pair_plan(pairs: bytes, orbits: bytes, g: int) -> tuple:
    """Where the entries of a Bloch block's Hermitian part go, from its pairs.

    `pairs` and `orbits` are the bytes of the sorted pair indices of
    assembly._bloch_entries and of the (g, m) assembly._orbits.  They are
    the same for every solve of one operator, and for every operator of one
    stencil in a patch sweep, so each plan is made once.  The Hermitian part
    lives on the union of the pairs and their mirrors, the pairs themselves
    when every mirror is stored.  Returns read-only index arrays over that
    union, sorted like the pairs: `take`, the stored pair of each union
    entry, pairs.size where none is stored (None when the union is the
    pairs); `mirror`, the union index of its mirror; `dense`, its place in
    the g orbit blocks of m x m, rows and columns numbered orbit by orbit;
    `slots`, its place in the (b, width) slots of the rows, each row's
    entries in column order; and `gather`, the orbit-numbered column of each
    slot, 0 where a slot is empty, shaped (b, width, 1).
    """
    pairs = np.frombuffer(pairs, dtype=np.intp)
    orbits = np.frombuffer(orbits, dtype=np.intp).reshape(g, -1)
    m = orbits.shape[1]
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
    plan = (take, mirror, rows * m + cols % m, slots, gather.reshape(b, width, 1))
    for index in plan:
        if index is not None:
            index.flags.writeable = False
    return plan


def _plan_key(pairs: np.ndarray, orbits: np.ndarray) -> tuple:
    """The arguments of _pair_plan for the pairs of _bloch_entries and the orbits of _orbits."""
    return pairs.astype(np.intp, copy=False).tobytes(), orbits.tobytes(), orbits.shape[0]


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
    eigenvectors, through _symmetric_spectra.
    """
    pairs, entries = _bloch_entries(op, layout)
    key = _plan_key(pairs, _orbits(layout, op.profile.periods))
    plan = _pair_plan(*key)
    step = _batch_blocks(plan[4].shape[0])
    for start in range(0, len(entries), step):
        yield _solve_batch(entries[start : start + step], plan, key[2], vectors=True)


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
    represented = np.where(larger, plus, minus)
    # one integer key per class; the lexsort below fixes the order of the classes
    key = np.ravel_multi_index(tuple(represented % N), patches[::-1])
    _, at, inverse = np.unique(key, return_index=True, return_inverse=True)
    classes = represented[:, at]
    lengths = _axis_lengths(op, layout)[0]
    ksq = np.sum((2 * np.pi * classes / lengths[:, None]) ** 2, axis=0)
    order = np.lexsort((*-classes[::-1], ksq))
    place = np.empty(order.size, dtype=np.intp)
    place[order] = np.arange(order.size)
    return place[inverse]


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


def _symmetric_spectra(
    ops, modes: int | None = None, n_macro: int | None = None
) -> list[SpectrumReport]:
    """eigen_symmetric(op, n_macro, modes) of each operator, their blocks solved together.

    The one symmetric spectrum driver: whole spectra (modes None), selected
    wavenumbers 1..modes, and the sweeps of the CLI.  Each operator's
    preconditions, wavenumber labels and (selected) entries of
    assembly._bloch_entries are taken in list order.  Work that depends on
    the grid alone is done once per call for each distinct input: the
    dynamic-range check per (lengths, spacings, bonds), the labels and
    mirror counts per (patch shape, lengths); a sweep of 32 operators has
    16 grids.  Operators that share a _pair_plan, such as those of one
    stencil on every grid of a patch sweep, have their entries stacked, and
    _solve_batch solves the stack assembly._batch_blocks blocks at a time:
    one call for the 96 blocks of the sweep1d-patches benchmark, since a
    call on an operator's 3 blocks of 10 x 10 costs mostly per-call
    overhead.  The entries of a plan of one operator are solved as they
    are, and those of several are dropped once stacked, so a solve holds one
    copy of them.  Every block is solved alone within a batch, so each
    report is bitwise the one its operator gets on its own.

    With `modes`, _require_separated checks the reports in list order; a
    whole spectrum pairs no modes by rank and is not checked.  An operator
    that fails a precondition ends the list: those before it are solved and
    checked first, so the error raised is always that of the first operator
    that fails, as one call per operator would raise it.
    """
    solves, groups, failure = [], {}, None
    ranges, grids = set(), {}  # dynamic-range inputs passed; labels and counts per grid
    for op in ops:
        try:
            layout = _patch_layout(op)
            lengths, spacings = _axis_lengths(op, layout)
            bonds = ((b.shape, b.tobytes()) for b in op.profile.bonds)
            inputs = (lengths.tobytes(), spacings.tobytes(), *bonds)
            if inputs not in ranges:
                _require_dynamic_range(op, layout)
                ranges.add(inputs)
            symmetry = _require_symmetric(
                op, "this operator must not be fed to a symmetric eigensolver"
            )
            grid = (layout.shape[1 : 1 + layout.patch_axes], lengths.tobytes())
            if grid not in grids:
                grids[grid] = _wavenumber_labels(op, layout), _mirror_counts(layout)
            labels, counts = grids[grid]
            if modes is not None and not 1 <= modes <= labels.max(initial=0):
                raise ValueError(
                    f"asked for wavenumbers 1..{modes}; the grid has {labels.max(initial=0)}"
                )
        except ValueError as exc:
            failure = exc
            break
        if modes is None:
            select, macro = None, layout.n_macro or op.dimension
        else:
            select = np.flatnonzero((labels >= 1) & (labels <= modes))
            labels, counts = labels[select], counts[select]
            # by default the labelled slow modes are the macro modes
            macro = layout.slow * int(np.sum(counts))
        pairs, entries = _bloch_entries(op, layout, select)
        members, stacked = groups.setdefault(
            _plan_key(pairs, _orbits(layout, op.profile.periods)), ([], [])
        )
        members.append(len(solves))
        stacked.append(entries)
        solves.append((symmetry, labels, counts, macro if n_macro is None else n_macro))
    solved = [None] * len(solves)
    for key, (members, stacked) in groups.items():
        entries = stacked[0] if len(stacked) == 1 else np.concatenate(stacked)
        stacked.clear()
        plan = _pair_plan(*key)
        step = _batch_blocks(plan[4].shape[0])
        w, _, slow = zip(*(
            _solve_batch(entries[start : start + step], plan, key[2], vectors=False)
            for start in range(0, len(entries), step)
        ))
        del entries
        w, slow = np.concatenate(w), np.concatenate(slow)
        bounds = np.cumsum([solves[i][1].size for i in members])[:-1]
        for i, w_i, slow_i in zip(members, np.split(w, bounds), np.split(slow, bounds)):
            solved[i] = w_i, slow_i
    reports = []
    for (symmetry, labels, counts, count), (w, slow) in zip(solves, solved):
        # the rank of each eigenvalue among its block's slow modes, -1 if fast
        ranks = np.full(w.shape, -1, dtype=np.intp)
        np.put_along_axis(ranks, slow, np.arange(slow.shape[1]), axis=1)
        if modes is not None:
            _require_separated(w, ranks, labels)
        # each half-spectrum block stands for `counts` blocks of the full spectrum
        reports.append(SpectrumReport(
            eigenvalues=np.repeat(w, counts, axis=0).ravel(),
            n_macro=count,
            symmetry=symmetry,
            wavenumbers=np.repeat(np.repeat(labels, counts), w.shape[1]),
            ranks=np.repeat(ranks, counts, axis=0).ravel(),
        ))
    if failure is not None:
        raise failure
    return reports


def eigen_symmetric(op, n_macro: int | None = None, modes: int | None = None) -> SpectrumReport:
    """Real spectrum of a symmetric operator, sorted by magnitude and labelled.

    Preconditions: the profile's dynamic range (see _require_dynamic_range)
    and a relative symmetry defect at most 1e-10.  The operator is
    solved block by block in the patch wavenumber, and each eigenvalue is
    labelled by its block's wavenumber (see _wavenumber_labels) and its rank
    among the block's Layout.slow slow modes.  Without `modes` every block is
    solved.  With it only the blocks of wavenumbers 1..modes are, O(modes
    b^3) work, and each of them must hold its slow modes below half its
    smallest fast one, or a ValueError names the block.  Both go through
    _symmetric_spectra of this one operator.
    """
    return _symmetric_spectra([op], modes, n_macro)[0]


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
