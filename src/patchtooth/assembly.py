"""Assembly of the self-adjoint patch operators.

Inside a patch the operator is the plain heterogeneous second difference over
the interior points i = 1..n.  The rows at i = 1 and i = n reference the edge
values i = 0 and i = n+1, which are eliminated by the inter-patch stencils:
the right-edge bond of patch I couples its i = n row to the i = 1 unknowns of
all patches J with weight w_right[(J - I) mod N], and the left-edge bond
couples i = 1 to the i = n unknowns with w_left.  A coupling gives w_right
alone; _stencil mirrors it into w_left.  Every entry carries the microscale
1/d^2 scaling.  In 2D the same stencil acts along each axis.

Symmetry comes from three facts: the interior stencil is symmetric, the two
edge stencils are mirrors of each other (w_left[m] = w_right[-m], made in
_stencil alone), and both sides of every gap see the same bond diffusivity.
The last point is automatic for single-phase patches with p | n; for general
n the phase-shift ensemble restores it by routing each edge coupling to the
member whose phase matches across the gap (member shifted by -n at the left
edge, +n at the right).

The unknowns are the C-order flattening of an array of shape
(members, N, n) in 1D and (members, N_y, N_x, n_y, n_x) in 2D:

    1D: index = (member * N + I) * n + (i - 1)
    2D: index = ((member * N_y + J) * N_x + I) * (n_x n_y) + (j - 1) n_x + (i - 1)

Every operator carries that shape in its Layout.  Ensemble members are phase
tuples flattened row-major over the axes, e = phi * p_y + psi.

Every patch carries the same interior block and the edge couplings depend
only on the patch offset, so an operator is block-circulant in the patch
index and the rows of patch 0, its first block row, describe it whole.
AssembledOperator stores only their nonzero entries, O(nnz / N) numbers.
The symmetry defect, the kernel residual (row sums) and the Bloch blocks of
the spectra and time steppers are computed from them; `.matrix` rolls the
dense matrix out anew, at dim^2 memory, on every access.  The full lattices
of microscale are patch operators too, with one-hot edge weights, so every
operator has patch axes and every solver takes the Bloch path.

Operators that share n per axis, the periods and the ensemble flag, as the
test and reference operators on every grid of a sweep do, are assembled in
one pass (_assemble_patches): _stencil builds the index arrays of the
pieces once for the whole batch and lays each operator's values along a
flat operator axis, and every operator keeps the bits it has alone.

The wave operator wraps a diffusion operator A into the first-order system
d/dt (u, v) = (v, A u + eps B v), where B is the same patch construction with
unit diffusivities; its matrix is [[0, I], [A, eps B]].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import geometry
from .coupling import CouplingSpec, weights_for
from .microscale import DiffusivityProfile1D, DiffusivityProfile2D

# Bytes of extended-precision numbers that one batch of dense Bloch blocks,
# or one chunk of pair lines transformed together, may hold.
_BATCH_BYTES = 2**22

# The largest key of a stencil batch; a batch whose keys would pass it is
# assembled in halves, and an operator whose keys pass it is refused.
_KEY_LIMIT = np.iinfo(np.intp).max


@dataclass(frozen=True)
class Layout:
    """How an operator orders its unknowns.

    A state is the C-order flattening of an array of `shape`, member axis
    first: (members, N, n) for a 1D patch operator and (members, N_y, N_x,
    n_y, n_x) in 2D; a full lattice has one member.  A wave operator stacks
    two such arrays, u then v, each of size `half`.  The `patch_axes` axes
    after the member axis index patches, one per lattice axis, and the
    operator is block-circulant over them.

    `slow` is the number of slow (macroscale) eigenvalues of each Bloch
    block: 1 for a single phase, and for a phase-shift ensemble the product
    over the axes of gcd(p_a, n_a), since crossing a patch edge along axis a
    moves phase l to (l + n_a) mod p_a, so the members fall into that many
    orbits (Bunder, Roberts & Kevrekidis, J. Comput. Phys. 337, 2017).
    A patch operator has `n_macro` = slow x (number of patches) macroscale
    modes, and its wave system twice that, each macro mode of A a pair
    +-i omega; a full lattice leaves it None.
    """

    shape: tuple[int, ...]
    patch_axes: int
    ensemble: bool = False
    half: int | None = None
    n_macro: int | None = None
    diagnostics: tuple = ()
    slow: int = 1

    @property
    def members(self) -> int:
        return self.shape[0]


def _state_layout(layout: Layout) -> Layout:
    """The layout of the whole state.

    A wave operator's state (u, v) is read as one array of shape
    (2 * members, patches..., local...): u and v stack on the member axis.
    """
    if layout.half is not None:
        return replace(layout, shape=(2 * layout.members, *layout.shape[1:]), half=None)
    return layout


def _blocking(layout: Layout) -> tuple[tuple[int, ...], int, int]:
    """Patch shape, block size b and points per member of a state layout."""
    k = layout.patch_axes
    patches = layout.shape[1 : 1 + k]
    points = math.prod(layout.shape[1 + k :])
    return patches, layout.members * points, points


def _orbits(op) -> np.ndarray:
    """The unknowns of an operator's Bloch block grouped by member orbit, (slow, b / slow).

    A member's orbit is its phase reduced mod gcd(p_a, n_a) on each axis
    (see Layout.slow).  No stored entry couples two orbits, so every Bloch
    block is block diagonal over them, each diagonal block with one slow
    mode.  A single phase is one orbit of every unknown.
    """
    layout = _patch_layout(op)
    _, b, points = _blocking(layout)
    if layout.slow == 1:
        return np.arange(b)[None]
    n = layout.shape[1 + layout.patch_axes :][::-1]  # x first, as the periods
    gcds = [math.gcd(p, m) for p, m in zip(op.profile.periods, n)]
    phase = np.unravel_index(np.arange(layout.members), op.profile.periods)
    orbit = np.ravel_multi_index([ph % c for ph, c in zip(phase, gcds)], gcds)
    members = np.argsort(orbit, kind="stable").reshape(layout.slow, -1)
    return (members[:, :, None] * points + np.arange(points)).reshape(layout.slow, -1)


def _patch_sum(a, b, patches, sign: int = 1) -> np.ndarray:
    """Flat index of patch a + sign * b, taken mod N along each patch axis.

    a and b are flat C-order indices over `patches` and broadcast.
    """
    parts = zip(np.unravel_index(a, patches), np.unravel_index(b, patches))
    return np.ravel_multi_index([x + sign * y for x, y in parts], patches, mode="wrap")


@dataclass
class AssembledOperator:
    """A block-circulant operator stored as its first block row, plus its layout.

    Entry t couples local row rows[t] of every patch P to local column
    cols[t] of patch P + offsets[t] (mod N along each patch axis) with weight
    values[t].  Local rows and columns index (member, local point) in C order,
    the block index of the Bloch blocks; offsets are flat C-order indices over
    the patch axes.  A wave operator indexes its entries in the stacked
    (u, v) state of _state_layout.  Each (row, offset, col) occurs once, and
    the entries are kept sorted by it.
    """

    layout: Layout
    rows: np.ndarray
    offsets: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    grid: object = None
    profile: object = None
    coupling: object = None

    def __post_init__(self):
        parts = [np.asarray(part) for part in (self.rows, self.offsets, self.cols, self.values)]
        self.rows, self.offsets, self.cols, self.values = parts
        keys = self._keys()
        if not (keys[1:] > keys[:-1]).all():  # _stencil's entries come sorted already
            order = np.argsort(keys, kind="stable")
            self.rows, self.offsets, self.cols, self.values = (part[order] for part in parts)

    def _keys(self) -> np.ndarray:
        patches, b, _ = _blocking(_state_layout(self.layout))
        return (self.rows * math.prod(patches) + self.offsets) * b + self.cols

    @property
    def dimension(self) -> int:
        return math.prod(_state_layout(self.layout).shape)

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Global (rows, cols, values) of the stored entries in every patch: O(nnz)."""
        patches, _, points = _blocking(_state_layout(self.layout))
        K = math.prod(patches)
        P = np.arange(K)[:, None]

        def index(local, patch):
            member, point = np.divmod(local, points)
            return (member * K + patch) * points + point

        rows = index(self.rows, P)
        cols = index(self.cols, _patch_sum(P, self.offsets, patches))
        return rows.ravel(), cols.ravel(), np.broadcast_to(self.values, rows.shape).ravel()

    @property
    def matrix(self) -> np.ndarray:
        """The dense dim x dim matrix, rolled out anew on every access."""
        rows, cols, values = self.triplets()
        matrix = np.zeros((self.dimension, self.dimension))
        matrix[rows, cols] = values
        return matrix


def _patch_layout(op) -> Layout:
    """The state layout of an assembled operator; a TypeError for anything else."""
    if not isinstance(op, AssembledOperator):
        raise TypeError(f"an AssembledOperator is required, not {type(op).__name__}")
    return _state_layout(op.layout)


def _stacked(ops):
    """The sizes and the (rows, offsets, cols, values) of every stored entry of the operators."""
    sizes = [op.values.size for op in ops]
    parts = [[getattr(op, part) for op in ops] for part in ("rows", "offsets", "cols", "values")]
    if len(ops) == 1:
        return sizes, *(part[0] for part in parts)
    empty = [np.zeros(0, dtype=np.intp)]  # the parts of an empty list
    return sizes, *(np.concatenate(part or empty) for part in parts)


def _spread(values, sizes):
    """Each operator's value at each of its `sizes` entries; one operator's value as it is."""
    return values[0] if len(sizes) == 1 else np.repeat(values, sizes, axis=0)


def _bloch_entry_batch(ops, selects):
    """The Bloch blocks H(j) of each operator at their stored (row, col) pairs, in one pass.

    H(j) = sum_m A[0, m] exp(+2 pi i j.m / N) over the patch offsets m of
    the first block row, so that rfftn(A x)(j) = H(j) rfftn(x)(j) with the
    FFT taken over the patch axes.  A patch-local pair, stored at offset 0
    alone (the diagonal and the interior bonds), has H(j) equal to its value
    at every j, exactly.  Every other pair, an edge coupling, is one line
    over the offsets, transformed in extended precision (np.longdouble):
    O(varying pairs K log K) work for K patches.  One np.unique numbers the
    pairs of all operators, and the lines of one patch shape are
    transformed together, at most about _BATCH_BYTES of them at a time;
    each line alone, so no bit depends on the batch.  j runs over the half
    spectrum of rfftn (the last patch axis halved), in rfftn's order, or
    over the operator's `select`, indices into it, in the order given.

    Returns one (pairs, entries) per operator: the sorted flat indices row *
    b + col of its pairs in a block indexed by (member, local point) in C
    order, and the read-only (blocks, pairs) array of the entries
    H(j)[row, col]; every other entry of H(j) is zero.  Each consumer
    slices the blocks into batches of _batch_blocks(b).
    """
    if not ops:
        return []
    blockings = [_blocking(_patch_layout(op)) for op in ops]
    # the operators of one patch shape next to each other, so that their lines are too
    shapes = {}
    kinds = [shapes.setdefault(blocking[0], len(shapes)) for blocking in blockings]
    order = sorted(range(len(ops)), key=kinds.__getitem__)
    sizes, rows, offsets, cols, values = _stacked([ops[i] for i in order])
    b = [blockings[i][1] for i in order]
    first = [0, *itertools.accumulate(x * x for x in b[:-1])]
    keys = _spread(first, sizes) + rows * _spread(b, sizes) + cols
    pairs, pair = np.unique(keys, return_inverse=True)
    # A pair stored at a nonzero offset varies with j.  Each (row, offset,
    # col) is stored once, so every other pair is stored at offset 0 alone.
    varies = np.zeros(pairs.size, dtype=bool)
    varies[pair[offsets != 0]] = True
    bounds = [*np.searchsorted(pairs, first).tolist(), pairs.size]
    counts = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    # the columns of each operator's blocks, padded with column 0 to those of the widest
    halves = [math.prod(p[:-1]) * (p[-1] // 2 + 1) for p, _, _ in (blockings[i] for i in order)]
    selects = [np.arange(half) if selects[i] is None else np.asarray(selects[i], dtype=np.intp)
               for i, half in zip(order, halves)]
    columns = [select.size for select in selects]
    picks = np.zeros((len(ops), max(columns, default=0)), dtype=np.intp)
    for pick, select in zip(picks, selects):
        pick[: select.size] = select
    spectrum = np.empty((pairs.size, picks.shape[1]), dtype=np.clongdouble)
    local = ~varies[pair]  # the entries of the patch-local pairs
    spectrum[pair[local]] = values[local, None]
    # the varying pairs, one line each, and their entries sorted by line
    lines = np.flatnonzero(varies)
    line = np.searchsorted(lines, pair[~local])
    by_line = np.argsort(line, kind="stable")
    line, offsets, values = line[by_line], offsets[~local][by_line], values[~local][by_line]
    owners = np.searchsorted(bounds[1:], lines, side="right")
    entries = np.searchsorted(line, np.arange(lines.size + 1)).tolist()
    # the first line of each patch shape, in order
    starts = itertools.accumulate((kinds.count(kind) for kind in range(len(shapes))), initial=0)
    edges = np.searchsorted(lines, [bounds[i] for i in starts]).tolist()
    for (patches, kind), top in zip(shapes.items(), edges[1:]):
        K = math.prod(patches)
        chunk = max(1, _BATCH_BYTES // (K * np.dtype(np.longdouble).itemsize))
        for lo in range(edges[kind], top, chunk):
            hi = min(lo + chunk, top)
            at = slice(entries[lo], entries[hi])
            block = np.zeros((hi - lo, K), dtype=np.longdouble)
            block[line[at] - lo, offsets[at]] = values[at]
            # rfftn over the patch axes: rfft along the last, then fft along the others
            transformed = np.fft.rfft(block.reshape(-1, *patches))
            for axis in range(len(patches) - 1, 0, -1):
                transformed = np.fft.fft(transformed, axis=axis, out=transformed)
            transformed = transformed.reshape(hi - lo, -1)
            spectrum[lines[lo:hi]] = transformed[np.arange(hi - lo)[:, None], picks[owners[lo:hi]]]
    np.conj(spectrum, out=spectrum)  # H(j) takes exp(+2 pi i j.m / N), rfftn the conjugate
    spectrum.flags.writeable = False
    pairs = pairs - _spread(first, counts)
    batch = [None] * len(ops)
    for i, lo, hi, c in zip(order, bounds, bounds[1:], columns):
        batch[i] = pairs[lo:hi], spectrum[lo:hi, :c].T
    return batch


def _batch_blocks(b: int) -> int:
    """Blocks of size b in one batch: at most about _BATCH_BYTES of extended precision blocks."""
    return max(1, _BATCH_BYTES // (np.dtype(np.clongdouble).itemsize * b * b))


def _bloch_batches(op: AssembledOperator):
    """Bloch blocks H(j) of a patch operator in batches over j, each (k, b, b).

    The dense view of _bloch_entry_batch: each block holds its entries at
    the stored pairs and zeros elsewhere, a block indexed by (member, local
    point) in C order, one batch at most about _BATCH_BYTES of blocks.  For
    a wave operator each block is [[0, I], [A(j), eps B(j)]].

    Each batch is built in place, a new array that the caller owns and may
    overwrite: no reference to it is kept here, so a caller that drops a
    batch before asking for the next holds one batch of blocks at a time.
    """
    b = _blocking(_patch_layout(op))[1]
    [(pairs, entries)] = _bloch_entry_batch([op], [None])
    step = _batch_blocks(b)
    for start in range(0, len(entries), step):
        batch = entries[start : start + step]
        blocks = np.zeros((batch.shape[0], b * b), dtype=batch.dtype)
        blocks.imag = -0.0  # the zeros too are conjugates of the transform's: 0 - 0j
        blocks[:, pairs] = batch
        yield blocks.reshape(-1, b, b)


def _mirror_counts(layout: Layout) -> np.ndarray:
    """Full-spectrum blocks each half-spectrum block stands for: 1 or 2.

    Block -j is the conjugate of block j.  It lies outside the half spectrum
    unless the halved wavenumber j_last satisfies j_last = -j_last (mod N).
    """
    n_last = layout.shape[layout.patch_axes]
    j = np.arange(n_last // 2 + 1)
    counts = np.where((j == 0) | (2 * j == n_last), 1, 2)
    return np.broadcast_to(counts, layout.shape[1 : layout.patch_axes] + counts.shape).ravel()


def _bloch_eigenvalues(op) -> np.ndarray:
    """Eigenvalues of every Bloch block, those of the mirrored blocks as conjugates.

    The one general Bloch eigensolve, of spectra.eigen_general and
    timestep.stability_limit.  A wave operator's 2 * slow eigenvalues of block
    j = 0 nearest zero, one defective pair per member orbit, become exact zeros.
    """
    solved = np.concatenate([np.linalg.eigvals(W.astype(complex)) for W in _bloch_batches(op)])
    if op.layout.half is not None:
        solved[0, np.argsort(np.abs(solved[0]))[: 2 * op.layout.slow]] = 0.0
    mirrored = solved[_mirror_counts(op.layout) == 2]
    return np.concatenate([solved.ravel(), np.conj(mirrored).ravel()])


@dataclass
class SymmetryReport:
    defect: float
    scale: float
    relative: float


def symmetry_defect(op: AssembledOperator) -> SymmetryReport:
    """Largest asymmetry max|L - L^T|, absolute and relative to max|L|: _symmetry_defects of one."""
    return _symmetry_defects([op])[0]


def _symmetry_defects(ops) -> list[SymmetryReport]:
    """symmetry_defect of each operator, in one pass over their first block rows.

    Entry (r, m, c) of a first block row is compared with entry (c, -m, r),
    a missing one counting as 0: O(nnz / N) work, and exactly the maxima of
    the whole-matrix expressions.  Each operator's keys lie past those of
    the ones before it, as in _stencil, so one searchsorted finds every
    mirror and np.maximum.reduceat takes the maxima; a batch whose keys
    would pass _KEY_LIMIT is measured in halves.
    """
    blockings = [_blocking(_patch_layout(op)) for op in ops]
    ranges = [b * b * math.prod(patches) for patches, b, _ in blockings]
    if sum(ranges) > _KEY_LIMIT and len(ops) > 1:
        return _symmetry_defects(ops[: len(ops) // 2]) + _symmetry_defects(ops[len(ops) // 2 :])
    sizes, rows, offsets, cols, values = _stacked(ops)
    full = [i for i, size in enumerate(sizes) if size]
    defects, scales = np.zeros(len(ops)), np.zeros(len(ops))
    if full:
        depth = max(len(patches) for patches, _, _ in blockings)
        # patch axes in C order, each operator's padded in front with axes of one patch
        N = [(1,) * (depth - len(patches)) + patches for patches, _, _ in blockings]
        K, b, base = (_spread(part, sizes) for part in (
            [math.prod(shape) for shape in N], [blocking[1] for blocking in blockings],
            [0, *itertools.accumulate(ranges[:-1])]))
        back, rest, stride = 0, offsets, 1  # the offset -m, mod N along each patch axis
        for axis in reversed(np.transpose(_spread(N, sizes))):
            rest, digit = np.divmod(rest, axis)
            back, stride = back + -digit % axis * stride, stride * axis
        keys = (rows * K + offsets) * b + cols + base
        mirror = (cols * K + back) * b + rows + base
        at = np.minimum(np.searchsorted(keys, mirror), keys.size - 1)
        mirrored = np.where(keys[at] == mirror, values[at], 0.0)
        starts = [[0, *itertools.accumulate(sizes)][i] for i in full]
        defects[full] = np.maximum.reduceat(np.abs(values - mirrored), starts)
        scales[full] = np.maximum.reduceat(np.abs(values), starts)
    return [
        SymmetryReport(defect=defect, scale=scale, relative=defect / scale if scale > 0 else 0.0)
        for defect, scale in zip(defects.tolist(), scales.tolist())
    ]


def _kernel_residual(op: AssembledOperator) -> float:
    """max|A k| for the kernel vector k = 1, or k = (1; 0) for the wave system.

    Every patch repeats the first block row, so A k is K copies of its row
    sums: O(nnz / N) work and no dim-length vector.  Each row is summed over
    its stored values in stored order, the wave's v-column entries multiplied
    by 0 in place, as a product gathered over the patches sums them.
    """
    values = op.values
    if op.layout.half is not None:
        values = values * (op.cols < _blocking(op.layout)[1])  # v = 0
    starts = np.unique(op.rows, return_index=True)[1]
    return float(np.max(np.abs(np.add.reduceat(values, starts)), initial=0.0))


def _row_sum_bound(op: AssembledOperator) -> float:
    """An upper bound on the spectral radius rho(L): the norm ||S^-1 L S||_inf.

    Every row of L repeats a local row of the first block row, so the norm
    is a maximum over its absolute row sums: O(nnz / N) work.  A diffusion
    operator takes S = I.  A wave operator [[0, I], [A, eps B]] takes
    S = diag(s I, I), whose norm is max(U / s, s A_inf + B_inf) for the
    largest absolute row sums U of the u rows, A_inf of the v rows' u columns
    and B_inf of their v columns, and s balances the two terms; with A_inf =
    0 the norm tends to B_inf.  The bound holds for every s > 0 and every
    operator, symmetric or not (Varga, Gersgorin and His Circles, Springer
    2004).  A float sum of k nonnegative terms is within (k - 1) eps of the
    exact sum.
    """
    weights = np.abs(op.values)
    if op.layout.half is None:
        starts = np.unique(op.rows, return_index=True)[1]
        return float(np.max(np.add.reduceat(weights, starts), initial=0.0))
    b = _blocking(op.layout)[1]
    sums = np.zeros((2, 2, b))  # (row field, column field, local row), u then v
    np.add.at(sums, (op.rows // b, op.cols // b, op.rows % b), weights)
    u, a, eps_b = (float(np.max(sums[field])) for field in ((0, 1), (1, 0), (1, 1)))
    if a == 0.0:
        return eps_b
    # the positive root of a s^2 + eps_b s - u = 0, in the form without cancellation
    s = 2.0 * u / (eps_b + math.sqrt(eps_b * eps_b + 4.0 * a * u))
    return max(u / s, s * a + eps_b) if s > 0.0 else math.inf  # s = 0 where the squares overflow


def _raise_on_errors(diagnostics, allow_incompatible):
    errors = [msg for severity, msg in diagnostics if severity == "error"]
    if errors and not allow_incompatible:
        raise ValueError("; ".join(errors))


def _axis_inputs(grid, coupling: CouplingSpec) -> list[tuple]:
    """Per-axis stencil inputs (N, n, d, w_right) of a patch grid, x first."""
    return [(g.N, g.n, g.d, weights_for(coupling, g.N, g.r)) for g in grid.axes]


def _check_spacings(spacings) -> None:
    for d in spacings:
        if not (d * d > 0.0 and math.isfinite(1.0 / (d * d))):
            raise ValueError(f"lattice spacing d = {d!r} has no finite 1/d^2")


def _stencil(batch):
    """Unknown shape and first block row (rows, offsets, cols, values) of each patch operator.

    Each operator of the batch is given as (axes, bonds, ensemble), each
    axis, x first, as (N, n, d, w_right): N patches of n points at spacing
    d, whose edge rows couple to the far next-to-edge point of patch
    (I + m) mod N with weights w_right[m] and, made here for every operator,
    its mirror w_left[m] = w_right[-m mod N].  So any weights give a
    symmetric operator where both sides of each gap see one bond.  A full
    lattice of M points along an axis is q = M / n patches of n points whose
    edges couple to the next patch with weight 1: w_right = e_1, [1.0] when
    q = 1.

    The stencil has three parts: interior bonds, edge couplings weighted over
    the patch offsets m and, in ensemble mode, the member shift of each edge
    crossing.  They are evaluated for the unknowns of patch 0 only, as pieces
    in the order diagonal, right then left along x, then along y; no entry
    repeats within one piece.  The operators of a batch share n per axis,
    the periods and the ensemble flag, a TypeError otherwise, so they share
    the unknowns of a block and the structure of every piece: a sweep is
    assembled in one pass.  The index arrays are built once, each
    operator's values (its bonds times 1/d^2, its weights over its own
    offsets) laid along a flat operator axis, and _coalesce sums the whole
    batch at once, each operator's keys past those of the operators before
    it; a batch whose keys would pass _KEY_LIMIT is assembled in halves.
    Every entry is the same floating point sum as in a row-by-row loop of
    its operator alone.
    """
    if not batch:
        return []
    n = [ax[1] for ax in batch[0][0]]
    periods, ensemble = batch[0][1][0].shape, batch[0][2]
    for axes, bonds, flag in batch:
        if [ax[1] for ax in axes] != n or bonds[0].shape != periods or flag != ensemble:
            raise TypeError("a stencil batch needs one n per axis, one period shape and one "
                            "ensemble flag")
        _check_spacings(ax[2] for ax in axes)
    dims = len(n)
    members = math.prod(periods) if ensemble else 1
    block = (members, *n[::-1])
    size = math.prod(block)
    # each operator's keys (row * K + offset) * size + col span size^2 K of its own
    ranges = [size * size * math.prod(ax[0] for ax in axes) for axes, _, _ in batch]
    if sum(ranges) > _KEY_LIMIT:
        if len(batch) == 1:
            raise ValueError("the stencil keys of the operator do not fit in an array index")
        return _stencil(batch[: len(batch) // 2]) + _stencil(batch[len(batch) // 2 :])

    member, *local = np.unravel_index(np.arange(size), block)
    local = local[::-1]  # i - 1, x first
    phase = np.unravel_index(member, periods)  # all zero for a single phase

    def column(member, local):
        return np.ravel_multi_index((member, *local[::-1]), block)

    N = np.array([[ax[0] for ax in axes] for axes, _, _ in batch])  # (operators, axes)
    scale = 1.0 / np.square([[ax[2] for ax in axes] for axes, _, _ in batch])
    stride = N.prod(axis=1) * size  # key stride of a row: K * size
    steps = N.cumprod(axis=1) // N  # patch offset of one step along each axis
    base = np.cumsum([0] + ranges[:-1])  # each operator's first key
    fields = [np.stack([bonds[a] for _, bonds, _ in batch]) for a in range(dims)]

    def bond(a, back):
        """Bond field a at each point's lattice position, stepped back along axis `back`."""
        pos = tuple((local[b] + 1 + phase[b] - (b == back)) % periods[b] for b in range(dims))
        return fields[a][(slice(None), *pos)] * scale[:, a, None]

    def keys(op, rows, cols):
        """Keys (row * K + offset) * size + col past each operator's first, offsets in cols."""
        return base[op] + rows * stride[op] + cols

    right = [bond(a, None) for a in range(dims)]
    left = [bond(a, a) for a in range(dims)]
    everything = np.arange(size)
    every = (slice(None), None)  # each operator along the first axis
    pieces = [(keys(every, everything, everything),
               -sum(k for pair in zip(right, left) for k in pair))]
    for a in range(dims):
        # the flat operator axis of the edge couplings: operator `op` at offset m
        counts = N[:, a]
        op = np.repeat(np.arange(len(batch)), counts)
        start = counts.cumsum() - counts
        m = np.arange(op.size) - start[op]
        w_right = np.concatenate([axes[a][3] for axes, _, _ in batch])
        for k, step, near, far, weights in (
            (right[a], 1, n[a] - 1, 0, w_right),
            (left[a], -1, 0, n[a] - 1, w_right[start[op] + (-m) % counts[op]]),
        ):
            # interior bond to the neighbour one step along axis a, in patch 0
            inner = np.flatnonzero(local[a] != near)
            stepped = [loc[inner] + step * (c == a) for c, loc in enumerate(local)]
            pieces.append((keys(every, inner, column(member[inner], stepped)), k[:, inner]))

            # edge coupling to the far next-to-edge point of patch m along axis a,
            # in the member whose phase matches across the gap
            edge = np.flatnonzero(local[a] == near)
            if ensemble:
                shifted = [ph[edge] + step * n[a] * (c == a) for c, ph in enumerate(phase)]
                source = np.ravel_multi_index(shifted, periods, mode="wrap")
            else:
                source = member[edge]
            points = [loc[edge] for loc in local]
            points[a] = np.full_like(points[a], far)
            cols = (m * steps[op, a] * size)[:, None] + column(source, points)
            pieces.append((keys(op[:, None], edge, cols), k[op[:, None], edge] * weights[:, None]))
    unique, values = _coalesce(pieces)
    # split the batch back into its operators, each indexed as AssembledOperator stores it
    bounds = [*np.searchsorted(unique, base).tolist(), unique.size]
    counts = np.diff(bounds)
    rows, rest = np.divmod(unique - np.repeat(base, counts), np.repeat(stride, counts))
    offsets, cols = np.divmod(rest, size)
    return [
        ((members, *N[i, ::-1].tolist(), *block[1:]),
         tuple(part[lo:hi] for part in (rows, offsets, cols, values)))
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]


def _coalesce(pieces):
    """Sum the pieces (keys, values) entry by entry, in stream order.

    One np.unique covers every key and one scatter-add runs per piece,
    starting from 0.0; entries that sum to 0.0 are dropped.  Returns the
    sorted keys and their sums.
    """
    unique, inverse = np.unique(np.concatenate([key.ravel() for key, _ in pieces]),
                                return_inverse=True)
    sums = np.zeros(unique.size)
    start = 0
    for key, values in pieces:
        # No entry repeats within one piece: one addition per entry.
        sums[inverse[start : start + key.size]] += np.broadcast_to(values, key.shape).ravel()
        start += key.size
    keep = sums != 0.0
    return unique[keep], sums[keep]


def _assemble_patches(points, profile, ensemble: bool = False, allow_incompatible: bool = False):
    """The patch operator of each (grid, coupling) point on one profile, in one stencil batch.

    Each point is validated in list order, so the error raised is that of
    the first point that fails, as one assemble_patch_1d call per point
    raises it.  The grids must share n per axis (a TypeError otherwise), as
    every grid of a sweep does.
    """
    batch, layouts = [], []
    for grid, coupling in points:
        diagnostics = geometry.validate_compatibility(grid, profile, ensemble=ensemble)
        _raise_on_errors(diagnostics, allow_incompatible)
        axes = _axis_inputs(grid, coupling)
        _check_spacings(ax[2] for ax in axes)
        batch.append((axes, profile.bonds, ensemble))
        orbits = (math.gcd(p, g.n) for p, g in zip(profile.periods, grid.axes))
        slow = math.prod(orbits) if ensemble else 1
        layouts.append(dict(
            ensemble=bool(ensemble),
            n_macro=slow * math.prod(g.N for g in grid.axes),
            diagnostics=tuple(tuple(item) for item in diagnostics),
            patch_axes=len(grid.axes),
            slow=slow,
        ))
    return [
        AssembledOperator(Layout(shape=shape, **layout), *entries, grid=grid, profile=profile,
                          coupling=coupling)
        for (shape, entries), layout, (grid, coupling) in zip(_stencil(batch), layouts, points)
    ]


def assemble_patch_1d(
    grid: geometry.PatchGrid1D | geometry.PatchGrid2D,
    profile: DiffusivityProfile1D | DiffusivityProfile2D,
    coupling: CouplingSpec,
    ensemble: bool = False,
    allow_incompatible: bool = False,
) -> AssembledOperator:
    """Assemble the 1D or 2D patch operator, single-phase or phase-shift ensemble.

    assemble_patch_2d is the same function.  On a 2D tensor-product grid the
    edge eliminations act axis by axis (x edges interpolate over patch column
    I at fixed J and vice versa), and in ensemble mode each crossing shifts
    one phase of the member pair (phi, psi) by the patch size of that axis.
    Corner values are never referenced by the five-point stencil.

    Args:
        grid: patch geometry (N patches of n points, spacing d, per axis).
        profile: periodic bond diffusivities of the grid's dimension.
        coupling: inter-patch interpolation scheme.
        ensemble: simulate every phase shift, coupling members across gaps.
        allow_incompatible: assemble even when the compatibility check fails
            (the result is then deliberately asymmetric; used for diagnostics).

    Returns:
        AssembledOperator of dimension (prod(periods) if ensemble else 1) * prod(N * n),
        stored as its first block row.
    """
    return _assemble_patches([(grid, coupling)], profile, ensemble, allow_incompatible)[0]


assemble_patch_2d = assemble_patch_1d


def assemble_wave(op: AssembledOperator, epsilon: float = 0.02) -> AssembledOperator:
    """Wrap a diffusion patch operator A into the damped wave system.

    The state is (u, v) with d/dt u = v and d/dt v = A u + eps B v, where B is
    the same patch assembly with unit diffusivities (in ensemble mode: the
    unit profile on the same member structure, so dimensions match).  eps = 0
    gives the undamped system with purely imaginary spectrum.  The first
    block row of [[0, I], [A, eps B]] is built directly: the u rows of a
    block hold the identity, its v rows the entries of A and eps B.
    """
    if op.grid is None or op.layout.half is not None:
        raise ValueError("wave assembly needs a diffusion patch operator")
    if epsilon < 0:
        raise ValueError("damping must be nonnegative")
    ones = [np.ones_like(field) for field in op.profile.bonds]
    [(_, (rows, offsets, cols, values))] = _stencil(
        [(_axis_inputs(op.grid, op.coupling), ones, op.layout.ensemble)]
    )
    b = _blocking(op.layout)[1]  # u of a block, then v
    u = np.arange(b)
    return AssembledOperator(
        replace(op.layout, half=op.dimension, n_macro=2 * op.layout.n_macro),
        rows=np.concatenate([u, op.rows + b, rows + b]),
        offsets=np.concatenate([np.zeros(b, dtype=np.intp), op.offsets, offsets]),
        cols=np.concatenate([u + b, op.cols, cols + b]),
        values=np.concatenate([np.ones(b), op.values, epsilon * values]),
        grid=op.grid,
        profile=op.profile,
        coupling=op.coupling,
    )
