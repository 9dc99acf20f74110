"""Assembly of the self-adjoint patch operators.

Inside a patch the operator is the plain heterogeneous second difference over
the interior points i = 1..n.  The rows at i = 1 and i = n reference the edge
values i = 0 and i = n+1, which are eliminated by the inter-patch stencils:
the right-edge bond of patch I couples its i = n row to the i = 1 unknowns of
all patches J with weight w_right[(J - I) mod N], and the left-edge bond
couples i = 1 to the i = n unknowns with w_left.  Every entry carries the
microscale 1/d^2 scaling.  In 2D the same stencil acts along each axis.

Symmetry comes from three facts: the interior stencil is symmetric, the two
edge stencils are mirrors of each other (w_left[m] = w_right[-m]), and both
sides of every gap see the same bond diffusivity.  The last point is automatic
for single-phase patches with p | n; for general n the phase-shift ensemble
restores it by routing each edge coupling to the member whose phase matches
across the gap (member shifted by -n at the left edge, +n at the right).

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
Symmetry defect, matrix-vector products and the Bloch blocks of the spectra
and time steppers are computed from them; the dense matrix is rolled out
only when `.matrix` is read, at dim^2 memory on every access.  The full
lattices of microscale are patch operators too, with one-hot edge weights,
so every operator has patch axes and every solver takes the Bloch path.

The wave operator wraps a diffusion operator A into the first-order system
d/dt (u, v) = (v, A u + eps B v), where B is the same patch construction with
unit diffusivities; its matrix is [[0, I], [A, eps B]].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import geometry
from .coupling import CouplingSpec, weights_for
from .microscale import DiffusivityProfile1D, DiffusivityProfile2D

# Bytes of extended-precision numbers that one batch of dense Bloch blocks,
# or one chunk of pair lines transformed together, may hold.
_BATCH_BYTES = 2**22


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
    modes; a full lattice leaves it None.
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


def _orbits(layout: Layout, periods) -> np.ndarray:
    """The unknowns of a Bloch block grouped by member orbit, (slow, b / slow).

    A member's orbit is its phase reduced mod gcd(p_a, n_a) on each axis
    (see Layout.slow).  No stored entry couples two orbits, so every Bloch
    block is block diagonal over them, each diagonal block with one slow
    mode.  A single phase is one orbit of every unknown.
    """
    _, b, points = _blocking(layout)
    if layout.slow == 1:
        return np.arange(b)[None]
    n = layout.shape[1 + layout.patch_axes :][::-1]  # x first, as the periods
    gcds = [math.gcd(p, m) for p, m in zip(periods, n)]
    phase = np.unravel_index(np.arange(layout.members), periods)
    orbit = np.ravel_multi_index([ph % c for ph, c in zip(phase, gcds)], gcds)
    members = np.argsort(orbit, kind="stable").reshape(layout.slow, -1)
    return (members[:, :, None] * points + np.arange(points)).reshape(layout.slow, -1)


def _patch_sum(a, b, patches, sign: int = 1) -> np.ndarray:
    """Flat index of patch a + sign * b, taken mod N along each patch axis.

    a and b are flat C-order indices over `patches` and broadcast.
    """
    total = np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=np.intp)
    stride = math.prod(patches)
    for N in patches:
        stride //= N
        total += (a // stride % N + sign * (b // stride % N)) % N * stride
    return total


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
        order = np.argsort(self._keys(), kind="stable")
        self.rows, self.offsets, self.cols, self.values = (
            np.asarray(part)[order] for part in (self.rows, self.offsets, self.cols, self.values)
        )

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

    def matvec(self, x) -> np.ndarray:
        """The product A x, gathered over the patch index: O(nnz) work."""
        layout = _state_layout(self.layout)
        k = layout.patch_axes
        patches, b, _ = _blocking(layout)
        K = math.prod(patches)
        # one row per patch, indexed by (member, local point) like the blocks
        X = np.moveaxis(np.asarray(x, dtype=float).reshape(layout.shape), 0, k).reshape(K, b)
        Y = np.zeros_like(X)
        targets, starts = np.unique(self.rows, return_index=True)
        chunk = max(1, 2**20 // max(self.values.size, 1))
        for start in range(0, K, chunk):
            P = np.arange(start, min(start + chunk, K))[:, None]
            gathered = X[_patch_sum(P, self.offsets, patches), self.cols] * self.values
            Y[start : start + chunk, targets] = np.add.reduceat(gathered, starts, axis=1)
        Y = Y.reshape(patches + (layout.members,) + layout.shape[1 + k :])
        return np.moveaxis(Y, k, 0).ravel()


def _patch_layout(op) -> Layout:
    """The state layout of an assembled operator; a TypeError for anything else."""
    if not isinstance(op, AssembledOperator):
        raise TypeError(f"an AssembledOperator is required, not {type(op).__name__}")
    return _state_layout(op.layout)


def _bloch_entries(op: AssembledOperator, layout: Layout, select=None):
    """The Bloch blocks H(j) at their stored (row, col) pairs, in batches over j.

    H(j) = sum_m A[0, m] exp(+2 pi i j.m / N) over the patch offsets m of
    the first block row, so that rfftn(A x)(j) = H(j) rfftn(x)(j) with the
    FFT taken over the patch axes.  A patch-local pair, stored at offset 0
    alone (the diagonal and the interior bonds), has H(j) equal to its value
    at every j, exactly, and is not transformed.  Every other (row, col)
    pair, an edge coupling, is laid out as one line over the offsets and
    transformed by rfftn, in extended precision (np.longdouble, plain double
    where the platform has no wider type): O(varying pairs K log K) work for
    K patches, never the dense b x b x K first block row.  The lines are
    transformed a chunk of pairs at a time, at most about _BATCH_BYTES of
    lines per chunk (one chunk when they all fit), into one spectrum of the
    pairs that holds only the `select`ed columns when `select` is given.  j
    runs over the half spectrum of rfftn (the last patch axis halved), in
    rfftn's output order, or over `select`, indices into it, in the order
    given.

    Returns (pairs, entries): the sorted flat indices row * b + col of the
    pairs in a block indexed by (member, local point) in C order, and the
    read-only (blocks, pairs) array of the entries H(j)[row, col].  Every
    other entry of H(j) is zero.  Each consumer slices the blocks into
    batches of _batch_blocks(b).
    """
    patches, b, _ = _blocking(layout)
    K = math.prod(patches)
    pairs, pair = np.unique(op.rows * b + op.cols, return_inverse=True)
    # A pair stored at a nonzero offset varies with j.  Each (row, offset,
    # col) is stored once, so every other pair is stored at offset 0 alone.
    varies = np.zeros(pairs.size, dtype=bool)
    varies[pair[op.offsets != 0]] = True
    varying = np.flatnonzero(varies)
    half = patches[:-1] + (patches[-1] // 2 + 1,)
    columns = math.prod(half) if select is None else len(select)
    spectrum = np.empty((pairs.size, columns), dtype=np.clongdouble)
    local = ~varies[pair]  # the entries of the patch-local pairs
    spectrum[pair[local]] = op.values[local, None]
    # the entries of the varying pairs, each with the number of its line
    line = np.searchsorted(varying, pair[~local])
    offsets, values = op.offsets[~local], op.values[~local]
    chunk = max(1, _BATCH_BYTES // (K * np.dtype(np.longdouble).itemsize))
    axes = tuple(range(1, len(patches) + 1))
    for start in range(0, varying.size, chunk):
        stop = min(start + chunk, varying.size)
        # the entries of this chunk's lines; all of them when one chunk holds every line
        at = slice(None) if stop - start == varying.size else (line >= start) & (line < stop)
        lines = np.zeros((stop - start, K), dtype=np.longdouble)
        lines[line[at] - start, offsets[at]] = values[at]
        transformed = np.fft.rfftn(lines.reshape(-1, *patches), axes=axes).reshape(stop - start, -1)
        spectrum[varying[start:stop]] = transformed if select is None else transformed[:, select]
    np.conj(spectrum, out=spectrum)  # H(j) takes exp(+2 pi i j.m / N), rfftn the conjugate
    spectrum.flags.writeable = False
    return pairs, spectrum.T


def _batch_blocks(b: int) -> int:
    """Blocks of size b in one batch: at most about _BATCH_BYTES of extended precision blocks."""
    return max(1, _BATCH_BYTES // (np.dtype(np.clongdouble).itemsize * b * b))


def _bloch_batches(op: AssembledOperator, layout: Layout, select=None):
    """Bloch blocks H(j) of a patch operator in batches over j, each (k, b, b).

    The dense view of _bloch_entries: each block holds its entries at the
    stored pairs and zeros elsewhere, a block indexed by (member, local
    point) in C order, one batch at most about _BATCH_BYTES of blocks.  For
    a wave operator, given the layout of _patch_layout, each block is
    [[0, I], [A(j), eps B(j)]].

    Each batch is built in place, a new array that the caller owns and may
    overwrite: no reference to it is kept here, so a caller that drops a
    batch before asking for the next holds one batch of blocks at a time.
    """
    b = _blocking(layout)[1]
    pairs, entries = _bloch_entries(op, layout, select)
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


def _bloch_eigenvalues(op, layout: Layout) -> np.ndarray:
    """Eigenvalues of every Bloch block, those of the mirrored blocks as conjugates.

    The one general Bloch eigensolve, of spectra.eigen_general and
    timestep.stability_limit.  The wave system W = [[0, I], [A, eps B]] is
    solved on S = {1.u = 0, 1.v = 0}, plus the exact zero pair (see spectra).
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


@dataclass
class SymmetryReport:
    defect: float
    scale: float
    relative: float


def symmetry_defect(op: AssembledOperator) -> SymmetryReport:
    """Largest asymmetry max|L - L^T|, absolute and relative to max|L|.

    Entry (r, m, c) of the first block row is compared with entry (c, -m, r),
    a missing one counting as 0: O(nnz / N) work, and exactly the maxima of
    the whole-matrix expressions.
    """
    patches, b, _ = _blocking(_patch_layout(op))
    defect = scale = 0.0
    if op.values.size:
        keys = op._keys()
        K = math.prod(patches)
        mirror = (op.cols * K + _patch_sum(0, op.offsets, patches, -1)) * b + op.rows
        at = np.minimum(np.searchsorted(keys, mirror), keys.size - 1)
        mirrored = np.where(keys[at] == mirror, op.values[at], 0.0)
        defect = float(np.max(np.abs(op.values - mirrored)))
        scale = float(np.max(np.abs(op.values)))
    relative = defect / scale if scale > 0 else 0.0
    return SymmetryReport(defect=defect, scale=scale, relative=relative)


def _raise_on_errors(diagnostics, allow_incompatible):
    errors = [msg for severity, msg in diagnostics if severity == "error"]
    if errors and not allow_incompatible:
        raise ValueError("; ".join(errors))


def _axis_inputs(grid, coupling: CouplingSpec) -> list[tuple]:
    """Per-axis stencil inputs (N, n, d, w_right, w_left) of a patch grid, x first."""
    weights = [weights_for(coupling, g.N, g.r) for g in grid.axes]
    return [(g.N, g.n, g.d, w.w_right, w.w_left) for g, w in zip(grid.axes, weights)]


def _stencil(axes, bonds, ensemble: bool):
    """Unknown shape and first block row (rows, offsets, cols, values) of a patch operator.

    Each axis, x first, is given as (N, n, d, w_right, w_left): N patches of
    n points at spacing d, whose edge rows couple to the far next-to-edge
    point of patch (I + m) mod N with weights w_right[m] and w_left[m].  A
    full lattice of M points along an axis is q = M / n patches of n points
    whose edges couple to the next patch with weight 1: w_right = e_1 and
    w_left = e_{q-1}, [1.0] when q = 1.

    The stencil has three parts: interior bonds, edge couplings weighted over
    the patch offsets m and, in ensemble mode, the member shift of each edge
    crossing.  They are evaluated for the unknowns of patch 0 only, as pieces
    in the order diagonal, right then left along x, then along y; no entry
    repeats within one piece.  The pieces are coalesced in that order,
    starting from 0.0, so every entry is the same floating point sum as in a
    row-by-row loop; entries that sum to 0.0 are dropped.  The result is
    indexed as AssembledOperator stores it.
    """
    for _, _, d, _, _ in axes:
        if not (d * d > 0.0 and math.isfinite(1.0 / (d * d))):
            raise ValueError(f"lattice spacing d = {d!r} has no finite 1/d^2")
    dims = len(axes)
    periods = bonds[0].shape
    members = math.prod(periods) if ensemble else 1
    patches = tuple(ax[0] for ax in reversed(axes))
    block = (members, *(ax[1] for ax in reversed(axes)))
    size = math.prod(block)

    member, *local = np.unravel_index(np.arange(size), block)
    local = local[::-1]  # i - 1, x first
    phase = np.unravel_index(member, periods)  # all zero for a single phase

    def column(member, local):
        return np.ravel_multi_index((member, *local[::-1]), block)

    def bond(a, back):
        """Bond field a at each point's lattice position, stepped back along axis `back`."""
        pos = tuple((local[b] + 1 + phase[b] - (b == back)) % periods[b] for b in range(dims))
        d = axes[a][2]
        return bonds[a][pos] * (1.0 / (d * d))

    right = [bond(a, None) for a in range(dims)]
    left = [bond(a, a) for a in range(dims)]
    everything = np.arange(size)
    pieces = [(everything, 0, everything, -sum(k for pair in zip(right, left) for k in pair))]
    for a, (N, n, _, w_right, w_left) in enumerate(axes):
        for k, step, near, far, weights in (
            (right[a], 1, n - 1, 0, w_right),
            (left[a], -1, 0, n - 1, w_left),
        ):
            # interior bond to the neighbour one step along axis a, in patch 0
            inner = np.flatnonzero(local[a] != near)
            stepped = [loc[inner] + step * (c == a) for c, loc in enumerate(local)]
            pieces.append((inner, 0, column(member[inner], stepped), k[inner]))

            # edge coupling to the far next-to-edge point of patch m along axis a,
            # in the member whose phase matches across the gap
            edge = np.flatnonzero(local[a] == near)
            if ensemble:
                shifted = [ph[edge] + step * n * (c == a) for c, ph in enumerate(phase)]
                source = np.ravel_multi_index(shifted, periods, mode="wrap")
            else:
                source = member[edge]
            points = [loc[edge] for loc in local]
            points[a] = np.full_like(points[a], far)
            offsets = np.arange(N) * math.prod(patches[dims - a :])  # along axis a
            pieces.append(
                (edge[:, None], offsets, column(source, points)[:, None], k[edge, None] * weights)
            )
    shape = (members, *patches, *block[1:])
    return shape, _coalesce(pieces, math.prod(patches), size)


def _coalesce(pieces, K: int, b: int):
    """Sum the pieces (rows, offsets, cols, values) entry by entry, in stream order."""
    keys = [(rows * K + offsets) * b + cols for rows, offsets, cols, _ in pieces]
    unique, inverse = np.unique(np.concatenate([key.ravel() for key in keys]), return_inverse=True)
    sums = np.zeros(unique.size)
    start = 0
    for key, (*_, values) in zip(keys, pieces):
        # No entry repeats within one piece: one addition per entry.
        sums[inverse[start : start + key.size]] += np.broadcast_to(values, key.shape).ravel()
        start += key.size
    keep = sums != 0.0
    unique = unique[keep]
    rows, rest = np.divmod(unique, K * b)
    offsets, cols = np.divmod(rest, b)
    return rows, offsets, cols, sums[keep]


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
    diagnostics = geometry.validate_compatibility(grid, profile, ensemble=ensemble)
    _raise_on_errors(diagnostics, allow_incompatible)
    shape, entries = _stencil(_axis_inputs(grid, coupling), profile.bonds, ensemble)
    orbits = (math.gcd(p, g.n) for p, g in zip(profile.periods, grid.axes))
    slow = math.prod(orbits) if ensemble else 1
    layout = Layout(
        shape=shape,
        ensemble=bool(ensemble),
        n_macro=slow * math.prod(g.N for g in grid.axes),
        diagnostics=tuple(tuple(item) for item in diagnostics),
        patch_axes=len(grid.axes),
        slow=slow,
    )
    return AssembledOperator(layout, *entries, grid=grid, profile=profile, coupling=coupling)


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
    _, (rows, offsets, cols, values) = _stencil(
        _axis_inputs(op.grid, op.coupling), ones, op.layout.ensemble
    )
    b = _blocking(op.layout)[1]  # u of a block, then v
    u = np.arange(b)
    return AssembledOperator(
        replace(op.layout, half=op.dimension),
        rows=np.concatenate([u, op.rows + b, rows + b]),
        offsets=np.concatenate([np.zeros(b, dtype=np.intp), op.offsets, offsets]),
        cols=np.concatenate([u + b, op.cols, cols + b]),
        values=np.concatenate([np.ones(b), op.values, epsilon * values]),
        grid=op.grid,
        profile=op.profile,
        coupling=op.coupling,
    )
