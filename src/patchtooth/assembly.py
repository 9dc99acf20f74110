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


@dataclass(frozen=True)
class Layout:
    """How an operator orders its unknowns.

    A state is the C-order flattening of an array of `shape`, member axis
    first: (members, N, n) for a 1D patch operator, (members, N_y, N_x, n_y,
    n_x) in 2D, (1, M) or (1, M_y, M_x) for a full lattice.  A wave operator
    stacks two such arrays, u then v, each of size `half`.  The `patch_axes`
    axes after the member axis index patches, and the operator is
    block-circulant over them; a full lattice has none.
    """

    shape: tuple[int, ...]
    ensemble: bool = False
    half: int | None = None
    n_macro: int | None = None
    diagnostics: tuple = ()
    patch_axes: int = 0

    @property
    def members(self) -> int:
        return self.shape[0]


@dataclass
class AssembledOperator:
    """A dense operator matrix plus the layout that interprets it."""

    matrix: np.ndarray
    layout: Layout
    grid: object = None
    profile: object = None
    coupling: object = None

    @property
    def dimension(self) -> int:
        return int(self.matrix.shape[0])


def _matrix_of(op) -> np.ndarray:
    return op.matrix if hasattr(op, "matrix") else np.asarray(op)


def _patch_layout(op) -> Layout | None:
    """The layout of a patch operator's whole state; None for raw arrays and full lattices.

    A wave operator's state (u, v) is read as one array of shape
    (2 * members, patches..., local...): u and v stack on the member axis.
    """
    layout = getattr(op, "layout", None)
    if layout is None or not layout.patch_axes:
        return None
    if layout.half is not None:
        return replace(layout, shape=(2 * layout.members, *layout.shape[1:]), half=None)
    return layout


def _bloch_blocks(matrix: np.ndarray, layout: Layout) -> np.ndarray:
    """Bloch blocks H(j) of a block-circulant patch operator, shape (K, b, b).

    Only the first block row A[0, m] (the rows of patch 0, read through a
    view) enters: H(j) = sum_m A[0, m] exp(+2 pi i j.m / N) over the patch
    offsets m, so that rfftn(A x)(j) = H(j) rfftn(x)(j) with the FFT taken
    over the patch axes.  j runs over the half spectrum of rfftn (the last
    patch axis halved), in rfftn's output order; a block is indexed by
    (member, local point) in C order.  The blocks are summed in extended
    precision (np.longdouble, plain double where the platform has no wider
    type).  For a wave operator, given the layout of _patch_layout, each block
    is [[0, I], [A(j), eps B(j)]].
    """
    shape, k = layout.shape, layout.patch_axes
    first_row = matrix.reshape(shape + shape)[(slice(None),) + (0,) * k].astype(np.longdouble)
    # axes of first_row: member, local..., member, patches..., local...
    start = len(shape) - k + 1
    patch_axes = tuple(range(start, start + k))
    blocks = np.conj(np.fft.rfftn(first_row, axes=patch_axes))
    blocks = np.moveaxis(blocks, patch_axes, tuple(range(k)))
    b = math.prod(shape) // math.prod(shape[1 : 1 + k])
    return blocks.reshape(-1, b, b)


@dataclass
class SymmetryReport:
    defect: float
    scale: float
    relative: float


def symmetry_defect(op) -> SymmetryReport:
    """Largest asymmetry max|L - L^T|, absolute and relative to max|L|.

    Compares each 256 x 256 tile (I, J), J >= I, with the transpose of tile
    (J, I), so every entry is read but no dim x dim temporary is made; the
    maxima are exactly those of the whole-matrix expressions.
    """
    tile = 256
    matrix = _matrix_of(op)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"symmetry needs a square matrix, got shape {matrix.shape}")
    starts = range(0, matrix.shape[0], tile)
    defects = [
        np.max(np.abs(matrix[i : i + tile, j : j + tile] - matrix[j : j + tile, i : i + tile].T))
        for i in starts
        for j in starts
        if j >= i
    ]
    scales = [np.max(np.abs(matrix[i : i + tile])) for i in starts]
    defect = float(np.max(defects)) if defects else 0.0
    scale = float(np.max(scales)) if scales else 0.0
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
    """Unknown shape and (rows, cols, values) pieces of a patch operator.

    Each axis, x first, is given as (N, n, d, w_right, w_left): N patches of
    n points at spacing d, whose edge rows couple to the far next-to-edge
    point of patch (I + m) mod N with weights w_right[m] and w_left[m].  A
    full lattice of M points along an axis is the single patch
    (1, M, d, [1.0], [1.0]).

    The stencil has three parts: interior bonds, edge couplings weighted over
    the patch offsets m and, in ensemble mode, the member shift of each edge
    crossing.  The pieces are yielded one at a time in the order diagonal,
    right then left along x, then along y; no (row, col) pair repeats within
    one piece.  Adding them to a zero matrix in that order makes every entry
    the same floating point sum as a row-by-row loop.  Row and column arrays
    of a piece broadcast against its values.
    """
    dims = len(axes)
    periods = bonds[0].shape
    members = math.prod(periods) if ensemble else 1
    shape = (members, *(ax[0] for ax in reversed(axes)), *(ax[1] for ax in reversed(axes)))
    dim = math.prod(shape)

    def pieces():
        member, *coords = np.unravel_index(np.arange(dim), shape)
        patch = coords[:dims][::-1]  # x first
        local = coords[dims:][::-1]  # i - 1, x first
        phase = np.unravel_index(member, periods)  # all zero for a single phase

        def flat(member, patch, local):
            return np.ravel_multi_index((member, *patch[::-1], *local[::-1]), shape)

        def bond(a, back):
            """Bond field a at each point's lattice position, stepped back along axis `back`."""
            pos = tuple((local[b] + 1 + phase[b] - (b == back)) % periods[b] for b in range(dims))
            d = axes[a][2]
            return bonds[a][pos] * (1.0 / (d * d))

        right = [bond(a, None) for a in range(dims)]
        left = [bond(a, a) for a in range(dims)]
        everything = np.arange(dim)
        yield everything, everything, -sum(k for pair in zip(right, left) for k in pair)
        for a, (N, n, _, w_right, w_left) in enumerate(axes):
            for k, step, near, far, weights in (
                (right[a], 1, n - 1, 0, w_right),
                (left[a], -1, 0, n - 1, w_left),
            ):
                # interior bond to the neighbour one step along axis a
                inner = np.flatnonzero(local[a] != near)
                stepped = [loc[inner] + step * (b == a) for b, loc in enumerate(local)]
                yield inner, flat(member[inner], [p[inner] for p in patch], stepped), k[inner]

                # edge coupling to the far next-to-edge point of patch (I + m) mod N,
                # in the member whose phase matches across the gap
                edge = np.flatnonzero(local[a] == near)
                if ensemble:
                    shifted = [ph[edge] + step * n * (b == a) for b, ph in enumerate(phase)]
                    source = np.ravel_multi_index(shifted, periods, mode="wrap")
                else:
                    source = member[edge]
                offsets = [p[edge, None] for p in patch]
                offsets[a] = (offsets[a] + np.arange(N)) % N
                points = [loc[edge, None] for loc in local]
                points[a] = np.full_like(points[a], far)
                yield edge[:, None], flat(source[:, None], offsets, points), k[edge, None] * weights

    return shape, pieces()


def _dense(shape, pieces) -> np.ndarray:
    """Dense matrix of a stencil: each piece added in place, in stream order."""
    dim = math.prod(shape)
    matrix = np.zeros((dim, dim))
    entries = matrix.reshape(-1)
    for rows, cols, values in pieces:
        # No (row, col) pair repeats within one piece: one addition per entry.
        entries[rows * dim + cols] += values
    return matrix


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
        AssembledOperator of dimension (prod(periods) if ensemble else 1) * prod(N * n).
    """
    diagnostics = geometry.validate_compatibility(grid, profile, ensemble=ensemble)
    _raise_on_errors(diagnostics, allow_incompatible)
    shape, pieces = _stencil(_axis_inputs(grid, coupling), profile.bonds, ensemble)
    layout = Layout(
        shape=shape,
        ensemble=bool(ensemble),
        n_macro=math.prod(g.N for g in grid.axes),
        diagnostics=tuple(tuple(item) for item in diagnostics),
        patch_axes=len(grid.axes),
    )
    return AssembledOperator(
        matrix=_dense(shape, pieces), layout=layout, grid=grid, profile=profile, coupling=coupling
    )


assemble_patch_2d = assemble_patch_1d


def assemble_wave(op: AssembledOperator, epsilon: float = 0.02) -> AssembledOperator:
    """Wrap a diffusion patch operator A into the damped wave system.

    The state is (u, v) with d/dt u = v and d/dt v = A u + eps B v, where B is
    the same patch assembly with unit diffusivities (in ensemble mode: the
    unit profile on the same member structure, so dimensions match).  eps = 0
    gives the undamped system with purely imaginary spectrum.
    """
    if op.grid is None or op.layout.half is not None:
        raise ValueError("wave assembly needs a diffusion patch operator")
    if epsilon < 0:
        raise ValueError("damping must be nonnegative")
    ones = [np.ones_like(field) for field in op.profile.bonds]
    B = _dense(*_stencil(_axis_inputs(op.grid, op.coupling), ones, op.layout.ensemble))
    M = op.dimension
    W = np.block(
        [
            [np.zeros((M, M)), np.eye(M)],
            [op.matrix, epsilon * B],
        ]
    )
    return AssembledOperator(
        matrix=W,
        layout=replace(op.layout, half=M),
        grid=op.grid,
        profile=op.profile,
        coupling=op.coupling,
    )
