"""Patch operator assembly: hand-checked rows, structure, reductions."""

import itertools

import numpy as np
import pytest
import scipy.linalg

import patchtooth as pt

L = 2 * np.pi


def test_hand_assembled_rows_first_order():
    """N = 3 patches of n = 2 points, constant kappa, r = 1/2, order 1.

    With weights w_right = (3/4, 3/8, -1/8) and w_left its mirror, the two
    rows of patch 0 can be written out by hand.
    """
    grid = pt.build_grid_1d(L, 3, 2, 0.5)
    prof = pt.DiffusivityProfile1D((1.0,))
    op = pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("lagrangian", 1))
    inv_d2 = 1.0 / grid.d**2
    want0 = np.array([-2.0, 1.75, 0.0, -0.125, 0.0, 0.375]) * inv_d2
    want1 = np.array([1.75, -2.0, 0.375, 0.0, -0.125, 0.0]) * inv_d2
    np.testing.assert_allclose(op.matrix[0], want0, rtol=1e-14)
    np.testing.assert_allclose(op.matrix[1], want1, rtol=1e-14)
    assert op.dimension == 6


def _sized(coupling, N):
    """The coupling itself, or a Lagrangian order that fits N patches (None if none does)."""
    if coupling.scheme == "spectral":
        return coupling
    order = min(coupling.order, (N - 1) // 2)
    return pt.CouplingSpec("lagrangian", order) if order >= 1 else None


@pytest.mark.parametrize(
    "coupling",
    [pt.CouplingSpec("spectral"), pt.CouplingSpec("lagrangian", 2)],
)
def test_assembled_operator_is_exactly_symmetric(coupling):
    """Every compatible operator down to N = 1, n = 1 is bitwise symmetric."""
    for N, n, p, ens in itertools.product(range(1, 7), range(1, 7), range(1, 5), (False, True)):
        sized = _sized(coupling, N)
        if sized is None:
            continue
        grid = pt.build_grid_1d(L, N, n, 0.3)
        prof = pt.random_lognormal_profile(p, 0.8, 10 * p + n)
        if not ens and n % p:
            with pytest.raises(ValueError):
                pt.assemble_patch_1d(grid, prof, sized)
            continue
        report = pt.symmetry_defect(pt.assemble_patch_1d(grid, prof, sized, ensemble=ens))
        assert report.defect == 0.0, (N, n, p, ens)
        assert report.relative == 0.0


def _loop_operator(grid, profile, coupling, ensemble):
    """Row-by-row reference assembly.

    Each row adds its diagonal, then its right and left neighbours along x,
    then along y; an edge neighbour is summed over the patch offsets m.
    """
    two_d = isinstance(grid, pt.PatchGrid2D)
    axes = [grid.x, grid.y] if two_d else [grid]
    bonds = [profile.kx, profile.ky] if two_d else [profile.values]
    dims = len(axes)
    periods = bonds[0].shape
    members = int(np.prod(periods)) if ensemble else 1
    shape = (members, *[g.N for g in axes[::-1]], *[g.n for g in axes[::-1]])
    weights = [pt.weights_for(coupling, g.N, g.r) for g in axes]
    inv_d2 = [1.0 / (g.d * g.d) for g in axes]
    matrix = np.zeros((int(np.prod(shape)),) * 2)

    def index(e, patch, i):  # x first, i 1-based
        return np.ravel_multi_index((e, *patch[::-1], *[v - 1 for v in i[::-1]]), shape)

    def moved(values, a, value):
        return [value if b == a else v for b, v in enumerate(values)]

    for e, *rest in np.ndindex(shape):
        patch, i = rest[:dims][::-1], [v + 1 for v in rest[dims:][::-1]]
        phase = np.unravel_index(e, periods) if ensemble else (0,) * dims
        row = index(e, patch, i)
        site = [i[b] + phase[b] for b in range(dims)]
        kr = [bonds[a][tuple(np.mod(site, periods))] * inv_d2[a] for a in range(dims)]
        kl = [bonds[a][tuple(np.mod(moved(site, a, site[a] - 1), periods))] * inv_d2[a]
              for a in range(dims)]
        matrix[row, row] -= sum(k for pair in zip(kr, kl) for k in pair)
        for a, g in enumerate(axes):
            for k, step, w, near, far in ((kr[a], 1, weights[a].w_right, g.n, 1),
                                          (kl[a], -1, weights[a].w_left, 1, g.n)):
                if i[a] != near:
                    matrix[row, index(e, patch, moved(i, a, i[a] + step))] += k
                    continue
                te = e
                if ensemble:
                    te = np.ravel_multi_index(moved(phase, a, phase[a] + step * g.n), periods,
                                              mode="wrap")
                for m in range(g.N):
                    col = index(te, moved(patch, a, (patch[a] + m) % g.N), moved(i, a, far))
                    matrix[row, col] += k * w[m]
    return matrix


def test_stencil_matches_the_row_by_row_loop():
    """Bitwise agreement with the loop, compatible or not, 1D and 2D."""
    for N, n, p, ens in itertools.product((1, 2, 5), (1, 3, 4), (1, 3), (False, True)):
        grid = pt.build_grid_1d(L, N, n, 0.3)
        prof = pt.random_lognormal_profile(p, 0.8, n)
        for coupling in (pt.CouplingSpec("spectral"), _sized(pt.CouplingSpec("lagrangian", 2), N)):
            if coupling is None:
                continue
            op = pt.assemble_patch_1d(grid, prof, coupling, ensemble=ens, allow_incompatible=True)
            np.testing.assert_array_equal(op.matrix, _loop_operator(grid, prof, coupling, ens))
    for (Nx, nx, Ny, ny), periods, ens in itertools.product(
        ((3, 2, 2, 1), (1, 3, 4, 2), (2, 1, 3, 1)), ((1, 1), (2, 3)), (False, True)
    ):
        grid = pt.build_grid_2d(L, Nx, nx, 0.4, 1.5 * L, Ny, ny, 0.3)
        prof = pt.random_lognormal_profile_2d(*periods, 0.6, nx)
        coupling = pt.CouplingSpec("spectral")
        op = pt.assemble_patch_2d(grid, prof, coupling, ensemble=ens, allow_incompatible=True)
        np.testing.assert_array_equal(op.matrix, _loop_operator(grid, prof, coupling, ens))


def _rolled_from_first_block_row(op):
    """The operator rebuilt from the rows of patch 0, rolled over patch offsets."""
    shape, k = op.layout.shape, op.layout.patch_axes
    first = op.matrix.reshape(shape + shape)[(slice(None),) + (0,) * k]
    # axes of `first`: member, local..., member, patches..., local...
    start = len(shape) - k + 1
    col_patches = tuple(range(start, start + k))
    rebuilt = np.empty(shape + shape)
    for patch in np.ndindex(shape[1 : 1 + k]):
        rebuilt[(slice(None), *patch)] = np.roll(first, patch, axis=col_patches)
    return rebuilt.reshape(op.matrix.shape)


def test_operators_are_block_circulant_in_the_patch_index():
    """Row block I is row block 0 rolled by I patches, bitwise.

    The Bloch spectra rely on this: every patch carries the same interior
    block and the edge couplings depend only on the patch offset.
    """
    for coupling in (pt.CouplingSpec("spectral"), pt.CouplingSpec("lagrangian", 2)):
        for N, n, p, ens in itertools.product(range(1, 7), range(1, 7), range(1, 5), (False, True)):
            sized = _sized(coupling, N)
            if sized is None:
                continue
            grid = pt.build_grid_1d(L, N, n, 0.3)
            prof = pt.random_lognormal_profile(p, 0.8, 10 * p + n)
            op = pt.assemble_patch_1d(grid, prof, sized, ensemble=ens, allow_incompatible=True)
            assert op.layout.patch_axes == 1
            np.testing.assert_array_equal(op.matrix, _rolled_from_first_block_row(op), (N, n, p, ens))
    for (Nx, nx, Ny, ny), periods, ens in itertools.product(
        ((3, 2, 2, 1), (1, 3, 4, 2), (2, 1, 3, 1)), ((1, 1), (2, 3)), (False, True)
    ):
        grid = pt.build_grid_2d(L, Nx, nx, 0.4, 1.5 * L, Ny, ny, 0.3)
        prof = pt.random_lognormal_profile_2d(*periods, 0.6, nx)
        op = pt.assemble_patch_2d(grid, prof, pt.CouplingSpec("spectral"), ensemble=ens,
                                  allow_incompatible=True)
        assert op.layout.patch_axes == 2
        np.testing.assert_array_equal(op.matrix, _rolled_from_first_block_row(op))
    assert pt.full_lattice_operator_1d(pt.DiffusivityProfile1D((1.0, 2.0)), 8).layout.patch_axes == 0


def test_tiled_symmetry_defect_equals_the_whole_matrix_maxima():
    rng = np.random.default_rng(5)
    grid = pt.build_grid_1d(L, 6, 4, 0.3)
    counter = pt.assemble_patch_1d(  # the criterion-2 counterexample
        grid, pt.DiffusivityProfile1D((1.0, 2.0, 3.0)), pt.CouplingSpec("spectral"),
        allow_incompatible=True,
    ).matrix
    # 300 and 517 are not multiples of the 256-row tiles
    for A in (rng.standard_normal((300, 300)), rng.lognormal(size=(517, 517)), counter):
        report = pt.symmetry_defect(A)
        assert report.defect == float(np.max(np.abs(A - A.T)))
        assert report.scale == float(np.max(np.abs(A)))
    assert pt.symmetry_defect(counter).relative > 1e-6
    empty = pt.symmetry_defect(np.zeros((0, 0)))
    assert (empty.defect, empty.scale, empty.relative) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        pt.symmetry_defect(np.ones((3, 4)))


def test_constant_vector_spans_the_kernel():
    grid = pt.build_grid_1d(L, 6, 4, 0.25)
    prof = pt.DiffusivityProfile1D((1.0, 2.0))
    for ens in (False, True):
        op = pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("spectral"), ensemble=ens)
        ones = np.ones(op.dimension)
        scale = np.max(np.abs(op.matrix))
        assert np.max(np.abs(op.matrix @ ones)) <= 1e-12 * scale


def test_incompatible_single_phase_is_rejected():
    grid = pt.build_grid_1d(L, 6, 4, 0.3)
    prof = pt.DiffusivityProfile1D((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("spectral"))
    op = pt.assemble_patch_1d(
        grid, prof, pt.CouplingSpec("spectral"), allow_incompatible=True
    )
    assert pt.symmetry_defect(op).relative > 1e-6
    with pytest.raises(pt.SymmetryPreconditionError):
        pt.eigen_symmetric(op)


def test_ensemble_edge_rows_couple_shifted_members():
    """Crossing a patch edge moves n lattice steps, so member ell hands its
    right edge to member (ell + n) mod p and receives its left edge from
    member (ell - n) mod p."""
    N, n, p = 5, 4, 3
    grid = pt.build_grid_1d(L, N, n, 0.3)
    prof = pt.DiffusivityProfile1D((1.1, 0.6, 2.3))
    op = pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("spectral"), ensemble=True)
    w = pt.spectral_weights(N, grid.r)
    inv_d2 = 1.0 / grid.d**2

    def idx(ell, I, i):
        return (ell * N + I) * n + (i - 1)

    ell, I = 0, 0
    row = idx(ell, I, n)
    kr = prof.values[(n + ell) % p] * inv_d2
    tgt = (ell + n) % p
    for m in range(N):
        assert op.matrix[row, idx(tgt, (I + m) % N, 1)] == pytest.approx(
            kr * w.w_right[m], rel=1e-14
        )
    # nothing from this row lands back in member 0's next-to-edge columns
    for J in range(1, N):
        assert op.matrix[row, idx(ell, J, 1)] == 0.0
    assert pt.symmetry_defect(op).defect == 0.0


def test_ensemble_2d_edge_rows_couple_the_permuted_members():
    """Member e hands its left x edge to the member P_x names and its right x
    edge to the member P_x^T names; likewise along y with P_y.

    With n_x, n_y >= 3 the far next-to-edge point of an edge row is neither
    its interior neighbour nor reached by the other axis, so the entries of
    an edge row at the far point come from the edge coupling alone.
    """
    for (nx, ny), (px, py), coupling in itertools.product(
        [(3, 4), (4, 3)],
        [(2, 3), (3, 1), (1, 2)],
        [pt.CouplingSpec("spectral"), pt.CouplingSpec("lagrangian", 1)],
    ):
        grid = pt.build_grid_2d(L, 3, nx, 0.3, 3.0, 4, ny, 0.5)
        prof = pt.random_lognormal_profile_2d(px, py, 0.6, 10 * px + py)
        op = pt.assemble_patch_2d(grid, prof, coupling, ensemble=True)
        Px, Py = pt.build_permutations_2d(prof, nx, ny)
        shape = op.layout.shape  # (members, N_y, N_x, n_y, n_x)
        blocks = op.matrix.reshape(shape + shape)
        near_far = {
            "x left": (blocks[..., 0, :, :, :, :, nx - 1], Px),
            "x right": (blocks[..., nx - 1, :, :, :, :, 0], Px.T),
            "y left": (blocks[:, :, :, 0, :, :, :, :, ny - 1, :], Py),
            "y right": (blocks[:, :, :, ny - 1, :, :, :, :, 0, :], Py.T),
        }
        for edge, (coupled, P) in near_far.items():
            members = np.any(coupled != 0.0, axis=(1, 2, 3, 5, 6, 7))
            np.testing.assert_array_equal(members, P != 0.0, err_msg=f"{edge} {nx, ny, px, py}")


@pytest.mark.parametrize(
    "coupling",
    [pt.CouplingSpec("spectral"), pt.CouplingSpec("lagrangian", 1)],
)
@pytest.mark.parametrize("ensemble", [False, True])
def test_exchanging_the_axes_permutes_the_2d_operator(coupling, ensemble):
    """Rotational invariance: swapping x and y (grid, bond fields transposed
    and exchanged) gives the same operator on the reordered unknowns, member
    e = phi * p_y + psi becoming psi * p_x + phi.  Only the order of the
    four-term diagonal sum changes."""
    nx, ny = (3, 2) if ensemble else (4, 3)
    kx = [[1.3, 0.8, 2.1], [0.9, 1.2, 0.4]]  # periods (p_x, p_y) = (2, 3)
    ky = [[0.7, 1.4, 0.5], [1.1, 0.9, 1.6]]
    grid = pt.build_grid_2d(L, 3, nx, 0.3, 3.0, 5, ny, 0.5)
    swapped_grid = pt.PatchGrid2D(x=grid.y, y=grid.x)
    prof = pt.DiffusivityProfile2D(kx, ky)
    swapped_prof = pt.DiffusivityProfile2D(np.transpose(ky), np.transpose(kx))
    A = pt.assemble_patch_2d(grid, prof, coupling, ensemble=ensemble)
    B = pt.assemble_patch_2d(swapped_grid, swapped_prof, coupling, ensemble=ensemble)
    members, Ny, Nx, ny_, nx_ = A.layout.shape
    phases = (2, 3) if ensemble else (1, 1)
    index = np.arange(A.dimension).reshape(*phases, Ny, Nx, ny_, nx_)
    perm = index.transpose(1, 0, 3, 2, 5, 4).ravel()
    assert B.layout.shape == (members, Nx, Ny, nx_, ny_)
    scale = np.max(np.abs(A.matrix))
    assert np.max(np.abs(B.matrix - A.matrix[np.ix_(perm, perm)])) <= 4 * np.finfo(float).eps * scale
    assert pt.symmetry_defect(A).defect == 0.0
    assert pt.symmetry_defect(B).defect == 0.0


def test_full_size_patches_reduce_to_the_lattice_1d():
    """At r = 1 the patches tile the lattice.

    Ensemble member ell of patch I continues the lattice shifted by
    c = (ell - I n) mod p, so when p divides N n the ensemble splits into p
    copies of the full lattice, copy c carrying the profile rolled by c.
    """
    for N, n, p, ens in itertools.product(range(1, 7), range(1, 7), range(1, 5), (False, True)):
        M = N * n
        if M < 3 or M % p or (not ens and n % p):
            continue
        grid = pt.build_grid_1d(L, N, n, 1.0)
        prof = pt.random_lognormal_profile(p, 0.8, 10 * p + n)
        copies = range(p) if ens else range(1)

        def member(c, I):
            return (c + I * n) % p if ens else 0

        # patch (I, i) of copy c carries the lattice node I*n + (i - 1)
        perm = np.array([
            (member(c, I) * N + I) * n + (i - 1)
            for c in copies for I in range(N) for i in range(1, n + 1)
        ])
        full = scipy.linalg.block_diag(*[
            pt.full_lattice_operator_1d(
                pt.DiffusivityProfile1D(np.roll(prof.values, -c)), M, grid.d
            ).matrix
            for c in copies
        ])
        if N >= 3:
            lagr = pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("lagrangian", 1), ensemble=ens)
            np.testing.assert_array_equal(lagr.matrix[np.ix_(perm, perm)], full)
        spec = pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("spectral"), ensemble=ens)
        scale = np.max(np.abs(full))
        assert np.max(np.abs(spec.matrix[np.ix_(perm, perm)] - full)) <= 1e-13 * scale


def test_full_size_patches_reduce_to_the_lattice_2d():
    gx = (3, 2)  # N, n along x
    gy = (4, 2)
    grid = pt.build_grid_2d(L, gx[0], gx[1], 1.0, L, gy[0], gy[1], 1.0)
    prof = pt.DiffusivityProfile2D([[1.3, 0.8], [0.9, 1.2]], [[0.7, 1.4], [1.1, 0.9]])
    Mx, My = gx[0] * gx[1], gy[0] * gy[1]
    full = pt.full_lattice_operator_2d(prof, (Mx, My), (grid.x.d, grid.y.d)).matrix
    perm = np.array(
        [
            (J * gy[1] + (j - 1)) * Mx + (I * gx[1] + (i - 1))
            for J in range(gy[0])
            for I in range(gx[0])
            for j in range(1, gy[1] + 1)
            for i in range(1, gx[1] + 1)
        ]
    )
    patch = pt.assemble_patch_2d(grid, prof, pt.CouplingSpec("spectral")).matrix
    scale = np.max(np.abs(full))
    assert np.max(np.abs(patch - full[np.ix_(perm, perm)])) <= 1e-13 * scale


def test_assemble_2d_symmetry_and_kernel():
    grid = pt.build_grid_2d(L, 4, 2, 0.3, L, 5, 3, 0.4)
    prof = pt.DiffusivityProfile2D([[1.3, 0.8, 1.1], [0.9, 1.2, 0.7]], [[0.7, 1.4, 0.5], [1.1, 0.9, 1.6]])
    for ens in (False, True):
        op = pt.assemble_patch_2d(grid, prof, pt.CouplingSpec("spectral"), ensemble=ens)
        assert pt.symmetry_defect(op).defect == 0.0
        ones = np.ones(op.dimension)
        assert np.max(np.abs(op.matrix @ ones)) <= 1e-12 * np.max(np.abs(op.matrix))
    with pytest.raises(ValueError):
        bad = pt.build_grid_2d(L, 4, 3, 0.3, L, 5, 3, 0.4)  # px = 2 does not divide nx = 3
        pt.assemble_patch_2d(bad, prof, pt.CouplingSpec("spectral"))


def test_wave_operator_block_structure():
    grid = pt.build_grid_1d(L, 5, 4, 0.5)
    prof = pt.DiffusivityProfile1D((1.0, 2.0))
    base = pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("spectral"))
    M = base.dimension
    wave = pt.assemble_wave(base, epsilon=0.02)
    assert wave.dimension == 2 * M
    W = wave.matrix
    np.testing.assert_array_equal(W[:M, :M], np.zeros((M, M)))
    np.testing.assert_array_equal(W[:M, M:], np.eye(M))
    np.testing.assert_array_equal(W[M:, :M], base.matrix)
    # the damping block comes from the same assembly with a flat profile
    undamped = pt.assemble_wave(base, epsilon=0.0)
    np.testing.assert_array_equal(undamped.matrix[M:, M:], np.zeros((M, M)))
    flat = pt.assemble_patch_1d(grid, pt.DiffusivityProfile1D((1.0,)), pt.CouplingSpec("spectral"))
    np.testing.assert_allclose(W[M:, M:], 0.02 * flat.matrix, rtol=1e-14)
    with pytest.raises(ValueError):
        pt.assemble_wave(base, epsilon=-0.1)
    # only a diffusion patch operator can be wrapped
    with pytest.raises(ValueError):
        pt.assemble_wave(wave)
    with pytest.raises(ValueError):
        pt.assemble_wave(pt.full_lattice_operator_1d(prof, 20))
