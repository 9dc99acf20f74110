"""First-block-row storage: Bloch blocks, symmetry defect, matvec and Bloch
eigenvalues against the dense matrix."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import patchtooth as pt
from patchtooth.assembly import _bloch_batches, _orbits, _patch_layout
from patchtooth.spectra import _bloch_eigh, _refined_eigh

L = 2 * np.pi


def dense_bloch_blocks(matrix, layout):
    """Bloch blocks from the rfftn of the dense first block row (oracle).

    The engine summed its blocks this way before operators were stored as
    their first block row.
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


@st.composite
def couplings(draw, N):
    """Spectral coupling or a Lagrangian order that fits every axis of N patches."""
    orders = (min(N) - 1) // 2
    if orders < 1 or draw(st.booleans()):
        return pt.CouplingSpec("spectral")
    return pt.CouplingSpec("lagrangian", draw(st.integers(1, orders)))


def rayleigh_bloch_eigh(op, layout):
    """Eigenpairs of the Bloch blocks, every eigenvalue a Rayleigh quotient (oracle).

    The engine refined all b eigenvalues of each block this way before it
    refined only the slow ones.
    """
    for blocks in _bloch_batches(op, layout):
        H = 0.5 * (blocks + blocks.conj().swapaxes(1, 2))
        V = np.linalg.eigh(H.astype(complex))[1]
        yield np.sum(V.conj() * (H @ V), axis=1).real.astype(float), V


def member_orbits(op, layout):
    """The unknowns of a Bloch block grouped by the connected components of
    the members that stored entries couple (oracle for assembly._orbits)."""
    points = math.prod(layout.shape[1 + layout.patch_axes :])
    root = list(range(layout.members))

    def find(member):
        while root[member] != member:
            member = root[member]
        return member

    for row, col in zip(op.rows // points, op.cols // points):
        root[find(row)] = find(col)
    roots = [find(member) for member in range(layout.members)]
    return np.array([
        [member * points + i for member in range(layout.members) if roots[member] == top
         for i in range(points)]
        for top in sorted(set(roots))
    ])


def orbit_slow_values(op, layout):
    """The slow eigenvalue of each member orbit of each Bloch block, a
    Rayleigh quotient of an eigh vector of the orbit's diagonal block
    (oracle), ascending; whether each is apart from the orbit's next
    eigenvalue in magnitude; and each block's largest magnitude."""
    orbits = member_orbits(op, layout)
    values, apart, scale = [], [], []
    for blocks in _bloch_batches(op, layout):
        H = 0.5 * (blocks + blocks.conj().swapaxes(1, 2))
        H = H[:, orbits[:, :, None], orbits[:, None, :]]
        V = np.linalg.eigh(H.astype(complex))[1]
        w = np.sum(V.conj() * (H @ V), axis=2).real.astype(float)
        mags = np.sort(np.abs(w), axis=2)
        slow = np.take_along_axis(w, np.argmin(np.abs(w), axis=2)[..., None], axis=2)[..., 0]
        order = np.argsort(slow, axis=1)
        values.append(np.take_along_axis(slow, order, axis=1))
        alone = mags[..., 0] < (1 - 1e-9) * mags[..., 1]
        apart.append(np.take_along_axis(alone, order, axis=1))
        scale.append(mags[..., -1].max(axis=1))
    return np.concatenate(values), np.concatenate(apart), np.concatenate(scale)


@st.composite
def patch_setups(draw, compatible=False, r_max=1.0):
    """Grid, profile, coupling and ensemble flag of a patch operator in 1D or 2D.

    Compatible setups have n a multiple of p in single phase mode; in
    ensemble mode n is free, so gcd(p, n) > 1 occurs (p = 4, n = 6 in 1D).
    They have at least two points per patch along each axis: a patch of one
    point resolves no microscale, and its block may have no slow modes set
    apart from the rest.
    """
    two_d = draw(st.booleans())
    axes = 2 if two_d else 1
    ensemble = draw(st.booleans())
    N = [draw(st.integers(1, 5 if two_d else 9)) for _ in range(axes)]
    if compatible:
        periods = [draw(st.integers(1, 2 if two_d else 4)) for _ in range(axes)]
        if ensemble:
            n = [draw(st.integers(2, 3 if two_d else 6)) for _ in range(axes)]
        else:
            n = [p * draw(st.integers(-(-2 // p), (3 if two_d else 6) // p)) for p in periods]
    else:
        n = [draw(st.integers(1, 3 if two_d else 5)) for _ in range(axes)]
        periods = [draw(st.integers(1, 3)) for _ in range(axes)]
    coupling = draw(couplings(N))
    r = [draw(st.floats(0.05, r_max)) for _ in range(axes)]
    seed = draw(st.integers(0, 999))
    if two_d:
        grid = pt.build_grid_2d(L, N[0], n[0], r[0], 1.5 * L, N[1], n[1], r[1])
        prof = pt.random_lognormal_profile_2d(*periods, 0.8, seed)
    else:
        grid = pt.build_grid_1d(L, N[0], n[0], r[0])
        prof = pt.random_lognormal_profile(periods[0], 0.8, seed)
    return grid, prof, coupling, ensemble


@st.composite
def stored_operators(draw):
    """Patch operators in 1D and 2D, single phase or ensemble, compatible or
    not (an incompatible one is asymmetric), possibly wrapped as a wave."""
    grid, prof, coupling, ensemble = draw(patch_setups())
    op = pt.assemble_patch_1d(grid, prof, coupling, ensemble=ensemble, allow_incompatible=True)
    if draw(st.booleans()):
        op = pt.assemble_wave(op, draw(st.sampled_from([0.0, 0.02, 0.3])))
    return op


@st.composite
def full_lattices(draw):
    p = draw(st.integers(1, 3))
    if draw(st.booleans()):
        M = p * draw(st.integers(3 // p + 1, 8))
        return pt.full_lattice_operator_1d(pt.random_lognormal_profile(p, 0.8, M), M, 0.3)
    shape = [p * draw(st.integers(3 // p + 1, 4)) for _ in range(2)]
    prof = pt.random_lognormal_profile_2d(p, 1, 0.8, shape[0])
    return pt.full_lattice_operator_2d(prof, shape, (0.3, 0.4))


@settings(max_examples=80)
@given(st.one_of(stored_operators(), full_lattices()))
def test_bloch_blocks_match_the_dense_rfftn(op):
    layout = _patch_layout(op)
    got = np.concatenate(list(_bloch_batches(op, layout)))
    want = dense_bloch_blocks(op.matrix, layout)
    assert got.shape == want.shape
    scale = np.max(np.linalg.norm(want.astype(complex), ord=2, axis=(1, 2)))
    assert np.max(np.abs(got - want)) <= 1e-14 * scale


@settings(max_examples=80)
@given(st.one_of(stored_operators(), full_lattices()))
def test_symmetry_defect_equals_the_dense_maxima(op):
    M = op.matrix
    got = pt.symmetry_defect(op)
    assert got.defect == float(np.max(np.abs(M - M.T)))
    assert got.scale == float(np.max(np.abs(M)))
    assert got.relative == (got.defect / got.scale if got.scale > 0 else 0.0)


@settings(max_examples=80)
@given(st.one_of(stored_operators(), full_lattices()), st.integers(0, 999))
def test_matvec_equals_the_dense_product(op, seed):
    x = np.random.default_rng(seed).standard_normal(op.dimension)
    want = op.matrix @ x
    got = op.matvec(x)
    assert got.shape == want.shape == (op.dimension,)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(op.matrix)) * np.max(np.abs(x))


def nyquist_blocks(layout):
    """Which half-spectrum blocks have 2 j = N along some patch axis."""
    patches = layout.shape[1 : 1 + layout.patch_axes]
    half = patches[:-1] + (patches[-1] // 2 + 1,)
    j = np.unravel_index(np.arange(math.prod(half)), half)
    return np.any([2 * ja == N for ja, N in zip(j, patches)], axis=0)


@st.composite
def degenerate_ensembles(draw):
    """Spectral ensembles with g = gcd(p, n) > 1 slow modes per block, the
    macro modes of g equivalent member orbits: equal within about 1e-12
    relative in every block but block 0, which holds g zero modes, and a
    Nyquist block."""
    if draw(st.booleans()):
        p, n = draw(st.sampled_from([(2, 2), (3, 3), (2, 4), (4, 4), (4, 6), (3, 6)]))
        grid = pt.build_grid_1d(L, draw(st.integers(5, 9)), n, draw(st.floats(0.05, 0.3)))
        prof = pt.random_lognormal_profile(p, 0.8, draw(st.integers(0, 999)))
    else:
        n = [draw(st.sampled_from([2, 4])) for _ in range(2)]
        r = [draw(st.floats(0.05, 0.3)) for _ in range(2)]
        N = [draw(st.integers(3, 4)) for _ in range(2)]
        grid = pt.build_grid_2d(L, N[0], n[0], r[0], 1.5 * L, N[1], n[1], r[1])
        prof = pt.random_lognormal_profile_2d(2, 2, 0.8, draw(st.integers(0, 999)))
    return pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("spectral"), ensemble=True)


@st.composite
def nyquist_ensembles(draw):
    """Coarse 2D ensembles with a Nyquist wavenumber along x, at any size ratio:
    there a slow mode of a g = 2 block often meets a fast one within round-off."""
    n = [2, draw(st.sampled_from([2, 3]))]
    grid = pt.build_grid_2d(
        L, draw(st.sampled_from([2, 4])), n[0], draw(st.floats(0.05, 1.0)),
        1.5 * L, draw(st.integers(1, 3)), n[1], draw(st.floats(0.05, 1.0)),
    )
    prof = pt.random_lognormal_profile_2d(2, 2, 0.8, draw(st.integers(0, 999)))
    return pt.assemble_patch_2d(grid, prof, pt.CouplingSpec("spectral"), ensemble=True)


# Patches of at most 0.3 of the spacing keep the slow modes of a block apart
# from its fast ones.  At a Nyquist wavenumber of a coarse 2D grid with
# spectral coupling a slow mode may still meet a fast one; which of the two is
# refined is then arbitrary, and both are within eps * ||H||.  Degenerate slow
# modes lie in different member orbits, which the eigenvalue-only path solves
# as separate blocks.
@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        patch_setups(compatible=True, r_max=0.3).map(
            lambda s: pt.assemble_patch_1d(*s[:3], ensemble=s[3])
        ),
        degenerate_ensembles(),
        nyquist_ensembles(),
    )
)
def test_the_slow_bloch_eigenvalues_are_rayleigh_quotients(op):
    layout = _patch_layout(op)
    g = layout.slow
    # eigh path (timestep.evolve_exact): each slow eigenvalue is the
    # oracle's Rayleigh quotient of eigh's own vector, bit for bit
    got = np.concatenate([w for w, *_ in _bloch_eigh(op, layout)])
    oracle = np.concatenate([w for w, _ in rayleigh_bloch_eigh(op, layout)])
    magnitudes = np.sort(np.abs(got), axis=1)
    apart = np.ones(got.shape[0], dtype=bool)
    if got.shape[1] > g:
        apart = magnitudes[:, g - 1] < (1 - 1e-9) * magnitudes[:, g]
        assert np.all(apart | nyquist_blocks(layout))
    order = np.argsort(np.abs(got), axis=1, kind="stable")[:, :g]
    refined = np.take_along_axis(got, order, axis=1)
    want = np.take_along_axis(oracle, order, axis=1)
    np.testing.assert_array_equal(refined[apart], want[apart])
    scale = magnitudes[~apart, -1:]
    assert np.all(np.abs(refined[~apart] - want[~apart]) <= 1e-14 * scale)
    # eigenvalue-only path (eigen_symmetric): each member orbit's slow
    # eigenvalue, by inverse iteration, agreed with the oracle's within
    # 7.4e-15 relative in 19,999 of 20,000 random examples.  The other read
    # 2.8e-14 on a slow mode 5e-7 of its block's largest magnitude, where
    # both quotients miss a 40-digit reference by about 1.4e-14, the
    # extended precision round-off.  A zero mode, or an orbit whose slow
    # mode meets a fast one, agrees within 1e-14 of the block's largest
    # magnitude.
    blocks = [
        np.take_along_axis(w, slow, axis=1)
        for w, _, slow in _bloch_eigh(op, layout, vectors=False)
    ]
    # `slow` lists each block's slow modes in ascending magnitude, their ranks
    assert all(np.all(np.diff(np.abs(values), axis=1) >= 0) for values in blocks)
    refined = np.sort(np.concatenate(blocks), axis=1)
    want, alone, top = orbit_slow_values(op, layout)
    scale = np.broadcast_to(top[:, None], want.shape)
    relative = alone & (np.abs(want) > 1e-10 * scale)
    error = np.abs(refined - want)
    assert np.all(error[relative] <= 2e-14 * np.abs(want[relative]))
    assert np.all(error[~relative] <= 1e-14 * scale[~relative])
    dense = np.linalg.eigvalsh(op.matrix)
    spectrum = np.sort(pt.eigen_symmetric(op).eigenvalues)
    assert np.max(np.abs(spectrum - dense)) <= 1e-13 * np.max(np.abs(dense))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 3),
    st.integers(0, 4),
    st.sampled_from(["zero", "random"]),
    st.integers(0, 999),
)
def test_refined_eigh_takes_zero_empty_and_scalar_blocks(k, b, kind, seed):
    """Stacks of no blocks, of 0 x 0 and 1 x 1 blocks, and of zero blocks,
    whose inverse iteration shift is 1e-12 from an offset scale of 1."""
    H = np.zeros((k, b, b), dtype=np.clongdouble)
    if kind == "random":
        X = np.random.default_rng(seed).standard_normal((2, k, b, b))
        H[:] = X[0] + 1j * X[1]
        H = 0.5 * (H + H.conj().swapaxes(1, 2))
    want = np.linalg.eigvalsh(H.astype(complex))
    w, V, slow = _refined_eigh(H, 1, vectors=False)
    assert V is None
    assert w.shape == (k, b) and slow.shape == (k, min(1, b))
    np.testing.assert_allclose(np.sort(w, axis=1), want, rtol=0, atol=1e-13 * max(1.0, b))
    if kind == "zero":
        np.testing.assert_array_equal(w, 0.0)


@settings(max_examples=40, deadline=None)
@given(patch_setups(compatible=True))
def test_eigenvalues_do_not_depend_on_the_batches(setup):
    """One block per batch gives the same spectrum and labels, bit for bit:
    the start vectors of inverse iteration are the same in every batch."""
    grid, prof, coupling, ensemble = setup
    op = pt.assemble_patch_1d(grid, prof, coupling, ensemble=ensemble)
    whole = pt.eigen_symmetric(op)
    with mock.patch("patchtooth.assembly._BATCH_BYTES", 1):
        single = pt.eigen_symmetric(op)
    for name in ("eigenvalues", "wavenumbers", "ranks"):
        np.testing.assert_array_equal(getattr(single, name), getattr(whole, name))


@pytest.mark.parametrize(
    "periods, n, slow",
    [
        ((5,), (4,), 1),  # acceptance criterion 8b
        ((5,), (10,), 5),  # criterion 9: n = p * mult
        ((4,), (6,), 2),  # the ensemble patches sweep
        ((2, 2), (3, 3), 1),  # the eigen2d-ens benchmark
        ((2, 3), (4, 6), 6),
    ],
)
def test_the_slow_count_is_the_number_of_member_orbits(periods, n, slow):
    if len(periods) == 1:
        grid = pt.build_grid_1d(L, 5, n[0], 0.3)
        prof = pt.random_lognormal_profile(periods[0], 0.5, 0)
    else:
        grid = pt.build_grid_2d(L, 3, n[0], 0.3, L, 3, n[1], 0.3)
        prof = pt.random_lognormal_profile_2d(*periods, 0.5, 0)
    ensemble = pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("spectral"), ensemble=True)
    assert ensemble.layout.slow == slow
    # _orbits groups the unknowns of a block by the members stored entries couple
    orbits = _orbits(_patch_layout(ensemble), prof.periods)
    want = member_orbits(ensemble, _patch_layout(ensemble))
    assert orbits.shape == want.shape == (slow, want.shape[1])
    assert sorted(map(sorted, orbits.tolist())) == sorted(want.tolist())
    assert pt.assemble_wave(ensemble).layout.slow == slow
    single = pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("spectral"), allow_incompatible=True)
    assert single.layout.slow == 1


def test_batches_bound_the_blocks_alive_at_once(monkeypatch):
    """Small batches give the same blocks, in the same order."""
    grid = pt.build_grid_2d(L, 5, 2, 0.3, L, 4, 2, 0.4)
    prof = pt.random_lognormal_profile_2d(2, 1, 0.5, 3)
    op = pt.assemble_patch_2d(grid, prof, pt.CouplingSpec("spectral"), ensemble=True)
    layout = _patch_layout(op)
    whole = list(_bloch_batches(op, layout))
    monkeypatch.setattr("patchtooth.assembly._BATCH_BYTES", 1)
    single = list(_bloch_batches(op, layout))
    assert len(whole) == 1 and len(single) == 4 * 3  # N_y x (N_x // 2 + 1)
    np.testing.assert_array_equal(np.concatenate(single), whole[0])


def test_the_stored_form_needs_no_dense_matrix():
    """A 2D grid of 41 x 41 patches of 8 x 8 points (dim 107,584, a 92 GB
    dense matrix) is assembled, checked for symmetry and applied once within
    64 MB of traced allocations."""
    grid = pt.build_grid_2d(L, 41, 8, 0.2, L, 41, 8, 0.2)
    prof = pt.random_lognormal_profile_2d(2, 2, 0.5, 0)
    tracemalloc.start()
    try:
        op = pt.assemble_patch_2d(grid, prof, pt.CouplingSpec("spectral"))
        report = pt.symmetry_defect(op)
        residual = op.matvec(np.ones(op.dimension))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.dimension == 107_584
    assert report.defect == 0.0
    assert np.max(np.abs(residual)) <= 1e-12 * report.scale
    assert peak < 64 * 2**20, f"{peak / 2**20:.1f} MB"
