"""First-block-row storage: Bloch blocks, symmetry defect, kernel residual and
Bloch eigenvalues against the dense matrix and the gathered product."""

import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import patchtooth as pt
from patchtooth.assembly import (
    _batch_blocks,
    _bloch_batches,
    _bloch_entry_batch,
    _kernel_residual,
    _mirror_counts,
    _orbits,
    _patch_layout,
)
from patchtooth.spectra import _pair_plan, _refined_eigh, _solve_batch

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


def solved_batches(op, select, vectors):
    """_solve_batch of each batch of _batch_blocks(b) blocks of the entries
    of _bloch_entry_batch([op], [select]), as the symmetric solvers slice them."""
    [(pairs, entries)] = _bloch_entry_batch([op], [select])
    orbits = _orbits(op)
    plan = _pair_plan(pairs, orbits)
    step = _batch_blocks(plan[4].shape[0])
    for start in range(0, len(entries), step):
        yield _solve_batch(entries[start : start + step], plan, len(orbits), vectors)


@st.composite
def couplings(draw, N):
    """Spectral coupling or a Lagrangian order that fits every axis of N patches."""
    orders = (min(N) - 1) // 2
    if orders < 1 or draw(st.booleans()):
        return pt.CouplingSpec("spectral")
    return pt.CouplingSpec("lagrangian", draw(st.integers(1, orders)))


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
    for blocks in _bloch_batches(op):
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
    got = np.concatenate(list(_bloch_batches(op)))
    want = dense_bloch_blocks(op.matrix, layout)
    assert got.shape == want.shape
    scale = np.max(np.linalg.norm(want.astype(complex), ord=2, axis=(1, 2)))
    assert np.max(np.abs(got - want)) <= 1e-14 * scale


@st.composite
def bluestein_operators(draw):
    """Operators with a patch axis whose long double FFT takes Bluestein's
    algorithm, where the transform of a one-hot line is not exact: 191
    patches in 1D, and 113 along y in 2D, an axis rfftn transforms in full."""
    if draw(st.booleans()):
        grid = pt.build_grid_1d(L, 191, 2, 0.1)
        prof = pt.random_lognormal_profile(2, 0.8, draw(st.integers(0, 999)))
        coupling = pt.CouplingSpec("lagrangian", draw(st.integers(1, 3)))
    else:
        grid = pt.build_grid_2d(L, 3, 2, 0.3, L, 113, 2, 0.05)
        prof = pt.random_lognormal_profile_2d(2, 2, 0.8, draw(st.integers(0, 999)))
        coupling = pt.CouplingSpec("spectral")
    op = pt.assemble_patch_1d(grid, prof, coupling)
    return pt.assemble_wave(op) if draw(st.booleans()) else op


@settings(max_examples=80, deadline=None)
@given(st.one_of(stored_operators(), full_lattices(), bluestein_operators()), st.data())
def test_bloch_entries_match_a_direct_dft(op, data):
    """Every stored pair's Bloch entries against the extended precision DFT
    of oracles.bloch_entries_dft, on the whole half spectrum or on a
    selection of its blocks, in one chunk of lines or in several.  A pair
    stored at patch offset 0 alone is its value at every wavenumber,
    exactly; every other pair is within 16 long double ulps of its largest
    stored magnitude (11.4 at worst on spectral coupling at N = 191)."""
    layout = _patch_layout(op)
    blocks = _mirror_counts(layout).size
    select = data.draw(
        st.none() | st.lists(st.integers(0, blocks - 1), min_size=1, unique=True).map(np.array)
    )
    batch_bytes = data.draw(st.sampled_from([1, 5000, 2**22]))
    with mock.patch("patchtooth.assembly._BATCH_BYTES", batch_bytes):
        [(pairs, got)] = _bloch_entry_batch([op], [select])
    want_pairs, want = oracles.bloch_entries_dft(op, select)
    np.testing.assert_array_equal(pairs, want_pairs)
    assert got.shape == want.shape == (blocks if select is None else select.size, pairs.size)

    b = op.dimension // math.prod(layout.shape[1 : 1 + layout.patch_axes])
    pair = np.searchsorted(pairs, op.rows * b + op.cols)
    count = np.bincount(pair, minlength=pairs.size)
    largest = np.zeros(pairs.size)
    np.maximum.at(largest, pair, np.abs(op.values))
    local = (count[pair] == 1) & (op.offsets == 0)  # entries whose pair is patch-local
    values = np.broadcast_to(op.values[local], (got.shape[0], np.count_nonzero(local)))
    np.testing.assert_array_equal(got[:, pair[local]].real, values)
    np.testing.assert_array_equal(got[:, pair[local]].imag, 0.0)
    error = np.abs(got - want) / np.where(largest > 0, largest, 1.0)
    assert np.all(error <= 16 * np.finfo(np.longdouble).eps)


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
    got = oracles.matvec(op, x)
    assert got.shape == want.shape == (op.dimension,)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(op.matrix)) * np.max(np.abs(x))


@settings(max_examples=150)
@given(st.one_of(stored_operators(), full_lattices()))
def test_kernel_residual_equals_the_gathered_product_bit_for_bit(op):
    """The row sums of the first block row are max|A k| of the product
    gathered over every patch, k = 1, or k = (1; 0) for the wave system:
    1D and 2D, single phase and ensemble, spectral and Lagrangian, and full
    lattices.  The wave's v-column entries are summed as zeros in place; a
    row without them is a shorter sum, in another order."""
    kernel = np.ones(op.dimension)
    if op.layout.half is not None:
        kernel[op.layout.half :] = 0.0
    want = float(np.max(np.abs(oracles.matvec(op, kernel))))
    assert _kernel_residual(op) == want


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
# modes lie in different member orbits, which both paths solve as separate
# blocks.
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
    want, alone, top = orbit_slow_values(op, layout)
    assert np.all(alone | nyquist_blocks(layout)[:, None])
    scale = np.broadcast_to(top[:, None], want.shape)

    def slow_values(vectors):
        blocks = [
            np.take_along_axis(w, slow, axis=1)
            for w, _, slow in solved_batches(op, None, vectors)
        ]
        # `slow` lists each block's slow modes in ascending magnitude, their ranks
        assert all(np.all(np.diff(np.abs(values), axis=1) >= 0) for values in blocks)
        return np.sort(np.concatenate(blocks), axis=1)

    # eigh path (timestep.evolve_exact): each member orbit's slow eigenvalue
    # is the oracle's Rayleigh quotient of eigh's own vector, bit for bit
    refined = slow_values(vectors=True)
    np.testing.assert_array_equal(refined[alone], want[alone])
    assert np.all(np.abs(refined - want)[~alone] <= 1e-14 * scale[~alone])
    # eigenvalue-only path (eigen_symmetric): each member orbit's slow
    # eigenvalue, by inverse iteration, agreed with the oracle's within
    # 7.4e-15 relative in 19,999 of 20,000 random examples.  The other read
    # 2.8e-14 on a slow mode 5e-7 of its block's largest magnitude, where
    # both quotients miss a 40-digit reference by about 1.4e-14, the
    # extended precision round-off.  A zero mode, or an orbit whose slow
    # mode meets a fast one, agrees within 1e-14 of the block's largest
    # magnitude.
    refined = slow_values(vectors=False)
    relative = alone & (np.abs(want) > 1e-10 * scale)
    error = np.abs(refined - want)
    assert np.all(error[relative] <= 2e-14 * np.abs(want[relative]))
    assert np.all(error[~relative] <= 1e-14 * scale[~relative])
    dense = np.linalg.eigvalsh(op.matrix)
    spectrum = np.sort(pt.eigen_symmetric(op).eigenvalues)
    assert np.max(np.abs(spectrum - dense)) <= 1e-13 * np.max(np.abs(dense))


@st.composite
def mirrorless_operators(draw):
    """A patch operator with every entry of some stored pairs dropped, so
    that their mirrors stand alone: a stored pattern that is not symmetric."""
    grid, prof, coupling, ensemble = draw(patch_setups(compatible=True))
    op = pt.assemble_patch_1d(grid, prof, coupling, ensemble=ensemble)
    upper = np.unique(op.rows * op.dimension + op.cols)  # one key per pair
    upper = upper[upper // op.dimension < upper % op.dimension]
    rng = np.random.default_rng(draw(st.integers(0, 999)))
    dropped = upper[rng.random(upper.size) < 0.5]
    dropped = np.append(dropped, upper[rng.integers(upper.size)])
    keep = ~np.isin(op.rows * op.dimension + op.cols, dropped)
    return replace(
        op, rows=op.rows[keep], offsets=op.offsets[keep], cols=op.cols[keep], values=op.values[keep]
    )


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
    reason="without a wider long double both paths sum in double, in orders of their own",
)
@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        patch_setups(compatible=True).map(lambda s: pt.assemble_patch_1d(*s[:3], ensemble=s[3])),
        degenerate_ensembles(),
        mirrorless_operators(),
    ),
    st.data(),
)
def test_the_pair_path_is_the_dense_solve_bit_for_bit(op, data):
    """_solve_batch forms the Hermitian parts on the stored pairs and their
    mirrors and takes the slow quotients from the pair entries; every batch's
    w, slow and V (on the vectors path) are the bytes of the dense oracle's,
    on the whole half spectrum or on a selection of its blocks."""
    layout = _patch_layout(op)
    blocks = _mirror_counts(layout).size
    select = data.draw(
        st.none() | st.lists(st.integers(0, blocks - 1), min_size=1, unique=True).map(np.array)
    )
    vectors = data.draw(st.booleans())
    got = solved_batches(op, select, vectors)
    want = oracles._bloch_eigh(op, select, vectors)
    for batch, dense in zip(got, want, strict=True):
        for part, oracle in zip(batch, dense, strict=True):
            if oracle is None:
                assert part is None
            else:
                assert part.dtype == oracle.dtype and part.shape == oracle.shape
                assert part.tobytes() == oracle.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 3),
    st.integers(0, 4),
    st.sampled_from(["zero", "random"]),
    st.integers(0, 999),
    st.booleans(),
)
def test_refined_eigh_takes_zero_empty_and_scalar_blocks(k, b, kind, seed, vectors):
    """Stacks of no blocks, of 0 x 0 and 1 x 1 blocks, and of zero blocks,
    whose inverse iteration shift is 1e-12 from an offset scale of 1, on
    either path."""
    H = np.zeros((k, b, b), dtype=np.clongdouble)
    if kind == "random":
        X = np.random.default_rng(seed).standard_normal((2, k, b, b))
        H[:] = X[0] + 1j * X[1]
        H = 0.5 * (H + H.conj().swapaxes(1, 2))
    want = np.linalg.eigvalsh(H.astype(complex))
    w, V, slow = _refined_eigh(H.astype(complex), lambda X: H @ X, vectors)
    if vectors:
        assert V.shape == (k, b, b)
        np.testing.assert_allclose(V.conj().swapaxes(1, 2) @ V, np.eye(b)[None].repeat(k, 0),
                                   rtol=0, atol=1e-13 * max(1.0, b))
    else:
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
    orbits = _orbits(ensemble)
    want = member_orbits(ensemble, _patch_layout(ensemble))
    assert orbits.shape == want.shape == (slow, want.shape[1])
    assert sorted(map(sorted, orbits.tolist())) == sorted(want.tolist())
    assert pt.assemble_wave(ensemble).layout.slow == slow
    single = pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("spectral"), allow_incompatible=True)
    assert single.layout.slow == 1


def test_batches_bound_the_blocks_alive_at_once(monkeypatch):
    """Small batches give the same blocks, in the same order.  Each batch is
    the caller's to overwrite: doing so as they come leaves the batches after
    it and a fresh pass unchanged."""
    grid = pt.build_grid_2d(L, 5, 2, 0.3, L, 4, 2, 0.4)
    prof = pt.random_lognormal_profile_2d(2, 1, 0.5, 3)
    op = pt.assemble_patch_2d(grid, prof, pt.CouplingSpec("spectral"), ensemble=True)
    whole = list(_bloch_batches(op))
    monkeypatch.setattr("patchtooth.assembly._BATCH_BYTES", 1)
    single = [batch.copy() for batch in _bloch_batches(op)]
    assert len(whole) == 1 and len(single) == 4 * 3  # N_y x (N_x // 2 + 1)
    np.testing.assert_array_equal(np.concatenate(single), whole[0])
    for got, want in zip(_bloch_batches(op), single, strict=True):
        np.testing.assert_array_equal(got, want)
        got[...] = np.nan
    np.testing.assert_array_equal(np.concatenate(list(_bloch_batches(op))), whole[0])


def test_the_stored_form_needs_no_dense_matrix():
    """A 2D grid of 41 x 41 patches of 8 x 8 points (dim 107,584, a 92 GB
    dense matrix) is assembled and checked for symmetry and for its kernel
    residual within 64 MB of traced allocations."""
    grid = pt.build_grid_2d(L, 41, 8, 0.2, L, 41, 8, 0.2)
    prof = pt.random_lognormal_profile_2d(2, 2, 0.5, 0)
    tracemalloc.start()
    try:
        op = pt.assemble_patch_2d(grid, prof, pt.CouplingSpec("spectral"))
        report = pt.symmetry_defect(op)
        residual = _kernel_residual(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.dimension == 107_584
    assert report.defect == 0.0
    assert residual <= 1e-12 * report.scale
    assert peak < 64 * 2**20, f"{peak / 2**20:.1f} MB"


def traced_peak(solve, op):
    """The peak of traced allocations while `solve(op)` runs, in bytes, and its result."""
    tracemalloc.start()
    try:
        result = solve(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result


def eigen2d_ens_operator():
    """The eigen2d-ens benchmark operator: 2D, 9 x 9 patches of 3 x 3
    points, 4 members, spectral coupling."""
    grid = pt.build_grid_2d(L, 9, 3, 0.3, L, 9, 3, 0.3)
    prof = pt.random_lognormal_profile_2d(2, 2, 0.5, 0)
    return pt.assemble_patch_2d(grid, prof, pt.CouplingSpec("spectral"), ensemble=True)


def test_a_symmetric_solve_holds_one_copy_of_its_blocks():
    """eigen_symmetric on the eigen2d-ens benchmark operator peaks below 3
    times the bytes of its extended precision Bloch blocks.  It read 4.4
    times when the batch, its conjugate, their sum and the Hermitian part
    were alive at once."""
    op = eigen2d_ens_operator()
    blocks = sum(batch.nbytes for batch in _bloch_batches(op))
    peak, report = traced_peak(pt.eigen_symmetric, op)
    assert report.eigenvalues.size == op.dimension == 2916
    assert peak < 3 * blocks, f"{peak / blocks:.2f} x {blocks} bytes"


def test_a_symmetric_solve_reads_its_blocks_on_the_stored_pairs():
    """eigen_symmetric on the eigen2d-ens benchmark operator stays below
    2.5 MB of traced allocations: the Hermitian parts are formed on the 180
    stored pairs of each 36 x 36 block, and only the double precision orbit
    blocks of the eigensolve are dense.  It read 2.13 MB so; 4.06 MB when
    each batch was a dense extended precision copy of its blocks."""
    op = eigen2d_ens_operator()
    peak, report = traced_peak(pt.eigen_symmetric, op)
    assert report.eigenvalues.size == op.dimension == 2916
    assert peak < 2.5 * 2**20, f"{peak / 2**20:.2f} MB"


def large_2d_operator():
    """2D, 41 x 41 patches of 8 x 8 points (dim 107,584), single phase,
    spectral coupling."""
    grid = pt.build_grid_2d(L, 41, 8, 0.2, L, 41, 8, 0.2)
    prof = pt.random_lognormal_profile_2d(2, 2, 0.5, 0)
    return pt.assemble_patch_2d(grid, prof, pt.CouplingSpec("spectral"))


def test_a_large_2d_spectrum_transforms_its_lines_in_chunks():
    """eigen_symmetric on 41 x 41 patches of 8 x 8 points (dim 107,584,
    108 MB of Bloch blocks) stays below 20 MB of traced allocations: the
    lines of the 320 stored pairs are transformed about 4 MB at a time into
    one 8.8 MB spectrum, and the blocks are solved in batches of 32.  It
    read 16.4 MB so; 25.1 MB when the lines were transformed whole, and
    97.5 MB with 16 MB batches of four or five copies each."""
    op = large_2d_operator()
    peak, report = traced_peak(pt.eigen_symmetric, op)
    assert report.eigenvalues.size == op.dimension == 107_584
    assert peak < 20 * 2**20, f"{peak / 2**20:.1f} MB"


def test_a_whole_spectrum_holds_one_copy_of_its_entries():
    """eigen_symmetric on 41 x 41 patches of 8 x 8 points peaks below 1.6
    times the bytes of the Bloch entries: the entries of a plan of one
    operator are solved as they are, not stacked into a copy.  It read 1.44
    times so; a solve that always stacks holds two copies at once."""
    op = large_2d_operator()
    entries = _bloch_entry_batch([op], [None])[0][1].nbytes
    peak, report = traced_peak(pt.eigen_symmetric, op)
    assert report.eigenvalues.size == op.dimension == 107_584
    assert peak < 1.6 * entries, f"{peak / entries:.2f} x {entries} bytes"
