"""Spectrum reports, deflated wave spectra, error tables, slopes."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import full_lattice_operator_2d_sparse, smallest_magnitude_eigenvalues
from test_storage import (
    degenerate_ensembles,
    full_lattices,
    member_orbits,
    mirrorless_operators,
    patch_setups,
)

import patchtooth as pt
from patchtooth import spectra
from patchtooth.assembly import _bloch_batches, _mirror_counts, _patch_layout
from patchtooth.microscale import _full_lattice
from patchtooth.spectra import _axis_lengths, _grid_labels, _symmetric_solves

L = 2 * np.pi


def wavenumber_labels(op):
    """The wavenumber label of each half-spectrum Bloch block of an operator's grid."""
    layout = _patch_layout(op)
    return _grid_labels([(layout.shape[1 : 1 + layout.patch_axes], _axis_lengths(op)[0])])[0][0]


def symmetric_reports(ops, modes=None):
    """eigen_symmetric's report of each operator, from one _symmetric_solves call."""
    return [
        pt.SpectrumReport(
            eigenvalues=np.repeat(w, counts, axis=0).ravel(), n_macro=macro, symmetry=symmetry,
            wavenumbers=np.repeat(np.repeat(labels, counts), w.shape[1]),
            ranks=np.repeat(ranks, counts, axis=0).ravel(),
        )
        for symmetry, labels, counts, macro, w, ranks in _symmetric_solves(ops, modes)
    ]


def dense_eigenvalues(op):
    """The dense solve patch operators took before the Bloch engine (oracle)."""
    return np.linalg.eigvalsh(0.5 * (op.matrix + op.matrix.T))


def dense_wave_eigenvalues(op):
    """Dense spectrum of a wave operator with the constants of each member
    orbit deflated in u and in v, plus one zero pair per orbit (oracle).

    The orbits are the connected components of the members that stored
    entries couple (test_storage.member_orbits).  The null space of their
    indicator rows in u and in v is invariant under [[0, I], [A, eps B]].
    """
    W, M = op.matrix, op.layout.half
    layout = _patch_layout(op)
    points = math.prod(layout.shape[1 + layout.patch_axes :])
    index = np.arange(2 * M)
    member = index // (2 * M // layout.members)
    rows = []
    for orbit in member_orbits(op, layout)[:, ::points] // points:
        inside = np.isin(member, orbit)
        rows += [inside & (index < M), inside & (index >= M)]
    Q = scipy.linalg.null_space(np.array(rows, dtype=float))
    return np.concatenate([np.linalg.eigvals(Q.T @ W @ Q), np.zeros(len(rows))])


@st.composite
def patch_operators_1d(draw):
    """Random 1D patch operators: N from 1 up, both couplings, ensemble or not."""
    N = draw(st.integers(1, 8))
    p = draw(st.integers(1, 4))
    ensemble = draw(st.booleans())
    n = draw(st.integers(1, 6)) if ensemble else p * draw(st.integers(1, 6 // p))
    scheme = draw(st.sampled_from(["spectral", "lagrangian"]))
    if scheme == "lagrangian":
        assume(N >= 3)
        coupling = pt.CouplingSpec("lagrangian", draw(st.integers(1, (N - 1) // 2)))
    else:
        coupling = pt.CouplingSpec("spectral")
    grid = pt.build_grid_1d(L, N, n, draw(st.floats(0.05, 1.0)))
    prof = pt.random_lognormal_profile(p, draw(st.floats(0.0, 1.5)), draw(st.integers(0, 999)))
    return pt.assemble_patch_1d(grid, prof, coupling, ensemble=ensemble)


@st.composite
def patch_operators_2d(draw):
    """Random 2D patch operators with N_x != N_y, single phase or ensemble."""
    Nx, Ny = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    assume(Nx != Ny)
    px, py = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    ensemble = draw(st.booleans())
    if ensemble:
        nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    else:
        nx, ny = px * draw(st.integers(1, 3 // px)), py * draw(st.integers(1, 3 // py))
    grid = pt.build_grid_2d(L, Nx, nx, draw(st.floats(0.05, 1.0)),
                            1.5 * L, Ny, ny, draw(st.floats(0.05, 1.0)))
    prof = pt.random_lognormal_profile_2d(px, py, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 999)))
    return pt.assemble_patch_2d(grid, prof, pt.CouplingSpec("spectral"), ensemble=ensemble)


@settings(max_examples=60)
@given(st.one_of(patch_operators_1d(), patch_operators_2d()))
def test_bloch_spectrum_matches_the_dense_solve(op):
    got = np.sort(pt.eigen_symmetric(op).eigenvalues)
    want = np.sort(dense_eigenvalues(op))
    assert got.size == want.size == op.dimension
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@settings(max_examples=40)
@given(st.one_of(patch_operators_1d(), patch_operators_2d()), st.sampled_from([0.0, 0.02, 0.3]))
def test_bloch_wave_spectrum_matches_the_dense_deflation(base, epsilon):
    wave = pt.assemble_wave(base, epsilon=epsilon)
    got = pt.eigen_general(wave).eigenvalues
    want = dense_wave_eigenvalues(wave)
    assert got.size == want.size == wave.dimension
    assert np.count_nonzero(got == 0.0) == 2 * wave.layout.slow
    # Match the two multisets by least total distance.  A nearly critically
    # damped pair is close to defective, so both solvers place it only to
    # about sqrt(eps) relative (1.5e-8 seen over 300 draws).
    rows, cols = scipy.optimize.linear_sum_assignment(np.abs(got[:, None] - want[None, :]))
    assert np.max(np.abs(got[rows] - want[cols])) <= 1e-6 * np.max(np.abs(want))


@settings(max_examples=40)
@given(st.one_of(patch_operators_1d(), patch_operators_2d()), st.sampled_from([0.0, 0.02, 0.3]))
def test_the_wave_zero_pairs_stand_apart_in_block_zero(base, epsilon):
    """eigen_general sets the 2g eigenvalues of Bloch block j = 0 nearest
    zero to exact zeros, g the member orbits.  That count is safe while they
    lie at least 100 times below every other magnitude of the block, the
    square root of the 1e-4 that _require_dynamic_range holds the slowest
    mode to."""
    wave = pt.assemble_wave(base, epsilon=epsilon)
    layout = _patch_layout(wave)
    spectra._require_dynamic_range(wave)
    block = next(_bloch_batches(wave))[0]
    magnitudes = np.sort(np.abs(np.linalg.eigvals(block.astype(complex))))
    zeroed = 2 * layout.slow
    assert np.all(magnitudes[zeroed:] >= 100 * magnitudes[zeroed - 1])


@pytest.mark.parametrize("two_d", [False, True])
def test_wave_ensembles_keep_one_zero_pair_per_member_orbit(two_d):
    """A wave ensemble of g member orbits has g defective zero pairs on
    block j = 0.  Deflating the global pair alone left the 1D ensemble of p
    = 4 on n = 6 (g = 2) a pair 1.02e-14 +- 4.95e-7i, and the 2D one of
    periods (2, 2) on n = (2, 2) (g = 4) a largest real part of +1.2e-7."""
    if two_d:
        grid = pt.build_grid_2d(L, 3, 2, 0.3, L, 3, 2, 0.3)
        prof = pt.random_lognormal_profile_2d(2, 2, 0.5, 0)
    else:
        grid = pt.build_grid_1d(L, 9, 6, 0.3)
        prof = pt.random_lognormal_profile(4, 0.5, 0)
    base = pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("spectral"), ensemble=True)
    w = pt.eigen_general(pt.assemble_wave(base)).eigenvalues
    g = base.layout.slow
    assert g == (4 if two_d else 2)
    assert np.count_nonzero(w == 0.0) == 2 * g
    assert np.min(np.abs(w[w != 0.0])) >= 1e-3
    assert np.max(w.real) <= 0.0


def test_spectrum_report_sorts_and_splits():
    rep = pt.SpectrumReport(eigenvalues=np.array([-2.0, 0.0, -100.0, -1.0]), n_macro=3)
    np.testing.assert_array_equal(rep.eigenvalues, [0.0, -1.0, -2.0, -100.0])
    np.testing.assert_array_equal(rep.macro, [0.0, -1.0, -2.0])
    np.testing.assert_array_equal(rep.micro, [-100.0])
    assert rep.gap_ratio == 50.0
    assert rep.zero_mode_magnitude == 0.0


def test_spectrum_report_gap_guards():
    rep = pt.SpectrumReport(eigenvalues=np.array([0.0, -1.0]), n_macro=2)
    assert rep.gap_ratio == np.inf  # no micro modes left
    with pytest.raises(ValueError):
        pt.SpectrumReport(eigenvalues=np.array([0.0, -1.0]), n_macro=5)
    with pytest.raises(ValueError, match="wavenumbers and ranks label the eigenvalues together"):
        pt.SpectrumReport(eigenvalues=np.array([0.0, -1.0]), n_macro=2, wavenumbers=[0, 1])
    with pytest.raises(ValueError, match="need one wavenumber and one rank per eigenvalue"):
        pt.SpectrumReport(eigenvalues=np.array([0.0, -1.0]), n_macro=2, wavenumbers=[0, 1, 1],
                          ranks=[0, 0, 0])


def incompatible_operator():
    """A single-phase operator whose period does not divide n: asymmetric."""
    grid = pt.build_grid_1d(L, 6, 4, 0.3)
    prof = pt.DiffusivityProfile1D((1.0, 2.0, 3.0))
    return pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("spectral"), allow_incompatible=True)


def test_eigen_symmetric_rejects_asymmetry():
    with pytest.raises(pt.SymmetryPreconditionError):
        pt.eigen_symmetric(incompatible_operator())


@pytest.mark.parametrize("wave", [False, True])
def test_solvers_refuse_a_profile_beyond_the_dynamic_range(wave):
    """sigma = 1000 draws bonds of 4e54 and 4e-58: round-off of the stencil
    swamps the slowest macro mode, and the library once returned a largest
    eigenvalue of +3.05e41 for this negative semidefinite operator."""
    grid = pt.build_grid_1d(L, 6, 4, 0.3)
    profile = pt.random_lognormal_profile(2, 1000, 0)
    op = pt.assemble_patch_1d(grid, profile, pt.CouplingSpec("spectral"))
    solve = pt.eigen_symmetric
    if wave:
        op, solve = pt.assemble_wave(op), pt.eigen_general
    with pytest.raises(ValueError, match=r"dynamic range: eps \* \|\|H\|\| is 3.41e\+98 times"):
        solve(op)


def test_full_lattices_are_held_to_the_dynamic_range():
    """A full lattice has no grid; its points along each axis at unit spacing
    give the same ratio, 3.07e97 here.  Unchecked, this negative semidefinite
    operator had a largest eigenvalue of +6.2e35."""
    op = pt.full_lattice_operator_1d(pt.random_lognormal_profile(2, 1000, 0), 24, L / 24)
    with pytest.raises(ValueError, match=r"dynamic range: eps \* \|\|H\|\| is 3.07e\+97 times"):
        pt.eigen_symmetric(op)


def test_solvers_take_assembled_operators_only():
    raw = pt.full_lattice_operator_1d(pt.DiffusivityProfile1D((1.0,)), 4).matrix
    for solve in (pt.symmetry_defect, pt.eigen_symmetric, pt.eigen_general, pt.stability_limit):
        with pytest.raises(TypeError, match="AssembledOperator"):
            solve(raw)
    with pytest.raises(TypeError, match="AssembledOperator"):
        pt.evolve_exact(raw, np.ones(4), [0.0, 1.0])
    with pytest.raises(TypeError, match="AssembledOperator"):
        pt.evolve_rk4(raw, np.ones(4), 0.01, 3)


def test_eigen_symmetric_default_macro_count_comes_from_layout():
    grid = pt.build_grid_1d(L, 6, 4, 0.2)
    op = pt.assemble_patch_1d(grid, pt.DiffusivityProfile1D((1.0, 2.0)), pt.CouplingSpec("spectral"))
    rep = pt.eigen_symmetric(op)
    assert rep.n_macro == 6
    assert rep.macro.size == 6 and rep.micro.size == 18
    assert rep.gap_ratio > 10


def test_eigen_general_deflates_the_wave_zero_pair():
    grid = pt.build_grid_1d(L, 5, 4, 0.5)
    prof = pt.DiffusivityProfile1D((1.0, 2.0))
    base = pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("spectral"))
    wave = pt.assemble_wave(base, epsilon=0.02)
    rep = pt.eigen_general(wave)
    assert rep.eigenvalues.size == 2 * base.dimension
    assert np.count_nonzero(rep.eigenvalues == 0.0) == 2
    assert np.max(np.real(rep.eigenvalues)) <= 1e-10
    assert rep.n_macro == 2 * 5  # a pair +-i omega per macro mode of the base


@settings(max_examples=30)
@given(st.integers(1, 7), st.integers(1, 5), st.integers(2, 3), st.integers(0, 999))
def test_bloch_general_spectrum_matches_the_dense_solve(N, n, p, seed):
    """Incompatible single-phase operators are asymmetric; eigen_general
    solves them block by block like the symmetric ones."""
    grid = pt.build_grid_1d(L, N, n, 0.3)
    prof = pt.random_lognormal_profile(p, 0.8, seed)
    op = pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("spectral"), allow_incompatible=True)
    got = pt.eigen_general(op).eigenvalues
    want = np.linalg.eigvals(op.matrix)
    assert got.size == want.size == op.dimension
    rows, cols = scipy.optimize.linear_sum_assignment(np.abs(got[:, None] - want[None, :]))
    assert np.max(np.abs(got[rows] - want[cols])) <= 1e-12 * np.max(np.abs(want))


def test_eigen_symmetric_reports_the_symmetry_it_checked():
    grid = pt.build_grid_1d(L, 6, 4, 0.3)
    op = pt.assemble_patch_1d(grid, pt.DiffusivityProfile1D((1.0, 2.0)), pt.CouplingSpec("spectral"))
    assert pt.eigen_symmetric(op).symmetry == pt.symmetry_defect(op)
    assert pt.eigen_general(op).symmetry is None
    bad = incompatible_operator()
    with pytest.raises(pt.SymmetryPreconditionError) as failure:
        pt.eigen_symmetric(bad)
    assert failure.value.symmetry == pt.symmetry_defect(bad)


def test_mirrored_wavenumbers_pair_exactly():
    """Blocks j and -j are conjugate, so their eigenvalues pair bitwise."""
    grid = pt.build_grid_1d(L, 6, 3, 0.4)
    op = pt.assemble_patch_1d(grid, pt.random_lognormal_profile(3, 0.7, 1), pt.CouplingSpec("spectral"))
    _, counts = np.unique(pt.eigen_symmetric(op).eigenvalues, return_counts=True)
    # j = 0 and j = 3 stand alone, j = 1, 2 pair with j = 5, 4
    assert sorted(counts) == [1] * 6 + [2] * 6


def test_smallest_magnitude_matches_dense_solver():
    prof = pt.DiffusivityProfile1D((1.0, 2.0, 3.0))
    op = pt.full_lattice_operator_1d(prof, 120, 0.1)
    dense = np.linalg.eigvalsh(op.matrix)
    dense = dense[np.argsort(np.abs(dense), kind="stable")][:7]
    small = smallest_magnitude_eigenvalues(op.matrix, 7)
    np.testing.assert_allclose(small, dense, rtol=1e-10, atol=1e-10)


def test_smallest_magnitude_eigenvalues_are_reproducible():
    """ARPACK starts from a seeded vector, so two calls agree bit for bit."""
    prof = pt.random_lognormal_profile_2d(2, 2, 0.5, 0)
    sparse = full_lattice_operator_2d_sparse(prof, (30, 30), (0.1, 0.1))
    first = smallest_magnitude_eigenvalues(sparse, 12)
    np.testing.assert_array_equal(smallest_magnitude_eigenvalues(sparse, 12), first)


def test_error_table_collapses_degenerate_pairs():
    """Blocks j and -j carry one label, so the pair at wavenumber 1 is one row."""
    labels = {"wavenumbers": [0, 1, 1, 2, 0], "ranks": [0, 0, 0, 0, -1]}
    ref = pt.SpectrumReport(eigenvalues=np.array([0.0, -1.0, -1.0, -2.0, -50.0]), n_macro=4, **labels)
    test = pt.SpectrumReport(eigenvalues=np.array([0.0, -1.01, -1.01, -2.1, -50.0]), n_macro=4, **labels)
    table = pt.error_table(test, ref, 2)
    np.testing.assert_array_equal(table.indices, [1, 2])
    np.testing.assert_allclose(table.reference_values, [-1.0, -2.0])
    np.testing.assert_allclose(table.relative_errors, [0.01, 0.05], rtol=1e-12)
    with pytest.raises(ValueError):
        pt.error_table(test, ref, 9)
    with pytest.raises(ValueError):
        pt.error_table(test, ref, 0)


def test_error_table_drops_near_zero_modes():
    """The kernel mode is wavenumber 0, which no row reads."""
    labels = {"wavenumbers": [0, 1, 2], "ranks": [0, 0, 0]}
    ref = pt.SpectrumReport(eigenvalues=np.array([1e-13, -3.0, -9.0]), n_macro=3, **labels)
    test = pt.SpectrumReport(eigenvalues=np.array([-2e-13, -3.3, -9.0]), n_macro=3, **labels)
    table = pt.error_table(test, ref, 1)
    assert table.reference_values[0] == pytest.approx(-3.0)
    assert table.relative_errors[0] == pytest.approx(0.1)


@st.composite
def sweep_points(draw):
    """Test and spectral reference operators of one sweep point, and a row count.

    1D or 2D grids, single phase or ensembles (g = gcd(p, n) > 1 slow modes
    per block in 1D for (p, n) = (4, 6), (2, 4), (3, 6), and in 2D for
    p = 2 and an even n), and a Lagrangian or spectral test coupling.
    """
    two_d = draw(st.booleans())
    axes = range(2 if two_d else 1)
    ensemble = draw(st.booleans())
    N = [draw(st.integers(2, 5 if two_d else 9)) for _ in axes]
    periods = [draw(st.integers(1, 2 if two_d else 4)) for _ in axes]
    if ensemble and two_d:
        n = [draw(st.integers(2, 4)) for _ in axes]
    elif ensemble:
        pair = draw(st.sampled_from([(4, 6), (2, 4), (3, 6), (5, 4), (3, 4), (2, 3)]))
        periods, n = [pair[0]], [pair[1]]
    else:
        n = [p * draw(st.integers(-(-2 // p), (4 if two_d else 6) // p)) for p in periods]
    orders = (min(N) - 1) // 2
    if orders >= 1 and draw(st.booleans()):
        coupling = pt.CouplingSpec("lagrangian", draw(st.integers(1, orders)))
    else:
        coupling = pt.CouplingSpec("spectral")
    r = [draw(st.floats(0.05, 0.3)) for _ in axes]
    seed = draw(st.integers(0, 999))
    if two_d:
        grid = pt.build_grid_2d(L, N[0], n[0], r[0], 1.5 * L, N[1], n[1], r[1])
        prof = pt.random_lognormal_profile_2d(*periods, 0.8, seed)
    else:
        grid = pt.build_grid_1d(L, N[0], n[0], r[0])
        prof = pt.random_lognormal_profile(periods[0], 0.8, seed)
    test, ref = (
        pt.assemble_patch_1d(grid, prof, c, ensemble=ensemble)
        for c in (coupling, pt.CouplingSpec("spectral"))
    )
    classes = (np.prod(N) + np.prod([2 - N_a % 2 for N_a in N])) // 2 - 1
    return test, ref, draw(st.integers(1, int(classes)))


@settings(max_examples=150)
@given(sweep_points())
def test_selected_blocks_give_the_full_solve_errors_bitwise(point):
    test, ref, modes = point
    try:
        selected = [pt.eigen_symmetric(op, modes=modes) for op in (test, ref)]
    except ValueError as exc:
        assert "does not separate" in str(exc)
        assume(False)
    full = [pt.eigen_symmetric(op) for op in (test, ref)]
    for part, whole in zip(selected, full):
        # the selected blocks are the full solve's blocks of wavenumbers 1..modes
        read = (whole.wavenumbers >= 1) & (whole.wavenumbers <= modes)
        np.testing.assert_array_equal(np.sort(part.eigenvalues), np.sort(whole.eigenvalues[read]))
        assert part.n_macro == np.count_nonzero(read & (whole.ranks >= 0))
    got, want = pt.error_table(*selected, modes), pt.error_table(*full, modes)
    for name in ("relative_errors", "test_values", "reference_values"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@st.composite
def operator_lists(draw):
    """1 to 6 operators in 1D and 2D drawn from a pool of at most 6, repeats
    included, so that several share a pair plan and several plans occur, and
    a row count that may exceed the wavenumbers of some of them, or None for
    whole spectra."""
    pool = draw(st.lists(
        st.one_of(
            sweep_points().map(lambda point: point[:2]),
            degenerate_ensembles().map(lambda op: (op,)),
            mirrorless_operators().map(lambda op: (op,)),
        ),
        min_size=1, max_size=3,
    ))
    pool = [op for ops in pool for op in ops]
    ops = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    classes = min(int(wavenumber_labels(op).max(initial=0)) for op in ops)
    return ops, draw(st.none() | st.integers(1, max(classes, 1) + 1))


def measured_symmetry(symmetry, consequence):
    """The symmetry measurement without its tolerance, so that an operator
    whose stored pattern is not symmetric (mirrorless_operators) is solved."""
    return symmetry


@settings(max_examples=100, deadline=None)
@given(operator_lists(), st.sampled_from([1, 5000, 2**22]))
def test_a_batch_of_operators_reports_each_as_a_call_of_its_own_would(case, batch_bytes):
    """_symmetric_solves stacks the selected blocks, or all of them, of the
    operators that share a pair plan; a batch of 1 or 5000 bytes splits each
    stack into batches of one block or a few.  Each report is the
    one-operator call's, bit for bit, and a failing list raises the error of
    the first operator whose own call fails.  Both calls measure the
    symmetry of mirrorless operators without refusing them, which exercises
    the union plans."""
    ops, modes = case
    with (
        mock.patch("patchtooth.assembly._BATCH_BYTES", batch_bytes),
        mock.patch("patchtooth.spectra._require_symmetric", measured_symmetry),
    ):
        alone = []
        for op in ops:
            try:
                alone.append(pt.eigen_symmetric(op, modes=modes))
            except ValueError as exc:
                with pytest.raises(type(exc)) as batched:
                    symmetric_reports(ops, modes)
                assert str(batched.value) == str(exc)
                return
        together = symmetric_reports(ops, modes)
    assert len(together) == len(ops)
    for got, want in zip(together, alone):
        for name in ("eigenvalues", "wavenumbers", "ranks"):
            part, oracle = getattr(got, name), getattr(want, name)
            assert part.dtype == oracle.dtype and part.tobytes() == oracle.tobytes()
        assert got.n_macro == want.n_macro
        assert got.symmetry == want.symmetry


def test_wavenumbers_follow_the_continuum_order():
    """On L_x = 2 pi, L_y = 3 pi the continuum |k|^2 of (j_x, j_y) is
    j_x^2 + (j_y / 1.5)^2: (0, 1), (1, 0), then (1, 1) and (1, -1), then (0, 2).
    A constant diffusivity puts the slow modes of wavenumber k at -|k|^2."""
    grid = pt.build_grid_2d(L, 5, 2, 0.05, 1.5 * L, 6, 2, 0.05)
    prof = pt.DiffusivityProfile2D(np.ones((1, 1)), np.ones((1, 1)))
    op = pt.assemble_patch_2d(grid, prof, pt.CouplingSpec("spectral"))
    rep = pt.eigen_symmetric(op, modes=5)
    slow = rep.ranks == 0
    want = {1: 1 / 2.25, 2: 1.0, 3: 1 + 1 / 2.25, 4: 1 + 1 / 2.25, 5: 4 / 2.25}
    for k, ksq in want.items():
        got = rep.eigenvalues[slow & (rep.wavenumbers == k)]
        # (0, 1) and (0, 2) stand alone in the half spectrum, the rest pair with -j
        assert got.size == 2
        np.testing.assert_allclose(got, -ksq, rtol=1e-3)


def labels_by_unique_columns(op, layout):
    """The wavenumber labels with the classes found by np.unique over the
    columns of their representatives, sorted by an exact |k|^2 (oracle): the
    integer sum_a j_a^2 on equal axis lengths, else sum_a j_a^2 / L_a^2 as a
    Fraction of the float lengths."""
    k = layout.patch_axes
    patches = layout.shape[1 : 1 + k]
    half = patches[:-1] + (patches[-1] // 2 + 1,)
    N = np.array(patches[::-1])[:, None]
    j = np.indices(half).reshape(k, -1)[::-1]

    def fold(x):
        x = x % N
        return np.where(2 * x <= N, x, x - N)

    plus, minus = fold(j), fold(-j)
    first = np.argmax(plus != minus, axis=0)
    larger = np.take_along_axis(plus - minus, first[None], axis=0)[0] >= 0
    classes, inverse = np.unique(np.where(larger, plus, minus), axis=1, return_inverse=True)
    lengths = _axis_lengths(op)[0]
    if np.all(lengths == lengths[0]):
        lengths = np.ones_like(lengths)
    ksq = [sum(Fraction(int(j) ** 2) / Fraction(length) ** 2 for j, length in zip(c, lengths))
           for c in classes.T]
    order = np.lexsort((*-classes[::-1], np.unique(ksq, return_inverse=True)[1]))
    place = np.empty(order.size, dtype=np.intp)
    place[order] = np.arange(order.size)
    return place[inverse.reshape(-1)]


@st.composite
def labelled_operators(draw):
    """Patch operators and full lattices in 1D and 2D, of odd and even patch
    counts, on square and non-square domains."""
    two_d = draw(st.booleans())
    if draw(st.booleans()):
        if two_d:
            shape = [draw(st.integers(3, 12)) for _ in range(2)]
            prof = pt.DiffusivityProfile2D(np.ones((1, 1)), np.ones((1, 1)))
            return pt.full_lattice_operator_2d(prof, shape, (0.3, draw(st.sampled_from([0.3, 0.45]))))
        return pt.full_lattice_operator_1d(pt.DiffusivityProfile1D(np.ones(1)),
                                           draw(st.integers(3, 40)), 0.3)
    coupling = pt.CouplingSpec("spectral")
    if two_d:
        Nx, Ny = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        grid = pt.build_grid_2d(L, Nx, 1, 0.3, draw(st.sampled_from([1.0, 1.5])) * L, Ny, 1, 0.3)
        prof = pt.DiffusivityProfile2D(np.ones((1, 1)), np.ones((1, 1)))
        return pt.assemble_patch_2d(grid, prof, coupling)
    grid = pt.build_grid_1d(L, draw(st.integers(1, 40)), 1, 0.3)
    return pt.assemble_patch_1d(grid, pt.DiffusivityProfile1D(np.ones(1)), coupling)


@settings(max_examples=150)
@given(labelled_operators())
# 164 x 164 points tie |k|^2 exactly where a floating-point sum splits the
# tie: a float key in the oracle labelled 769 of the 3,444 blocks otherwise
@example(_full_lattice(pt.random_lognormal_profile_2d(2, 2, 0.5, 0), [164, 164], [1.0, 1.0]))
def test_wavenumber_labels_match_the_unique_columns(op):
    layout = _patch_layout(op)
    np.testing.assert_array_equal(
        wavenumber_labels(op), labels_by_unique_columns(op, layout)
    )


def class_wavevectors(op):
    """The wavevectors j and -j of each wavenumber class, by label, x first."""
    layout = _patch_layout(op)
    k = layout.patch_axes
    patches = layout.shape[1 : 1 + k]
    half = patches[:-1] + (patches[-1] // 2 + 1,)
    N = np.array(patches[::-1])[:, None]
    j = np.indices(half).reshape(k, -1)[::-1] % N
    j = np.where(2 * j <= N, j, j - N)
    labels = wavenumber_labels(op)
    return [{tuple(s * v) for v in j[:, labels == c].T for s in (1, -1)}
            for c in range(labels.max() + 1)]


def test_grids_of_equal_lengths_number_their_classes_alike():
    """A grid of 15 x 15 patches on L = 2 pi and the full lattice of 164 x
    164 points (82 x 82 patches of one period) give every class with
    sum_a j_a^2 <= 49, all that the patch grid holds whole, the same label.
    (5, 0), (4, 3), (3, 4), (4, -3) and (0, 5) have |k|^2 = 25 exactly;
    summed in floating point, (5, 0) and (0, 5) read an ulp below the other
    three on the lattice alone, and classes 36-40 paired other wavevectors."""
    prof = pt.random_lognormal_profile_2d(2, 2, 0.5, 0)
    grid = pt.build_grid_2d(L, 15, 4, 0.3, L, 15, 4, 0.3)
    patches = class_wavevectors(pt.assemble_patch_2d(grid, prof, pt.CouplingSpec("spectral")))
    lattice = class_wavevectors(_full_lattice(prof, [164, 164], [1.0, 1.0]))
    disc = [c for c, vectors in enumerate(patches) if max(x * x + y * y for x, y in vectors) <= 49]
    assert disc == list(range(len(disc))) and len(disc) > 40
    assert [lattice[c] for c in disc] == [patches[c] for c in disc]


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
    reason="without a wider long double the oracle sums in double, in an order of its own",
)
@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        patch_setups(compatible=True).map(lambda s: pt.assemble_patch_1d(*s[:3], ensemble=s[3])),
        degenerate_ensembles(),
        full_lattices(),
    )
)
def test_a_whole_spectrum_is_the_oracle_solve_bit_for_bit(op):
    """eigen_symmetric without `modes` reports the batches of the dense
    oracle solve, each half-spectrum block repeated for the full-spectrum
    blocks it stands for and labelled by labels_by_unique_columns, stably
    sorted by magnitude: eigenvalues, wavenumbers and ranks bit for bit, on
    single phases, degenerate ensembles and full lattices."""
    layout = _patch_layout(op)
    w, slow = (np.concatenate(part) for part in zip(*(
        (w, slow) for w, _, slow in oracles._bloch_eigh(op)
    )))
    ranks = np.full(w.shape, -1, dtype=np.intp)
    np.put_along_axis(ranks, slow, np.arange(slow.shape[1]), axis=1)
    counts = _mirror_counts(layout)
    labels = labels_by_unique_columns(op, layout)
    want = {
        "eigenvalues": np.repeat(w, counts, axis=0).ravel(),
        "wavenumbers": np.repeat(np.repeat(labels, counts), w.shape[1]),
        "ranks": np.repeat(ranks, counts, axis=0).ravel(),
    }
    order = np.argsort(np.abs(want["eigenvalues"]), kind="stable")
    got = pt.eigen_symmetric(op)
    for name, oracle in want.items():
        part = getattr(got, name)
        assert part.dtype == oracle.dtype and part.tobytes() == oracle[order].tobytes()
    assert got.n_macro == (layout.n_macro or op.dimension)


def test_selected_blocks_must_separate_slow_from_fast():
    """At r = 0.5 a fast mode of the p = 3, n = 4 ensemble meets the slow one
    of wavenumber 2, so rank labels would pair arbitrary modes."""
    grid = pt.build_grid_1d(L, 6, 4, 0.5)
    op = pt.assemble_patch_1d(
        grid, pt.random_lognormal_profile(3, 1.0, 0), pt.CouplingSpec("spectral"), ensemble=True
    )
    assert pt.eigen_symmetric(op, modes=1).n_macro == 2
    # a whole spectrum pairs no modes by rank, so it is not checked
    assert pt.eigen_symmetric(op).n_macro == 6
    with pytest.raises(ValueError, match="block of wavenumber 2 does not separate"):
        pt.eigen_symmetric(op, modes=3)
    with pytest.raises(ValueError, match="wavenumbers 1..4; the grid has 3"):
        pt.eigen_symmetric(op, modes=4)


def test_a_batch_raises_the_error_of_its_first_failing_operator():
    """A later operator's precondition fault (too few wavenumbers on N = 4)
    waits until the blocks of the operators before it are solved and
    checked, so the mixed block of the first operator is the error raised."""
    prof = pt.random_lognormal_profile(3, 1.0, 0)
    mixed, short = (
        pt.assemble_patch_1d(pt.build_grid_1d(L, N, 4, 0.5), prof, pt.CouplingSpec("spectral"),
                             ensemble=True)
        for N in (6, 4)
    )
    with pytest.raises(ValueError, match="block of wavenumber 2 does not separate"):
        symmetric_reports([mixed, short], 3)
    with pytest.raises(ValueError, match="wavenumbers 1..3; the grid has 2"):
        symmetric_reports([short, mixed], 3)
    assert [report.n_macro for report in symmetric_reports([short, mixed], 1)] == [2, 2]
    # an asymmetric operator, measured in the same symmetry pass as the
    # operator before it, still waits for that operator's mixed block
    asymmetric = incompatible_operator()
    with pytest.raises(ValueError, match="block of wavenumber 2 does not separate") as raised:
        symmetric_reports([mixed, asymmetric], 3)
    assert not isinstance(raised.value, pt.SymmetryPreconditionError)
    with pytest.raises(pt.SymmetryPreconditionError):
        symmetric_reports([asymmetric, mixed], 3)
    with pytest.raises(pt.SymmetryPreconditionError):
        symmetric_reports([short, asymmetric, mixed], 1)


def test_a_batch_labels_each_grid_by_its_own_lengths():
    """Two grids of 4 x 4 patches on swapped domains, L_x = 2 pi and L_y =
    3 pi or the reverse, share a patch shape but order (1, 0) and (0, 1)
    differently, so the labels of one are no use to the other: a batch that
    holds each twice labels and checks each once, and reports every
    operator as its own call does."""
    prof = pt.random_lognormal_profile_2d(2, 2, 0.5, 0)
    ops = [
        pt.assemble_patch_2d(pt.build_grid_2d(Lx, 4, 2, 0.1, Ly, 4, 2, 0.1), prof,
                             pt.CouplingSpec("spectral"))
        for Lx, Ly in ((L, 1.5 * L), (1.5 * L, L))
    ]
    labels = [wavenumber_labels(op) for op in ops]
    assert not np.array_equal(*labels)
    with (
        mock.patch("patchtooth.spectra._grid_labels", wraps=spectra._grid_labels) as labelled,
        mock.patch("patchtooth.spectra._require_dynamic_range",
                   wraps=spectra._require_dynamic_range) as checked,
    ):
        together = symmetric_reports(ops + ops, 3)
    # once per distinct grid, the grids labelled in one pass
    assert sum(len(call.args[0]) for call in labelled.call_args_list) == checked.call_count == 2
    for got, op in zip(together, ops + ops):
        want = pt.eigen_symmetric(op, modes=3)
        for name in ("eigenvalues", "wavenumbers", "ranks"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_a_batch_checks_the_dynamic_range_of_each_profile():
    """The dynamic range is checked once per distinct profile and grid, never
    skipped for a profile of its own on a grid already checked, and its
    fault is raised in list order: after the mixed block of wavenumber 2 of
    an operator before it, before that of one after it."""
    grid = pt.build_grid_1d(L, 6, 4, 0.5)

    def assembled(sigma):
        prof = pt.random_lognormal_profile(3, sigma, 0)
        return pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("spectral"), ensemble=True)

    mixed, wide = assembled(1.0), assembled(40.0)
    assert len(symmetric_reports([mixed, mixed], 1)) == 2
    with pytest.raises(ValueError, match="^dynamic range"):
        symmetric_reports([mixed, mixed, wide], 1)
    with pytest.raises(ValueError, match="block of wavenumber 2 does not separate"):
        symmetric_reports([mixed, wide], 3)
    with pytest.raises(ValueError, match="^dynamic range"):
        symmetric_reports([wide, mixed], 3)


def test_error_table_reports_the_worst_rank():
    """With g = 2 slow modes per block a row is the worse of the two ranks."""
    labels = {"wavenumbers": [0, 0, 1, 1, 1, 1], "ranks": [0, 1, 0, 0, 1, 1]}
    ref = pt.SpectrumReport(np.array([0.0, 0.0, -1.0, -1.0, -1.5, -1.5]), n_macro=6, **labels)
    test = pt.SpectrumReport(np.array([0.0, 0.0, -1.1, -1.1, -1.5003, -1.5003]), n_macro=6, **labels)
    table = pt.error_table(test, ref, 1)
    np.testing.assert_allclose(table.relative_errors, [0.1], rtol=1e-12)
    np.testing.assert_array_equal(table.reference_values, [-1.0])
    unlabelled = pt.SpectrumReport(ref.eigenvalues, n_macro=6)
    with pytest.raises(ValueError, match="no wavenumber labels"):
        pt.error_table(test, unlabelled, 1)
    single = pt.SpectrumReport(ref.eigenvalues, n_macro=6, wavenumbers=labels["wavenumbers"],
                               ranks=[0, -1, 0, 0, -1, -1])
    with pytest.raises(ValueError, match="2 slow modes per wavenumber in the test spectrum, 1 in "
                                         "the reference"):
        pt.error_table(test, single, 1)


def test_convergence_slope_recovers_power_laws():
    N = [10, 20, 40, 80]
    errs = [7.0 * n**-4.0 for n in N]
    assert pt.convergence_slope(N, errs) == pytest.approx(-4.0, abs=1e-12)
    with pytest.raises(ValueError):
        pt.convergence_slope([10, 20], [1.0, 0.1])
    with pytest.raises(ValueError):
        pt.convergence_slope([10, 20, 15], [1.0, 0.1, 0.2])
    with pytest.raises(ValueError):
        pt.convergence_slope([10, 20, 40], [1.0, 0.0, 0.1])
    with pytest.raises(ValueError):
        pt.convergence_slope([10, 20, 40], [1.0, 0.1])
