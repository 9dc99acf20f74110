"""Spectrum reports, deflated wave spectra, error tables, slopes."""

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import patchtooth as pt

L = 2 * np.pi


def dense_eigenvalues(op):
    """The dense solve patch operators took before the Bloch engine (oracle)."""
    return np.linalg.eigvalsh(0.5 * (op.matrix + op.matrix.T))


def dense_wave_eigenvalues(op):
    """Dense spectrum of a wave operator on the zero-sum subspace, plus {0, 0} (oracle)."""
    W, M = op.matrix, op.layout.half
    Q = scipy.linalg.null_space(np.ones((1, M)))
    P = np.zeros((2 * M, 2 * (M - 1)))
    P[:M, : M - 1] = Q
    P[M:, M - 1 :] = Q
    return np.concatenate([np.linalg.eigvals(P.T @ W @ P), [0.0, 0.0]])


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
    assert np.count_nonzero(got == 0.0) == 2
    # Match the two multisets by least total distance.  A nearly critically
    # damped pair is close to defective, so both solvers place it only to
    # about sqrt(eps) relative (1.5e-8 seen over 300 draws).
    rows, cols = scipy.optimize.linear_sum_assignment(np.abs(got[:, None] - want[None, :]))
    assert np.max(np.abs(got[rows] - want[cols])) <= 1e-6 * np.max(np.abs(want))


def test_spectrum_report_sorts_and_splits():
    rep = pt.eigen_symmetric(np.diag([-2.0, 0.0, -100.0, -1.0]), n_macro=3)
    np.testing.assert_array_equal(rep.eigenvalues, [0.0, -1.0, -2.0, -100.0])
    np.testing.assert_array_equal(rep.macro, [0.0, -1.0, -2.0])
    np.testing.assert_array_equal(rep.micro, [-100.0])
    assert rep.gap_ratio == 50.0
    assert rep.zero_mode_magnitude == 0.0


def test_spectrum_report_gap_guards():
    rep = pt.eigen_symmetric(np.diag([0.0, -1.0]), n_macro=2)
    assert rep.gap_ratio == np.inf  # no micro modes left
    with pytest.raises(ValueError):
        pt.SpectrumReport(eigenvalues=np.array([0.0, -1.0]), n_macro=5)


def test_eigen_symmetric_rejects_asymmetry():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(pt.SymmetryPreconditionError):
        pt.eigen_symmetric(A)


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
    assert rep.n_macro == 5


def test_eigen_symmetric_reports_the_symmetry_it_checked():
    grid = pt.build_grid_1d(L, 6, 4, 0.3)
    op = pt.assemble_patch_1d(grid, pt.DiffusivityProfile1D((1.0, 2.0)), pt.CouplingSpec("spectral"))
    assert pt.eigen_symmetric(op).symmetry == pt.symmetry_defect(op)
    assert pt.eigen_general(op).symmetry is None
    bad = pt.assemble_patch_1d(grid, pt.DiffusivityProfile1D((1.0, 2.0, 3.0)),
                               pt.CouplingSpec("spectral"), allow_incompatible=True)
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
    small = pt.smallest_magnitude_eigenvalues(op.matrix, 7)
    np.testing.assert_allclose(small, dense, rtol=1e-10, atol=1e-10)


def test_error_table_collapses_degenerate_pairs():
    ref = pt.SpectrumReport(eigenvalues=np.array([0.0, -1.0, -1.0, -2.0, -50.0]), n_macro=4)
    test = pt.SpectrumReport(eigenvalues=np.array([0.0, -1.01, -1.01, -2.1, -50.0]), n_macro=4)
    table = pt.error_table(test, ref, 2)
    np.testing.assert_array_equal(table.indices, [1, 2])
    np.testing.assert_allclose(table.reference_values, [-1.0, -2.0])
    np.testing.assert_allclose(table.relative_errors, [0.01, 0.05], rtol=1e-12)
    with pytest.raises(ValueError):
        pt.error_table(test, ref, 9)
    with pytest.raises(ValueError):
        pt.error_table(test, ref, 0)


def test_error_table_drops_near_zero_modes():
    ref = pt.SpectrumReport(eigenvalues=np.array([1e-13, -3.0, -9.0]), n_macro=3)
    test = pt.SpectrumReport(eigenvalues=np.array([-2e-13, -3.3, -9.0]), n_macro=3)
    table = pt.error_table(test, ref, 1)
    assert table.reference_values[0] == pytest.approx(-3.0)
    assert table.relative_errors[0] == pytest.approx(0.1)


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
