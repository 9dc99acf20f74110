"""Microscale profiles and full-lattice operators.

The closed-form oracle used throughout: a periodic chain with constant
diffusivity c and spacing d has eigenvalues -(4c/d^2) sin^2(pi k / M),
k = 0..M-1.  In 2D the eigenvalues are sums of the two 1D families.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import full_lattice_operator_2d_sparse

import patchtooth as pt


def ring_eigenvalues(c, M, d):
    k = np.arange(M)
    return -(4.0 * c / d**2) * np.sin(np.pi * k / M) ** 2


def test_profile_requires_positive_values():
    with pytest.raises(ValueError):
        pt.DiffusivityProfile1D((1.0, -2.0))
    with pytest.raises(ValueError):
        pt.DiffusivityProfile1D((1.0, 0.0))
    with pytest.raises(ValueError):
        pt.DiffusivityProfile1D(())
    with pytest.raises(ValueError, match="finite"):
        pt.DiffusivityProfile1D((1.0, np.inf))
    with pytest.raises(ValueError, match="finite"):
        pt.DiffusivityProfile2D([[1.0, np.inf]], [[1.0, 1.0]])
    # a draw that overflows to infinity is rejected the same way
    with pytest.raises(ValueError, match="finite"):
        pt.random_lognormal_profile(2, 1000.0, 1)


def test_profile_json_round_trip():
    payload = {"period": 3, "values": [3.965, 2.531, 0.838]}
    prof = pt.DiffusivityProfile1D.from_json(payload)
    np.testing.assert_array_equal(prof.values, payload["values"])
    with pytest.raises(ValueError):
        pt.DiffusivityProfile1D.from_json(dict(payload, period=5))


def test_full_operator_known_row():
    # kappa alternating (1, 2) on a four-point chain, unit spacing: the row
    # of the first stored node reads (-3, 2, 0, 1).
    op = pt.full_lattice_operator_1d(pt.DiffusivityProfile1D((1.0, 2.0)), 4)
    np.testing.assert_array_equal(op.matrix[0], [-3.0, 2.0, 0.0, 1.0])
    np.testing.assert_array_equal(op.matrix[1], [2.0, -3.0, 1.0, 0.0])
    np.testing.assert_array_equal(op.matrix, op.matrix.T)


def test_full_operator_constant_spectrum_matches_ring_formula():
    for M, d in ((4, 1.0), (9, 0.25), (12, 0.1)):
        op = pt.full_lattice_operator_1d(pt.DiffusivityProfile1D((2.5,)), M, d)
        got = np.sort(np.linalg.eigvalsh(op.matrix))
        want = np.sort(ring_eigenvalues(2.5, M, d))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-11 * abs(want[0]))


def test_full_operator_rejects_bad_sizes():
    prof = pt.DiffusivityProfile1D((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        pt.full_lattice_operator_1d(prof, 8)  # 3 does not divide 8
    with pytest.raises(ValueError):
        pt.full_lattice_operator_1d(pt.DiffusivityProfile1D((1.0,)), 2)
    # a profile of the other dimension
    with pytest.raises(ValueError):
        pt.full_lattice_operator_1d(pt.DiffusivityProfile2D([[1.0, 2.0]], [[1.0, 1.5]]), 6)
    with pytest.raises(ValueError):
        pt.full_lattice_operator_2d(pt.DiffusivityProfile1D((1.0, 2.0)), (6, 6))
    with pytest.raises(ValueError):
        full_lattice_operator_2d_sparse(pt.DiffusivityProfile1D((1.0, 2.0)), (6, 6))


@settings(max_examples=40, deadline=None)
@given(
    vals=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=5),
    mult=st.integers(2, 4),
)
def test_full_operator_symmetric_with_zero_row_sums(vals, mult):
    prof = pt.DiffusivityProfile1D(vals)
    M = max(prof.period * mult, 3 * prof.period)
    op = pt.full_lattice_operator_1d(prof, M, 0.5)
    A = op.matrix
    np.testing.assert_array_equal(A, A.T)
    scale = np.max(np.abs(A))
    assert np.max(np.abs(A @ np.ones(M))) <= 1e-12 * scale
    off = A[~np.eye(M, dtype=bool)]
    assert np.all(off >= 0.0)
    assert np.all(np.diag(A) < 0.0)


KX = [
    [18.91, 1.06, 0.63, 2.11],
    [4.46, 0.72, 1.02, 1.66],
    [4.89, 0.88, 1.31, 5.79],
    [1.62, 2.68, 2.32, 1.24],
    [0.42, 0.88, 0.59, 1.35],
]
KY = [
    [0.48, 0.63, 1.31, 0.51],
    [0.39, 10.38, 3.07, 0.37],
    [2.10, 1.74, 2.68, 1.63],
    [1.20, 4.38, 0.50, 1.02],
    [2.55, 1.23, 0.33, 1.06],
]


def test_profile_2d_accessors_and_json():
    payload = {"periods": [5, 4], "kx": KX, "ky": KY}
    prof = pt.DiffusivityProfile2D.from_json(payload)
    assert prof.periods == (5, 4)
    np.testing.assert_array_equal(prof.kx, KX)
    np.testing.assert_array_equal(prof.ky, KY)
    with pytest.raises(ValueError):
        pt.DiffusivityProfile2D.from_json(dict(payload, periods=[4, 5]))


def test_full_operator_2d_known_row():
    """Hand-computed row of the (0, 0) storage node on a 10 x 8 lattice."""
    op = pt.full_lattice_operator_2d(pt.DiffusivityProfile2D(KX, KY), (10, 8))
    row = op.matrix[0]
    assert row[1] == 0.72  # +x uses kx[1][1]
    assert row[9] == 1.06  # -x wraps to kx[0][1]
    assert row[10] == 10.38  # +y uses ky[1][1]
    assert row[70] == 0.39  # -y wraps to ky[1][0]
    assert row[0] == -(0.72 + 1.06 + 10.38 + 0.39)
    assert np.count_nonzero(row) == 5


def test_full_operator_2d_sparse_matches_dense():
    prof = pt.DiffusivityProfile2D(KX, KY)
    dense = pt.full_lattice_operator_2d(prof, (10, 8), (0.5, 0.25)).matrix
    sparse = full_lattice_operator_2d_sparse(prof, (10, 8), (0.5, 0.25))
    np.testing.assert_array_equal(sparse.toarray(), dense)
    np.testing.assert_array_equal(dense, dense.T)
    assert np.max(np.abs(dense @ np.ones(80))) <= 1e-12 * np.max(np.abs(dense))


def test_full_operator_2d_constant_spectrum():
    prof = pt.DiffusivityProfile2D([[1.7]], [[1.7]])
    op = pt.full_lattice_operator_2d(prof, (6, 4), (0.5, 0.3))
    got = np.sort(np.linalg.eigvalsh(op.matrix))
    lx = ring_eigenvalues(1.7, 6, 0.5)
    ly = ring_eigenvalues(1.7, 4, 0.3)
    want = np.sort((lx[:, None] + ly[None, :]).ravel())
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-11 * abs(want[0]))


def test_full_operator_2d_rejects_incommensurate_sizes():
    prof = pt.DiffusivityProfile2D(KX, KY)
    with pytest.raises(ValueError):
        pt.full_lattice_operator_2d(prof, (9, 8))
    with pytest.raises(ValueError):
        pt.full_lattice_operator_2d(prof, (10, 6))


def loop_full_1d(profile, M, d):
    """Row-by-row reference loop for the 1D full lattice."""
    vals = profile.values
    p = profile.period
    A = np.zeros((M, M))
    inv_d2 = 1.0 / (d * d)
    for g in range(M):
        right = vals[(g + 1) % p] * inv_d2
        left = vals[g % p] * inv_d2
        A[g, (g + 1) % M] += right
        A[g, (g - 1) % M] += left
        A[g, g] -= right + left
    return A


def loop_full_2d(profile, shape, spacing):
    """Point-by-point reference loop for the 2D five-point full lattice."""
    Mx, My = shape
    dx, dy = spacing
    px, py = profile.periods
    ivx = 1.0 / (dx * dx)
    ivy = 1.0 / (dy * dy)
    kx, ky = profile.kx, profile.ky

    def idx(i, j):
        return (j % My) * Mx + (i % Mx)

    A = np.zeros((Mx * My, Mx * My))
    for j in range(My):
        for i in range(Mx):
            a = idx(i, j)
            kxr = kx[(i + 1) % px, (j + 1) % py] * ivx
            kxl = kx[i % px, (j + 1) % py] * ivx
            kyu = ky[(i + 1) % px, (j + 1) % py] * ivy
            kyd = ky[(i + 1) % px, j % py] * ivy
            A[a, idx(i + 1, j)] += kxr
            A[a, idx(i - 1, j)] += kxl
            A[a, idx(i, j + 1)] += kyu
            A[a, idx(i, j - 1)] += kyd
            A[a, a] += -(kxr + kxl + kyu + kyd)
    return A


LOOP_SPACINGS = (1.0, 0.1, 0.0123, 2 * np.pi / 450)


def lattice_sizes(p):
    """M = 3 (where p divides it), M = p and several multiples of p, all >= 3."""
    return sorted({M for M in (3, p, 2 * p, 3 * p, 4 * p) if M >= 3 and M % p == 0})


def test_full_operators_equal_the_loop_references_bitwise():
    """The one-patch stencil keeps the summation order of the row loops."""
    for p in range(1, 6):
        prof = pt.random_lognormal_profile(p, 1.0, p)
        for M in lattice_sizes(p):
            for d in LOOP_SPACINGS:
                got = pt.full_lattice_operator_1d(prof, M, d).matrix
                np.testing.assert_array_equal(got, loop_full_1d(prof, M, d), strict=True)
    for px in range(1, 6):
        for py in range(1, 6):
            prof = pt.random_lognormal_profile_2d(px, py, 1.0, 10 * px + py)
            shapes = {(Mx, My) for Mx in lattice_sizes(px)[:2] for My in lattice_sizes(py)[:2]}
            for shape in sorted(shapes):
                # the last spacing is a scalar, which serves both axes
                for spacing in [*zip(LOOP_SPACINGS, LOOP_SPACINGS[::-1]), LOOP_SPACINGS[2]]:
                    want = loop_full_2d(prof, shape, np.broadcast_to(spacing, 2))
                    dense = pt.full_lattice_operator_2d(prof, shape, spacing).matrix
                    sparse = full_lattice_operator_2d_sparse(prof, shape, spacing)
                    np.testing.assert_array_equal(dense, want, strict=True)
                    np.testing.assert_array_equal(sparse.toarray(), want, strict=True)
                    assert sparse.nnz == np.count_nonzero(want)


def test_lognormal_draws_are_deterministic():
    a = pt.random_lognormal_profile(4, 0.3, 123)
    b = pt.random_lognormal_profile(4, 0.3, 123)
    c = pt.random_lognormal_profile(4, 0.3, 124)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert np.all(a.values > 0)
    assert a.period == 4


def test_lognormal_2d_shapes_and_determinism():
    a = pt.random_lognormal_profile_2d(3, 2, 0.5, 7)
    b = pt.random_lognormal_profile_2d(3, 2, 0.5, 7)
    assert a.kx.shape == (3, 2) and a.ky.shape == (3, 2)
    np.testing.assert_array_equal(a.kx, b.kx)
    np.testing.assert_array_equal(a.ky, b.ky)
    assert np.all(a.kx > 0) and np.all(a.ky > 0)
