"""Phase-shift ensembles and their edge-crossing shift structure."""

import numpy as np

import patchtooth as pt


def test_permutations_2d_are_permutation_matrices():
    prof = pt.random_lognormal_profile_2d(2, 3, 0.4, 11)
    Px, Py = pt.build_permutations_2d(prof, 3, 4)
    for P in (Px, Py):
        assert P.shape == (6, 6)
        np.testing.assert_array_equal(P.sum(axis=0), np.ones(6))
        np.testing.assert_array_equal(P.sum(axis=1), np.ones(6))
        np.testing.assert_array_equal(np.unique(P), [0.0, 1.0])
        # permutations are orthogonal
        np.testing.assert_array_equal(P @ P.T, np.eye(6))


def test_permutation_x_shifts_the_x_phase():
    prof = pt.random_lognormal_profile_2d(3, 2, 0.3, 2)
    nx, ny = 4, 5
    Px, Py = pt.build_permutations_2d(prof, nx, ny)
    # flat member e = phi * p_y + psi
    for e in range(6):
        phi, psi = divmod(e, 2)
        src_x = np.flatnonzero(Px[e])
        assert src_x.size == 1
        assert divmod(int(src_x[0]), 2) == ((phi - nx) % 3, psi)
        src_y = np.flatnonzero(Py[e])
        assert divmod(int(src_y[0]), 2) == (phi, (psi - ny) % 2)
