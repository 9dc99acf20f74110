"""Time integration: exact propagator, RK4, stability guard, mass."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_spectra import patch_operators_1d, patch_operators_2d

import patchtooth as pt

L = 2 * np.pi


def dense_evolution(op, u0, times):
    """The dense eigh propagator patch operators used before the Bloch engine (oracle)."""
    w, Q = np.linalg.eigh(0.5 * (op.matrix + op.matrix.T))
    c = Q.T @ u0
    return np.array([Q @ (np.exp(w * t) * c) for t in times])


def make_operator():
    grid = pt.build_grid_1d(L, 6, 4, 0.4)
    prof = pt.DiffusivityProfile1D((1.0, 2.0))
    return pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("spectral"))


def test_exact_evolution_matches_scalar_decay():
    A = np.diag([-1.0, -2.0])
    u0 = np.array([3.0, 5.0])
    times = np.array([0.0, 0.5, 1.0])
    traj = pt.evolve_exact(A, u0, times)
    want = u0[None, :] * np.exp(np.outer(times, [-1.0, -2.0]))
    np.testing.assert_allclose(traj.states, want, rtol=1e-13)
    np.testing.assert_array_equal(traj.times, times)


def test_trajectory_rejects_unordered_times():
    A = np.diag([-1.0])
    with pytest.raises(ValueError):
        pt.evolve_exact(A, np.array([1.0]), [0.0, 0.5, 0.5])


def test_exact_evolution_requires_symmetry():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(pt.SymmetryPreconditionError):
        pt.evolve_exact(A, np.array([1.0, 1.0]), [0.0, 1.0])


def test_mass_is_conserved_by_the_exact_propagator():
    op = make_operator()
    rng = np.random.default_rng(3)
    u0 = 2.0 + 0.5 * rng.standard_normal(op.dimension)
    traj = pt.evolve_exact(op, u0, np.linspace(0.0, 0.5, 5))
    sums, drift = pt.conserved_mass(traj)
    assert sums.size == 5
    assert drift / abs(sums[0]) <= 1e-12


def test_constant_state_is_stationary():
    op = make_operator()
    traj = pt.evolve_exact(op, np.ones(op.dimension), [0.0, 1.0, 2.0])
    np.testing.assert_allclose(traj.states, 1.0, atol=1e-12)
    sums, drift = pt.conserved_mass(traj)
    assert drift / abs(sums[0]) <= 1e-12


def test_stability_limit_tracks_the_extreme_eigenvalue():
    op = make_operator()
    lam = np.linalg.eigvalsh(0.5 * (op.matrix + op.matrix.T))
    assert pt.stability_limit(op) == pytest.approx(2.5 / abs(lam[0]), rel=2e-2)


def test_rk4_matches_the_exact_propagator():
    op = make_operator()
    u0 = 1.0 + 0.3 * np.sin(np.arange(op.dimension))
    dt = pt.stability_limit(op) / 20.0
    traj = pt.evolve_rk4(op, u0, dt, 40)
    exact = pt.evolve_exact(op, u0, traj.times)
    scale = np.max(np.abs(exact.states))
    assert np.max(np.abs(traj.states - exact.states)) <= 1e-6 * scale


def test_rk4_is_fourth_order():
    op = make_operator()
    u0 = 1.0 + 0.3 * np.sin(np.arange(op.dimension))
    dt = pt.stability_limit(op) / 20.0

    def err(step, count):
        traj = pt.evolve_rk4(op, u0, step, count)
        exact = pt.evolve_exact(op, u0, traj.times)
        return np.max(np.abs(traj.states - exact.states))

    ratio = err(dt, 40) / err(dt / 2, 80)
    assert 12.0 < ratio < 22.0


def test_rk4_guards_against_unstable_steps():
    op = make_operator()
    dt = 1.1 * pt.stability_limit(op)
    with pytest.raises(pt.StabilityError):
        pt.evolve_rk4(op, np.ones(op.dimension), dt, 5)
    traj = pt.evolve_rk4(op, np.ones(op.dimension), dt, 5, allow_unstable=True)
    assert traj.times.size == 6


def test_wave_energy_decays_under_damping():
    grid = pt.build_grid_1d(L, 5, 4, 0.5)
    prof = pt.DiffusivityProfile1D((1.0, 2.0))
    base = pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("spectral"))
    wave = pt.assemble_wave(base, epsilon=0.02)
    M = base.dimension
    rng = np.random.default_rng(8)
    u0 = np.concatenate([rng.standard_normal(M), np.zeros(M)])
    dt = pt.stability_limit(wave) / 4.0
    traj = pt.evolve_rk4(wave, u0, dt, 200)
    A = base.matrix
    energy = np.array(
        [s[M:] @ s[M:] - s[:M] @ (A @ s[:M]) for s in traj.states]
    )
    assert energy[0] > 0
    assert np.all(np.diff(energy) <= 1e-9 * energy[0])
    assert energy[-1] < energy[0]


def test_state_vector_coerces_values():
    s = pt.StateVector(values=[1, 2, 3], time=0.5)
    assert s.values.dtype == np.float64
    assert s.time == 0.5


@settings(max_examples=50)
@given(st.one_of(patch_operators_1d(), patch_operators_2d()), st.integers(0, 999))
def test_bloch_evolution_matches_the_dense_propagator(op, seed):
    """Agreement to 1e-12 over times up to 20 / rho(A).

    Either solver's eigenvalues carry an absolute error near eps * rho(A), so
    their propagators differ by about t * eps * rho(A); scaling the times by
    rho keeps that far below the tolerance while the fast modes decay.
    """
    rho = max(float(np.max(np.abs(op.matrix))), 1.0)
    u0 = 1.0 + np.random.default_rng(seed).standard_normal(op.dimension)
    times = np.array([0.0, 0.1, 1.0, 20.0]) / rho
    got = pt.evolve_exact(op, u0, times).states
    want = dense_evolution(op, u0, times)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
