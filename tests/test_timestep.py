"""Time integration: exact propagator, RK4, stability guard, mass."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import rk4_extended, spectral_radius
from test_spectra import (
    dense_eigenvalues,
    incompatible_operator,
    patch_operators_1d,
    patch_operators_2d,
)
from test_storage import degenerate_ensembles, full_lattices

import patchtooth as pt
from patchtooth import cli, timestep
from patchtooth.assembly import _row_sum_bound

L = 2 * np.pi


def dense_rk4(matrix, u0, dt, steps):
    """Every state of the plain RK4 loop, four matrix-vector products per step (oracle)."""
    states = [u0]
    for _ in range(steps):
        u = states[-1]
        k1 = matrix @ u
        k2 = matrix @ (u + 0.5 * dt * k1)
        k3 = matrix @ (u + 0.5 * dt * k2)
        k4 = matrix @ (u + dt * k3)
        states.append(u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.array(states)


def dense_evolution(op, u0, times):
    """The dense eigh propagator patch operators used before the Bloch engine (oracle)."""
    w, Q = np.linalg.eigh(0.5 * (op.matrix + op.matrix.T))
    c = Q.T @ u0
    return np.array([Q @ (np.exp(w * t) * c) for t in times])


def make_operator(r=0.4):
    """1D, N = 6, n = 4, inline profile (1, 2), spectral coupling."""
    grid = pt.build_grid_1d(L, 6, 4, r)
    prof = pt.DiffusivityProfile1D((1.0, 2.0))
    return pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("spectral"))


def test_exact_evolution_matches_scalar_decay():
    """A sine mode of a constant lattice decays at -4 c sin^2(pi m / M) / d^2."""
    c, M, m, d = 1.5, 12, 2, 0.5
    op = pt.full_lattice_operator_1d(pt.DiffusivityProfile1D((c,)), M, d)
    u0 = np.sin(2 * np.pi * m * np.arange(M) / M)
    times = np.array([0.0, 0.5, 1.0])
    traj = pt.evolve_exact(op, u0, times)
    rate = -4 * c * np.sin(np.pi * m / M) ** 2 / d**2
    np.testing.assert_allclose(traj.states, np.exp(rate * times)[:, None] * u0, atol=1e-14)
    np.testing.assert_array_equal(traj.times, times)


def test_trajectory_rejects_unordered_times(monkeypatch):
    """Before any eigensolve, and Trajectory itself too."""
    op = make_operator()

    def unreached(*args):
        raise AssertionError("the times are checked before the eigensolve")

    monkeypatch.setattr(timestep, "_bloch_eigh", unreached)
    for times in ([0.0, 0.5, 0.5], [0.0, 0.5, 0.25]):
        with pytest.raises(ValueError, match="strictly increasing"):
            pt.evolve_exact(op, np.ones(op.dimension), times)
    with pytest.raises(ValueError, match="strictly increasing"):
        pt.Trajectory(times=[0.0, 0.5, 0.5], states=np.zeros((3, 1)))


def test_exact_evolution_requires_symmetry():
    op = incompatible_operator()
    with pytest.raises(pt.SymmetryPreconditionError):
        pt.evolve_exact(op, np.ones(op.dimension), [0.0, 1.0])


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
    """Exact over the Bloch blocks of a diffusion operator and its wave system."""
    op = make_operator()
    lam = np.linalg.eigvalsh(0.5 * (op.matrix + op.matrix.T))
    assert pt.stability_limit(op) == pytest.approx(2.5 / abs(lam[0]), rel=1e-10)
    wave = pt.assemble_wave(op, epsilon=0.3)
    rho = np.max(np.abs(np.linalg.eigvals(wave.matrix)))
    assert pt.stability_limit(wave) == pytest.approx(2.5 / rho, rel=1e-10)


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


def test_an_unstable_rk4_run_that_overflows_raises_naming_the_time():
    """allow_unstable waives the step-size guard only: states that leave the
    double range raise StabilityError, stored every step or every 50th, and
    nothing warns on the way."""
    op = make_operator()
    dt = 3.0 * pt.stability_limit(op)
    u0 = 1.0 + 0.3 * np.sin(np.arange(op.dimension))
    for stride in (1, 50):
        with pytest.raises(pt.StabilityError, match=r"left the double range at t = \d"):
            pt.evolve_rk4(op, u0, dt, 2000, allow_unstable=True, stride=stride)


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
@given(
    st.one_of(patch_operators_1d(), patch_operators_2d(), degenerate_ensembles()),
    st.integers(0, 999),
)
def test_bloch_evolution_matches_the_dense_propagator(op, seed):
    """Agreement to 1e-12 over times up to 20 / rho(A).

    Either solver's eigenvalues carry an absolute error near eps * rho(A), so
    their propagators differ by about t * eps * rho(A); scaling the times by
    rho keeps that far below the tolerance while the fast modes decay.  The
    ensembles with g > 1 member orbits are propagated orbit block by orbit
    block.
    """
    rho = max(float(np.max(np.abs(op.matrix))), 1.0)
    u0 = 1.0 + np.random.default_rng(seed).standard_normal(op.dimension)
    times = np.array([0.0, 0.1, 1.0, 20.0]) / rho
    got = pt.evolve_exact(op, u0, times).states
    want = dense_evolution(op, u0, times)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def wave_operators():
    return st.builds(
        pt.assemble_wave, patch_operators_1d(), st.sampled_from([0.0, 0.02, 0.3])
    )


@settings(max_examples=60)
@given(
    st.one_of(patch_operators_1d(), patch_operators_2d(), wave_operators()),
    st.integers(1, 12),
    st.sampled_from(["one", "three", "all"]),
    st.floats(0.05, 1.0),
    st.integers(0, 999),
)
def test_bloch_rk4_matches_the_dense_loop(op, steps, stride_kind, fraction, seed):
    """Stored states and times of every stride-th step, and the mass after every step."""
    stride = {"one": 1, "three": 3, "all": steps}[stride_kind]
    u0 = 1.0 + np.random.default_rng(seed).standard_normal(op.dimension)
    dt = fraction * min(pt.stability_limit(op), 1.0)  # the zero operator has no limit
    traj = pt.evolve_rk4(op, pt.StateVector(u0, time=0.5), dt, steps, stride=stride)
    want = dense_rk4(op.matrix, u0, dt, steps)
    np.testing.assert_array_equal(traj.times, 0.5 + dt * np.arange(steps + 1)[::stride])
    scale = np.max(np.abs(want))
    assert traj.states.shape == want[::stride].shape
    assert np.max(np.abs(traj.states - want[::stride])) <= 1e-12 * scale
    assert traj.mass.shape == (steps + 1,)
    assert traj.mass[0] == u0.sum()
    assert np.max(np.abs(traj.mass - want.sum(axis=1))) <= 1e-12 * op.dimension * scale


def test_rk4_on_a_full_lattice_stores_every_stride_th_step_of_the_loop():
    op = pt.full_lattice_operator_1d(pt.random_lognormal_profile(3, 0.8, 0), 24, 0.5)
    u0 = 1.0 + 0.3 * np.sin(np.arange(op.dimension))
    dt = pt.stability_limit(op) / 4.0
    want = dense_rk4(op.matrix, u0, dt, 10)
    traj = pt.evolve_rk4(op, u0, dt, 10, stride=4)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(traj.states - want[::4])) <= 1e-13 * scale
    np.testing.assert_array_equal(traj.times, dt * np.arange(11)[::4])
    assert np.max(np.abs(traj.mass - want.sum(axis=1))) <= 1e-13 * op.dimension * scale
    sums, drift = pt.conserved_mass(traj)
    assert sums is traj.mass
    assert drift == np.max(np.abs(traj.mass - traj.mass[0]))
    with pytest.raises(ValueError):
        pt.evolve_rk4(op, u0, dt, 10, stride=0)


@settings(max_examples=40, deadline=None)
@given(full_lattices(), st.integers(1, 12), st.floats(0.05, 1.0), st.integers(0, 999))
def test_full_lattices_take_the_bloch_path_of_every_solver(op, steps, fraction, seed):
    """Spectrum, stability limit, exact evolution and RK4 of a full lattice
    against the dense oracles."""
    dense = np.sort(dense_eigenvalues(op))
    rho = np.max(np.abs(dense))
    assert op.layout.patch_axes == len(op.profile.periods)
    got = np.sort(pt.eigen_symmetric(op).eigenvalues)
    assert np.max(np.abs(got - dense)) <= 1e-13 * rho
    assert pt.stability_limit(op) == pytest.approx(2.5 / rho, rel=1e-12)
    u0 = 1.0 + np.random.default_rng(seed).standard_normal(op.dimension)
    times = np.array([0.0, 0.1, 1.0, 20.0]) / rho
    want = dense_evolution(op, u0, times)
    got = pt.evolve_exact(op, u0, times).states
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    dt = fraction * pt.stability_limit(op)
    want = dense_rk4(op.matrix, u0, dt, steps)
    traj = pt.evolve_rk4(op, u0, dt, steps)
    assert np.max(np.abs(traj.states - want)) <= 1e-12 * np.max(np.abs(want))


def incompatible_operators():
    """allow_incompatible diffusion operators and their wave systems: not symmetric."""
    return st.sampled_from([0.0, 0.02, 0.3]).flatmap(
        lambda eps: st.sampled_from([incompatible_operator(), pt.assemble_wave(incompatible_operator(), eps)])
    )


def state_error(got, want) -> float:
    """The largest error over the stored states, relative to each state's largest entry."""
    return float(np.max(np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)))


LAGRANGIAN_2 = pt.assemble_patch_1d(
    pt.build_grid_1d(L, 9, 6, 0.3), pt.random_lognormal_profile(3, 1.0, 0), pt.CouplingSpec("lagrangian", 2)
)


@settings(max_examples=60)
@given(
    st.one_of(
        patch_operators_1d(), patch_operators_2d(), degenerate_ensembles(), wave_operators(),
        incompatible_operators(),
    ),
    st.integers(1, 400),
    st.integers(1, 50),
    st.sampled_from([0.01, 0.1, 0.5, 1.0]),
    st.integers(0, 999),
)
@example(LAGRANGIAN_2, 2000, 200, 0.01, 1)
def test_rk4_matches_the_extended_precision_loop(op, steps, stride, fraction, seed):
    """Every stored state against the RK4 step loop in extended precision.

    The tolerances are set from measurement: over 500 drawn examples the
    error of a diffusion operator stayed below 0.53 eps (16 + stored
    states), since its fast modes decay and each stored state adds one
    rounding.  A wave system's modes oscillate, and the double rounding of
    each step's phase accumulates with the rho t radians its fastest mode
    turns: the error stayed below 1.7 eps (16 + 4 rho t).  Raising the
    step matrix I + E to the power in double, in place of the deviation E,
    loses the slow modes' decay to round-off: on the example it read
    4.3e-14, seven times the diffusion tolerance, and 6.4 eps here.
    """
    u0 = 1.0 + np.random.default_rng(seed).standard_normal(op.dimension)
    limit = pt.stability_limit(op)
    dt = fraction * min(limit, 1.0)  # the zero operator has no limit
    got = pt.evolve_rk4(op, u0, dt, steps, stride=stride).states
    want = rk4_extended(op, u0, dt, steps, stride)
    eps = np.finfo(float).eps
    if op.layout.half is None:
        tolerance = 2 * eps * (16 + steps // stride + 1)
    else:
        tolerance = 4 * eps * (16 + 4 * 2.5 * steps * dt / limit)
    assert state_error(got, want) <= tolerance


def benchmark_wave_config(seed: int = 0, steps: int = 3000) -> dict:
    """The wave1d RK4 simulate of the rk4-wave1d benchmark, over `steps` steps."""
    return {
        "model": "wave1d",
        "grid": {"L": L, "N": 40, "n": 10, "r": 0.2},
        "profile": {"kind": "lognormal", "period": 5, "sigma": 1.0, "seed": seed},
        "coupling": {"scheme": "lagrangian", "order": 2},
        "task": "simulate",
        "simulate": {"integrator": "rk4", "dt": 1e-4, "steps": steps, "stride": 30,
                     "initial": {"kind": "sine", "mode": 1}},
    }


def benchmark_wave(seed: int = 0):
    """The operator and start state of benchmark_wave_config, as the CLI builds them."""
    run = cli._resolve(benchmark_wave_config(seed))
    op = cli._assemble(run)
    return op, cli._initial_state(run.section["initial"], op).values


@pytest.mark.parametrize("seed", [0, 3])
def test_rk4_wave_benchmark_system_matches_the_extended_precision_loop(seed):
    """The wave1d RK4 simulate of the benchmark config (N = 40, n = 10, r =
    0.2, lognormal period 5, sigma 1, Lagrangian order 2, 3,000 steps of
    1e-4 at stride 30, a sine start): every stored state within 2e-13 of
    its largest entry.  Measured 5.6e-14 and 8.8e-14 at seeds 0 and 3; the
    step powers in extended precision before the eigenbasis read 7.5e-14
    and 3.6e-13."""
    op, u0 = benchmark_wave(seed)
    got = pt.evolve_rk4(op, u0, 1e-4, 3000, stride=30).states
    assert state_error(got, rk4_extended(op, u0, 1e-4, 3000, 30)) <= 2e-13


ZERO_OPERATOR = pt.assemble_patch_1d(  # one patch of one point coupled to itself
    pt.build_grid_1d(L, 1, 1, 0.5), pt.DiffusivityProfile1D((1.0,)), pt.CouplingSpec("spectral")
)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        patch_operators_1d(), patch_operators_2d(), degenerate_ensembles(), full_lattices(),
        wave_operators(), incompatible_operators(),
        st.sampled_from([ZERO_OPERATOR, pt.assemble_wave(ZERO_OPERATOR, 0.3)]),
    )
)
def test_the_row_sum_bound_bounds_the_spectral_radius(op):
    """||S^-1 L S||_inf >= rho(L) for any operator, symmetric or not; the
    dense eigensolve's own round-off is allowed for, since on a constant
    lattice with an even point count the bound is attained."""
    rho = spectral_radius(op)
    assert _row_sum_bound(op) >= rho * (1 - 1e-12)


def test_the_row_sum_bound_is_tight_on_the_benchmark_wave():
    """Measured 1.078 rho: a looser bound would send the benchmark's dt = 1e-4,
    a third of the limit, nearer the exact fallback."""
    op, _ = benchmark_wave()
    rho = 2.5 / pt.stability_limit(op)
    assert rho <= _row_sum_bound(op) <= 1.1 * rho


def test_a_certified_rk4_run_does_no_general_eigensolve(tmp_path, monkeypatch):
    """The benchmark wave at its smoke steps, through the CLI: dt = 1e-4 is
    within 2.5 over the row-sum bound, 2.88e-4."""

    def refuse(op, layout):
        raise AssertionError("general Bloch eigensolve")

    monkeypatch.setattr(timestep, "_bloch_eigenvalues", refuse)
    assert cli.run(benchmark_wave_config(steps=300), tmp_path) == 0
    assert (tmp_path / "trajectory.csv").stat().st_size > 0


def test_the_exact_fallback_runs_the_same_steps(monkeypatch):
    """A bound that certifies nothing takes stability_limit, and the run is
    bitwise the certified one."""
    op, u0 = benchmark_wave()
    certified = pt.evolve_rk4(op, u0, 1e-4, 300, stride=30)
    solves, original = [], timestep._bloch_eigenvalues

    def counted(*args):
        solves.append(args)
        return original(*args)

    monkeypatch.setattr(timestep, "_row_sum_bound", lambda op: math.inf)
    monkeypatch.setattr(timestep, "_bloch_eigenvalues", counted)
    exact = pt.evolve_rk4(op, u0, 1e-4, 300, stride=30)
    assert len(solves) == 1
    for name in ("times", "states", "mass"):
        np.testing.assert_array_equal(getattr(exact, name), getattr(certified, name), strict=True)


@pytest.mark.parametrize("kind", ["diffusion", "wave", "lattice"])
@pytest.mark.parametrize("above", [1.1, "next"])
def test_the_exact_limit_decides_what_the_bound_cannot_certify(kind, above):
    """dt at the exact limit runs; 1.1 times it, or the next double above it,
    raises with the exact limit in the text.  On a constant lattice of an
    even point count the bound is rho itself."""
    if kind == "lattice":
        op = pt.full_lattice_operator_1d(pt.DiffusivityProfile1D((1.5,)), 8, 0.5)
    else:
        op = make_operator()
    if kind == "wave":
        op = pt.assemble_wave(op, epsilon=0.3)
    u0 = np.ones(op.dimension)
    limit = pt.stability_limit(op)
    assert pt.evolve_rk4(op, u0, limit, 5).times.size == 6
    dt = 1.1 * limit if above == 1.1 else float(np.nextafter(limit, np.inf))
    text = (
        f"dt = {dt:.6g} exceeds the RK4 stability limit {limit:.6g}; "
        "reduce the step or pass allow_unstable=True"
    )
    with pytest.raises(pt.StabilityError, match=f"^{re.escape(text)}$"):
        pt.evolve_rk4(op, u0, dt, 5)


def test_the_overflow_message_names_the_exact_limit():
    op = make_operator()
    limit = pt.stability_limit(op)
    u0 = 1.0 + 0.3 * np.sin(np.arange(op.dimension))
    with pytest.raises(pt.StabilityError, match=re.escape(f"stability limit {limit:.6g})")):
        pt.evolve_rk4(op, u0, 3.0 * limit, 2000, allow_unstable=True)


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), -1e-3, 0.0])
def test_rk4_refuses_a_time_step_that_is_not_positive_and_finite(dt):
    """A NaN step used to fail as an RK4 run that left the double range."""
    op = make_operator(0.3)
    with pytest.raises(ValueError, match=f"time step dt = {dt} must be a positive finite number"):
        pt.evolve_rk4(op, np.ones(op.dimension), dt, 3)


@pytest.mark.parametrize("time", [float("nan"), float("inf")])
def test_rk4_refuses_a_start_time_that_is_not_finite(time):
    """A NaN start time used to give a trajectory of NaN times."""
    op = make_operator(0.3)
    with pytest.raises(ValueError, match=f"start time {time} must be finite"):
        pt.evolve_rk4(op, pt.StateVector(np.ones(op.dimension), time=time), 1e-3, 3)
    with pytest.raises(ValueError, match="strictly increasing"):
        pt.Trajectory(times=[0.0, float("nan")], states=np.zeros((2, 1)))


@pytest.mark.parametrize("time", [float("nan"), float("inf")])
def test_exact_evolution_refuses_times_that_are_not_finite(time):
    """A NaN time used to fail naming the largest eigenvalue."""
    op = make_operator(0.3)
    u0 = np.ones(op.dimension)
    with pytest.raises(ValueError, match=f"times must be finite, not {time}") as raised:
        pt.evolve_exact(op, u0, [0.0, time])
    assert not isinstance(raised.value, pt.StabilityError)
    with pytest.raises(ValueError, match=f"start time {time} must be finite"):
        pt.evolve_exact(op, pt.StateVector(u0, time=time), [0.0, 1.0])


def test_the_integrators_refuse_a_state_of_the_wrong_length():
    """A state of 25 values used to fail in numpy's reshape."""
    op = make_operator(0.3)
    text = f"state has 25 values; the operator's dimension is {op.dimension}"
    with pytest.raises(ValueError, match=text):
        pt.evolve_rk4(op, np.ones(25), 1e-3, 3)
    with pytest.raises(ValueError, match=text):
        pt.evolve_exact(op, np.ones(25), [0.0, 1.0])


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_the_integrators_refuse_state_values_that_are_not_finite(value):
    """A NaN value used to fail as a run that left the double range at t = 0."""
    op = make_operator(0.3)
    u0 = np.ones(op.dimension)
    u0[3] = value
    for run in (lambda: pt.evolve_rk4(op, u0, 1e-3, 3), lambda: pt.evolve_exact(op, u0, [0.0, 1.0])):
        with pytest.raises(ValueError, match=f"state values must be finite, not {value}") as raised:
            run()
        assert not isinstance(raised.value, pt.StabilityError)
