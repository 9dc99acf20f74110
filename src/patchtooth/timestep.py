"""Time integration of assembled operators.

Two integrators cover the two uses of the scheme.  evolve_exact diagonalises
a symmetric operator once and evaluates u(t) = Q exp(W t) Q^T u(0) at any set
of times; it is the reference solution and conserves total mass to round-off.
A patch operator is diagonalised block by block: the state is transformed
over the patch axes, each Bloch block (see spectra) is propagated by its own
eigendecomposition, and the result transformed back.
evolve_rk4 is the classic fourth-order Runge-Kutta loop for operators that
need not be symmetric (the wave system), guarded by an explicit stability
check dt <= 2.5 / rho(L).  The spectral radius is estimated by power
iteration on L^2, whose dominant eigenvalue is real even when L has the
dominant conjugate pair of an undamped wave operator; the deterministic start
vector makes the estimate reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import _matrix_of
from .spectra import _bloch_eigh, _patch_layout, _require_symmetric


class StabilityError(ValueError):
    """Requested time step exceeds the explicit stability limit."""


@dataclass
class StateVector:
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("state must be a flat vector")


@dataclass
class Trajectory:
    """Snapshots of the evolving state, times strictly increasing."""

    times: np.ndarray
    states: np.ndarray
    mass: np.ndarray = field(init=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.shape[0] != self.times.size:
            raise ValueError("one state row per time required")
        if self.times.size > 1 and np.any(np.diff(self.times) <= 0):
            raise ValueError("snapshot times must be strictly increasing")
        self.mass = self.states.sum(axis=1)

    def final(self) -> StateVector:
        return StateVector(values=self.states[-1], time=float(self.times[-1]))


def _as_state(u0) -> StateVector:
    if isinstance(u0, StateVector):
        return u0
    return StateVector(values=np.asarray(u0, dtype=float))


def evolve_exact(op, u0, times) -> Trajectory:
    """Evaluate the exact semigroup solution at the requested times.

    Diagonalises the (symmetric) operator once; requires relative symmetry
    defect at most 1e-10 and strictly increasing times not before the state's
    own time stamp.
    """
    _require_symmetric(op, "exact evolution by orthogonal diagonalisation is unavailable")
    state = _as_state(u0)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < state.time):
        raise ValueError("cannot evolve backwards past the initial time")
    layout = _patch_layout(op)
    if layout is not None:
        states = _bloch_evolve(op.matrix, layout, state.values, times - state.time)
        return Trajectory(times=times, states=states)
    matrix = _matrix_of(op)
    w, Q = np.linalg.eigh(0.5 * (matrix + matrix.T))
    c = Q.T @ state.values
    states = np.empty((times.size, state.values.size))
    for row, t in enumerate(times):
        states[row] = Q @ (np.exp(w * (t - state.time)) * c)
    return Trajectory(times=times, states=states)


def _bloch_evolve(matrix, layout, u0: np.ndarray, elapsed: np.ndarray) -> np.ndarray:
    """States exp(A t) u0, one row per elapsed time t, block by block."""
    k = layout.patch_axes
    w, V = _bloch_eigh(matrix, layout)
    # patch axes first, then (member, local point), as the blocks are indexed
    u = np.moveaxis(u0.reshape(layout.shape), 0, k)
    u_hat = np.fft.rfftn(u, axes=tuple(range(k)))
    c = V.conj().swapaxes(1, 2) @ u_hat.reshape(w.shape)[:, :, None]
    modes = V @ (np.exp(w[:, :, None] * elapsed) * c)  # (K, b, times)
    modes = np.moveaxis(modes, 2, 0).reshape(elapsed.shape + u_hat.shape)
    patches = layout.shape[1 : 1 + k]
    u_t = np.fft.irfftn(modes, s=patches, axes=tuple(range(1, k + 1)))
    return np.moveaxis(u_t, k + 1, 1).reshape(elapsed.size, -1)


def stability_limit(op, iterations: int = 100) -> float:
    """Largest stable RK4 step, 2.5 / rho(L), with rho from power iteration."""
    matrix = _matrix_of(op)
    dim = matrix.shape[0]
    M2 = matrix @ matrix
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(dim)
    x /= np.linalg.norm(x)
    rho_sq = 0.0
    for _ in range(iterations):
        y = M2 @ x
        norm = np.linalg.norm(y)
        if norm == 0.0:
            break
        previous, rho_sq = rho_sq, norm
        x = y / norm
        if previous > 0 and abs(rho_sq - previous) <= 1e-9 * rho_sq:
            break
    if rho_sq == 0.0:
        return float("inf")
    return 2.5 / float(np.sqrt(rho_sq))


def evolve_rk4(op, u0, dt: float, steps: int, allow_unstable: bool = False) -> Trajectory:
    """Classic RK4 integration with an explicit stability guard.

    Records every step, returning steps + 1 snapshots including the initial
    state.  Raises StabilityError when dt exceeds 2.5 / rho(L) unless
    allow_unstable is set (useful for demonstrating the blow-up).
    """
    if dt <= 0:
        raise ValueError("time step must be positive")
    if steps < 1:
        raise ValueError("need at least one step")
    limit = stability_limit(op)
    if dt > limit and not allow_unstable:
        raise StabilityError(
            f"dt = {dt:.6g} exceeds the RK4 stability limit {limit:.6g}; "
            "reduce the step or pass allow_unstable=True"
        )
    matrix = _matrix_of(op)
    state = _as_state(u0)
    u = state.values.copy()
    times = state.time + dt * np.arange(steps + 1)
    states = np.empty((steps + 1, u.size))
    states[0] = u
    for s in range(1, steps + 1):
        k1 = matrix @ u
        k2 = matrix @ (u + 0.5 * dt * k1)
        k3 = matrix @ (u + 0.5 * dt * k2)
        k4 = matrix @ (u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[s] = u
    return Trajectory(times=times, states=states)


def conserved_mass(trajectory: Trajectory):
    """Per-snapshot total mass and the largest absolute drift from the start."""
    sums = trajectory.states.sum(axis=1)
    drift = float(np.max(np.abs(sums - sums[0]))) if sums.size else 0.0
    return sums, drift
