"""Time integration of assembled operators.

Two integrators cover the two uses of the scheme.  evolve_exact diagonalises
a symmetric operator once and evaluates u(t) = Q exp(W t) Q^T u(0) at any set
of times; it is the reference solution and conserves total mass to round-off.
evolve_rk4 is the classic fourth-order Runge-Kutta scheme for operators that
need not be symmetric (the wave system), guarded by the explicit stability
check dt <= 2.5 / rho(L), and it stores only every stride-th state.

Both work in the patch wavenumber; every operator, the full lattices of
microscale included, is a patch operator.  The state is transformed over the
patch axes (rfftn), each Bloch block (see assembly._bloch_batches, which
builds them from the stored first block row in batches) is advanced on its
own, and only the stored states are transformed back.  evolve_exact
propagates a block member orbit by member orbit, by the eigendecomposition of
each orbit's diagonal block, the one symmetric solve path of spectra
(_bloch_eigh): no stored entry couples two orbits.  On a linear system one RK4
step is u <- R u with R = sum_{k<=4} (dt W)^k / k!, so evolve_rk4 builds R(j)
for each block, raises it to the power `stride` by repeated squaring, both in
extended precision (in double the error of the stored states grew 20- to
45-fold on the rk4-wave1d benchmark system), and applies that once per stored
state: O(N b^3 log stride) set-up and O(N b^2) per stored state instead of
four dim x dim matrix-vector products per step.  Block j = 0 holds the patch
sums of the state, so the total mass after every step, stored or not, costs
O(b) per step.  The stability limit is exact, 2.5 over the largest eigenvalue
magnitude over the blocks of assembly._bloch_eigenvalues; allow_unstable waives
it, but a run that leaves the double range raises, as evolve_exact does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import _bloch_batches, _bloch_eigenvalues, _orbits, _patch_layout
from .spectra import _bloch_eigh, _require_symmetric


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
    """Snapshots of the evolving state, times strictly increasing.

    `mass`, when given, is the total of the state after every integration
    step, including steps whose state was not stored; conserved_mass prefers
    it to the sums of the stored states.
    """

    times: np.ndarray
    states: np.ndarray
    mass: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.mass is not None:
            self.mass = np.asarray(self.mass, dtype=float)
        if self.states.shape[0] != self.times.size:
            raise ValueError("one state row per time required")
        if self.times.size > 1 and np.any(np.diff(self.times) <= 0):
            raise ValueError("snapshot times must be strictly increasing")


def _as_state(u0) -> StateVector:
    if isinstance(u0, StateVector):
        return u0
    return StateVector(values=np.asarray(u0, dtype=float))


def evolve_exact(op, u0, times) -> Trajectory:
    """Evaluate the exact semigroup solution at the requested times.

    Diagonalises the (symmetric) operator once; requires relative symmetry
    defect at most 1e-10 and strictly increasing times not before the state's
    own time stamp.  Raises StabilityError, naming the largest eigenvalue,
    when a state is not finite: on a profile of extreme dynamic range the
    round-off of the eigensolve gives spurious positive eigenvalues whose
    exp(w t) overflows.
    """
    _require_symmetric(op, "exact evolution by orthogonal diagonalisation is unavailable")
    state = _as_state(u0)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < state.time):
        raise ValueError("cannot evolve backwards past the initial time")
    # exp(w t) of a spurious positive eigenvalue may overflow; the states are
    # checked below instead
    with np.errstate(over="ignore", invalid="ignore"):
        states, top = _bloch_evolve(op, _patch_layout(op), state.values, times - state.time)
    if not np.all(np.isfinite(states)):
        raise StabilityError(
            f"exact evolution to t = {times[-1]:.6g} left the double range: "
            f"largest eigenvalue {top:.6g}"
        )
    return Trajectory(times=times, states=states)


def _bloch_modes(u0: np.ndarray, layout) -> np.ndarray:
    """rfftn of a state over the patch axes, one row per Bloch block: (K, b)."""
    k = layout.patch_axes
    # patch axes first, then (member, local point), as the blocks are indexed
    u = np.moveaxis(u0.reshape(layout.shape), 0, k)
    u_hat = np.fft.rfftn(u, axes=tuple(range(k)))
    return u_hat.reshape(math.prod(u_hat.shape[:k]), -1)


def _bloch_states(modes: np.ndarray, layout) -> np.ndarray:
    """States of a stack of Bloch modes, (T, K, b) -> (T, dim)."""
    k = layout.patch_axes
    patches = layout.shape[1 : 1 + k]
    half = patches[:-1] + (patches[-1] // 2 + 1,)
    modes = modes.reshape((modes.shape[0],) + half + (layout.shape[0],) + layout.shape[1 + k :])
    u_t = np.fft.irfftn(modes, s=patches, axes=tuple(range(1, k + 1)))
    return np.moveaxis(u_t, k + 1, 1).reshape(modes.shape[0], -1)


def _bloch_evolve(op, layout, u0: np.ndarray, elapsed: np.ndarray):
    """States exp(A t) u0, one row per elapsed time t, orbit block by orbit
    block, and the largest eigenvalue."""
    orbits = _orbits(layout, op.profile.periods).ravel()
    u_hat = _bloch_modes(u0, layout)
    modes = np.empty(u_hat.shape + elapsed.shape, dtype=complex)  # (K, b, times)
    start, top = 0, -np.inf
    for w, V, _ in _bloch_eigh(op, layout):
        batch = slice(start, start + w.shape[0])
        # one matrix of V per member orbit of a block, as _bloch_eigh splits them;
        # the gather comes out column-major, and the matmul of a strided
        # operand rounds differently from that of a C-ordered one
        u = np.ascontiguousarray(u_hat[batch][:, orbits]).reshape(V.shape[0], -1, 1)
        c = V.conj().swapaxes(1, 2) @ u
        z = V @ (np.exp(w.reshape(V.shape[:2])[:, :, None] * elapsed) * c)
        modes[batch][:, orbits] = z.reshape(w.shape + elapsed.shape)
        start, top = batch.stop, max(top, float(np.max(w)))
    return _bloch_states(np.moveaxis(modes, 2, 0), layout), top


def stability_limit(op) -> float:
    """Largest stable RK4 step, 2.5 / rho(L).

    rho is exact, the largest magnitude of assembly._bloch_eigenvalues.
    """
    rho = float(np.max(np.abs(_bloch_eigenvalues(op, _patch_layout(op)))))
    return 2.5 / rho if rho > 0.0 else float("inf")


def _rk4_step_matrices(blocks: np.ndarray, dt: float) -> np.ndarray:
    """R = I + S + S^2/2 + S^3/6 + S^4/24 with S = dt W, for each block W (Horner)."""
    eye = np.eye(blocks.shape[1], dtype=blocks.dtype)
    step = dt * blocks
    R = eye + step / 4
    for k in (3, 2, 1):
        R = eye + (step @ R) / k
    return R


def _bloch_rk4(op, layout, u0: np.ndarray, dt: float, steps: int, stride: int):
    """RK4 states after every stride-th step, and the total mass after every step."""
    u_hat = _bloch_modes(u0, layout)
    stored = np.empty((steps // stride + 1,) + u_hat.shape, dtype=complex)
    stored[0] = u_hat
    start = 0
    for blocks in _bloch_batches(op, layout):
        R = _rk4_step_matrices(blocks, dt)
        P = np.linalg.matrix_power(R, stride).astype(complex)
        batch = slice(start, start + R.shape[0])
        for q in range(1, stored.shape[0]):
            stored[q, batch] = (P @ stored[q - 1, batch][:, :, None])[:, :, 0]
        if start == 0:
            R0 = R[0]
        start = batch.stop
    # Block j = 0 holds the patch sums, so the mass k < stride steps after
    # stored state q is 1^T R(0)^k c_q(0).
    patch_sums = stored[:, 0].real
    total = np.ones(R0.shape[0], dtype=R0.dtype)  # 1^T R(0)^k
    mass = np.empty(steps + 1)
    for k in range(min(stride, steps + 1)):
        after = mass[k::stride]
        after[:] = patch_sums[: after.size] @ total.real.astype(float)
        total = total @ R0
    mass[0] = u0.sum()  # the initial total exactly as the stored state sums it
    return _bloch_states(stored, layout), mass


def evolve_rk4(
    op, u0, dt: float, steps: int, allow_unstable: bool = False, stride: int = 1
) -> Trajectory:
    """Classic RK4 integration with an explicit stability guard.

    Stores the initial state and every stride-th step after it, the
    steps // stride + 1 snapshots at times t0 + dt * (0, stride, 2 stride,
    ...); Trajectory.mass holds the total of the initial state and after
    each of the `steps` steps.  Raises StabilityError when dt exceeds 2.5 / rho(L) unless
    allow_unstable is set, and, even then, at the time a step's mass or a
    stored state leaves the double range.
    """
    if dt <= 0:
        raise ValueError("time step must be positive")
    if steps < 1:
        raise ValueError("need at least one step")
    if stride < 1:
        raise ValueError("stride must be at least 1")
    limit = stability_limit(op)
    if dt > limit and not allow_unstable:
        raise StabilityError(
            f"dt = {dt:.6g} exceeds the RK4 stability limit {limit:.6g}; "
            "reduce the step or pass allow_unstable=True"
        )
    state = _as_state(u0)
    times = state.time + dt * np.arange(0, steps + 1, stride)
    # an unstable step may overflow; the states and masses are checked below instead
    with np.errstate(over="ignore", invalid="ignore"):
        states, mass = _bloch_rk4(op, _patch_layout(op), state.values, dt, steps, stride)
    finite = np.isfinite(mass)  # per step; the stored states are steps 0, stride, ...
    finite[::stride] &= np.all(np.isfinite(states), axis=1)
    if not finite.all():
        raise StabilityError(
            f"RK4 run left the double range at t = {state.time + dt * np.argmin(finite):.6g} "
            f"(dt = {dt:.6g}, stability limit {limit:.6g})"
        )
    return Trajectory(times=times, states=states, mass=mass)


def conserved_mass(trajectory: Trajectory):
    """Total mass after every step (per snapshot without Trajectory.mass) and
    the largest absolute drift from the start."""
    sums = trajectory.mass
    if sums is None:
        sums = trajectory.states.sum(axis=1)
    drift = float(np.max(np.abs(sums - sums[0]))) if sums.size else 0.0
    return sums, drift
