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
(_bloch_solves): no stored entry couples two orbits.  On a linear system one RK4
step is u <- (I + E) u with E = S + S^2/2 + S^3/6 + S^4/24, S = dt W.  The
paper's self-adjoint coupling makes the diffusion part A(j) of every Bloch
block Hermitian, so evolve_rk4 works in its unitary eigenbasis V(j) (of the
Hermitian part, for an incompatible operator), applied to every field: u
alone, or u and v of a wave block [[0, I], [A, eps B]].  There a slow mode is
one small diagonal entry, not a cancellation among O(1/d^2) entries.  The
Rayleigh blocks V^H X V of the block's sub-blocks are the only extended
precision work, two O(b^3) products each, rounded once to double.  Every step
and power after them is double precision BLAS on deviations from the
identity, which is never added: E, then F = (I + E)^stride - I by binary
powering, and each stored state x_q = x_(q-1) + F x_(q-1), mapped back by V a
piece at a time: O(N b^3 log stride) set-up and O(N b^2) per stored state
instead of four dim x dim matrix-vector products per step.  A slow mode so
keeps its decay to the relative precision of a double; a wave's oscillating
modes carry one rounding of their phase per step.  Block j = 0 holds the patch sums of
the state, so the total mass after every step, stored or not, costs O(b) per
step.

Both run as a stream (_exact_stream, _rk4_stream): the set-up of every batch
is kept, V and F for RK4 or V, w and c = V^H u0 for the exact path, K b^2
complex numbers each, and the snapshots come out in pieces of a given count,
each transformed back and checked on its own.  So a run holds its set-up and
one piece of states, whatever steps / stride; the CLI writes each piece as it
comes, and evolve_exact and evolve_rk4 join the pieces into one Trajectory.

evolve_rk4 certifies its step from the first block row: the absolute row
sums of assembly._row_sum_bound bound rho(L) from above at O(nnz / N) cost,
so dt * bound <= 2.5 (1 - 1e-9) proves the step stable without an
eigensolve; the margin covers the rounding of those sums.  A step the bound
cannot certify takes the exact limit, stability_limit: 2.5 over the largest
eigenvalue magnitude over the blocks of assembly._bloch_eigenvalues, which
then decides alone.  allow_unstable waives the guard, but a run that leaves
the double range raises, naming the exact limit, as evolve_exact does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import (
    _bloch_batches,
    _bloch_eigenvalues,
    _bloch_entry_batch,
    _orbits,
    _patch_layout,
    _row_sum_bound,
    symmetry_defect,
)
from .spectra import _bloch_solves, _require_symmetric

# dt * bound up to this certifies an RK4 step: the limit 2.5 / rho(L) less a
# relative margin for the rounding of the row sums, rows of up to about 10^6
# entries
_CERTIFIED = 2.5 * (1.0 - 1e-9)


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
    it to the sums of the stored states.  On the wave system the total is
    sum(u) + sum(v), conserved only when sum(v) = 0 at the start, as in every
    CLI start: sum(v) is conserved, and sum(u) alone grows by t sum(v).
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
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):  # NaN fails too
            raise ValueError("snapshot times must be strictly increasing")


def _checked_state(op, u0) -> StateVector:
    """The start state of a run of op: op.dimension finite values at a finite time."""
    state = u0 if isinstance(u0, StateVector) else StateVector(values=u0)
    if state.values.size != op.dimension:
        raise ValueError(
            f"state has {state.values.size} values; the operator's dimension is {op.dimension}"
        )
    bad = state.values[~np.isfinite(state.values)]
    if bad.size:
        raise ValueError(f"state values must be finite, not {bad[0]}")
    if not math.isfinite(state.time):
        raise ValueError(f"start time {state.time} must be finite")
    return state


def _exact_stream(op, u0, times, chunk: int):
    """evolve_exact's checks; then its times and a generator of its Trajectory
    in pieces of `chunk` or more snapshots (see _chunks)."""
    _require_symmetric(symmetry_defect(op), "exact evolution by orthogonal diagonalisation is unavailable")
    state = _checked_state(op, u0)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(times)):
        raise ValueError(f"times must be finite, not {times[~np.isfinite(times)][0]}")
    if not np.all(np.diff(times) > 0):
        raise ValueError("snapshot times must be strictly increasing")
    if np.any(times < state.time):
        raise ValueError("cannot evolve backwards past the initial time")
    return times, _bloch_evolve(op, state, times, chunk)


def evolve_exact(op, u0, times) -> Trajectory:
    """Evaluate the exact semigroup solution at the requested times.

    Diagonalises the (symmetric) operator once; requires relative symmetry
    defect at most 1e-10 and finite, strictly increasing times not before
    the state's own time stamp.  Raises StabilityError, naming the largest
    eigenvalue, when a state is not finite: on a profile of extreme dynamic
    range the round-off of the eigensolve gives spurious positive eigenvalues
    whose exp(w t) overflows.
    """
    return _joined(_exact_stream(op, u0, times, 1)[1])


def _joined(pieces) -> Trajectory:
    """One Trajectory of the pieces of a run."""
    pieces = list(pieces)
    mass = None if pieces[0].mass is None else np.concatenate([p.mass for p in pieces])
    return Trajectory(
        times=np.concatenate([p.times for p in pieces]),
        states=np.concatenate([p.states for p in pieces]),
        mass=mass,
    )


def _chunks(count: int, chunk: int):
    """(start, stop) of each piece of `count` snapshots: `chunk` of them rounded
    up to a multiple of 8, a lone last one joining the piece before it.

    A piece's snapshots are the columns of its BLAS products.  A column's
    rounding follows its place in the kernel's tiling of the columns (by 4 on
    OpenBLAS Haswell), and a lone column is a gemv; so cut, each snapshot
    rounds as in one product over all of them, whatever the chunk, on the
    OpenBLAS Haswell, SkylakeX, Sandybridge and Prescott kernels.
    """
    width = 8 * -(-chunk // 8)
    stops = list(range(width, count, width))
    if stops and count - stops[-1] == 1:
        stops.pop()
    return zip([0, *stops], [*stops, count])


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


def _bloch_evolve(op, state: StateVector, times: np.ndarray, chunk: int):
    """The Trajectory exp(A (t - t0)) u0 of the times, piece by piece.

    Each orbit block's eigenvectors V, eigenvalues w and coefficients
    c = V^H u0 are kept; a piece's states are V exp(w t) c, transformed back.
    Its modes are formed in _exact_modes, so that none outlive the transform.
    """
    layout, orbits = _patch_layout(op), _orbits(op)
    [(pairs, entries)] = _bloch_entry_batch([op], [None])
    elapsed = times - state.time
    # exp(w t) of a spurious positive eigenvalue may overflow; the states are
    # checked instead
    with np.errstate(over="ignore", invalid="ignore"):
        u_hat = _bloch_modes(state.values, layout)
        batches, start, top = [], 0, -np.inf
        for w, V, _ in _bloch_solves(pairs, orbits, entries, vectors=True):
            batch = slice(start, start + w.shape[0])
            # one matrix of V per member orbit of a block, as _bloch_solves splits
            # them; the gather comes out column-major, and the matmul of a
            # strided operand rounds differently from that of a C-ordered one
            u = np.ascontiguousarray(u_hat[batch][:, orbits]).reshape(V.shape[0], -1, 1)
            batches.append((batch, w, V, V.conj().swapaxes(1, 2) @ u))
            start, top = batch.stop, max(top, float(np.max(w)))
    del entries
    orbits = orbits.ravel()
    for a, b in _chunks(times.size, chunk):
        with np.errstate(over="ignore", invalid="ignore"):
            states = _bloch_states(_exact_modes(batches, orbits, u_hat.shape, elapsed[a:b]), layout)
        if not np.all(np.isfinite(states)):
            raise StabilityError(
                f"exact evolution to t = {times[-1]:.6g} left the double range: "
                f"largest eigenvalue {top:.6g}"
            )
        yield Trajectory(times=times[a:b], states=states)


def _exact_modes(batches, orbits, shape, elapsed: np.ndarray) -> np.ndarray:
    """The Bloch modes (times, K, b) of exp(A t) u0 at each elapsed time t."""
    modes = np.empty(shape + elapsed.shape, dtype=complex)
    for batch, w, V, c in batches:
        z = V @ (np.exp(w.reshape(V.shape[:2])[:, :, None] * elapsed) * c)
        modes[batch][:, orbits] = z.reshape(w.shape + elapsed.shape)
    return np.moveaxis(modes, 2, 0)


def stability_limit(op) -> float:
    """Largest stable RK4 step, 2.5 / rho(L).

    rho is exact, the largest magnitude of assembly._bloch_eigenvalues.
    """
    rho = float(np.max(np.abs(_bloch_eigenvalues(op))))
    return 2.5 / rho if rho > 0.0 else float("inf")


def _eigenbasis_blocks(blocks: np.ndarray, fields: int):
    """V and the Rayleigh blocks W' = T^H W T of each block W, T = V on every field.

    V holds the eigenvectors of the Hermitian part of the block's A part,
    rounded to double: the whole block of a diffusion operator, the v rows
    by u columns of a wave block [[0, I], [A, eps B]].  W' is formed in
    extended precision, one nonzero sub-block X at a time as V^H X V, and
    rounded once: a slow mode of A is then one small diagonal entry of W',
    to the relative precision of a double.  The identity block of a wave
    holds V^H V.
    """
    k, size = blocks.shape[:2]
    b = size // fields
    sub = blocks.reshape(k, fields, b, fields, b)
    A = sub[:, -1, :, 0].astype(complex)
    V = np.linalg.eigh((A + A.conj().swapaxes(1, 2)) / 2)[1]
    right = V.astype(blocks.dtype)
    left = right.conj().swapaxes(1, 2)
    rayleigh = np.zeros((k, fields, b, fields, b), dtype=complex)
    for row in range(fields):
        for col in range(fields):
            # a wave's u rows by u columns are zero, and so is eps B at eps = 0
            if sub[:, row, :, col].any():
                rayleigh[:, row, :, col] = left @ sub[:, row, :, col] @ right
    return V, rayleigh.reshape(k, size, size)


def _rk4_deviations(blocks: np.ndarray, dt: float) -> np.ndarray:
    """E = R - I = S (I + S/2 (I + S/3 (I + S/4))), S = dt W, for each block W:
    the RK4 step matrix less the identity, which is never added."""
    eye = np.eye(blocks.shape[1])
    step = dt * blocks
    inner = eye + step / 4
    for k in (3, 2):
        inner = eye + (step @ inner) / k
    return step @ inner


def _power_deviations(E: np.ndarray, power: int) -> np.ndarray:
    """F = (I + E)^power - I by binary powering of the deviation:
    F_2a = 2 F_a + F_a^2 and F_(a+b) = F_a + F_b + F_a F_b."""
    F = None
    while True:
        if power & 1:
            F = E if F is None else F + E + F @ E
        power >>= 1
        if not power:
            return F
        E = 2 * E + E @ E


def _bloch_rk4(op, state: StateVector, times: np.ndarray, dt: float, steps: int, stride: int,
               chunk: int):
    """The Trajectory of RK4 states after every stride-th step, piece by piece;
    each piece's mass is the total after every step from its first state on.

    The set-up and each piece run in functions of their own, so that no
    temporary of theirs stays alive while a piece is written.
    """
    layout = _patch_layout(op)
    fields = 1 if op.layout.half is None else 2  # u alone, or u and v
    # an unstable step may overflow; the states and masses are checked instead
    with np.errstate(over="ignore", invalid="ignore"):
        u_hat = _bloch_modes(state.values, layout)
        batches, totals = _rk4_setup(op, u_hat, dt, steps, stride, fields)
    for a, b in _chunks(times.size, chunk):
        with np.errstate(over="ignore", invalid="ignore"):
            states, mass = _rk4_piece(batches, layout, u_hat.shape, totals, fields, a, b - a)
        mass = mass[: steps + 1 - a * stride]
        if a == 0:
            mass[0] = state.values.sum()  # the initial total exactly as the stored state sums it
        finite = np.isfinite(mass)  # per step; the stored states are steps 0, stride, ...
        finite[::stride] &= np.all(np.isfinite(states), axis=1)
        if not finite.all():
            raise StabilityError(
                f"RK4 run left the double range at t = "
                f"{state.time + dt * (a * stride + np.argmin(finite)):.6g} "
                f"(dt = {dt:.6g}, stability limit {stability_limit(op):.6g})"
            )
        yield Trajectory(times=times[a:b], states=states, mass=mass)


def _rk4_setup(op, u_hat: np.ndarray, dt: float, steps: int, stride: int, fields: int):
    """Per batch of Bloch blocks [its slice, V, F = (I + E)^stride - I, the
    initial state in the eigenbasis]; and the mass rows r_k of block j = 0."""
    batches, start = [], 0
    for blocks in _bloch_batches(op):
        V, rayleigh = _eigenbasis_blocks(blocks, fields)
        E = _rk4_deviations(rayleigh, dt)
        batch = slice(start, start + len(blocks))
        by_field = u_hat[batch].reshape(len(blocks), fields, -1, 1)
        x = (V.conj().swapaxes(1, 2)[:, None] @ by_field).reshape(len(blocks), -1, 1)
        batches.append([batch, V, _power_deviations(E, stride), x])
        if start == 0:
            total, E0 = np.tile(V[0].sum(axis=0), fields), E[0]
        start = batch.stop
    # Block j = 0 holds the patch sums, so the mass k < stride steps after
    # stored state q is r_k x_q(0) with r_k = 1^T T(0) (I + E(0))^k.
    totals = np.empty((min(stride, steps + 1), total.size), dtype=complex)
    totals[0] = total
    for k in range(1, totals.shape[0]):
        totals[k] = totals[k - 1] + totals[k - 1] @ E0
    return batches, totals


def _rk4_piece(batches, layout, shape, totals: np.ndarray, fields: int, first: int, size: int):
    """Stored states first, ..., first + size - 1, and the mass after every
    step from the first of them, stride steps per state; each batch then
    keeps its last state in the eigenbasis."""
    stored = np.empty((size,) + shape, dtype=complex)
    for item in batches:
        batch, V, F, x = item
        # the stored states in the eigenbasis, x_q = x_(q-1) + F x_(q-1)
        xs = np.empty(x.shape[:2] + (size,), dtype=complex)
        for q in range(size):
            xs[:, :, q] = x[:, :, 0] if first + q == 0 else x[:, :, 0] + (F @ x)[:, :, 0]
            x = xs[:, :, q : q + 1]
        item[3] = x.copy()
        states = V[:, None] @ xs.reshape(len(V), fields, -1, size)
        stored[:, batch] = np.moveaxis(states.reshape(xs.shape), 2, 0)
        if batch.start == 0:
            mass = (xs[0].T @ totals.T).real.ravel()
    return _bloch_states(stored, layout), mass


def _rk4_stream(op, u0, dt: float, steps: int, allow_unstable: bool, stride: int, chunk: int):
    """evolve_rk4's checks; then its stored times and a generator of its
    Trajectory in pieces of `chunk` or more stored states (see _chunks)."""
    _patch_layout(op)  # a TypeError for a non-operator now, not when the stream is read
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"time step dt = {dt} must be a positive finite number")
    if steps < 1:
        raise ValueError("need at least one step")
    if stride < 1:
        raise ValueError("stride must be at least 1")
    state = _checked_state(op, u0)
    # NaN or an overflowed product fails the certificate too
    if not (allow_unstable or dt * _row_sum_bound(op) <= _CERTIFIED):
        limit = stability_limit(op)
        if dt > limit:
            raise StabilityError(
                f"dt = {dt:.6g} exceeds the RK4 stability limit {limit:.6g}; "
                "reduce the step or pass allow_unstable=True"
            )
    times = state.time + dt * np.arange(0, steps + 1, stride)
    return times, _bloch_rk4(op, state, times, dt, steps, stride, chunk)


def evolve_rk4(
    op, u0, dt: float, steps: int, allow_unstable: bool = False, stride: int = 1
) -> Trajectory:
    """Classic RK4 integration with an explicit stability guard.

    Stores the initial state and every stride-th step after it, the
    steps // stride + 1 snapshots at times t0 + dt * (0, stride, 2 stride,
    ...); Trajectory.mass holds the total of the initial state and after
    each of the `steps` steps.  Raises StabilityError when dt exceeds 2.5 / rho(L) unless
    allow_unstable is set, and, even then, at the time a step's mass or a
    stored state leaves the double range.  A dt within 2.5 over the row-sum
    bound of rho(L) needs no eigensolve; any other takes stability_limit.
    """
    return _joined(_rk4_stream(op, u0, dt, steps, allow_unstable, stride, 1)[1])


def conserved_mass(trajectory: Trajectory):
    """Total mass after every step (per snapshot without Trajectory.mass) and
    the largest absolute drift from the start.

    The total sums every field: sum(u) + sum(v) on the wave system, which is
    conserved only when sum(v) = 0 at the start (sum(u) grows by t sum(v)).
    """
    sums = trajectory.mass
    if sums is None:
        sums = trajectory.states.sum(axis=1)
    drift = float(np.max(np.abs(sums - sums[0]))) if sums.size else 0.0
    return sums, drift
