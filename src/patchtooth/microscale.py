"""Periodic heterogeneous diffusivity fields and full-lattice reference operators.

The microscale model is diffusion on a lattice of spacing d,

    d^2 du_i/dt = kappa_{i+1/2} (u_{i+1} - u_i) + kappa_{i-1/2} (u_{i-1} - u_i),

with p-periodic positive diffusivities located on the bonds between lattice
points, kappa_{m+1/2} = values[m mod p].  The 2D analogue is the five-point
stencil with two bond fields, kx[i][j] = kappa_{i+1/2, j} for horizontal bonds
and ky[i][j] = kappa_{i, j+1/2} for vertical bonds, both (p_x, p_y) periodic.

The full-lattice operators built here serve as the consistency references for
the patch scheme.  They are symmetric by construction, annihilate constants,
and have nonpositive spectra.  A full lattice is the patch stencil of
assembly._stencil with one patch spanning each axis: M points at spacing d
along an axis are the patch (N, n, d) = (1, M, d), whose edge rows couple
back to the same patch with weight 1.

Index convention: physical lattice nodes are labelled from 1, so matrix row g
describes node g+1 and

    A[g][(g+1) mod M] = values[(g+1) mod p] / d^2,
    A[g][(g-1) mod M] = values[g mod p] / d^2.

With this labelling the patch operator at size ratio r = 1 equals the
full-lattice operator entry for entry (patch-local bonds use the same 1-based
rule).  The 2D operator applies the same shift in both axes and orders the
unknowns row-major over (i, j) with i fastest: storage index = j*M_x + i.

Random profiles are drawn from numpy.random.default_rng (the PCG64 generator),
which is versioned and reproducible across platforms for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse


@dataclass
class DiffusivityProfile1D:
    """Positive p-periodic bond diffusivities, values[m] = kappa_{m+1/2}."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("diffusivity profile must be a nonempty 1D sequence")
        if not np.all(self.values > 0.0):
            raise ValueError("all diffusivities must be strictly positive")

    @property
    def period(self) -> int:
        return int(self.values.size)

    @classmethod
    def from_json(cls, obj: dict) -> "DiffusivityProfile1D":
        profile = cls(np.asarray(obj["values"], dtype=float))
        if "period" in obj and int(obj["period"]) != profile.period:
            raise ValueError("period field disagrees with len(values)")
        return profile


@dataclass
class DiffusivityProfile2D:
    """Bond diffusivities on a doubly periodic 2D lattice.

    kx[i, j] = kappa_{i+1/2, j} and ky[i, j] = kappa_{i, j+1/2}, both of shape
    (p_x, p_y) and indexed modulo the periods in both axes.
    """

    kx: np.ndarray
    ky: np.ndarray

    def __post_init__(self):
        self.kx = np.asarray(self.kx, dtype=float)
        self.ky = np.asarray(self.ky, dtype=float)
        if self.kx.ndim != 2 or self.kx.shape != self.ky.shape:
            raise ValueError("kx and ky must be 2D arrays of identical shape")
        if not (np.all(self.kx > 0.0) and np.all(self.ky > 0.0)):
            raise ValueError("all diffusivities must be strictly positive")

    @property
    def periods(self) -> tuple[int, int]:
        return (int(self.kx.shape[0]), int(self.kx.shape[1]))

    @classmethod
    def from_json(cls, obj: dict) -> "DiffusivityProfile2D":
        profile = cls(np.asarray(obj["kx"], float), np.asarray(obj["ky"], float))
        if "periods" in obj and tuple(obj["periods"]) != profile.periods:
            raise ValueError("periods field disagrees with the array shapes")
        return profile


def _lattice_stencil(bonds, sizes, spacings):
    """Shape and pieces of the full lattice: one patch spanning each axis, x first."""
    from .assembly import _stencil

    one = np.ones(1)
    return _stencil([(1, M, d, one, one) for M, d in zip(sizes, spacings)], bonds, False)


def full_lattice_operator_1d(profile: DiffusivityProfile1D, M: int, d: float = 1.0):
    """Periodic heterogeneous second-difference operator on M lattice points.

    Args:
        profile: p-periodic bond diffusivities; M must be divisible by p so the
            periodic wrap is seamless.
        M: number of lattice points, at least 3.
        d: lattice spacing; all entries carry the 1/d^2 scaling.

    Returns:
        AssembledOperator holding the dense symmetric M x M matrix.
    """
    if M < 3:
        raise ValueError("full lattice needs at least 3 points")
    if M % profile.period != 0:
        raise ValueError(
            f"point count {M} not divisible by diffusivity period "
            f"{profile.period}; the heterogeneity would be discontinuous "
            "at the periodic wrap"
        )
    if d <= 0:
        raise ValueError("lattice spacing must be positive")
    from .assembly import AssembledOperator, Layout, _dense

    A = _dense(*_lattice_stencil([profile.values], [M], [d]))
    return AssembledOperator(matrix=A, layout=Layout(shape=(1, M)), profile=profile)


def _check_2d_args(profile, shape, spacing):
    Mx, My = int(shape[0]), int(shape[1])
    if np.isscalar(spacing):
        spacing = (float(spacing), float(spacing))
    dx, dy = float(spacing[0]), float(spacing[1])
    px, py = profile.periods
    if Mx % px != 0 or My % py != 0:
        raise ValueError(
            f"lattice shape ({Mx}, {My}) not divisible by periods ({px}, {py})"
        )
    if Mx < 3 or My < 3:
        raise ValueError("full 2D lattice needs at least 3 points per axis")
    if dx <= 0 or dy <= 0:
        raise ValueError("lattice spacings must be positive")
    return (Mx, My), (dx, dy)


def full_lattice_operator_2d(profile: DiffusivityProfile2D, shape, spacing=(1.0, 1.0)):
    """Dense five-point heterogeneous diffusion operator, doubly periodic.

    Unknowns are ordered row-major over (i, j) with i fastest, storage index
    j*M_x + i.  Entry scalings are 1/d_x^2 for horizontal and 1/d_y^2 for
    vertical bonds.
    """
    (Mx, My), spacing = _check_2d_args(profile, shape, spacing)
    from .assembly import AssembledOperator, Layout, _dense

    A = _dense(*_lattice_stencil([profile.kx, profile.ky], (Mx, My), spacing))
    return AssembledOperator(matrix=A, layout=Layout(shape=(1, My, Mx)), profile=profile)


def full_lattice_operator_2d_sparse(profile, shape, spacing=(1.0, 1.0)):
    """Sparse CSR variant of full_lattice_operator_2d for large lattices.

    The stencil pieces are concatenated into one CSR matrix in O(nnz) time
    and memory; no dense matrix is formed.
    """
    sizes, spacing = _check_2d_args(profile, shape, spacing)
    _, pieces = _lattice_stencil([profile.kx, profile.ky], sizes, spacing)
    rows, cols, vals = (
        np.concatenate([part.ravel() for part in parts])
        for parts in zip(*(np.broadcast_arrays(*piece) for piece in pieces))
    )
    size = math.prod(sizes)
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(size, size))


def random_lognormal_profile(p: int, sigma: float, seed: int) -> DiffusivityProfile1D:
    """Seeded log-normal profile, values[l] = exp(sigma * z_l), z standard normal.

    Uses numpy.random.default_rng(seed) (PCG64), so a fixed seed reproduces the
    profile bit for bit on any platform.
    """
    if p < 1:
        raise ValueError("period must be at least 1")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    rng = np.random.default_rng(seed)
    return DiffusivityProfile1D(np.exp(sigma * rng.standard_normal(p)))


def random_lognormal_profile_2d(px: int, py: int, sigma: float, seed: int):
    """2D variant of random_lognormal_profile; kx is drawn before ky."""
    if px < 1 or py < 1:
        raise ValueError("periods must be at least 1")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    rng = np.random.default_rng(seed)
    kx = np.exp(sigma * rng.standard_normal((px, py)))
    ky = np.exp(sigma * rng.standard_normal((px, py)))
    return DiffusivityProfile2D(kx, ky)
