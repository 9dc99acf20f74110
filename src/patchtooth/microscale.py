"""Periodic heterogeneous diffusivity fields and full-lattice reference operators.

The microscale model is diffusion on a lattice of spacing d,

    d^2 du_i/dt = kappa_{i+1/2} (u_{i+1} - u_i) + kappa_{i-1/2} (u_{i-1} - u_i),

with p-periodic positive diffusivities located on the bonds between lattice
points, kappa_{m+1/2} = values[m mod p].  The 2D analogue is the five-point
stencil with two bond fields, kx[i][j] = kappa_{i+1/2, j} for horizontal bonds
and ky[i][j] = kappa_{i, j+1/2} for vertical bonds, both (p_x, p_y) periodic.

Both profile classes give one period and one bond field per axis, x first:
`periods` and `bonds` are ((p,), (values,)) in 1D and ((p_x, p_y), (kx, ky))
in 2D.  Every diffusivity must be finite and strictly positive.

The full-lattice operators built here serve as the consistency references for
the patch scheme.  They are symmetric by construction, annihilate constants,
and have nonpositive spectra.  A full lattice is the patch scheme at r = 1:
M points at spacing d along an axis are q = M / n patches of n points, a
multiple of the period, built by the stencil of assembly._stencil with edge
rows that couple to the next patch with weight 1.  So it is block-circulant in
the patch index like any patch operator, and the solvers take it through the
same Bloch engine.  One builder serves both dimensions and checks every axis
the same way.

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

from dataclasses import dataclass

import numpy as np


def _check_bonds(bonds) -> None:
    if not all(np.all((field > 0.0) & (field < np.inf)) for field in bonds):
        raise ValueError("all diffusivities must be finite and strictly positive")


@dataclass
class DiffusivityProfile1D:
    """Positive p-periodic bond diffusivities, values[m] = kappa_{m+1/2}."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("diffusivity profile must be a nonempty 1D sequence")
        _check_bonds(self.bonds)

    @property
    def period(self) -> int:
        return int(self.values.size)

    @property
    def periods(self) -> tuple[int]:
        return (self.period,)

    @property
    def bonds(self) -> tuple[np.ndarray]:
        return (self.values,)

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
        _check_bonds(self.bonds)

    @property
    def periods(self) -> tuple[int, int]:
        return (int(self.kx.shape[0]), int(self.kx.shape[1]))

    @property
    def bonds(self) -> tuple[np.ndarray, np.ndarray]:
        return (self.kx, self.ky)

    @classmethod
    def from_json(cls, obj: dict) -> "DiffusivityProfile2D":
        profile = cls(np.asarray(obj["kx"], float), np.asarray(obj["ky"], float))
        if "periods" in obj and tuple(obj["periods"]) != profile.periods:
            raise ValueError("periods field disagrees with the array shapes")
        return profile


def _full_lattice(profile, sizes, spacings, whole_rows: bool = False):
    """Full lattice with M_a points at spacing d_a along axis a, x first.

    Each patch holds one period p_a along every axis, so 1D storage is the
    node order.  With `whole_rows` a patch spans the whole x axis instead:
    patches of whole lattice rows, one period high, keep the row-major order
    j*M_x + i in 2D.  A scalar spacing serves every axis.
    """
    sizes = [int(M) for M in sizes]
    spacings = [float(d) for d in np.broadcast_to(spacings, len(sizes))]
    if len(sizes) != len(profile.periods):
        raise ValueError(f"a {len(profile.periods)}D profile on a {len(sizes)}D lattice")
    for M, d, p in zip(sizes, spacings, profile.periods):
        if M < 3 or not d > 0:
            raise ValueError(f"a full lattice axis needs 3 or more points at a positive spacing, "
                             f"not {M} at d = {d}")
        if M % p != 0:
            raise ValueError(
                f"point count {M} not divisible by diffusivity period {p}; the "
                "heterogeneity would be discontinuous at the periodic wrap"
            )
    from .assembly import AssembledOperator, Layout, _stencil

    points = list(profile.periods)
    if whole_rows:
        points[0] = sizes[0]
    axes = []
    for M, n, d in zip(sizes, points, spacings):
        q = M // n
        w_right = np.zeros(q)
        w_right[1 % q] = 1.0  # weight 1 on the next patch
        axes.append((q, n, d, w_right))
    [(shape, entries)] = _stencil([(axes, profile.bonds, False)])
    return AssembledOperator(Layout(shape, patch_axes=len(sizes)), *entries, profile=profile)


def full_lattice_operator_1d(profile: DiffusivityProfile1D, M: int, d: float = 1.0):
    """Periodic heterogeneous second-difference operator on M lattice points.

    Args:
        profile: p-periodic bond diffusivities; M must be divisible by p so the
            periodic wrap is seamless.
        M: number of lattice points, at least 3.
        d: lattice spacing; all entries carry the 1/d^2 scaling.

    Returns:
        AssembledOperator of the symmetric M x M operator on M / p patches of
        one period; `.matrix` rolls out the dense matrix.
    """
    return _full_lattice(profile, [M], [d])


def full_lattice_operator_2d(profile: DiffusivityProfile2D, shape, spacing=(1.0, 1.0)):
    """Five-point heterogeneous diffusion operator, doubly periodic.

    Unknowns are ordered row-major over (i, j) with i fastest, storage index
    j*M_x + i.  Entry scalings are 1/d_x^2 for horizontal and 1/d_y^2 for
    vertical bonds; a scalar spacing serves both axes.
    """
    return _full_lattice(profile, shape, spacing, whole_rows=True)


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
    with np.errstate(over="ignore"):  # an infinite draw is rejected by the profile
        return DiffusivityProfile1D(np.exp(sigma * rng.standard_normal(p)))


def random_lognormal_profile_2d(px: int, py: int, sigma: float, seed: int):
    """2D variant of random_lognormal_profile; kx is drawn before ky."""
    if px < 1 or py < 1:
        raise ValueError("periods must be at least 1")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):  # an infinite draw is rejected by the profile
        kx = np.exp(sigma * rng.standard_normal((px, py)))
        ky = np.exp(sigma * rng.standard_normal((px, py)))
    return DiffusivityProfile2D(kx, ky)
