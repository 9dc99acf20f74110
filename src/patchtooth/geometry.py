"""Patch-grid geometry: where patches sit and how their spacings relate.

A 1D grid covers the periodic domain [H/2, L + H/2) with N patches of n
interior lattice points each.  The three derived lengths are

    H = L / N        macroscale patch separation,
    h = r * H        patch width (r is the size ratio, 0 < r <= 1),
    d = h / n        microscale lattice spacing inside a patch.

Patch I (internal index 0..N-1) is centred at X^I = (I + 1) H.  Its lattice
points sit at x^I_i = X^I + (i - (n+1)/2) d for i = 0..n+1, where i = 1..n are
the interior unknowns and i = 0 and i = n+1 are the edge values eliminated by
inter-patch interpolation.  At r = 1 the patches tile the domain without gaps:
x^{I+1}_1 - x^I_n = H - (n-1) d = d.

A 2D grid is the tensor product of two independent 1D grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class PatchGrid1D:
    L: float
    N: int
    n: int
    r: float
    H: float = field(init=False)
    h: float = field(init=False)
    d: float = field(init=False)

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("domain length must be positive")
        if self.N < 1:
            raise ValueError("patch count must be at least 1")
        if self.n < 1:
            raise ValueError("patch size must be at least 1")
        if not 0.0 < self.r <= 1.0:
            raise ValueError(f"size ratio r = {self.r} outside (0, 1]")
        self.H = self.L / self.N
        self.h = self.r * self.H
        self.d = self.h / self.n

    def center(self, I: int) -> float:
        """Centre X^I of patch I, internal index 0 <= I < N."""
        return (I % self.N + 1) * self.H

    def positions(self, I: int) -> np.ndarray:
        """Interior lattice point positions of patch I."""
        i = np.arange(1, self.n + 1)
        return self.center(I) + (i - 0.5 * (self.n + 1)) * self.d


@dataclass
class PatchGrid2D:
    x: PatchGrid1D
    y: PatchGrid1D


def build_grid_1d(L: float, N: int, n: int, r: float) -> PatchGrid1D:
    return PatchGrid1D(L=float(L), N=int(N), n=int(n), r=float(r))


def build_grid_2d(Lx, Nx, nx, rx, Ly, Ny, ny, ry) -> PatchGrid2D:
    return PatchGrid2D(x=build_grid_1d(Lx, Nx, nx, rx), y=build_grid_1d(Ly, Ny, ny, ry))


def ratio_for_spacing(L: float, N: int, n: int, d: float) -> float:
    """Size ratio r that realises a prescribed microscale spacing d.

    Inverts d = r L / (n N).  Raises if the resulting r falls outside (0, 1],
    i.e. the requested spacing cannot be realised on this grid.
    """
    r = d * n * N / L
    if not 0.0 < r <= 1.0 + 1e-12:
        raise ValueError(
            f"spacing d = {d} needs size ratio r = {r:.6g}, outside (0, 1]"
        )
    return min(r, 1.0)


def _is_integer_multiple(ratio: float, p: int) -> bool:
    nearest = round(ratio)
    if abs(ratio - nearest) > 1e-9 * max(1.0, abs(ratio)):
        return False
    return nearest % p == 0


def validate_compatibility(grid: PatchGrid1D, profile, ensemble: bool = False):
    """Check that a profile can be assembled self-adjointly on a grid.

    Returns a list of (severity, message) pairs.  Severity "error" marks
    combinations the assembler must reject, "warning" marks configurations
    that work but lose the full-lattice consistency reference.
    """
    diagnostics = []
    p = profile.period
    if not ensemble and grid.n % p != 0:
        diagnostics.append((
            "error",
            f"patch size n = {grid.n} is not a multiple of the diffusivity "
            f"period p = {p}; single-phase assembly would break self-adjointness "
            "(use the phase-shift ensemble instead)",
        ))
    if not _is_integer_multiple(grid.H / grid.d, p):
        diagnostics.append((
            "warning",
            f"patch separation over spacing H/d = {grid.H / grid.d:.6g} is not "
            f"an integer multiple of the period p = {p}; the scheme still runs "
            "but has no exact full-lattice counterpart to compare against",
        ))
    return diagnostics


def validate_compatibility_2d(grid: PatchGrid2D, profile, ensemble: bool = False):
    """Per-axis version of validate_compatibility for 2D grids."""
    diagnostics = []
    px, py = profile.periods
    for axis, g, p in (("x", grid.x, px), ("y", grid.y, py)):
        if not ensemble and g.n % p != 0:
            diagnostics.append((
                "error",
                f"{axis}-axis patch size n = {g.n} is not a multiple of the "
                f"period p = {p}; single-phase assembly would break "
                "self-adjointness (use the phase-shift ensemble instead)",
            ))
        if not _is_integer_multiple(g.H / g.d, p):
            diagnostics.append((
                "warning",
                f"{axis}-axis H/d = {g.H / g.d:.6g} is not an integer multiple "
                f"of the period p = {p}; no exact full-lattice counterpart",
            ))
    return diagnostics
