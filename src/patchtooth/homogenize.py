"""Homogenised coefficients of the periodic microscale diffusion.

Bloch waves u_l(t) e^{i k l} on the infinite lattice reduce the p-periodic
diffusion operator to a p x p Hermitian symbol (in d^2 du/dt scaling),

    A(k)[l, (l+1) mod p] += values[l] e^{ik},
    A(k)[l, (l-1) mod p] += values[(l-1) mod p] e^{-ik},
    A(k)[l, l]           -= values[l] + values[(l-1) mod p],

whose slowest eigenvalue branch lambda(k) carries the macroscale physics:

    lambda(k) = -K2 k^2 + K4 k^4 + O(k^6).

K2 is the harmonic mean of the diffusivities, K2 = p / sum(1/values); K4 is
extracted numerically by fitting even powers of k to the slow branch at small
wavenumbers.  The fitted k^2 coefficient is cross-checked against the closed
form, and the fit residual against the leading term guards both against
contamination from a fast branch.

beta = 2 pi^2 min(values) / (p^2 d^2) is a convenient scale for the fast
decay rates: for p >= 3 all microscale eigenvalues of the physical operator
lie below -beta (for p = 2 the bound can fail by a modest factor).

Physical wavenumbers q relate to the grid-scaled k by k = q d, so the
physical macroscale prediction is lambda_phys = -K2 q^2 + K4 d^2 q^4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .microscale import DiffusivityProfile1D


class BranchSeparationError(RuntimeError):
    """Slow and first fast eigenvalue branch are too close to distinguish."""


class FitResidualError(RuntimeError):
    """Polynomial fit of the slow branch left a residual beyond round-off."""


@dataclass
class FourierSymbol:
    k: float
    matrix: np.ndarray


@dataclass
class HomogenisedCoefficients:
    K2: float
    K4: float
    beta: float
    d: float
    fit_residual: float


def fourier_symbol(profile: DiffusivityProfile1D, k: float) -> FourierSymbol:
    """The p x p Bloch symbol of the diffusion operator at grid wavenumber k."""
    p = profile.period
    vals = profile.values
    A = np.zeros((p, p), dtype=complex)
    for ell in range(p):
        A[ell, (ell + 1) % p] += vals[ell] * np.exp(1j * k)
        A[ell, (ell - 1) % p] += vals[(ell - 1) % p] * np.exp(-1j * k)
        A[ell, ell] -= vals[ell] + vals[(ell - 1) % p]
    return FourierSymbol(k=float(k), matrix=A)


def _sorted_branch_values(profile, k):
    sym = fourier_symbol(profile, k).matrix
    herm = float(np.max(np.abs(sym - sym.conj().T)))
    if herm > 1e-12 * max(1.0, float(np.max(np.abs(sym)))):
        raise RuntimeError("symbol lost Hermitian symmetry")
    vals = np.linalg.eigvalsh(sym)
    return vals[np.argsort(np.abs(vals), kind="stable")]


def slow_branch(profile: DiffusivityProfile1D, k: float) -> float:
    """Slowest eigenvalue of the symbol at k, with a branch-separation guard.

    The slow branch is only meaningful while it stays clearly below the first
    fast branch; the guard requires the magnitude separation at k to be at
    least half the k = 0 spectral gap, and raises otherwise.
    """
    p = profile.period
    vals = _sorted_branch_values(profile, k)
    if p > 1:
        gap0 = abs(_sorted_branch_values(profile, 0.0)[1])
        if abs(vals[1]) - abs(vals[0]) < 0.5 * gap0:
            raise BranchSeparationError(
                f"branch separation failure at k = {k:.6g}: slow and fast "
                f"eigenvalues {vals[0]:.6g} and {vals[1]:.6g} are closer than "
                f"half the k = 0 gap {gap0:.6g}"
            )
    return float(vals[0])


def harmonic_mean_diffusivity(profile: DiffusivityProfile1D) -> float:
    """K2 = p / sum(1 / values), the exact macroscale diffusivity."""
    return profile.period / float(np.sum(1.0 / profile.values))


def extract_coefficients(
    profile: DiffusivityProfile1D,
    d: float = 1.0,
    node_spacing: float = 0.02,
    node_count: int = 8,
) -> HomogenisedCoefficients:
    """Extract K2 (closed form), K4 (small-k fit), and the decay scale beta.

    The slow branch is sampled at k = node_spacing * (1..node_count) and fitted
    with even powers k^2 .. k^10 in a column-scaled least-squares
    problem.  Two guards apply: the fitted K2 must match the harmonic mean to
    1e-9 relative, and the fit residual must stay below 1e-10 of the leading
    k^2 term.  Either failure signals fast-branch contamination and raises.
    """
    if d <= 0:
        raise ValueError("lattice spacing must be positive")
    if node_count < 2:
        raise ValueError("need at least two fit nodes")
    powers = np.array([2, 4, 6, 8, 10])
    if node_count < powers.size:
        raise ValueError("fewer fit nodes than fitted powers")
    K2 = harmonic_mean_diffusivity(profile)
    ks = node_spacing * np.arange(1, node_count + 1)
    lam = np.array([slow_branch(profile, k) for k in ks])
    V = ks[:, None] ** powers[None, :]
    col_scale = np.linalg.norm(V, axis=0)
    coef_scaled, *_ = np.linalg.lstsq(V / col_scale, lam, rcond=None)
    coef = coef_scaled / col_scale
    K2_fit = -coef[0]
    if abs(K2_fit - K2) > 1e-9 * abs(K2):
        raise FitResidualError(
            f"fitted k^2 coefficient {K2_fit:.12g} disagrees with the harmonic "
            f"mean {K2:.12g} beyond 1e-9 relative"
        )
    residual = float(np.linalg.norm(V @ coef - lam))
    leading = float(np.abs(coef[0]) * np.linalg.norm(ks**2))
    if residual > 1e-10 * leading:
        raise FitResidualError(
            f"fit residual {residual:.3e} exceeds 1e-10 of the leading term "
            f"{leading:.3e}; the slow branch looks contaminated"
        )
    beta = 2.0 * np.pi**2 * float(np.min(profile.values)) / (
        profile.period**2 * d * d
    )
    return HomogenisedCoefficients(
        K2=float(K2), K4=float(coef[1]), beta=float(beta), d=float(d),
        fit_residual=residual,
    )


def predict_macroscale_eigenvalues(coeffs: HomogenisedCoefficients, wavenumbers):
    """lambda(q) = -K2 q^2 + K4 d^2 q^4 at physical wavenumbers q."""
    q = np.asarray(wavenumbers, dtype=float)
    return -coeffs.K2 * q**2 + coeffs.K4 * coeffs.d**2 * q**4
