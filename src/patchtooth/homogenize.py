"""Homogenised coefficients of the periodic microscale diffusion.

Bloch waves u_l(t) e^{i k l} on the infinite lattice reduce the p-periodic
diffusion operator to a p x p Hermitian symbol (in d^2 du/dt scaling),

    A(k)[l, (l+1) mod p] += values[l] e^{ik},
    A(k)[l, (l-1) mod p] += values[(l-1) mod p] e^{-ik},
    A(k)[l, l]           -= values[l] + values[(l-1) mod p].

fourier_symbol reads it off the stored entries of the d = 1 full lattice of
three periods (microscale), so the bond convention lives in one stencil.  Its
slowest eigenvalue branch lambda(k) carries the macroscale physics:

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

import functools
from dataclasses import dataclass

import numpy as np

from .microscale import DiffusivityProfile1D, _full_lattice


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


@functools.lru_cache(maxsize=8)
def _symbol_terms(values: bytes):
    """Rows, columns, values and phases of the entries of the d = 1 lattice of three periods.

    Cached by the profile's diffusivities, so the lattice is built once per
    profile however many wavenumbers its symbol is taken at.
    """
    profile = DiffusivityProfile1D(np.frombuffer(values))
    p = profile.period
    op = _full_lattice(profile, [3 * p], [1.0])
    phase = np.where(op.offsets == 2, -1, op.offsets) * p + op.cols - op.rows
    t = np.argsort(phase == 0, kind="stable")  # the bond terms first, the diagonal last
    terms = (op.rows[t], op.cols[t], op.values[t], phase[t])
    for part in terms:
        part.flags.writeable = False
    return terms


def fourier_symbol(profile: DiffusivityProfile1D, k: float) -> FourierSymbol:
    """The p x p Bloch symbol of the diffusion operator at grid wavenumber k.

    The lattice of 3p points is three patches of one period, so the patch
    offsets 0, 1, 2 of its entries read as 0, +1, -1 periods, and entry
    (l, m, c, v) adds v exp(ik(m p + c - l)) to S[l, c].  Lattice row l
    describes node l + 1, whose right bond is values[(l + 1) mod p]: a roll by
    one site in both axes puts it in the per-site gauge above.
    """
    p = profile.period
    rows, cols, values, phase = _symbol_terms(profile.values.tobytes())
    S = np.zeros((p, p), dtype=complex)
    np.add.at(S, (rows, cols), values * np.exp(1j * k * phase))
    return FourierSymbol(k=float(k), matrix=np.roll(S, 1, axis=(0, 1)))


def _sorted_branch_values(profile, k):
    sym = fourier_symbol(profile, k).matrix
    herm = float(np.max(np.abs(sym - sym.conj().T)))
    if herm > 1e-12 * max(1.0, float(np.max(np.abs(sym)))):
        raise RuntimeError("symbol lost Hermitian symmetry")
    vals = np.linalg.eigvalsh(sym)
    return vals[np.argsort(np.abs(vals), kind="stable")]


def _zero_gap(profile) -> float | None:
    """The k = 0 spectral gap, None for a single phase, which has no fast branch."""
    return abs(_sorted_branch_values(profile, 0.0)[1]) if profile.period > 1 else None


def _slow_value(profile, k: float, gap0: float | None) -> float:
    vals = _sorted_branch_values(profile, k)
    if gap0 is not None and abs(vals[1]) - abs(vals[0]) < 0.5 * gap0:
        raise BranchSeparationError(
            f"branch separation failure at k = {k:.6g}: slow and fast "
            f"eigenvalues {vals[0]:.6g} and {vals[1]:.6g} are closer than "
            f"half the k = 0 gap {gap0:.6g}"
        )
    return float(vals[0])


def slow_branch(profile: DiffusivityProfile1D, k: float) -> float:
    """Slowest eigenvalue of the symbol at k, with a branch-separation guard.

    The slow branch is only meaningful while it stays clearly below the first
    fast branch; the guard requires the magnitude separation at k to be at
    least half the k = 0 spectral gap, and raises otherwise.
    """
    return _slow_value(profile, k, _zero_gap(profile))


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
    Samples or a beta that are not finite raise as well, and so does a fit
    that is not: NaN would pass a guard written as err > tol, so the guards
    read not err <= tol.
    """
    if d <= 0:
        raise ValueError("lattice spacing must be positive")
    powers = np.array([2, 4, 6, 8, 10])
    if node_count < powers.size:
        raise ValueError("fewer fit nodes than fitted powers")
    K2 = harmonic_mean_diffusivity(profile)
    ks = node_spacing * np.arange(1, node_count + 1)
    gap0 = _zero_gap(profile)
    lam = np.array([_slow_value(profile, k, gap0) for k in ks])
    if not np.all(np.isfinite(lam)):
        raise FitResidualError("the slow-branch samples are not all finite")
    V = ks[:, None] ** powers[None, :]
    col_scale = np.linalg.norm(V, axis=0)
    coef_scaled, *_ = np.linalg.lstsq(V / col_scale, lam, rcond=None)
    coef = coef_scaled / col_scale
    K2_fit = -coef[0]
    if not abs(K2_fit - K2) <= 1e-9 * abs(K2):
        raise FitResidualError(
            f"fitted k^2 coefficient {K2_fit:.12g} disagrees with the harmonic "
            f"mean {K2:.12g} beyond 1e-9 relative"
        )
    residual = float(np.linalg.norm(V @ coef - lam))
    leading = float(np.abs(coef[0]) * np.linalg.norm(ks**2))
    if not residual <= 1e-10 * leading:
        raise FitResidualError(
            f"fit residual {residual:.3e} exceeds 1e-10 of the leading term "
            f"{leading:.3e}; the slow branch looks contaminated"
        )
    beta = 2.0 * np.pi**2 * float(np.min(profile.values)) / (
        profile.period**2 * d * d
    )
    if not np.isfinite(beta):
        raise FitResidualError(f"the decay scale beta = {beta} is not finite")
    return HomogenisedCoefficients(
        K2=float(K2), K4=float(coef[1]), beta=float(beta), d=float(d),
        fit_residual=residual,
    )


def predict_macroscale_eigenvalues(coeffs: HomogenisedCoefficients, wavenumbers):
    """lambda(q) = -K2 q^2 + K4 d^2 q^4 at physical wavenumbers q."""
    q = np.asarray(wavenumbers, dtype=float)
    return -coeffs.K2 * q**2 + coeffs.K4 * coeffs.d**2 * q**4
