"""Homogenised coefficients of the periodic microscale diffusion.

Bloch waves u_l(t) e^{i k l} on the infinite lattice reduce the p-periodic
diffusion operator to a p x p Hermitian symbol (in d^2 du/dt scaling),

    A(k)[l, (l+1) mod p] += values[l] e^{ik},
    A(k)[l, (l-1) mod p] += values[(l-1) mod p] e^{-ik},
    A(k)[l, l]           -= values[l] + values[(l-1) mod p].

fourier_symbol returns it as a p x p array, read off the stored entries of
the d = 1 full lattice of three periods (microscale), so the bond convention
lives in one stencil.  Its slowest eigenvalue branch lambda(k) carries the
macroscale physics:

    lambda(k) = -K2 k^2 + K4 k^4 + O(k^6).

K2 is the harmonic mean of the diffusivities, K2 = p / sum(1/values).  Both
coefficients are derivatives of lambda at k = 0 (Conca & Vanninathan, SIAM J.
Appl. Math. 57, 1997), and extract_coefficients sums the Taylor series of the
symbol, S(k) = sum_m S_m k^m, by the discrete cell problems.  With psi_0 = e =
1/sqrt(p), which S_0 annihilates, and lambda_0 = 0, each order m >= 1 gives

    r_m = sum_{j=1..m} S_j psi_{m-j},    lambda_m = <e, r_m>,
    S_0 psi_m = sum_{j=1..m} lambda_j psi_{m-j} - r_m,    <e, psi_m> = 0,

so K2 = -lambda_2 and K4 = lambda_4, and no wavenumber is sampled.

beta = 2 pi^2 min(values) / (p^2 d^2) is a convenient scale for the fast
decay rates: for p >= 3 all microscale eigenvalues of the physical operator
lie below -beta (for p = 2 the bound can fail by a modest factor).

Physical wavenumbers q relate to the grid-scaled k by k = q d, so the
physical macroscale prediction is lambda_phys = -K2 q^2 + K4 d^2 q^4.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .microscale import DiffusivityProfile1D, _full_lattice


class BranchSeparationError(RuntimeError):
    """Slow and first fast eigenvalue branch are too close to distinguish."""


@dataclass
class HomogenisedCoefficients:
    K2: float
    K4: float
    beta: float
    d: float


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


def fourier_symbol(profile: DiffusivityProfile1D, k: float) -> np.ndarray:
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
    return np.roll(S, 1, axis=(0, 1))


def _sorted_branch_values(profile, k):
    sym = fourier_symbol(profile, k)
    herm = float(np.max(np.abs(sym - sym.conj().T)))
    if herm > 1e-12 * max(1.0, float(np.max(np.abs(sym)))):
        raise RuntimeError("symbol lost Hermitian symmetry")
    vals = np.linalg.eigvalsh(sym)
    return vals[np.argsort(np.abs(vals), kind="stable")]


def slow_branch(profile: DiffusivityProfile1D, k: float) -> float:
    """Slowest eigenvalue of the symbol at k, with a branch-separation guard.

    The slow branch is only meaningful while it stays clearly below the first
    fast branch; the guard requires the magnitude separation at k to be at
    least half the k = 0 spectral gap, and raises otherwise.  A single phase
    has no fast branch.
    """
    vals = _sorted_branch_values(profile, k)
    if profile.period > 1:
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


def extract_coefficients(profile: DiffusivityProfile1D, d: float = 1.0) -> HomogenisedCoefficients:
    """K2 (closed form), K4 = lambda_4 of the series above, and the decay scale beta.

    S_m sums v (i phase)^m / m! over the entries of _symbol_terms; the roll
    of fourier_symbol only permutes sites, which keeps lambda and e.  Each
    psi_m solves the bordered system [[S_0, e], [e^T, 0]] [psi_m; mu] =
    [rhs; 0], as a pseudoinverse of S_0 would cut off the singular values of
    the smallest diffusivities.  The series' -lambda_2 must match K2 to 1e-9
    relative, or round-off has swamped it, and beta must be finite: either
    failure raises ValueError (the guards read not err <= tol, so NaN fails).
    """
    if d <= 0:
        raise ValueError("lattice spacing must be positive")
    p = profile.period
    rows, cols, values, phase = _symbol_terms(profile.values.tobytes())
    S = np.zeros((5, p, p), dtype=complex)
    for m in range(5):
        np.add.at(S[m], (rows, cols), values * (1j * phase) ** m / math.factorial(m))
    e = np.full(p, p**-0.5)
    bordered = np.zeros((p + 1, p + 1), dtype=complex)
    bordered[:p, :p], bordered[:p, p], bordered[p, :p] = S[0], e, e
    psi, lam = [e.astype(complex)], [0.0]
    for m in range(1, 5):
        r = sum(S[j] @ psi[m - j] for j in range(1, m + 1))
        lam.append(e @ r)
        rhs = sum(lam[j] * psi[m - j] for j in range(1, m + 1)) - r
        psi.append(np.linalg.solve(bordered, np.append(rhs, 0))[:p])
    K2 = harmonic_mean_diffusivity(profile)
    if not abs(-lam[2].real - K2) <= 1e-9 * K2:
        raise ValueError(
            f"series k^2 coefficient {-lam[2].real:.12g} disagrees with the harmonic mean "
            f"{K2:.12g} beyond 1e-9 relative: round-off of the diffusivities' contrast"
        )
    beta = 2.0 * np.pi**2 * float(np.min(profile.values)) / (p**2 * d * d)
    if not np.isfinite(beta):
        raise ValueError(f"the decay scale beta = {beta} is not finite")
    return HomogenisedCoefficients(K2=float(K2), K4=float(lam[4].real), beta=float(beta),
                                   d=float(d))


def predict_macroscale_eigenvalues(coeffs: HomogenisedCoefficients, wavenumbers):
    """lambda(q) = -K2 q^2 + K4 d^2 q^4 at physical wavenumbers q."""
    q = np.asarray(wavenumbers, dtype=float)
    return -coeffs.K2 * q**2 + coeffs.K4 * coeffs.d**2 * q**4
