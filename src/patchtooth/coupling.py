"""Inter-patch interpolation: edge values from next-to-edge values.

Each patch exposes its next-to-edge values u^I_1 and u^I_n; the missing edge
values are interpolated across all patches,

    u^I_{n+1} = sum_J w_right[(J - I) mod N] u^J_1,
    u^I_0     = sum_J w_left [(J - I) mod N] u^J_n,

so the whole coupling is a pair of circulant stencils over the patch index.

Spectral weights evaluate the N-term Fourier interpolant of the next-to-edge
values at a fractional patch shift r,

    w_right[m] = (1/N) sum_k exp(2 pi i k (r - m) / N),

with k running over the integers centred on zero.  For even N the unpaired
Nyquist mode k = N/2 would make the result complex; its term is replaced by
the real part cos(pi (r - m)) / N, which agrees with the odd-N formula in the
limit and keeps the interpolant real.

Lagrangian weights of order P expand the fractional shift operator

    E^r = (1 + mu delta + delta^2 / 2)^r
        = 1 + sum_{k>=1} prod_{l=0}^{k-1}(r^2 - l^2) / (2k)!
              * (delta^{2k} + (2k / r) mu delta^{2k-1})

truncated after k = P, where delta is the central difference and mu the
two-point average over the patch index.  This is classical polynomial
interpolation of degree 2P through the 2P+1 nearest patches, so it needs
2P + 1 <= N.  At r = 1 every term with k >= 2 carries the factor (r^2 - 1)
and vanishes: the weights collapse to the exact one-hot shift, as do the
spectral weights.

Both families satisfy sum_m w[m] = 1 (constants are reproduced) and the
mirror identity w_left[m mod N] = w_right[(-m) mod N].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SCHEMES = ("spectral", "lagrangian")


@dataclass
class CouplingSpec:
    """Which interpolation family closes the patch edges.

    scheme is "spectral" or "lagrangian"; order is the Lagrangian truncation
    P >= 1 and must be omitted (or None) for spectral coupling.
    """

    scheme: str
    order: int | None = None

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown coupling scheme {self.scheme!r}")
        if self.scheme == "lagrangian":
            if self.order is None or int(self.order) < 1:
                raise ValueError("lagrangian coupling needs an order P >= 1")
            self.order = int(self.order)
        elif self.order is not None:
            raise ValueError("spectral coupling takes no order")


@dataclass
class InterpolationWeights:
    N: int
    w_right: np.ndarray
    w_left: np.ndarray


def _check_args(N: int, r: float):
    if N < 1:
        raise ValueError("need at least one patch")
    if not 0.0 < r <= 1.0:
        raise ValueError(f"size ratio r = {r} outside (0, 1]")


def spectral_weights(N: int, r: float) -> InterpolationWeights:
    """Fourier interpolation weights for a fractional patch shift r."""
    _check_args(N, r)
    m = np.arange(N)
    if N % 2 == 1:
        ks = np.arange(-(N // 2), N // 2 + 1)
        w = np.exp(2j * np.pi * np.outer(r - m, ks) / N).sum(axis=1) / N
    else:
        ks = np.arange(-(N // 2) + 1, N // 2)
        w = np.exp(2j * np.pi * np.outer(r - m, ks) / N).sum(axis=1) / N
        w = w + np.cos(np.pi * (r - m)) / N
    residue = np.max(np.abs(w.imag))
    if residue > 1e-13:
        raise RuntimeError(f"spectral weights not real, residue {residue:g}")
    w_right = w.real.copy()
    # Mirroring rather than re-evaluating at -r keeps the pair bitwise
    # symmetric, which the assembled operator inherits.
    w_left = w_right[(-m) % N].copy()
    return InterpolationWeights(N=N, w_right=w_right, w_left=w_left)


def lagrangian_weights(N: int, r: float, P: int) -> InterpolationWeights:
    """Central-difference expansion of the shift operator, truncated at order P."""
    _check_args(N, r)
    if P < 1:
        raise ValueError("order P must be at least 1")
    if 2 * P + 1 > N:
        raise ValueError(
            f"stencil width 2P+1 = {2 * P + 1} exceeds patch count N = {N}"
        )
    width = 2 * P + 1
    even = np.zeros(width)
    odd = np.zeros(width)
    even[P] = 1.0
    delta2 = np.array([1.0, -2.0, 1.0])
    mudelta = np.array([-0.5, 0.0, 0.5])
    d2prev = np.array([1.0])
    coeff = 1.0
    for k in range(1, P + 1):
        coeff *= r * r - (k - 1) ** 2
        d2k = np.convolve(d2prev, delta2)
        md = np.convolve(d2prev, mudelta)
        fact = math.factorial(2 * k)
        even[P - k : P + k + 1] += (coeff / fact) * d2k
        odd[P - k : P + k + 1] += (coeff * 2 * k / (r * fact)) * md
        d2prev = d2k
    w_right = np.zeros(N)
    w_left = np.zeros(N)
    for o in range(-P, P + 1):
        w_right[o % N] += even[P + o] + odd[P + o]
        w_left[o % N] += even[P + o] - odd[P + o]
    return InterpolationWeights(N=N, w_right=w_right, w_left=w_left)


def weights_for(spec: CouplingSpec, N: int, r: float) -> InterpolationWeights:
    if spec.scheme == "spectral":
        return spectral_weights(N, r)
    return lagrangian_weights(N, r, spec.order)
