"""Inter-patch interpolation: edge values from next-to-edge values.

Each patch exposes its next-to-edge values u^I_1 and u^I_n; the missing edge
values are interpolated across all patches,

    u^I_{n+1} = sum_J w_right[(J - I) mod N] u^J_1,
    u^I_0     = sum_J w_left [(J - I) mod N] u^J_n,

so the whole coupling is a pair of circulant stencils over the patch index.
A family gives the array w_right alone: assembly._stencil, the one place a
left edge is made, mirrors it, w_left[m mod N] = w_right[(-m) mod N].

Spectral weights evaluate the N-term Fourier interpolant of the next-to-edge
values at a fractional patch shift r,

    w_right[m] = (1/N) sum_k exp(2 pi i k (r - m) / N),

with k running over the integers centred on zero.  For even N the unpaired
Nyquist mode k = N/2 would make the result complex; its term is replaced by
the real part cos(pi (r - m)) / N, which agrees with the odd-N formula in the
limit and keeps the interpolant real.  The sum is the periodic sinc
(Dirichlet) kernel, evaluated in closed form (Trefethen, Spectral Methods in
MATLAB, SIAM 2000, ch. 3).

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

Both families satisfy sum_m w[m] = 1 (constants are reproduced).
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


def _check_args(N: int, r: float):
    if N < 1:
        raise ValueError("need at least one patch")
    if not 0.0 < r <= 1.0:
        raise ValueError(f"size ratio r = {r} outside (0, 1]")


def spectral_weights(N: int, r: float) -> np.ndarray:
    """Fourier interpolation weights for a fractional patch shift r, in O(N).

    The sum over k has the closed form of the periodic sinc (Dirichlet)
    kernel at x = r - m, w[m] = sin(pi x) / (N sin(pi x / N)) for odd N and
    sin(pi x) / (N tan(pi x / N)) for even N, where the tangent carries the
    half-weighted Nyquist term; both are N-periodic in x and tend to 1 as
    x -> 0.  Each offset m is taken in (-N/2, N/2], so that |x| stays below
    N/2 + 1 and the denominator away from its other zeros, and sin(pi x) is
    evaluated as (-1)^m sin(pi r) through the nearer of r and 1 - r, both
    exact.  At r = 1 every weight but w[1] has the factor sin(pi) = 0, and
    w[1] is the limit 1: the exact one-hot shift.  A single patch copies
    itself, w = [1], for every r.
    """
    _check_args(N, r)
    m = np.arange(N)
    offset = np.where(2 * m > N, m - N, m)
    x = r - offset
    numerator = np.where(offset % 2 == 0, 1.0, -1.0) * np.sin(np.pi * min(r, 1.0 - r))
    kernel = np.sin if N % 2 == 1 else np.tan
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((x == 0.0) | (N == 1), 1.0, numerator / (N * kernel(np.pi * x / N)))


def lagrangian_weights(N: int, r: float, P: int) -> np.ndarray:
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
    for o in range(-P, P + 1):
        w_right[o % N] += even[P + o] + odd[P + o]
    return w_right


def weights_for(spec: CouplingSpec, N: int, r: float) -> np.ndarray:
    """The right-edge weights w_right over the N patch offsets of a coupling."""
    if spec.scheme == "spectral":
        return spectral_weights(N, r)
    return lagrangian_weights(N, r, spec.order)
