"""Phase-shift ensembles: self-adjoint patches for any patch size.

Single-phase patches need the period p to divide the patch size n, otherwise
the diffusivity seen from the two sides of an inter-patch gap differs and the
assembled operator loses symmetry.  The cure is to simulate all p phase
shifts of the microstructure at once.  Member l of the 1D ensemble carries

    kappa^(l)_{m+1/2} = values[(m + l) mod p],

and crossing a patch edge advances the phase by the patch size n: the right
edge of member l interpolates next-to-edge values of member (l + n) mod p,
and the left edge of member m those of member (m - n) mod p.  Both sides of
every gap then see the same bond diffusivity, restoring exact symmetry.  When
p divides n the shift is trivial and the ensemble decouples into p
independent single-phase copies.

In 2D the members are indexed by a phase pair (phi, psi), flattened row-major
as e = phi * p_y + psi, and the edge crossings act on one phase at a time:
permutation P_x sends phi to (phi - n_x) mod p_x, and P_y sends psi to
(psi - n_y) mod p_y.
"""

from __future__ import annotations

import numpy as np

from .microscale import DiffusivityProfile2D


def build_permutations_2d(profile: DiffusivityProfile2D, nx: int, ny: int):
    """Member permutations for the two edge crossings of a 2D patch.

    Returns (P_x, P_y) acting on flat member vectors: (P_x v)[e] = v[sigma_x(e)]
    with sigma_x(phi, psi) = ((phi - n_x) mod p_x, psi), and P_y likewise on
    psi.  Before returning, verifies on every bond column that the left-edge
    diffusivities are exactly the permuted right-edge ones; a failure means
    the phase bookkeeping is inconsistent and raises.
    """
    if nx < 1 or ny < 1:
        raise ValueError("patch sizes must be at least 1")
    px, py = profile.periods
    count = px * py

    def flat(phi, psi):
        return (phi % px) * py + (psi % py)

    Px = np.zeros((count, count))
    Py = np.zeros((count, count))
    for phi in range(px):
        for psi in range(py):
            e = flat(phi, psi)
            Px[e, flat(phi - nx, psi)] = 1.0
            Py[e, flat(phi, psi - ny)] = 1.0

    phis, psis = np.divmod(np.arange(count), py)
    for t in range(py):
        right = profile.kx[(phis + nx) % px, (t + psis) % py]
        left = profile.kx[phis % px, (t + psis) % py]
        if not np.array_equal(left, Px @ right):
            raise RuntimeError(
                "x-edge permutation does not map right-edge to left-edge "
                f"diffusivities at column offset {t}"
            )
    for t in range(px):
        right = profile.ky[(t + phis) % px, (psis + ny) % py]
        left = profile.ky[(t + phis) % px, psis % py]
        if not np.array_equal(left, Py @ right):
            raise RuntimeError(
                "y-edge permutation does not map top-edge to bottom-edge "
                f"diffusivities at row offset {t}"
            )
    return Px, Py
