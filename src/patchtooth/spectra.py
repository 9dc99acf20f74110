"""Eigen-spectral verification of assembled operators.

The spectrum of a patch operator splits into N_macro macroscale modes (one
per patch, approximating the homogenised continuum) and fast microscale
modes, separated by a wide gap.  Reports sort eigenvalues by ascending
magnitude and record the kernel quality, the gap ratio, and mode-by-mode
error tables against a reference operator.

eigen_symmetric refuses operators whose relative symmetry defect exceeds
1e-10: feeding an asymmetric matrix to a symmetric eigensolver silently
produces garbage, so the precondition is enforced rather than documented.

eigen_general handles the wave system specially.  Its exact double zero
eigenvalue is defective (Jordan block on span{(1,0), (0,1)} with 1 the
constant vector), which general eigensolvers scatter into small complex
pairs.  Since the complement S = {1.u = 0, 1.v = 0} is invariant, the
spectrum is computed on S by projection and the exact pair {0, 0} appended.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .assembly import symmetry_defect


class SymmetryPreconditionError(ValueError):
    """Operator fails the symmetry tolerance required by a solver."""


def _matrix_of(op) -> np.ndarray:
    return op.matrix if hasattr(op, "matrix") else np.asarray(op)


def _default_n_macro(op) -> int | None:
    layout = getattr(op, "layout", None)
    return layout.n_macro if layout is not None else None


@dataclass
class SpectrumReport:
    """Eigenvalues sorted by ascending magnitude, split macro/micro."""

    eigenvalues: np.ndarray
    n_macro: int
    macro: np.ndarray = field(init=False)
    micro: np.ndarray = field(init=False)
    gap_ratio: float = field(init=False)
    zero_mode_magnitude: float = field(init=False)

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues)
        order = np.argsort(np.abs(ev), kind="stable")
        ev = ev[order]
        self.eigenvalues = ev
        if not 0 < self.n_macro <= ev.size:
            raise ValueError(
                f"macro mode count {self.n_macro} outside 1..{ev.size}"
            )
        self.macro = ev[: self.n_macro]
        self.micro = ev[self.n_macro :]
        self.zero_mode_magnitude = float(np.abs(ev[0]))
        macro_scale = float(np.max(np.abs(self.macro)))
        if self.micro.size == 0 or macro_scale == 0.0:
            self.gap_ratio = float("inf")
        else:
            self.gap_ratio = float(np.abs(self.micro[0])) / macro_scale


def eigen_symmetric(op, n_macro: int | None = None) -> SpectrumReport:
    """Full real spectrum of a symmetric operator, sorted by magnitude.

    Precondition: relative symmetry defect at most 1e-10.
    """
    report = symmetry_defect(op)
    if report.relative > 1e-10:
        raise SymmetryPreconditionError(
            f"relative symmetry defect {report.relative:.3e} exceeds 1e-10; "
            "this operator must not be fed to a symmetric eigensolver"
        )
    matrix = _matrix_of(op)
    vals = np.linalg.eigvalsh(0.5 * (matrix + matrix.T))
    if n_macro is None:
        n_macro = _default_n_macro(op) or vals.size
    return SpectrumReport(eigenvalues=vals, n_macro=n_macro)


def _wave_deflated_eigenvalues(op) -> np.ndarray:
    W = _matrix_of(op)
    M = op.layout.half
    Q = scipy.linalg.null_space(np.ones((1, M)))
    P = np.zeros((2 * M, 2 * (M - 1)))
    P[:M, : M - 1] = Q
    P[M:, M - 1 :] = Q
    vals = np.linalg.eigvals(P.T @ W @ P)
    return np.concatenate([vals, [0.0, 0.0]])


def eigen_general(op, n_macro: int | None = None) -> SpectrumReport:
    """Complex spectrum of a general operator, sorted by magnitude.

    Wave operators are deflated onto the zero-sum invariant subspace first,
    so their exact defective zero pair stays exactly zero in the report.
    """
    layout = getattr(op, "layout", None)
    if layout is not None and layout.half is not None:
        vals = _wave_deflated_eigenvalues(op)
    else:
        vals = np.linalg.eigvals(_matrix_of(op))
    if n_macro is None:
        n_macro = _default_n_macro(op) or vals.size
    return SpectrumReport(eigenvalues=vals, n_macro=n_macro)


def smallest_magnitude_eigenvalues(matrix, count: int, shift: float = 0.1):
    """Smallest-|lambda| eigenvalues of a large sparse symmetric operator.

    Shift-invert about a small positive sigma, which for a negative
    semidefinite operator is never an eigenvalue, so the factorisation is
    always nonsingular (sigma = 0 would hit the constant kernel mode).
    """
    vals = scipy.sparse.linalg.eigsh(
        matrix, k=count, sigma=shift, which="LM", return_eigenvectors=False
    )
    return vals[np.argsort(np.abs(vals), kind="stable")]


@dataclass
class ErrorTable:
    """Mode-by-mode relative errors between two macroscale spectra."""

    indices: np.ndarray
    test_values: np.ndarray
    reference_values: np.ndarray
    relative_errors: np.ndarray

    def rows(self):
        return zip(
            self.indices, self.test_values, self.reference_values, self.relative_errors
        )


def _unique_macro_modes(report: SpectrumReport) -> np.ndarray:
    """Nonzero macro eigenvalues with near-degenerate pairs collapsed.

    Drops kernel modes (magnitude below 1e-7 of the macro scale), then merges
    consecutive eigenvalues within 0.5% relative into their mean; the wave
    pairs +-k collapse to one entry per wavenumber magnitude.
    """
    macro = np.real(np.asarray(report.macro))
    mags = np.abs(macro)
    scale = float(mags.max()) if macro.size else 0.0
    if scale == 0.0:
        return np.array([])
    keep = macro[mags > 1e-7 * scale]
    keep = keep[np.argsort(np.abs(keep), kind="stable")]
    groups: list[list[float]] = []
    for lam in keep:
        if groups:
            mean = float(np.mean(groups[-1]))
            if abs(lam - mean) <= 0.005 * max(abs(lam), abs(mean)):
                groups[-1].append(float(lam))
                continue
        groups.append([float(lam)])
    return np.array([np.mean(g) for g in groups])


def error_table(test: SpectrumReport, reference: SpectrumReport, count: int) -> ErrorTable:
    """Relative errors of the first `count` distinct nonzero macro modes."""
    if count < 1:
        raise ValueError("need at least one table row")
    test_modes = _unique_macro_modes(test)
    ref_modes = _unique_macro_modes(reference)
    if test_modes.size < count or ref_modes.size < count:
        raise ValueError(
            f"need {count} distinct nonzero macro modes, have "
            f"{test_modes.size} (test) and {ref_modes.size} (reference)"
        )
    t = test_modes[:count]
    rf = ref_modes[:count]
    return ErrorTable(
        indices=np.arange(1, count + 1),
        test_values=t,
        reference_values=rf,
        relative_errors=np.abs(t - rf) / np.abs(rf),
    )


def convergence_slope(N_list, errors) -> float:
    """Least-squares slope of log(error) against log(N).

    Needs at least three resolutions and strictly positive errors; patch
    counts must be strictly increasing.
    """
    N_arr = np.asarray(N_list, dtype=float)
    err = np.asarray(errors, dtype=float)
    if N_arr.size != err.size:
        raise ValueError("resolution and error lists differ in length")
    if N_arr.size < 3:
        raise ValueError("need at least three resolutions for a slope")
    if np.any(N_arr <= 0) or np.any(np.diff(N_arr) <= 0):
        raise ValueError("patch counts must be positive and increasing")
    if np.any(err <= 0):
        raise ValueError("errors must be strictly positive to take logs")
    return float(np.polyfit(np.log(N_arr), np.log(err), 1)[0])
