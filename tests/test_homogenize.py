"""Fourier symbol, slow branch, homogenised coefficient extraction.

Frozen rationals: the period-3 profile (1, 2, 3) has harmonic mean 18/11,
and its fourth-order correction works out to 675/2662.  A constant profile
c has K2 = c and K4 = c/12.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import patchtooth as pt

KAPPA123 = pt.DiffusivityProfile1D((1.0, 2.0, 3.0))


def test_symbol_is_hermitian_and_nonpositive():
    prof = pt.DiffusivityProfile1D((3.965, 2.531, 0.838, 0.331, 7.275))
    for k in (0.0, 0.04, 0.31, -0.2):
        sym = pt.fourier_symbol(prof, k)
        H = sym.matrix
        assert H.shape == (5, 5)
        np.testing.assert_allclose(H, H.conj().T, atol=1e-14)
        vals = np.linalg.eigvalsh(H)
        assert np.max(vals) <= 1e-12


def test_single_phase_symbol_recovers_lattice_dispersion():
    # with period 1 the symbol is scalar: -4 c sin^2(k/2) at unit spacing
    c = 1.7
    prof = pt.DiffusivityProfile1D((c,))
    for k in (0.1, 0.5, 1.2):
        got = pt.slow_branch(prof, k)
        assert got == pytest.approx(-4.0 * c * np.sin(k / 2) ** 2, rel=1e-12)


def test_rational_profile_coefficients():
    coeffs = pt.extract_coefficients(KAPPA123)
    assert coeffs.K2 == pytest.approx(18 / 11, rel=1e-12)
    assert coeffs.K4 == pytest.approx(675 / 2662, rel=1e-7)
    assert coeffs.fit_residual < 1e-10
    assert pt.harmonic_mean_diffusivity(KAPPA123) == pytest.approx(18 / 11, rel=1e-15)


def test_constant_profile_coefficients():
    c = 2.5
    coeffs = pt.extract_coefficients(pt.DiffusivityProfile1D((c,)))
    assert coeffs.K2 == pytest.approx(c, rel=1e-12)
    assert coeffs.K4 == pytest.approx(c / 12, rel=1e-8)


def test_beta_closed_form():
    d = 0.25
    coeffs = pt.extract_coefficients(KAPPA123, d=d)
    assert coeffs.beta == pytest.approx(2 * np.pi**2 * 1.0 / (9 * d**2), rel=1e-14)
    assert coeffs.d == d


@settings(max_examples=50, deadline=None)
@given(
    p=st.integers(3, 8),
    data=st.data(),
)
def test_beta_floors_the_fast_branches_at_zero_wavenumber(p, data):
    """For three or more phases every nonzero branch of the k = 0 symbol
    sits below -beta; the two-phase case genuinely violates this, see the
    companion test."""
    vals = data.draw(
        st.lists(st.floats(0.2, 5.0), min_size=p, max_size=p)
    )
    prof = pt.DiffusivityProfile1D(vals)
    beta = 2 * np.pi**2 * min(vals) / p**2  # unit spacing
    branches = np.sort(np.abs(np.linalg.eigvalsh(pt.fourier_symbol(prof, 0.0).matrix)))
    assert branches[1] >= beta * (1 - 1e-12)


def test_two_phases_escape_the_beta_floor():
    prof = pt.DiffusivityProfile1D((1.0, 1.0))
    coeffs = pt.extract_coefficients(prof)
    branches = np.sort(np.abs(np.linalg.eigvalsh(pt.fourier_symbol(prof, 0.0).matrix)))
    assert branches[1] == pytest.approx(4.0, rel=1e-12)
    assert branches[1] < coeffs.beta


def test_branch_separation_guard():
    prof = pt.DiffusivityProfile1D((1.0, 1.0))
    with pytest.raises(pt.BranchSeparationError):
        pt.slow_branch(prof, np.pi / 2)
    # extraction with far-out nodes walks into the crossing as well
    with pytest.raises(pt.BranchSeparationError):
        pt.extract_coefficients(KAPPA123, node_spacing=0.25)


def test_fit_residual_guard(monkeypatch):
    rough = pt.DiffusivityProfile1D((0.2, 5.0, 0.3, 4.0, 0.25, 4.5, 0.21, 3.9))
    with pytest.raises(pt.FitResidualError):
        pt.extract_coefficients(rough)
    # K2 and K4 fit cleanly at this scale, but beta ~ min(values) / d^2 overflows
    huge = pt.DiffusivityProfile1D((1e150, 2e150))
    assert np.isfinite(pt.extract_coefficients(huge, d=1.0).beta)
    with pytest.raises(pt.FitResidualError, match="beta"):
        pt.extract_coefficients(huge, d=1e-100)
    # NaN compares false with every tolerance, so it must not slip through
    from patchtooth import homogenize

    monkeypatch.setattr(homogenize, "_slow_value", lambda profile, k, gap0: float("nan"))
    with pytest.raises(pt.FitResidualError, match="not all finite"):
        pt.extract_coefficients(KAPPA123)


@pytest.mark.parametrize("node_count", [0, 1, 4])
def test_fewer_fit_nodes_than_fitted_powers_raise(node_count):
    with pytest.raises(ValueError, match="fewer fit nodes than fitted powers"):
        pt.extract_coefficients(KAPPA123, node_count=node_count)


def test_predicted_macroscale_eigenvalues():
    coeffs = pt.HomogenisedCoefficients(K2=2.0, K4=0.5, beta=1.0, d=0.1, fit_residual=0.0)
    got = pt.predict_macroscale_eigenvalues(coeffs, [1.0, 2.0])
    want = [-2.0 + 0.5 * 0.01, -8.0 + 0.5 * 0.01 * 16.0]
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_slow_branch_agrees_with_the_quartic_model_at_small_k():
    coeffs = pt.extract_coefficients(KAPPA123)
    for k in (0.01, 0.02, 0.05):
        model = -coeffs.K2 * k**2 + coeffs.K4 * k**4
        assert pt.slow_branch(KAPPA123, k) == pytest.approx(model, abs=5 * k**6)
