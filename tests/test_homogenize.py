"""Fourier symbol, slow branch, homogenised coefficient extraction.

Frozen rationals: the period-3 profile (1, 2, 3) has harmonic mean 18/11,
and its fourth-order correction works out to 675/2662.  A constant profile
c has K2 = c and K4 = c/12.  Elsewhere K4 is checked against the 60-digit
oracles.quartic_coefficient.  The series loses digits with the contrast
max/min of the diffusivities: on lognormal profiles of periods 1-20, sigma
up to 12 and seeds 0-19 its relative error stayed below 1e-12 and below
eps * contrast, whichever is larger.  It reads 6.1e-14 at most on the scan of
test_the_series_matches_the_oracle_on_a_lognormal_scan, 8.7e-13 at a
contrast of 1.8e4 (period 2, sigma 2, seed 13) and 2.1e-9 at 9.7e7.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import quartic_coefficient

import patchtooth as pt
from patchtooth.homogenize import fourier_symbol, harmonic_mean_diffusivity

EPS = np.finfo(float).eps
KAPPA123 = pt.DiffusivityProfile1D((1.0, 2.0, 3.0))


def test_symbol_is_hermitian_and_nonpositive():
    prof = pt.DiffusivityProfile1D((3.965, 2.531, 0.838, 0.331, 7.275))
    for k in (0.0, 0.04, 0.31, -0.2):
        H = fourier_symbol(prof, k)
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
    assert abs(coeffs.K4 - 675 / 2662) <= 4 * EPS * (675 / 2662)
    assert harmonic_mean_diffusivity(KAPPA123) == pytest.approx(18 / 11, rel=1e-15)


def test_constant_profile_coefficients():
    for c in (1e-3, 0.3, 1.0, 2.5, 7.0, 1e4):
        for period in (1, 2, 5):
            coeffs = pt.extract_coefficients(pt.DiffusivityProfile1D((c,) * period))
            assert coeffs.K2 == pytest.approx(c, rel=1e-12)
            assert abs(coeffs.K4 - c / 12) <= 4 * EPS * (c / 12), (c, period)


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
    branches = np.sort(np.abs(np.linalg.eigvalsh(fourier_symbol(prof, 0.0))))
    assert branches[1] >= beta * (1 - 1e-12)


def test_two_phases_escape_the_beta_floor():
    prof = pt.DiffusivityProfile1D((1.0, 1.0))
    coeffs = pt.extract_coefficients(prof)
    branches = np.sort(np.abs(np.linalg.eigvalsh(fourier_symbol(prof, 0.0))))
    assert branches[1] == pytest.approx(4.0, rel=1e-12)
    assert branches[1] < coeffs.beta


def test_branch_separation_guard():
    prof = pt.DiffusivityProfile1D((1.0, 1.0))
    with pytest.raises(pt.BranchSeparationError):
        pt.slow_branch(prof, np.pi / 2)


def test_a_beta_that_overflows_raises():
    # K2 and K4 are clean at this scale, but beta ~ min(values) / d^2 overflows
    huge = pt.DiffusivityProfile1D((1e150, 2e150))
    assert np.isfinite(pt.extract_coefficients(huge, d=1.0).beta)
    with pytest.raises(ValueError, match="beta"):
        pt.extract_coefficients(huge, d=1e-100)


@pytest.mark.parametrize("d", [0.0, -0.5])
def test_extract_coefficients_refuses_a_spacing_that_is_not_positive(d):
    with pytest.raises(ValueError, match="lattice spacing must be positive"):
        pt.extract_coefficients(KAPPA123, d=d)


def test_a_contrast_beyond_round_off_fails_the_k2_check():
    """At a contrast of 1e16 the series' k^2 coefficient reads 0.29 relative
    off the harmonic mean, so no K4 is given."""
    with pytest.raises(ValueError, match="disagrees with the harmonic mean"):
        pt.extract_coefficients(pt.DiffusivityProfile1D((1e-8, 1.0, 1e8)))


def test_the_series_matches_the_oracle_on_a_lognormal_scan():
    """The scan holds p = 8, sigma = 1, seed 0, and the rough profile joins it:
    a least-squares fit of the sampled slow branch resolved K4 for neither."""
    rough = pt.DiffusivityProfile1D((0.2, 5.0, 0.3, 4.0, 0.25, 4.5, 0.21, 3.9))
    profiles = [rough] + [
        pt.random_lognormal_profile(p, sigma, seed)
        for p in (1, 2, 3, 5, 8) for sigma in (0.5, 1.0, 2.0) for seed in range(3)
    ]
    for profile in profiles:
        coeffs = pt.extract_coefficients(profile)
        assert coeffs.K2 == harmonic_mean_diffusivity(profile)
        want = quartic_coefficient(profile.values)
        assert coeffs.K4 == pytest.approx(want, rel=1e-12), profile.values


@given(p=st.integers(1, 8), sigma=st.floats(0.0, 2.0), seed=st.integers(0, 2**16))
@settings(max_examples=40)
def test_the_series_matches_an_extended_precision_oracle(p, sigma, seed):
    profile = pt.random_lognormal_profile(p, sigma, seed)
    contrast = float(np.max(profile.values) / np.min(profile.values))
    want = quartic_coefficient(profile.values)
    got = pt.extract_coefficients(profile).K4
    assert got == pytest.approx(want, rel=max(1e-12, EPS * contrast))


def test_predicted_macroscale_eigenvalues():
    coeffs = pt.HomogenisedCoefficients(K2=2.0, K4=0.5, beta=1.0, d=0.1)
    got = pt.predict_macroscale_eigenvalues(coeffs, [1.0, 2.0])
    want = [-2.0 + 0.5 * 0.01, -8.0 + 0.5 * 0.01 * 16.0]
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_slow_branch_agrees_with_the_quartic_model_at_small_k():
    coeffs = pt.extract_coefficients(KAPPA123)
    for k in (0.01, 0.02, 0.05):
        model = -coeffs.K2 * k**2 + coeffs.K4 * k**4
        assert pt.slow_branch(KAPPA123, k) == pytest.approx(model, abs=5 * k**6)
