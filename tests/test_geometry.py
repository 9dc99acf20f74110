"""Patch grid bookkeeping: derived spacings, positions, compatibility."""

import numpy as np
import pytest

import patchtooth as pt


def test_grid_derived_quantities():
    g = pt.build_grid_1d(2 * np.pi, 9, 5, 0.3)
    assert g.H == pytest.approx(2 * np.pi / 9)
    assert g.h == pytest.approx(0.3 * g.H)
    assert g.d == pytest.approx(g.h / 5)
    assert g.center(0) == pytest.approx(g.H)


def test_positions_are_centered_and_evenly_spaced():
    g = pt.build_grid_1d(10.0, 4, 5, 0.5)
    x = g.positions(2)
    assert x.size == 5
    np.testing.assert_allclose(np.diff(x), g.d)
    # interior points sit symmetrically about the patch centre
    assert np.mean(x) == pytest.approx(g.center(2))


def test_grid_validation():
    with pytest.raises(ValueError):
        pt.build_grid_1d(-1.0, 4, 5, 0.5)
    with pytest.raises(ValueError):
        pt.build_grid_1d(1.0, 0, 5, 0.5)
    with pytest.raises(ValueError):
        pt.build_grid_1d(1.0, 4, 0, 0.5)
    with pytest.raises(ValueError):
        pt.build_grid_1d(1.0, 4, 5, 0.0)
    with pytest.raises(ValueError):
        pt.build_grid_1d(1.0, 4, 5, 1.5)


def test_ratio_for_spacing_round_trip():
    L, N, n = 2 * np.pi, 20, 4
    g = pt.build_grid_1d(L, N, n, 0.1)
    r = pt.ratio_for_spacing(L, 40, n, g.d)
    g2 = pt.build_grid_1d(L, 40, n, r)
    assert g2.d == pytest.approx(g.d, rel=1e-14)
    # a spacing that fills the whole domain maps to r = 1 exactly
    assert pt.ratio_for_spacing(L, N, n, L / (N * n)) == 1.0
    with pytest.raises(ValueError):
        pt.ratio_for_spacing(L, N, n, L)  # patches would overlap


def test_compatibility_single_phase_needs_divisibility():
    prof = pt.DiffusivityProfile1D((1.0, 2.0, 3.0))
    g = pt.build_grid_1d(2 * np.pi, 6, 4, 0.3)
    issues = pt.validate_compatibility(g, prof)
    assert any(sev == "error" for sev, _ in issues)
    # the ensemble scheme lifts the requirement
    assert not any(sev == "error" for sev, _ in pt.validate_compatibility(g, prof, ensemble=True))
    g_ok = pt.build_grid_1d(2 * np.pi, 6, 6, 0.3)
    assert not any(sev == "error" for sev, _ in pt.validate_compatibility(g_ok, prof))


def test_compatibility_warns_on_gap_misalignment():
    prof = pt.DiffusivityProfile1D((1.0, 2.0))
    # H / d = n / r = 20: an integer multiple of p = 2, no warning
    g_aligned = pt.build_grid_1d(2 * np.pi, 5, 4, 0.2)
    assert pt.validate_compatibility(g_aligned, prof) == []
    # H / d = 4 / 0.3: not an integer at all
    g_skew = pt.build_grid_1d(2 * np.pi, 5, 4, 0.3)
    issues = pt.validate_compatibility(g_skew, prof)
    assert issues and all(sev == "warning" for sev, _ in issues)


def test_grid_2d_wraps_both_axes():
    g = pt.build_grid_2d(2 * np.pi, 5, 2, 0.1, 4.0, 3, 4, 0.5)
    assert g.x.N == 5 and g.y.N == 3
    assert g.x.d == pytest.approx(0.1 * (2 * np.pi / 5) / 2)
    assert g.y.d == pytest.approx(0.5 * (4.0 / 3) / 4)
    prof = pt.DiffusivityProfile2D([[1.0, 2.0]], [[1.0, 1.5]])  # periods (1, 2)
    issues = pt.validate_compatibility_2d(g, prof)
    assert not any(sev == "error" for sev, _ in issues)
    prof_bad = pt.DiffusivityProfile2D([[1.0], [2.0], [3.0]], [[1.0], [1.0], [1.0]])
    issues_bad = pt.validate_compatibility_2d(g, prof_bad)
    assert any(sev == "error" for sev, _ in issues_bad)
