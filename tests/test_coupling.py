"""Inter-patch interpolation weights.

Two independent oracles pin the weight generators down:

* spectral weights equal the periodic sinc (Dirichlet kernel) evaluated at
  u = r - m, with the even-N variant carrying the Nyquist cosine correction
  folded into a cotangent,
* Lagrangian weights of order P equal the degree-2P polynomial that
  interpolates the 2P+1 neighbouring samples, built here with
  scipy.interpolate.lagrange.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import lagrange

import patchtooth as pt


def periodic_sinc(N, u):
    if abs(u - round(u)) < 1e-12:
        return 1.0 if round(u) % N == 0 else 0.0
    if N % 2 == 1:
        return math.sin(math.pi * u) / (N * math.sin(math.pi * u / N))
    return math.sin(math.pi * u) * math.cos(math.pi * u / N) / (
        N * math.sin(math.pi * u / N)
    )


@pytest.mark.parametrize("N", [3, 4, 5, 6, 9, 12])
@pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 0.85])
def test_spectral_weights_match_dirichlet_kernel(N, r):
    w = pt.spectral_weights(N, r)
    want = np.array([periodic_sinc(N, r - m) for m in range(N)])
    np.testing.assert_allclose(w.w_right, want, rtol=0, atol=1e-12)


def test_spectral_left_weights_are_the_exact_mirror():
    for N in (3, 4, 7, 10):
        w = pt.spectral_weights(N, 0.3)
        m = np.arange(N)
        np.testing.assert_array_equal(w.w_left, w.w_right[(-m) % N])


def test_spectral_weights_known_values():
    # N = 3, r = 1/2 evaluates to (2/3, 2/3, -1/3) in closed form
    w = pt.spectral_weights(3, 0.5)
    np.testing.assert_allclose(w.w_right, [2 / 3, 2 / 3, -1 / 3], rtol=0, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(N=st.integers(3, 14), r=st.floats(0.05, 0.95))
def test_weights_reproduce_constants(N, r):
    ws = pt.spectral_weights(N, r)
    assert np.sum(ws.w_right) == pytest.approx(1.0, abs=1e-12)
    assert np.sum(ws.w_left) == pytest.approx(1.0, abs=1e-12)
    P = min(3, (N - 1) // 2)
    if P >= 1:
        wl = pt.lagrangian_weights(N, r, P)
        assert np.sum(wl.w_right) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(wl.w_left) == pytest.approx(1.0, abs=1e-12)


def test_lagrangian_first_order_closed_form():
    r = 0.3
    w = pt.lagrangian_weights(5, r, 1)
    # offsets 0, +1, -1 carry 1 - r^2, r(r+1)/2 and r(r-1)/2
    assert w.w_right[0] == pytest.approx(1 - r**2, abs=1e-15)
    assert w.w_right[1] == pytest.approx(r * (r + 1) / 2, abs=1e-15)
    assert w.w_right[4] == pytest.approx(r * (r - 1) / 2, abs=1e-15)
    np.testing.assert_allclose(w.w_right[2:4], 0.0, atol=0)


@pytest.mark.parametrize("P", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("r", [0.1, 0.45, 0.8])
def test_lagrangian_weights_match_polynomial_interpolation(P, r):
    N = 2 * P + 3
    w = pt.lagrangian_weights(N, r, P)
    nodes = np.arange(-P, P + 1)
    for j, node in enumerate(nodes):
        basis = np.zeros(nodes.size)
        basis[j] = 1.0
        want = lagrange(nodes, basis)(r)
        assert w.w_right[node % N] == pytest.approx(want, abs=1e-11)
    # offsets beyond the stencil stay zero
    for m in range(P + 1, N - P):
        assert w.w_right[m] == 0.0


def test_lagrangian_left_weights_mirror_right():
    for P in (1, 2, 4):
        w = pt.lagrangian_weights(11, 0.37, P)
        m = np.arange(11)
        np.testing.assert_array_equal(w.w_left, w.w_right[(-m) % 11])


def test_full_size_patches_truncate_to_a_shift():
    # at r = 1 the product coefficients vanish beyond the first term, so any
    # order reduces to "copy the neighbouring patch value"
    for P in (1, 2, 4):
        w = pt.lagrangian_weights(9, 1.0, P)
        want = np.zeros(9)
        want[1] = 1.0
        np.testing.assert_array_equal(w.w_right, want)


def test_lagrangian_stencil_must_fit():
    with pytest.raises(ValueError):
        pt.lagrangian_weights(5, 0.3, 3)  # needs 2P+1 = 7 patches


def test_coupling_spec_validation():
    with pytest.raises(ValueError):
        pt.CouplingSpec("fourier")
    with pytest.raises(ValueError):
        pt.CouplingSpec("spectral", order=2)
    with pytest.raises(ValueError):
        pt.CouplingSpec("lagrangian")
    with pytest.raises(ValueError):
        pt.CouplingSpec("lagrangian", order=0)
    spec = pt.CouplingSpec("lagrangian", order=3)
    assert spec.order == 3


def test_weights_for_dispatches_on_scheme():
    ws = pt.weights_for(pt.CouplingSpec("spectral"), 7, 0.3)
    np.testing.assert_array_equal(ws.w_right, pt.spectral_weights(7, 0.3).w_right)
    wl = pt.weights_for(pt.CouplingSpec("lagrangian", 2), 7, 0.3)
    np.testing.assert_array_equal(wl.w_right, pt.lagrangian_weights(7, 0.3, 2).w_right)
