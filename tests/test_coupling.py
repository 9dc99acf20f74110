"""Inter-patch interpolation weights.

Two independent oracles pin the weight generators down:

* spectral weights equal their definition, the N-term exponential sums with
  the Nyquist term of even N halved into a cosine, and the exact one-hot
  shift at r = 1,
* Lagrangian weights of order P equal the degree-2P polynomial that
  interpolates the 2P+1 neighbouring samples, built here with
  scipy.interpolate.lagrange.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import lagrange

import patchtooth as pt
from patchtooth.coupling import lagrangian_weights, spectral_weights


def exponential_sum_weights(N, r):
    """w[m] = (1/N) sum_k exp(2 pi i k (r - m) / N) over the centred k, the
    Nyquist term of even N halved into a cosine (oracle: the definition)."""
    m = np.arange(N)[:, None]
    ks = np.arange(-(N // 2), N // 2 + 1) if N % 2 else np.arange(-(N // 2) + 1, N // 2)
    w = np.exp(2j * np.pi * (r - m) * ks / N).sum(axis=1).real / N
    return w if N % 2 else w + np.cos(np.pi * (r - m[:, 0])) / N


@pytest.mark.parametrize("N", [*range(1, 40), 100, 101, 1024, 1025])
@pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 0.85, 1 - 1e-6, 1.0])
def test_spectral_weights_match_dirichlet_kernel(N, r):
    """The closed form agrees with the exponential sums within their own
    round-off, a few N eps.  At r = 1 it is the exact one-hot shift, which
    the sums miss by up to 2.3e-14 at N = 1025."""
    w = spectral_weights(N, r)
    if r == 1.0:
        np.testing.assert_array_equal(w, np.eye(N)[1 % N])
    else:
        np.testing.assert_allclose(w, exponential_sum_weights(N, r), rtol=0, atol=4 * N * 2.3e-16)


def test_spectral_weights_take_linear_memory():
    """N = 10^4 patches within 1 MB of traced allocations (0.53 MB measured;
    the N x N exponential sums needed about 3 GB)."""
    tracemalloc.start()
    try:
        weights = spectral_weights(10**4, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert weights.shape == (10**4,)
    assert peak < 2**20, f"{peak / 2**20:.2f} MB"


def test_spectral_weights_known_values():
    # N = 3, r = 1/2 evaluates to (2/3, 2/3, -1/3) in closed form
    w = spectral_weights(3, 0.5)
    np.testing.assert_allclose(w, [2 / 3, 2 / 3, -1 / 3], rtol=0, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(N=st.integers(3, 14), r=st.floats(0.05, 0.95))
def test_weights_reproduce_constants(N, r):
    ws = spectral_weights(N, r)
    assert np.sum(ws) == pytest.approx(1.0, abs=1e-12)
    P = min(3, (N - 1) // 2)
    if P >= 1:
        wl = lagrangian_weights(N, r, P)
        assert np.sum(wl) == pytest.approx(1.0, abs=1e-12)


def test_lagrangian_first_order_closed_form():
    r = 0.3
    w = lagrangian_weights(5, r, 1)
    # offsets 0, +1, -1 carry 1 - r^2, r(r+1)/2 and r(r-1)/2
    assert w[0] == pytest.approx(1 - r**2, abs=1e-15)
    assert w[1] == pytest.approx(r * (r + 1) / 2, abs=1e-15)
    assert w[4] == pytest.approx(r * (r - 1) / 2, abs=1e-15)
    np.testing.assert_allclose(w[2:4], 0.0, atol=0)


@pytest.mark.parametrize("P", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("r", [0.1, 0.45, 0.8])
def test_lagrangian_weights_match_polynomial_interpolation(P, r):
    N = 2 * P + 3
    w = lagrangian_weights(N, r, P)
    nodes = np.arange(-P, P + 1)
    for j, node in enumerate(nodes):
        basis = np.zeros(nodes.size)
        basis[j] = 1.0
        want = lagrange(nodes, basis)(r)
        assert w[node % N] == pytest.approx(want, abs=1e-11)
    # offsets beyond the stencil stay zero
    for m in range(P + 1, N - P):
        assert w[m] == 0.0


def test_full_size_patches_truncate_to_a_shift():
    # at r = 1 the product coefficients vanish beyond the first term, so any
    # order reduces to "copy the neighbouring patch value"
    for P in (1, 2, 4):
        w = lagrangian_weights(9, 1.0, P)
        want = np.zeros(9)
        want[1] = 1.0
        np.testing.assert_array_equal(w, want)


def test_lagrangian_stencil_must_fit():
    with pytest.raises(ValueError):
        lagrangian_weights(5, 0.3, 3)  # needs 2P+1 = 7 patches
    with pytest.raises(ValueError, match="order P must be at least 1"):
        lagrangian_weights(5, 0.3, 0)


@pytest.mark.parametrize("weights", [spectral_weights, lambda N, r: lagrangian_weights(N, r, 1)],
                         ids=["spectral", "lagrangian"])
def test_the_weights_refuse_no_patches_and_a_ratio_outside_the_unit_interval(weights):
    with pytest.raises(ValueError, match="need at least one patch"):
        weights(0, 0.3)
    for r in (0.0, -0.2, 1.5, float("nan")):
        with pytest.raises(ValueError, match=rf"size ratio r = {r} outside \(0, 1\]"):
            weights(5, r)


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
    np.testing.assert_array_equal(ws, spectral_weights(7, 0.3))
    wl = pt.weights_for(pt.CouplingSpec("lagrangian", 2), 7, 0.3)
    np.testing.assert_array_equal(wl, lagrangian_weights(7, 0.3, 2))
