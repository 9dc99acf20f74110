"""Patch operator assembly: hand-checked rows, structure, reductions."""

import itertools
import math
from dataclasses import astuple, replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_spectra import symmetric_reports, wavenumber_labels

import patchtooth as pt
from patchtooth import assembly, spectra
from patchtooth.assembly import (
    AssembledOperator,
    Layout,
    _assemble_patches,
    _patch_sum,
    _stencil,
)
from patchtooth.coupling import spectral_weights

L = 2 * np.pi


def test_rfftn_computes_in_long_double():
    """The Bloch blocks and RK4 step matrices are summed in extended precision,
    which needs an FFT that keeps np.longdouble (NumPy >= 2.0; 1.x casts to
    complex128)."""
    out = np.fft.rfftn(np.ones((4, 3), dtype=np.longdouble))
    assert out.dtype == np.result_type(np.longdouble, 1j)


def test_hand_assembled_rows_first_order():
    """N = 3 patches of n = 2 points, constant kappa, r = 1/2, order 1.

    With weights w_right = (3/4, 3/8, -1/8) and w_left its mirror, the two
    rows of patch 0 can be written out by hand.
    """
    grid = pt.build_grid_1d(L, 3, 2, 0.5)
    prof = pt.DiffusivityProfile1D((1.0,))
    op = pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("lagrangian", 1))
    inv_d2 = 1.0 / grid.d**2
    want0 = np.array([-2.0, 1.75, 0.0, -0.125, 0.0, 0.375]) * inv_d2
    want1 = np.array([1.75, -2.0, 0.375, 0.0, -0.125, 0.0]) * inv_d2
    np.testing.assert_allclose(op.matrix[0], want0, rtol=1e-14)
    np.testing.assert_allclose(op.matrix[1], want1, rtol=1e-14)
    assert op.dimension == 6


def _sized(coupling, N):
    """The coupling itself, or a Lagrangian order that fits N patches (None if none does)."""
    if coupling.scheme == "spectral":
        return coupling
    order = min(coupling.order, (N - 1) // 2)
    return pt.CouplingSpec("lagrangian", order) if order >= 1 else None


@pytest.mark.parametrize(
    "coupling",
    [pt.CouplingSpec("spectral"), pt.CouplingSpec("lagrangian", 2)],
)
def test_assembled_operator_is_exactly_symmetric(coupling):
    """Every compatible operator down to N = 1, n = 1 is bitwise symmetric."""
    for N, n, p, ens in itertools.product(range(1, 7), range(1, 7), range(1, 5), (False, True)):
        sized = _sized(coupling, N)
        if sized is None:
            continue
        grid = pt.build_grid_1d(L, N, n, 0.3)
        prof = pt.random_lognormal_profile(p, 0.8, 10 * p + n)
        if not ens and n % p:
            with pytest.raises(ValueError):
                pt.assemble_patch_1d(grid, prof, sized)
            continue
        report = pt.symmetry_defect(pt.assemble_patch_1d(grid, prof, sized, ensemble=ens))
        assert report.defect == 0.0, (N, n, p, ens)
        assert report.relative == 0.0


@st.composite
def stencil_inputs(draw, size=st.integers(1, 5)):
    """A stencil batch of 1-5 operators that share n per axis, the periods and
    the ensemble flag.  Each has its own N (1-7), spacing d, bonds and
    right-edge weights of neither coupling family (zeros included), and
    bonds that every gap sees on both sides: periods that divide n, or an
    ensemble."""
    dims, ensemble = draw(st.integers(1, 2)), draw(st.booleans())
    n = [draw(st.integers(1, 6)) for _ in range(dims)]
    periods = [draw(st.integers(1, 4) if ensemble
                    else st.sampled_from([p for p in range(1, m + 1) if m % p == 0]))
               for m in n]
    weight, bond = st.one_of(st.just(0.0), st.floats(-4.0, 4.0)), st.floats(0.01, 100.0)
    count = int(np.prod(periods))
    batch = []
    for _ in range(draw(size)):
        axes = []
        for m in n:
            N = draw(st.integers(1, 7))
            w_right = np.array(draw(st.lists(weight, min_size=N, max_size=N)))
            axes.append((N, m, draw(st.floats(0.05, 2.0)), w_right))
        bonds = [np.array(draw(st.lists(bond, min_size=count, max_size=count))).reshape(periods)
                 for _ in range(dims)]
        batch.append((axes, bonds, ensemble))
    return batch


@settings(max_examples=300)
@given(stencil_inputs(size=st.just(1)))
def test_any_right_edge_weights_give_an_exactly_symmetric_operator(batch):
    """_stencil mirrors the right-edge weights into the left edge, so the
    operator is bitwise symmetric whatever the weights, not only for the two
    coupling families: 1D and 2D, N 1-7, n 1-6, single phase or ensemble."""
    [(shape, entries)] = _stencil(batch)
    op = AssembledOperator(Layout(shape, patch_axes=len(batch[0][0])), *entries)
    assert pt.symmetry_defect(op).defect == 0.0


@settings(max_examples=200)
@given(stencil_inputs())
def test_a_stencil_batch_gives_each_operator_bitwise(batch):
    """A batch of operators gives each one the shape and the four arrays of
    its batch of one, dtypes included."""
    together = _stencil(batch)
    assert len(together) == len(batch)
    for (shape, entries), operator in zip(together, batch):
        [(alone_shape, alone)] = _stencil([operator])
        assert shape == alone_shape
        for got, want in zip(entries, alone):
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@given(stencil_inputs(), st.sampled_from(["n", "periods", "ensemble"]))
def test_a_stencil_batch_must_share_n_periods_and_the_ensemble_flag(batch, part):
    """Operators of other n, periods or ensemble flag in one batch are a
    programming error: a TypeError, which the CLI reports with exit 3."""
    axes, bonds, ensemble = batch[-1]
    if part == "n":
        axes = [(N, n + 1, d, w) for N, n, d, w in axes]
    elif part == "periods":
        bonds = [np.ones((*field.shape, 2)) for field in bonds]
    else:
        ensemble = not ensemble
    with pytest.raises(TypeError):
        _stencil([*batch, (axes, bonds, ensemble)])


def batch_operators(batch):
    """The operators of a stencil batch, each with its own layout (g member
    orbits of an ensemble included) and a profile of its bonds and periods;
    without a grid, an operator's axis lengths are its points per axis, so
    2D lengths differ unless N_x n_x = N_y n_y."""
    operators = []
    for shape, entries in _stencil(batch):
        axes, bonds, ensemble = batch[len(operators)]
        periods = bonds[0].shape
        slow = math.prod(math.gcd(p, ax[1]) for p, ax in zip(periods, axes)) if ensemble else 1
        layout = Layout(shape, patch_axes=len(axes), ensemble=ensemble, slow=slow,
                        n_macro=slow * math.prod(ax[0] for ax in axes))
        profile = SimpleNamespace(bonds=bonds, periods=periods)
        operators.append(AssembledOperator(layout, *entries, profile=profile))
    return operators


def wave_of(op, epsilon=0.02):
    """[[0, I], [A, eps A]] of an operator A, stored as assemble_wave stores a wave."""
    b = assembly._blocking(op.layout)[1]
    u = np.arange(b)
    layout = replace(op.layout, half=op.dimension, n_macro=2 * op.layout.n_macro)
    return AssembledOperator(
        layout, np.concatenate([u, op.rows + b, op.rows + b]),
        np.concatenate([np.zeros(b, dtype=np.intp), op.offsets, op.offsets]),
        np.concatenate([u + b, op.cols, op.cols + b]),
        np.concatenate([np.ones(b), op.values, epsilon * op.values]), profile=op.profile,
    )


def bitwise(got, want):
    """Equal dtype, shape and bits; a float by value and sign, since the
    padding bytes of a long double are arbitrary."""
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype.kind not in "fc":
        assert got.tobytes() == want.tobytes()
    for a, b in ((got.real, want.real), (got.imag, want.imag)) if got.dtype.kind in "fc" else ():
        assert np.array_equal(a, b, equal_nan=True)
        assert np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=150, deadline=None)
@given(stencil_inputs(), st.data())
def test_a_batch_gives_each_operator_what_it_gets_alone(batch, data):
    """Every per-operator step of the symmetric solves, taken for a batch of
    1-5 operators in one pass, gives each operator the bits it gets alone:
    the symmetry defect and scale, the Bloch entries of its whole half
    spectrum or of drawn columns (wave operators too, read densely through
    _bloch_batches), the wavenumber labels and mirror counts of its grid
    (the float |k|^2 key on unequal 2D lengths), and the error rows of
    whole spectra paired in the batch, g > 1 member orbits included, which
    equal error_table of the reports."""
    ops = batch_operators(batch)
    ops += [wave_of(op) for op in data.draw(st.lists(st.sampled_from(ops), max_size=2))]
    layouts = [assembly._patch_layout(op) for op in ops]
    for got, op in zip(assembly._symmetry_defects(ops), ops):
        want = pt.symmetry_defect(op)
        assert [float.hex(x) for x in astuple(got)] == [float.hex(x) for x in astuple(want)]

    def columns(layout):
        patches = layout.shape[1 : 1 + layout.patch_axes]
        half = math.prod(patches[:-1]) * (patches[-1] // 2 + 1)
        return st.none() | st.lists(st.integers(0, half - 1), max_size=4)

    selects = [data.draw(columns(layout)) for layout in layouts]
    together = assembly._bloch_entry_batch(ops, selects)
    for (pairs, entries), op, layout, select in zip(together, ops, layouts, selects):
        [(alone_pairs, alone)] = assembly._bloch_entry_batch([op], [select])
        bitwise(pairs, alone_pairs)
        bitwise(entries, alone)
        if op.layout.half is not None and select is None:
            b = assembly._blocking(layout)[1]
            dense = np.zeros((len(entries), b * b), dtype=entries.dtype)
            dense.imag = -0.0
            dense[:, pairs] = entries
            bitwise(np.concatenate(list(assembly._bloch_batches(op))),
                    dense.reshape(-1, b, b))

    grids = [(layout.shape[1 : 1 + layout.patch_axes], spectra._axis_lengths(op)[0])
             for op, layout in zip(ops, layouts)]
    for (labels, counts), grid, op, layout in zip(spectra._grid_labels(grids), grids, ops, layouts):
        [(alone_labels, alone_counts)] = spectra._grid_labels([grid])
        bitwise(labels, alone_labels)
        bitwise(counts, alone_counts)
        bitwise(labels, wavenumber_labels(op))
        bitwise(counts, assembly._mirror_counts(layout))

    diffusion = ops[: len(batch)]
    solves = spectra._symmetric_solves(diffusion)
    count = min(int(labels.max(initial=0)) for _, labels, *_ in solves)
    assume(count >= 1)
    pairs = [(solves[i], solves[(i + 1) % len(solves)]) for i in range(len(solves))]
    rows = [(w, ranks, labels, counts) for pair in pairs for _, labels, counts, _, w, ranks in pair]
    reports = symmetric_reports(diffusion)
    with np.errstate(divide="ignore", invalid="ignore"):
        together = spectra._error_rows(rows, count)
        for p, i in enumerate(range(len(solves))):
            alone = spectra._error_rows(rows[2 * p : 2 * p + 2], count)
            table = pt.error_table(reports[i], reports[(i + 1) % len(solves)], count)
            for part, one, name in zip(together, alone, ("test_values", "reference_values",
                                                        "relative_errors")):
                bitwise(part[p], one[0])
                bitwise(part[p], getattr(table, name))


def test_a_sorted_first_block_row_is_kept_and_an_unsorted_one_sorted_stably():
    """_stencil hands AssembledOperator its entries sorted by key, and they
    are kept as given, the same arrays; entries in any other order are
    sorted stably, to the bits of the sorted ones."""
    grid = pt.build_grid_1d(L, 5, 3, 0.3)
    op = pt.assemble_patch_1d(grid, pt.random_lognormal_profile(3, 0.5, 0), pt.CouplingSpec("spectral"))
    parts = (op.rows, op.offsets, op.cols, op.values)
    kept = AssembledOperator(op.layout, *parts)
    assert all(got is want for got, want in zip(
        (kept.rows, kept.offsets, kept.cols, kept.values), parts))
    shuffle = np.random.default_rng(0).permutation(op.values.size)
    for order in (shuffle, np.arange(op.values.size)[::-1]):
        mixed = AssembledOperator(op.layout, *(part[order] for part in parts))
        for got, want in zip((mixed.rows, mixed.offsets, mixed.cols, mixed.values), parts):
            bitwise(got, want)
    # equal keys keep their given order
    twice = AssembledOperator(op.layout, *(np.concatenate([part[::-1], part]) for part in parts))
    assert np.all(np.diff(twice._keys()) >= 0)
    bitwise(twice.values[::2], op.values[::-1][np.argsort(op._keys()[::-1], kind="stable")])


def test_a_batch_whose_keys_pass_intp_is_assembled_in_parts(monkeypatch):
    """Each operator of 1D, n = 2, N = 3 holds keys below 2^2 * 3 = 12, so a
    limit of 30 splits a batch of three into parts of one and two, and the
    operators are those of one batch; a limit of 10 refuses one operator."""
    batch = [([(3, 2, 0.5, np.array([0.5, 0.25, 0.25]))], [np.array([1.0, 2.0])], False)] * 3
    whole = _stencil(batch)
    monkeypatch.setattr(assembly, "_KEY_LIMIT", 30)
    calls = []
    stencil = assembly._stencil

    def counted(batch):
        calls.append(len(batch))
        return stencil(batch)

    monkeypatch.setattr(assembly, "_stencil", counted)
    parts = assembly._stencil(batch)
    assert calls == [3, 1, 2]
    for (shape, entries), (want_shape, want) in zip(parts, whole):
        assert shape == want_shape
        for got, expected in zip(entries, want):
            assert got.tobytes() == expected.tobytes()
    monkeypatch.setattr(assembly, "_KEY_LIMIT", 10)
    with pytest.raises(ValueError, match="do not fit in an array index"):
        assembly._stencil(batch[:1])


def test_a_symmetry_batch_whose_keys_pass_intp_is_measured_in_parts(monkeypatch):
    """A limit at the largest key range of one operator, below the sum of
    the batch's, splits a batch of five into halves until each part fits,
    and each report is symmetry_defect of its operator alone, bit for bit:
    symmetric and asymmetric operators, a wave and a 2D ensemble."""
    prof = pt.DiffusivityProfile1D((1.0, 2.0, 3.0))
    spectral = pt.CouplingSpec("spectral")
    symmetric = pt.assemble_patch_1d(pt.build_grid_1d(L, 5, 3, 0.3), prof, spectral)
    asymmetric = pt.assemble_patch_1d(pt.build_grid_1d(L, 6, 4, 0.3), prof,
                                      pt.CouplingSpec("lagrangian", 2), allow_incompatible=True)
    ensemble = pt.assemble_patch_2d(pt.build_grid_2d(L, 3, 2, 0.3, L, 4, 2, 0.3),
                                    pt.random_lognormal_profile_2d(2, 1, 0.5, 3), spectral,
                                    ensemble=True)
    ops = [asymmetric, symmetric, pt.assemble_wave(symmetric), ensemble, asymmetric]
    want = [pt.symmetry_defect(op) for op in ops]
    assert want[0].defect > 0 and want[1].defect == 0
    ranges = []
    for op in ops:
        patches, b, _ = assembly._blocking(assembly._patch_layout(op))
        ranges.append(b * b * math.prod(patches))
    monkeypatch.setattr(assembly, "_KEY_LIMIT", max(ranges))
    calls = []
    measure = assembly._symmetry_defects

    def counted(ops):
        calls.append(len(ops))
        return measure(ops)

    monkeypatch.setattr(assembly, "_symmetry_defects", counted)
    got = assembly._symmetry_defects(ops)
    # 96 + 45 fits; 180 + 768 + 96 is split down to single operators
    assert calls == [5, 2, 3, 1, 2, 1, 1]
    for report, alone in zip(got, want, strict=True):
        assert [float.hex(x) for x in astuple(report)] == [float.hex(x) for x in astuple(alone)]


@pytest.mark.parametrize("batch, shapes", [
    (lambda: assembly._stencil([]), []),
    (lambda: assembly._assemble_patches([], pt.DiffusivityProfile1D((1.0, 2.0))), []),
    (lambda: assembly._symmetry_defects([]), []),
    (lambda: assembly._bloch_entry_batch([], []), []),
    (lambda: spectra._grid_labels([]), []),
    (lambda: spectra._symmetric_solves([]), []),
    (lambda: spectra._symmetric_solves([], modes=2), []),
    (lambda: spectra._error_rows([], 3), [(0, 3)] * 3),
], ids=["stencil", "assemble_patches", "symmetry_defects", "bloch_entry_batch", "grid_labels",
        "symmetric_solves", "symmetric_solves-modes", "error_rows"])
def test_a_batch_routine_gives_an_empty_list_an_empty_result(batch, shapes):
    """Each batch routine takes an empty list: one result per item, none;
    _error_rows gives its three tables with no rows."""
    assert [np.shape(part) for part in batch()] == shapes


def _loop_operator(grid, profile, coupling, ensemble):
    """Row-by-row reference assembly.

    Each row adds its diagonal, then its right and left neighbours along x,
    then along y; an edge neighbour is summed over the patch offsets m.
    """
    two_d = isinstance(grid, pt.PatchGrid2D)
    axes = [grid.x, grid.y] if two_d else [grid]
    bonds = [profile.kx, profile.ky] if two_d else [profile.values]
    dims = len(axes)
    periods = bonds[0].shape
    members = int(np.prod(periods)) if ensemble else 1
    shape = (members, *[g.N for g in axes[::-1]], *[g.n for g in axes[::-1]])
    weights = [pt.weights_for(coupling, g.N, g.r) for g in axes]
    inv_d2 = [1.0 / (g.d * g.d) for g in axes]
    matrix = np.zeros((int(np.prod(shape)),) * 2)

    def index(e, patch, i):  # x first, i 1-based
        return np.ravel_multi_index((e, *patch[::-1], *[v - 1 for v in i[::-1]]), shape)

    def moved(values, a, value):
        return [value if b == a else v for b, v in enumerate(values)]

    for e, *rest in np.ndindex(shape):
        patch, i = rest[:dims][::-1], [v + 1 for v in rest[dims:][::-1]]
        phase = np.unravel_index(e, periods) if ensemble else (0,) * dims
        row = index(e, patch, i)
        site = [i[b] + phase[b] for b in range(dims)]
        kr = [bonds[a][tuple(np.mod(site, periods))] * inv_d2[a] for a in range(dims)]
        kl = [bonds[a][tuple(np.mod(moved(site, a, site[a] - 1), periods))] * inv_d2[a]
              for a in range(dims)]
        matrix[row, row] -= sum(k for pair in zip(kr, kl) for k in pair)
        for a, g in enumerate(axes):
            mirror = weights[a][(-np.arange(g.N)) % g.N]  # w_left[m] = w_right[-m]
            for k, step, w, near, far in ((kr[a], 1, weights[a], g.n, 1),
                                          (kl[a], -1, mirror, 1, g.n)):
                if i[a] != near:
                    matrix[row, index(e, patch, moved(i, a, i[a] + step))] += k
                    continue
                te = e
                if ensemble:
                    te = np.ravel_multi_index(moved(phase, a, phase[a] + step * g.n), periods,
                                              mode="wrap")
                for m in range(g.N):
                    col = index(te, moved(patch, a, (patch[a] + m) % g.N), moved(i, a, far))
                    matrix[row, col] += k * w[m]
    return matrix


def test_stencil_matches_the_row_by_row_loop():
    """Bitwise agreement with the loop, compatible or not, 1D and 2D."""
    for n, p, ens in itertools.product((1, 3, 4), (1, 3), (False, True)):
        # the grids of every N and both couplings, assembled as one batch
        prof = pt.random_lognormal_profile(p, 0.8, n)
        lagrangian = pt.CouplingSpec("lagrangian", 2)
        points = [
            (pt.build_grid_1d(L, N, n, 0.3), coupling)
            for N in (1, 2, 5)
            for coupling in (pt.CouplingSpec("spectral"), _sized(lagrangian, N))
            if coupling is not None
        ]
        for op, (grid, coupling) in zip(_assemble_patches(points, prof, ens, True), points):
            np.testing.assert_array_equal(op.matrix, _loop_operator(grid, prof, coupling, ens))
    for (Nx, nx, Ny, ny), periods, ens in itertools.product(
        ((3, 2, 2, 1), (1, 3, 4, 2), (2, 1, 3, 1)), ((1, 1), (2, 3)), (False, True)
    ):
        grid = pt.build_grid_2d(L, Nx, nx, 0.4, 1.5 * L, Ny, ny, 0.3)
        prof = pt.random_lognormal_profile_2d(*periods, 0.6, nx)
        coupling = pt.CouplingSpec("spectral")
        op = pt.assemble_patch_2d(grid, prof, coupling, ensemble=ens, allow_incompatible=True)
        np.testing.assert_array_equal(op.matrix, _loop_operator(grid, prof, coupling, ens))


def _rolled_from_first_block_row(op):
    """The operator rebuilt from the rows of patch 0, rolled over patch offsets."""
    shape, k = op.layout.shape, op.layout.patch_axes
    first = op.matrix.reshape(shape + shape)[(slice(None),) + (0,) * k]
    # axes of `first`: member, local..., member, patches..., local...
    start = len(shape) - k + 1
    col_patches = tuple(range(start, start + k))
    rebuilt = np.empty(shape + shape)
    for patch in np.ndindex(shape[1 : 1 + k]):
        rebuilt[(slice(None), *patch)] = np.roll(first, patch, axis=col_patches)
    return rebuilt.reshape(op.matrix.shape)


def test_operators_are_block_circulant_in_the_patch_index():
    """Row block I is row block 0 rolled by I patches, bitwise.

    The Bloch spectra rely on this: every patch carries the same interior
    block and the edge couplings depend only on the patch offset.
    """
    for coupling in (pt.CouplingSpec("spectral"), pt.CouplingSpec("lagrangian", 2)):
        for N, n, p, ens in itertools.product(range(1, 7), range(1, 7), range(1, 5), (False, True)):
            sized = _sized(coupling, N)
            if sized is None:
                continue
            grid = pt.build_grid_1d(L, N, n, 0.3)
            prof = pt.random_lognormal_profile(p, 0.8, 10 * p + n)
            op = pt.assemble_patch_1d(grid, prof, sized, ensemble=ens, allow_incompatible=True)
            assert op.layout.patch_axes == 1
            np.testing.assert_array_equal(op.matrix, _rolled_from_first_block_row(op), (N, n, p, ens))
    for (Nx, nx, Ny, ny), periods, ens in itertools.product(
        ((3, 2, 2, 1), (1, 3, 4, 2), (2, 1, 3, 1)), ((1, 1), (2, 3)), (False, True)
    ):
        grid = pt.build_grid_2d(L, Nx, nx, 0.4, 1.5 * L, Ny, ny, 0.3)
        prof = pt.random_lognormal_profile_2d(*periods, 0.6, nx)
        op = pt.assemble_patch_2d(grid, prof, pt.CouplingSpec("spectral"), ensemble=ens,
                                  allow_incompatible=True)
        assert op.layout.patch_axes == 2
        np.testing.assert_array_equal(op.matrix, _rolled_from_first_block_row(op))
    full = pt.full_lattice_operator_1d(pt.DiffusivityProfile1D((1.0, 2.0)), 8)
    assert full.layout.patch_axes == 1
    np.testing.assert_array_equal(full.matrix, _rolled_from_first_block_row(full))


def patch_sum_by_axis(a, b, patches, sign=1):
    """Flat index of patch a + sign * b mod N, one patch axis at a time (oracle)."""
    total = np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=np.intp)
    stride = math.prod(patches)
    for N in patches:
        stride //= N
        total += (a // stride % N + sign * (b // stride % N)) % N * stride
    return total


@given(st.lists(st.integers(1, 9), min_size=1, max_size=2), st.sampled_from([1, -1]),
       st.booleans(), st.integers(0, 2**32))
def test_patch_sum_matches_the_per_axis_loop(patches, sign, scalar, seed):
    """_patch_sum wraps the summed patch coordinates with numpy; the loop over
    the axes gives the same integers, shape and dtype."""
    patches = tuple(patches)
    K = math.prod(patches)
    b = np.random.default_rng(seed).integers(0, K, 7)
    a = int(seed % K) if scalar else np.arange(K)[:, None]
    got, want = _patch_sum(a, b, patches, sign), patch_sum_by_axis(a, b, patches, sign)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def test_constant_vector_spans_the_kernel():
    grid = pt.build_grid_1d(L, 6, 4, 0.25)
    prof = pt.DiffusivityProfile1D((1.0, 2.0))
    for ens in (False, True):
        op = pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("spectral"), ensemble=ens)
        ones = np.ones(op.dimension)
        scale = np.max(np.abs(op.matrix))
        assert np.max(np.abs(op.matrix @ ones)) <= 1e-12 * scale


def test_incompatible_single_phase_is_rejected():
    grid = pt.build_grid_1d(L, 6, 4, 0.3)
    prof = pt.DiffusivityProfile1D((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("spectral"))
    op = pt.assemble_patch_1d(
        grid, prof, pt.CouplingSpec("spectral"), allow_incompatible=True
    )
    assert pt.symmetry_defect(op).relative > 1e-6
    with pytest.raises(pt.SymmetryPreconditionError):
        pt.eigen_symmetric(op)


def test_spacing_without_a_finite_inverse_square_is_rejected():
    """d = 1.25e-172 squares to 0.0: the stencil names the spacing instead of
    dividing by zero, for patch operators and full lattices alike."""
    prof = pt.DiffusivityProfile1D((1.0,))
    grid = pt.build_grid_1d(1e-170, 6, 4, 0.3)
    with pytest.raises(ValueError, match="spacing d = 1.25e-172"):
        pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("spectral"))
    with pytest.raises(ValueError, match="spacing d = 1e-160"):
        pt.full_lattice_operator_1d(prof, 6, 1e-160)  # d^2 is subnormal, 1/d^2 overflows


@pytest.mark.parametrize("third", [
    pt.build_grid_1d(L, 6, 5, 0.3),  # n = 5 is no multiple of p = 2
    pt.build_grid_1d(1e-170, 6, 4, 0.3),  # d = 1.25e-172 squares to 0.0
])
def test_a_batch_raises_the_first_failing_point(third):
    """A batch validates its points in list order and raises the message of
    the first that fails, as one assemble_patch_1d call per point does."""
    prof = pt.DiffusivityProfile1D((1.0, 2.0))
    grids = [pt.build_grid_1d(L, 6, 4, 0.3), pt.build_grid_1d(L, 7, 4, 0.3), third,
             pt.build_grid_1d(L, 8, 5, 0.3)]
    points = [(grid, pt.CouplingSpec("spectral")) for grid in grids]
    with pytest.raises(ValueError) as alone:
        for grid, coupling in points:
            pt.assemble_patch_1d(grid, prof, coupling)
    with pytest.raises(ValueError) as batch:
        _assemble_patches(points, prof)
    assert str(batch.value) == str(alone.value)
    assert ("n = 5" if third.n == 5 else "d = 1.25e-172") in str(batch.value)


def test_ensemble_edge_rows_couple_shifted_members():
    """Crossing a patch edge moves n lattice steps, so member ell hands its
    right edge to member (ell + n) mod p and receives its left edge from
    member (ell - n) mod p."""
    N, n, p = 5, 4, 3
    grid = pt.build_grid_1d(L, N, n, 0.3)
    prof = pt.DiffusivityProfile1D((1.1, 0.6, 2.3))
    op = pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("spectral"), ensemble=True)
    w = spectral_weights(N, grid.r)
    inv_d2 = 1.0 / grid.d**2

    def idx(ell, I, i):
        return (ell * N + I) * n + (i - 1)

    ell, I = 0, 0
    row = idx(ell, I, n)
    kr = prof.values[(n + ell) % p] * inv_d2
    tgt = (ell + n) % p
    for m in range(N):
        assert op.matrix[row, idx(tgt, (I + m) % N, 1)] == pytest.approx(
            kr * w[m], rel=1e-14
        )
    # nothing from this row lands back in member 0's next-to-edge columns
    for J in range(1, N):
        assert op.matrix[row, idx(ell, J, 1)] == 0.0
    assert pt.symmetry_defect(op).defect == 0.0


def test_ensemble_2d_edge_rows_couple_the_permuted_members():
    """Member e hands its left x edge to the member P_x names and its right x
    edge to the member P_x^T names; likewise along y with P_y.

    With n_x, n_y >= 3 the far next-to-edge point of an edge row is neither
    its interior neighbour nor reached by the other axis, so the entries of
    an edge row at the far point come from the edge coupling alone.
    """
    for (nx, ny), (px, py), coupling in itertools.product(
        [(3, 4), (4, 3)],
        [(2, 3), (3, 1), (1, 2)],
        [pt.CouplingSpec("spectral"), pt.CouplingSpec("lagrangian", 1)],
    ):
        grid = pt.build_grid_2d(L, 3, nx, 0.3, 3.0, 4, ny, 0.5)
        prof = pt.random_lognormal_profile_2d(px, py, 0.6, 10 * px + py)
        op = pt.assemble_patch_2d(grid, prof, coupling, ensemble=True)
        Px, Py = pt.build_permutations_2d(prof, nx, ny)
        shape = op.layout.shape  # (members, N_y, N_x, n_y, n_x)
        blocks = op.matrix.reshape(shape + shape)
        near_far = {
            "x left": (blocks[..., 0, :, :, :, :, nx - 1], Px),
            "x right": (blocks[..., nx - 1, :, :, :, :, 0], Px.T),
            "y left": (blocks[:, :, :, 0, :, :, :, :, ny - 1, :], Py),
            "y right": (blocks[:, :, :, ny - 1, :, :, :, :, 0, :], Py.T),
        }
        for edge, (coupled, P) in near_far.items():
            members = np.any(coupled != 0.0, axis=(1, 2, 3, 5, 6, 7))
            np.testing.assert_array_equal(members, P != 0.0, err_msg=f"{edge} {nx, ny, px, py}")


@pytest.mark.parametrize(
    "coupling",
    [pt.CouplingSpec("spectral"), pt.CouplingSpec("lagrangian", 1)],
)
@pytest.mark.parametrize("ensemble", [False, True])
def test_exchanging_the_axes_permutes_the_2d_operator(coupling, ensemble):
    """Rotational invariance: swapping x and y (grid, bond fields transposed
    and exchanged) gives the same operator on the reordered unknowns, member
    e = phi * p_y + psi becoming psi * p_x + phi.  Only the order of the
    four-term diagonal sum changes."""
    nx, ny = (3, 2) if ensemble else (4, 3)
    kx = [[1.3, 0.8, 2.1], [0.9, 1.2, 0.4]]  # periods (p_x, p_y) = (2, 3)
    ky = [[0.7, 1.4, 0.5], [1.1, 0.9, 1.6]]
    grid = pt.build_grid_2d(L, 3, nx, 0.3, 3.0, 5, ny, 0.5)
    swapped_grid = pt.PatchGrid2D(x=grid.y, y=grid.x)
    prof = pt.DiffusivityProfile2D(kx, ky)
    swapped_prof = pt.DiffusivityProfile2D(np.transpose(ky), np.transpose(kx))
    A = pt.assemble_patch_2d(grid, prof, coupling, ensemble=ensemble)
    B = pt.assemble_patch_2d(swapped_grid, swapped_prof, coupling, ensemble=ensemble)
    members, Ny, Nx, ny_, nx_ = A.layout.shape
    phases = (2, 3) if ensemble else (1, 1)
    index = np.arange(A.dimension).reshape(*phases, Ny, Nx, ny_, nx_)
    perm = index.transpose(1, 0, 3, 2, 5, 4).ravel()
    assert B.layout.shape == (members, Nx, Ny, nx_, ny_)
    scale = np.max(np.abs(A.matrix))
    assert np.max(np.abs(B.matrix - A.matrix[np.ix_(perm, perm)])) <= 4 * np.finfo(float).eps * scale
    assert pt.symmetry_defect(A).defect == 0.0
    assert pt.symmetry_defect(B).defect == 0.0


def test_full_size_patches_reduce_to_the_lattice_1d():
    """At r = 1 the patches tile the lattice.

    Ensemble member ell of patch I continues the lattice shifted by
    c = (ell - I n) mod p, so when p divides N n the ensemble splits into p
    copies of the full lattice, copy c carrying the profile rolled by c.
    """
    for N, n, p, ens in itertools.product(range(1, 7), range(1, 7), range(1, 5), (False, True)):
        M = N * n
        if M < 3 or M % p or (not ens and n % p):
            continue
        grid = pt.build_grid_1d(L, N, n, 1.0)
        prof = pt.random_lognormal_profile(p, 0.8, 10 * p + n)
        copies = range(p) if ens else range(1)

        def member(c, I):
            return (c + I * n) % p if ens else 0

        # patch (I, i) of copy c carries the lattice node I*n + (i - 1)
        perm = np.array([
            (member(c, I) * N + I) * n + (i - 1)
            for c in copies for I in range(N) for i in range(1, n + 1)
        ])
        full = scipy.linalg.block_diag(*[
            pt.full_lattice_operator_1d(
                pt.DiffusivityProfile1D(np.roll(prof.values, -c)), M, grid.d
            ).matrix
            for c in copies
        ])
        if N >= 3:
            lagr = pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("lagrangian", 1), ensemble=ens)
            np.testing.assert_array_equal(lagr.matrix[np.ix_(perm, perm)], full)
        spec = pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("spectral"), ensemble=ens)
        scale = np.max(np.abs(full))
        assert np.max(np.abs(spec.matrix[np.ix_(perm, perm)] - full)) <= 1e-13 * scale


def test_full_size_patches_reduce_to_the_lattice_2d():
    gx = (3, 2)  # N, n along x
    gy = (4, 2)
    grid = pt.build_grid_2d(L, gx[0], gx[1], 1.0, L, gy[0], gy[1], 1.0)
    prof = pt.DiffusivityProfile2D([[1.3, 0.8], [0.9, 1.2]], [[0.7, 1.4], [1.1, 0.9]])
    Mx, My = gx[0] * gx[1], gy[0] * gy[1]
    full = pt.full_lattice_operator_2d(prof, (Mx, My), (grid.x.d, grid.y.d)).matrix
    perm = np.array(
        [
            (J * gy[1] + (j - 1)) * Mx + (I * gx[1] + (i - 1))
            for J in range(gy[0])
            for I in range(gx[0])
            for j in range(1, gy[1] + 1)
            for i in range(1, gx[1] + 1)
        ]
    )
    patch = pt.assemble_patch_2d(grid, prof, pt.CouplingSpec("spectral")).matrix
    scale = np.max(np.abs(full))
    assert np.max(np.abs(patch - full[np.ix_(perm, perm)])) <= 1e-13 * scale


def test_assemble_2d_symmetry_and_kernel():
    grid = pt.build_grid_2d(L, 4, 2, 0.3, L, 5, 3, 0.4)
    prof = pt.DiffusivityProfile2D([[1.3, 0.8, 1.1], [0.9, 1.2, 0.7]], [[0.7, 1.4, 0.5], [1.1, 0.9, 1.6]])
    for ens in (False, True):
        op = pt.assemble_patch_2d(grid, prof, pt.CouplingSpec("spectral"), ensemble=ens)
        assert pt.symmetry_defect(op).defect == 0.0
        ones = np.ones(op.dimension)
        assert np.max(np.abs(op.matrix @ ones)) <= 1e-12 * np.max(np.abs(op.matrix))
    with pytest.raises(ValueError):
        bad = pt.build_grid_2d(L, 4, 3, 0.3, L, 5, 3, 0.4)  # px = 2 does not divide nx = 3
        pt.assemble_patch_2d(bad, prof, pt.CouplingSpec("spectral"))


def test_wave_operator_block_structure():
    grid = pt.build_grid_1d(L, 5, 4, 0.5)
    prof = pt.DiffusivityProfile1D((1.0, 2.0))
    base = pt.assemble_patch_1d(grid, prof, pt.CouplingSpec("spectral"))
    M = base.dimension
    wave = pt.assemble_wave(base, epsilon=0.02)
    assert wave.dimension == 2 * M
    W = wave.matrix
    np.testing.assert_array_equal(W[:M, :M], np.zeros((M, M)))
    np.testing.assert_array_equal(W[:M, M:], np.eye(M))
    np.testing.assert_array_equal(W[M:, :M], base.matrix)
    # the damping block comes from the same assembly with a flat profile
    undamped = pt.assemble_wave(base, epsilon=0.0)
    np.testing.assert_array_equal(undamped.matrix[M:, M:], np.zeros((M, M)))
    flat = pt.assemble_patch_1d(grid, pt.DiffusivityProfile1D((1.0,)), pt.CouplingSpec("spectral"))
    np.testing.assert_allclose(W[M:, M:], 0.02 * flat.matrix, rtol=1e-14)
    with pytest.raises(ValueError):
        pt.assemble_wave(base, epsilon=-0.1)
    # only a diffusion patch operator can be wrapped
    with pytest.raises(ValueError):
        pt.assemble_wave(wave)
    with pytest.raises(ValueError):
        pt.assemble_wave(pt.full_lattice_operator_1d(prof, 20))
