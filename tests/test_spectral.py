import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randlat as rl
from randlat.lattice import BlockTridiagonal
from randlat.spectral import (_count_below, count_block, count_in, det_im, det_im_block,
                              elementary_symmetric, green_block, green_columns, imag_part,
                              slice_green, spectrum, window_eigenvalues)
from conftest import BOX_FAMILIES, background_variants, random_box, random_triple


# the nearest-neighbour families on a box of n x 1 x ... x 1 sites (d axes)
CHAIN_FAMILIES = {
    "laplacian": lambda local, d: rl.Laplacian(),
    "periodic": lambda local, d: rl.PeriodicPotential(
        period=(3,) + (1,) * (d - 1), values=tuple(local.uniform(-2, 2, size=3))),
    "magnetic": lambda local, d: rl.Magnetic(axis_phases=(float(local.uniform(-4, 4)),),
                                             field=float(local.uniform(-2, 2)) if d >= 2 else 0.0),
    "none": lambda local, d: None,
}


def count_one(sample, a, b):
    """``count_block`` on the one-row block of ``sample``'s potential."""
    return int(count_block(sample.background, sample.potential[None, :], a, b)[0])


def is_chain(background):
    """A background in slices of one site, which the band kernels take."""
    return isinstance(background, BlockTridiagonal) and background.blocks.shape[1] == 1


def chain_sample(seed, n, family, d=1):
    """A random-potential sample on a box of n x 1 x ... x 1 sites (d axes):
    a tridiagonal sample."""
    local = np.random.default_rng(seed)
    spec = CHAIN_FAMILIES[family](local, d)
    return rl.assemble_fixed(rl.LatticeBox((n,) + (1,) * (d - 1)), spec,
                             local.uniform(-3, 3, size=n))


TINY = float(np.finfo(float).tiny)


def reference_count_below(diagonals, off_squared, x):
    """The Sturm count one site at a time, the recurrence ``_count_below`` runs
    in chunks: (E, B) negative pivots of T_b - x_e, T_b with diagonal column b
    of ``diagonals`` (N, B) and squared off-diagonal ``off_squared``.  A pivot
    of exactly 0 goes on as the smallest positive float."""
    pivot = diagonals[0] - x
    count = np.zeros(pivot.shape, dtype=np.int64)
    with np.errstate(over="ignore"):  # e2 / tiny may round to inf
        for k, e2 in enumerate(off_squared, start=1):
            count += pivot < 0
            pivot = (diagonals[k] - x) - e2 / np.where(pivot == 0, TINY, pivot)
    return count + (pivot < 0)


def sturm_case(local, case, n, rows, points):
    """(diagonals (n, rows), off-diagonal (n - 1), points (points, 1)) for the
    Sturm count: integer values, which make exact zero pivots; integers with
    no coupling at all, where a zero pivot divided by gives 0 / 0; 1e-300
    diagonals with 1e154 couplings, whose quotients overflow; or reals."""
    if case == "extreme":
        return (local.choice([1e-300, -1e-300, 0.0, 1.0], size=(n, rows)),
                local.choice([1e154, 0.0, 1.0], size=n - 1),
                local.choice([0.0, 1e-300, 1.0], size=(points, 1)))
    if case == "real":
        return (local.normal(size=(n, rows)), local.normal(size=n - 1),
                local.normal(size=(points, 1)))
    coupled = 0 if case == "uncoupled" else 3
    return (local.integers(-3, 4, size=(n, rows)).astype(float),
            local.integers(0, coupled, size=n - 1, endpoint=True).astype(float),
            local.integers(-4, 5, size=(points, 1)).astype(float))


def random_hermitian(rng, n, complex_entries=True):
    m = rng.normal(size=(n, n))
    if complex_entries:
        m = m + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


class TestEig:
    def test_pauli_x(self):
        dec = rl.eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_laplacian_3_sites_closed_form(self):
        h = rl.build_background(rl.LatticeBox((3,)), rl.Laplacian())
        dec = rl.eig_hermitian(h)
        # independent oracle: roots of the characteristic polynomial
        roots = np.sort(np.roots(np.poly(h)).real)
        expected = np.array([-np.sqrt(2), 0.0, np.sqrt(2)])
        assert np.allclose(dec.eigenvalues, expected, atol=1e-12)
        assert np.allclose(roots, expected, atol=1e-9)

    def test_diagonal_sorted_ascending(self):
        dec = rl.eig_hermitian(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(dec.eigenvalues, [1.0, 2.0, 3.0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(rl.NonHermitianError):
            rl.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_unitary_eigenvectors(self, rng):
        dec = rl.eig_hermitian(random_hermitian(rng, 12))
        u = dec.eigenvectors
        assert np.linalg.norm(u.conj().T @ u - np.eye(12)) < 1e-10


class TestResolvent:
    def test_scalar(self):
        r = rl.resolvent(np.array([[0.7]]), 0.2 + 0.3j)
        assert r[0, 0] == pytest.approx(1.0 / (0.7 - (0.2 + 0.3j)))

    def test_imag_positive_definite(self, rng):
        h = random_hermitian(rng, 6)
        r = rl.resolvent(h, 1j)
        assert np.linalg.eigvalsh(imag_part(r)).min() > 0

    def test_residual_small(self, rng):
        h = random_hermitian(rng, 8)
        z = 0.4 + 0.2j
        r = rl.resolvent(h, z)
        assert np.linalg.norm((h - z * np.eye(8)) @ r - np.eye(8)) <= 1e-10

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            rl.resolvent(np.eye(2), 0.5 - 0.1j)
        with pytest.raises(ValueError):
            rl.resolvent(np.eye(2), 0.5)


class TestGreenBlock:
    def test_full_subset_equals_resolvent(self, rng):
        h = random_hermitian(rng, 5)
        g = rl.green_block(h, 1j, list(range(5)))
        assert np.allclose(g.matrix, rl.resolvent(h, 1j))

    def test_one_site(self):
        sample = rl.assemble_fixed(rl.LatticeBox((1,)), rl.Laplacian(), [0.9])
        g = rl.green_block(sample, 0.1 + 0.2j, [0])
        assert g.matrix[0, 0] == pytest.approx(1.0 / (0.9 - (0.1 + 0.2j)))

    def test_real_symmetric_block_is_symmetric(self, rng):
        h = random_hermitian(rng, 6, complex_entries=False)
        g = rl.green_block(h, 0.3 + 0.4j, [1, 4]).matrix
        assert g[0, 1] == pytest.approx(g[1, 0])

    def test_bad_subsets_rejected(self, rng):
        h = random_hermitian(rng, 4)
        with pytest.raises(ValueError):
            rl.green_block(h, 1j, [0, 0])
        with pytest.raises(ValueError):
            rl.green_block(h, 1j, [7])
        with pytest.raises(ValueError):
            rl.green_block(h, 1j, [])


class TestKrein:
    def test_one_site_exact(self):
        sample = rl.assemble_fixed(rl.LatticeBox((1,)), rl.Laplacian(), [0.7])
        assert rl.krein_check(sample, 0.5 + 0.5j, [0]) < 1e-14

    def test_random_sample(self, rng):
        box = rl.LatticeBox((6,))
        sample = rl.assemble(box, rl.Laplacian(), rl.Uniform(0, 1), (3, 0))
        assert rl.krein_check(sample, 1j, [1, 4]) <= 1e-9

    def test_zero_potential_blocks_agree(self):
        box = rl.LatticeBox((5,))
        sample = rl.assemble_fixed(box, rl.Laplacian(), np.zeros(5))
        g = rl.green_block(sample, 1j, [1, 3], "full").matrix
        gt = rl.green_block(sample, 1j, [1, 3], "reduced").matrix
        assert np.allclose(g, gt, atol=1e-14)


class TestDetIm:
    def test_one_site_closed_form(self):
        v, e_re, e_im = 0.7, 0.2, 0.3
        sample = rl.assemble_fixed(rl.LatticeBox((1,)), rl.Laplacian(), [v])
        block = rl.green_block(sample, complex(e_re, e_im), [0])
        expected = e_im / ((v - e_re) ** 2 + e_im ** 2)
        assert rl.det_im(block) == pytest.approx(expected, rel=1e-12)

    def test_matches_entrywise_imag_for_real_symmetric(self, rng):
        # for real symmetric H the operator imaginary part equals the
        # entrywise imaginary part of the Green block
        h = random_hermitian(rng, 7, complex_entries=False)
        g = rl.green_block(h, 0.2 + 0.3j, [0, 5]).matrix
        assert np.max(np.abs(imag_part(g) - np.imag(g))) < 1e-12
        assert rl.det_im(rl.green_block(h, 0.2 + 0.3j, [0, 5])) == \
            pytest.approx(np.linalg.det(np.imag(g)), rel=1e-10)

    def test_positive(self, rng):
        box = rl.LatticeBox((8,))
        sample = rl.assemble(box, rl.Laplacian(), rl.Uniform(0, 1), (11, 0))
        assert rl.det_im(rl.green_block(sample, 0.5 + 0.1j, [2, 3, 6])) > 0


class TestDetIdentity:
    def test_one_site_closed_form(self):
        sample = rl.assemble_fixed(rl.LatticeBox((1,)), rl.Laplacian(), [1.3])
        assert rl.det_identity_check(sample, 0.4 + 0.6j, [0]) <= 1e-12

    def test_random_8_sites(self, rng):
        box = rl.LatticeBox((8,))
        sample = rl.assemble(box, rl.Laplacian(), rl.Uniform(0, 1), (21, 0))
        assert rl.det_identity_check(sample, 0.3 + 0.5j, [1, 4, 6]) <= 1e-8

    def test_zero_potential_specialization(self):
        box = rl.LatticeBox((6,))
        sample = rl.assemble_fixed(box, rl.Laplacian(), np.zeros(6))
        assert rl.det_identity_check(sample, 0.2 + 0.4j, [0, 3]) <= 1e-10


class TestSchur:
    def test_two_by_two_scalar_complement(self):
        a, b, c = 0.4, 0.8 - 0.3j, -0.2
        h = np.array([[a, b], [np.conj(b), c]])
        z = 0.1 + 0.5j
        r = rl.resolvent(h, z)
        expected = 1.0 / (a - z - abs(b) ** 2 / (c - z))
        assert r[0, 0] == pytest.approx(expected)
        assert rl.schur_check(h, z, [0]) <= 1e-12

    def test_random_7x7(self, rng):
        h = random_hermitian(rng, 7)
        assert rl.schur_check(h, 0.3 + 0.7j, [0, 2, 5]) <= 1e-9

    def test_q_block_formula(self, rng):
        # bottom-right block: R_Q + R_Q (QHP) S^-1 (PHQ) R_Q
        h = random_hermitian(rng, 6)
        z = 0.2 + 0.4j
        p, q = [1, 3], [0, 2, 4, 5]
        b = h[np.ix_(p, q)]
        rq = np.linalg.inv(h[np.ix_(q, q)] - z * np.eye(4))
        s_inv = np.linalg.inv(h[np.ix_(p, p)] - z * np.eye(2) - b @ rq @ b.conj().T)
        r = rl.resolvent(h, z)
        assert np.allclose(r[np.ix_(q, q)],
                           rq + rq @ b.conj().T @ s_inv @ b @ rq, atol=1e-10)

    def test_rejects_full_subset(self, rng):
        with pytest.raises(ValueError):
            rl.schur_check(random_hermitian(rng, 3), 1j, [0, 1, 2])


class TestPrincipalMinors:
    def test_diag_example(self):
        assert rl.sum_principal_minors(np.diag([1.0, 2.0, 3.0]), 2) == \
            pytest.approx(11.0)

    def test_identity_binomial(self):
        for n in range(1, 6):
            assert rl.sum_principal_minors(np.eye(5), n) == \
                pytest.approx(math.comb(5, n))

    def test_random_6x6_all_orders(self, rng):
        from randlat.spectral import _brute_minor_sum
        a = random_hermitian(rng, 6)
        for n in range(1, 7):
            brute = _brute_minor_sum(a, n)
            value = rl.sum_principal_minors(a, n)
            assert value == pytest.approx(brute, rel=1e-9, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            rl.sum_principal_minors(np.eye(3), 4)
        with pytest.raises(ValueError):
            rl.sum_principal_minors(np.eye(3), 0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_size=st.integers(2, 8))
    def test_newton_matches_brute_force(self, seed, n_size):
        local = np.random.default_rng(seed)
        a = random_hermitian(local, n_size)
        from randlat.spectral import _brute_minor_sum
        for n in range(1, n_size + 1):
            assert rl.sum_principal_minors(a, n) == \
                pytest.approx(_brute_minor_sum(a, n), rel=1e-9, abs=1e-10)


class TestCounting:
    def test_examples(self):
        h = np.diag([0.0, 1.0, 2.0])
        assert rl.count_eigenvalues(h, (0.5, 2.5)) == 2
        assert rl.count_eigenvalues(h, (-10.0, 10.0)) == 3
        assert rl.count_eigenvalues(h, (-10.0, -5.0)) == 0
        assert rl.count_eigenvalues(h, (1.0, 1.0)) == 0

    def test_half_open_convention(self):
        h = np.diag([0.0, 1.0, 2.0])
        assert rl.count_eigenvalues(h, (0.0, 1.0)) == 1  # [0, 1) contains 0 only
        # a partition of the line counts every eigenvalue once
        edges = [-1.0, 0.0, 1.0, 2.0, 3.0]
        total = sum(rl.count_eigenvalues(h, (a, b))
                    for a, b in zip(edges, edges[1:]))
        assert total == 3
        # IDS counts [-inf, E), DOS [E - h, E + h), with the same primitive
        assert count_in(np.diag(h), -math.inf, 1.0) == 1
        assert count_in(np.diag(h), 1.0, 2.0) == 1
        # the Sturm count on exact edges: a diagonal-only chain's eigenvalues
        # are its potential values, here on a and on b
        edges = rl.assemble_fixed(rl.LatticeBox((5,)), None, [0.0, 1.0, 2.0, 1.0, 0.5])
        assert is_chain(edges.background)
        assert count_one(edges, 0.0, 1.0) == 2
        assert count_one(edges, 1.0, 2.0) == 2
        assert count_one(edges, -math.inf, 1.0) == 2
        assert count_one(edges, 2.0, 3.0) == 1
        # a zero pivot behind a non-zero coupling: eigenvalues exactly -1 and 1
        pair = rl.assemble_fixed(rl.LatticeBox((2,)), rl.Laplacian(), [0.0, 0.0])
        assert count_one(pair, -1.0, 1.0) == 1
        assert count_one(pair, 1.0, 2.0) == 1


class TestWedgeCount:
    @pytest.mark.parametrize("k,n,expected", [(3, 2, 3.0), (1, 2, 0.0), (5, 5, 1.0)])
    def test_binomial_values(self, k, n, expected):
        h = np.diag([0.5] * k + [10.0] * max(0, 6 - k))
        interval = (0.0, 1.0)
        assert rl.count_eigenvalues(h, interval) == k
        assert rl.wedge_count_check(h, interval, n)

    def test_random_sample(self, rng):
        h = random_hermitian(rng, 8)
        for n in (1, 2, 3):
            assert rl.wedge_count_check(h, (-0.5, 0.5), n)


class TestFracMoment:
    def test_one_site(self):
        sample = rl.assemble_fixed(rl.LatticeBox((1,)), rl.Laplacian(), [0.8])
        z = 0.3 + 0.2j
        value = rl.frac_moment(sample, 0, 0, z, 0.5)
        assert value == pytest.approx(abs(1.0 / (0.8 - z)) ** 0.5)

    def test_two_site_closed_form(self):
        sample = rl.assemble_fixed(rl.LatticeBox((2,)), rl.Laplacian(), [0.2, 0.9])
        z = 0.1 + 0.3j
        det = (0.2 - z) * (0.9 - z) - 1.0
        g01 = -1.0 / det  # off-diagonal of the 2x2 inverse (hopping 1)
        assert rl.frac_moment(sample, 0, 1, z, 0.5) == \
            pytest.approx(abs(g01) ** 0.5)

    def test_nonnegative_and_s_range(self, rng):
        box = rl.LatticeBox((4,))
        sample = rl.assemble(box, rl.Laplacian(), rl.Uniform(0, 1), (9, 0))
        assert rl.frac_moment(sample, 0, 3, 1j, 0.3) >= 0
        with pytest.raises(ValueError):
            rl.frac_moment(sample, 0, 3, 1j, 1.5)


class TestSpectrumGreenLink:
    """The eigenvalue path and the Green-column path see one operator."""

    def test_trace_of_green_columns_matches_spectrum(self):
        # Im Tr (H - E - i eps)^{-1} = sum_j eps / ((E_j - E)^2 + eps^2)
        local = np.random.default_rng(6160)
        for _ in range(15):
            box = random_box(local, max_side=5)
            for spec in background_variants(box.dimension):
                sample = rl.assemble(box, spec, rl.Uniform(-1.0, 1.0),
                                     (int(local.integers(0, 2 ** 31)), 0))
                energy, eps = local.uniform(-2, 2), local.uniform(0.05, 2.0)
                g = green_columns(sample, complex(energy, eps), range(box.n_sites))
                w = spectrum(sample)
                expected = np.sum(eps / ((w - energy) ** 2 + eps ** 2))
                assert np.trace(g).imag == pytest.approx(expected, rel=1e-9)

    def test_constant_potential_shifts_spectrum(self):
        local = np.random.default_rng(6161)
        for _ in range(15):
            box = random_box(local, max_side=5)
            c = local.uniform(-3, 3)
            for spec in background_variants(box.dimension):
                v = local.uniform(-1, 1, size=box.n_sites)
                w = spectrum(rl.assemble_fixed(box, spec, v))
                shifted = spectrum(rl.assemble_fixed(box, spec, v + c))
                assert np.allclose(shifted, w + c, rtol=0, atol=1e-10)


class TestTridiagonalPath:
    """The band path of slices of one site (Sturm count, multisection), on a
    1D chain and on boxes of n x 1 or n x 1 x 1 sites, against the dense
    reference, np.linalg.eigvalsh on ``.matrix``."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 64), d=st.integers(1, 3),
           family=st.sampled_from(sorted(CHAIN_FAMILIES)))
    def test_spectrum_matches_dense(self, seed, n, d, family):
        # multisection over a window that holds the whole spectrum (Gershgorin)
        sample = chain_sample(seed, n, family, d)
        assert is_chain(sample.background)
        reference = np.linalg.eigvalsh(sample.matrix)
        radius = float(np.abs(sample.matrix).sum(axis=1).max())
        (w,), _ = window_eigenvalues(sample.background, sample.potential[None, :],
                                     -radius - 1.0, radius + 1.0)
        scale = max(1.0, float(np.abs(reference).max()))
        np.testing.assert_allclose(w, reference, rtol=0, atol=1e-12 * scale)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 64),
           family=st.sampled_from(sorted(CHAIN_FAMILIES)))
    def test_matrix_equals_the_dense_build(self, seed, n, family):
        # the bands are built from the same description as build_background,
        # never read out of it, and .matrix rebuilds the same dense H
        local = np.random.default_rng(seed)
        box, spec = rl.LatticeBox((n,)), CHAIN_FAMILIES[family](local, 1)
        v = local.uniform(-3, 3, size=n)
        sample = rl.assemble_fixed(box, spec, v)
        reference = rl.build_background(box, spec)
        assert is_chain(sample.background)
        blocks, couplings = sample.background
        np.testing.assert_array_equal(blocks[:, 0, 0], np.diagonal(reference))
        np.testing.assert_array_equal(couplings[:, 0], np.diagonal(reference, 1))
        matrix = sample.matrix
        assert matrix.dtype == reference.dtype
        assert np.array_equal(matrix, reference + np.diag(v))
        reference[np.diag_indices(n)] += v  # a dense background's .matrix, to the bit
        assert matrix.tobytes() == reference.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 64), d=st.integers(1, 3),
           family=st.sampled_from(sorted(CHAIN_FAMILIES)))
    def test_sturm_count_matches_dense(self, seed, n, d, family):
        sample = chain_sample(seed, n, family, d)
        reference = np.linalg.eigvalsh(sample.matrix)
        a, b = np.sort(np.random.default_rng(seed + 1).uniform(-6.0, 8.0, size=2))
        assert count_one(sample, a, b) == count_in(reference, a, b)
        assert count_one(sample, -math.inf, b) == count_in(reference, -math.inf, b)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 64), d=st.integers(1, 3),
           rows=st.integers(1, 6), family=st.sampled_from(sorted(CHAIN_FAMILIES)),
           on_edges=st.booleans())
    def test_block_count_matches_dense(self, seed, n, d, rows, family, on_edges):
        local = np.random.default_rng(seed)
        box, spec = rl.LatticeBox((n,) + (1,) * (d - 1)), CHAIN_FAMILIES[family](local, d)
        a, b = np.sort(local.uniform(-6.0, 8.0, size=2))
        potentials = local.uniform(-3.0, 3.0, size=(rows, n))
        if on_edges:  # some potential values exactly on a and on b
            pick = local.integers(0, 3, size=potentials.shape)
            potentials = np.where(pick == 1, a, np.where(pick == 2, b, potentials))
        samples = [rl.assemble_fixed(box, spec, v) for v in potentials]
        assert is_chain(samples[0].background)
        for lo in (a, -math.inf):
            counts = count_block(samples[0].background, potentials, lo, b)
            assert counts.dtype.kind == "i"
            for count, sample in zip(counts, samples):
                w = np.linalg.eigvalsh(sample.matrix)
                # A diagonal chain's dense eigenvalues are its potential values
                # exactly.  With hopping, an eigenvalue can sit exactly on an
                # edge (here when V = a on several sites), where the dense
                # reference is only good to rounding: the count must then lie
                # between the dense counts of the slightly shrunk and widened
                # windows, which coincide for every row away from an edge.
                tol = 0.0 if family == "none" else 1e-12 * max(1.0, float(np.abs(w).max()))
                assert count_in(w, lo + tol, b - tol) <= count <= count_in(w, lo - tol, b + tol)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 70), rows=st.integers(1, 5),
           points=st.integers(1, 6),
           case=st.sampled_from(["integer", "uncoupled", "extreme", "real"]),
           stack_bytes=st.sampled_from([1, 256, 4096, None]))
    def test_count_below_is_the_site_by_site_recurrence(self, seed, n, rows, points, case,
                                                        stack_bytes):
        # bit for bit, in chunks of 16 sites (the floor) and longer, and every
        # row alone as in its block
        diagonals, off, x = sturm_case(np.random.default_rng(seed), case, n, rows, points)
        with pytest.MonkeyPatch.context() as patch:
            if stack_bytes is not None:
                patch.setattr(rl.spectral, "_STACK_BYTES", stack_bytes)
            counts = _count_below(diagonals, off ** 2, x)
            alone = [_count_below(diagonals[:, [b]], off ** 2, x) for b in range(rows)]
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, reference_count_below(diagonals, off ** 2, x))
        np.testing.assert_array_equal(np.hstack(alone), counts)

    @pytest.mark.parametrize("rows, stack_bytes", [(5, 1), (6000, None)], ids=["floor", "many"])
    def test_zero_pivot_on_a_chunk_edge(self, rows, stack_bytes):
        # 40 sites in chunks of 16: the last pivot of the first two chunks is
        # exactly 0 in every other row, so the next chunk divides by it, by a
        # zero coupling (0 / 0) after the first and by 1 after the second; no
        # other value is 0.  At the module's stack size 6 000 rows at 3 points
        # are more points than _STACK_BYTES // 8, and the floor of 16 sites
        # sets the chunk
        diagonals, off, x = sturm_case(np.random.default_rng(17), "real", 40, rows, 3)
        x[1] = 0.0
        for last, coupling in ((15, 0.0), (31, 1.0)):
            off[last - 1], off[last] = 0.0, coupling
            diagonals[last, ::2] = 0.0
        with pytest.MonkeyPatch.context() as patch:
            if stack_bytes is not None:
                patch.setattr(rl.spectral, "_STACK_BYTES", stack_bytes)
            else:
                assert rows * len(x) > rl.spectral._STACK_BYTES // 8
            counts = _count_below(diagonals, off ** 2, x)
            alone = _count_below(diagonals[:, [0]], off ** 2, x)
        np.testing.assert_array_equal(counts, reference_count_below(diagonals, off ** 2, x))
        np.testing.assert_array_equal(alone[:, 0], counts[:, 0])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 64))
    def test_open_magnetic_chain_is_the_laplacian_shifted_by_two(self, seed, n):
        # on an open chain the gauge can be removed; the diagonal 2d remains
        local = np.random.default_rng(seed)
        box, v = rl.LatticeBox((n,)), local.uniform(-3, 3, size=n)
        magnetic = rl.assemble_fixed(box, rl.Magnetic(axis_phases=(local.uniform(-4, 4),)), v)
        laplacian = rl.assemble_fixed(box, rl.Laplacian(), v)
        for path in (spectrum, lambda s: np.linalg.eigvalsh(s.matrix)):
            shifted = path(laplacian) + 2.0
            np.testing.assert_allclose(path(magnetic), shifted, rtol=0,
                                       atol=1e-12 * max(1.0, np.abs(shifted).max()))

    def test_other_models_stay_dense(self):
        # decaying hopping is one slice, its dense matrix; slices of more than
        # one site are held as slices, and their kernels work on the dense H
        box, spec = rl.LatticeBox((6,)), rl.DecayingHopping(amplitude=1.0, rate=1.2)
        form = rl.assemble_fixed(box, spec, np.zeros(6)).background
        assert isinstance(form, BlockTridiagonal) and form.couplings.shape == (0, 6)
        assert form.blocks.tobytes() == rl.build_background(box, spec).tobytes()
        for box, spec in [(rl.LatticeBox((2, 3)), rl.Laplacian()), (rl.LatticeBox((1, 6)), None)]:
            sample = rl.assemble_fixed(box, spec, np.zeros(6))
            assert isinstance(sample.background, BlockTridiagonal) and not is_chain(sample.background)
            assert np.array_equal(sample.matrix, rl.build_background(box, spec))


class TestWindowEigenvalues:
    """``window_eigenvalues``: the eigenvalues in [lo, hi) of every row of a
    block, by Sturm multisection on a chain, against the dense reference."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 64), d=st.integers(1, 3),
           rows=st.integers(1, 6), family=st.sampled_from(sorted(CHAIN_FAMILIES)),
           case=st.sampled_from(["random", "on_edges", "repeated", "zero"]))
    def test_chain_matches_dense(self, seed, n, d, rows, family, case):
        local = np.random.default_rng(seed)
        box, spec = rl.LatticeBox((n,) + (1,) * (d - 1)), CHAIN_FAMILIES[family](local, d)
        background = rl.assemble_fixed(box, spec, np.zeros(n)).background
        assert is_chain(background)
        lo, hi = np.sort(local.uniform(-6.0, 8.0, size=2))
        counted = tuple(np.sort(local.uniform(-6.0, 8.0, size=2)))
        potentials = local.uniform(-3.0, 3.0, size=(rows, n))
        if case == "on_edges":  # some potential values exactly on lo and on hi
            pick = local.integers(0, 3, size=potentials.shape)
            potentials = np.where(pick == 1, lo, np.where(pick == 2, hi, potentials))
        elif case == "repeated":  # three values, so a `none` chain's levels repeat
            potentials = local.choice(local.uniform(-3.0, 3.0, size=3), size=potentials.shape)
        elif case == "zero":
            # a window around 0, and row 0 with zero diagonal: on an odd chain
            # (a bipartite graph) 0 is then an eigenvalue
            lo, hi = -local.uniform(0.0, 1.0), local.uniform(1e-3, 1.0)
            potentials[0] = -background.blocks[:, 0, 0].real
        values, counts = window_eigenvalues(background, potentials, lo, hi, counted)
        assert counts.tolist() == count_block(background, potentials, *counted).tolist()
        # the window's first eigenvalue has index #{eigenvalue < lo}, by the Sturm count
        first = count_block(background, potentials, -math.inf, lo)
        for b, v in enumerate(potentials):
            w = np.linalg.eigvalsh(rl.assemble_fixed(box, spec, v).matrix)
            scale = max(1.0, float(np.abs(w).max()))
            # exact on a diagonal chain, counts and values; with hopping an eigenvalue
            # can sit on an edge within rounding, as in ``test_block_count_matches_dense``
            tol = 0.0 if family == "none" else 1e-12 * scale
            count = len(values[b])
            assert count_in(w, lo + tol, hi - tol) <= count <= count_in(w, lo - tol, hi + tol)
            np.testing.assert_allclose(values[b], w[first[b]:first[b] + count], rtol=0, atol=tol)
            assert np.all((lo <= values[b]) & (values[b] < hi)) and np.all(np.diff(values[b]) >= 0)
            if case == "zero" and b == 0 and n % 2:
                assert np.min(np.abs(values[b])) <= 1e-12 * scale
        # a row is the same whatever the other rows of its block
        (alone,), _ = window_eigenvalues(background, potentials[-1:], lo, hi, counted)
        assert alone.tobytes() == values[-1].tobytes()

    @pytest.mark.parametrize("sides, spec", [
        ((2, 3), rl.Laplacian()), ((3, 2, 2), rl.Magnetic(axis_phases=(0.4,), field=0.7)),
        ((6,), rl.DecayingHopping(amplitude=1.0, rate=1.2))])
    def test_slices_of_several_sites_take_the_dense_spectrum(self, sides, spec):
        local = np.random.default_rng(5)
        box = rl.LatticeBox(sides)
        potentials = local.uniform(-1.0, 1.0, size=(4, box.n_sites))
        background = rl.assemble_fixed(box, spec, np.zeros(box.n_sites)).background
        values, counts = window_eigenvalues(background, potentials, -0.5, 1.5, (0.0, 2.0))
        for b, v in enumerate(potentials):
            w = np.linalg.eigvalsh(rl.assemble_fixed(box, spec, v).matrix)
            assert values[b].tobytes() == w[(w >= -0.5) & (w < 1.5)].tobytes()
            assert counts[b] == count_in(w, 0.0, 2.0)
        assert window_eigenvalues(background, potentials, -0.5, 1.5)[1] is None


def slice_sites(local, box, layout, n):
    """n sites of ``box`` in one slice along axis 0, in two adjacent slices or
    in two slices at least two apart, with at least one site in each slice."""
    s, m = box.sides[0], box.n_sites // box.sides[0]
    if layout == "one":
        ks = [int(local.integers(0, s))]
    else:
        first = int(local.integers(0, s - (1 if layout == "adjacent" else 2)))
        ks = [first, first + 1 if layout == "adjacent" else int(local.integers(first + 2, s))]
    pool = [k * m + r for k in ks for r in range(m)]
    n = min(max(n, len(ks)), len(pool))
    picked = [int(local.choice(pool[i * m:(i + 1) * m])) for i in range(len(ks))]
    rest = [x for x in pool if x not in picked]
    return picked + [int(x) for x in local.choice(rest, size=n - len(picked), replace=False)]


class TestDetImBlock:
    """The batched det Im g (the slice sweep; a ``decaying`` model is one
    slice) against the per-sample dense reference."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 3),
           family=st.sampled_from(sorted(BOX_FAMILIES)),
           layout=st.sampled_from(["one", "adjacent", "far"]), n=st.integers(1, 3),
           rows=st.integers(1, 4))
    def test_matches_the_dense_reference(self, seed, d, family, layout, n, rows):
        local = np.random.default_rng(seed)
        first_side = int(local.integers(3, 9 if d == 1 else 6))
        box = rl.LatticeBox((first_side,) + tuple(int(x) for x in local.integers(1, 4, size=d - 1)))
        spec = BOX_FAMILIES[family](local, d)
        sites = slice_sites(local, box, layout, n)
        z = complex(local.uniform(-3, 4), local.uniform(0.02, 1.5))
        potentials = local.uniform(-2, 2, size=(rows, box.n_sites))
        operator = rl.lattice.background_operator(box, spec)
        assert isinstance(operator, BlockTridiagonal)
        if family == "decaying":  # one slice: the dense matrix
            assert operator.blocks.tobytes() == rl.build_background(box, spec).tobytes()
        values = det_im_block(operator, potentials, z, sites)
        reference = [det_im(green_block(rl.assemble_fixed(box, spec, v), z, sites, "full"))
                     for v in potentials]
        np.testing.assert_allclose(values, reference, rtol=1e-10, atol=0)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), sides=st.sampled_from([(9,), (4, 3), (3, 2, 2)]),
           layout=st.sampled_from(["one", "adjacent", "far"]))
    def test_rows_do_not_depend_on_the_batch(self, seed, sides, layout):
        # every row alone, in the whole batch, in sweeps of one row each, and
        # in folds of several rows whose span solves take fewer
        local = np.random.default_rng(seed)
        box = rl.LatticeBox(sides)
        operator = rl.lattice.background_operator(
            box, rl.Magnetic(axis_phases=(0.3, 0.9), field=0.2) if len(sides) > 1
            else rl.Laplacian())
        sites = slice_sites(local, box, layout, 2)
        potentials = local.uniform(-2, 2, size=(9, box.n_sites))
        together = det_im_block(operator, potentials, 0.4 + 0.2j, sites)
        alone = np.concatenate([det_im_block(operator, v[None], 0.4 + 0.2j, sites)
                                for v in potentials])
        chunked = []
        for stack_bytes in (1, 2500):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(rl.spectral, "_STACK_BYTES", stack_bytes)
                chunked.append(det_im_block(operator, potentials, 0.4 + 0.2j, sites).tobytes())
        assert together.tobytes() == alone.tobytes() == chunked[0] == chunked[1]

    @pytest.mark.parametrize("sides, sites", [((6,), [2]), ((6,), [1, 4]), ((4, 3), [4, 5]),
                                              ((4, 3), [1, 10]), ((3, 2, 2), [4])])
    def test_span_solve_reads_the_same_on_numpy_1(self, monkeypatch, sides, sites):
        # NumPy 1.x reads solve's b as a stack of vectors whenever
        # b.ndim == a.ndim - 1, where NumPy 2 reads one matrix; the span solve
        # must pass its right-hand side so that both rules give the same bits
        box = rl.LatticeBox(sides)
        operator = rl.lattice.background_operator(box, rl.Laplacian())
        potentials = np.random.default_rng(8).uniform(-1, 1, size=(5, box.n_sites))
        values = det_im_block(operator, potentials, 0.5 + 0.1j, sites)
        solve = np.linalg.solve

        def numpy1_solve(a, b):
            a, b = np.asarray(a), np.asarray(b)
            return solve(a, b[..., None])[..., 0] if b.ndim == a.ndim - 1 else solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", numpy1_solve)
        assert det_im_block(operator, potentials, 0.5 + 0.1j, sites).tobytes() == values.tobytes()

    def test_names_the_first_row_with_a_non_positive_im_g(self, monkeypatch):
        box = rl.LatticeBox((4, 3))
        operator = rl.lattice.background_operator(box, rl.Laplacian())
        potentials = np.random.default_rng(3).uniform(-1, 1, size=(6, 12))
        values = det_im_block(operator, potentials, 0.5 + 0.1j, [4])  # Im g = det Im g here
        threshold = np.sort(values)[2]  # the three smallest rows fail
        monkeypatch.setattr(rl.spectral, "POSITIVITY_TOL", -threshold)
        with pytest.raises(rl.NumericalFault, match="imaginary part has eigenvalue") as fault:
            det_im_block(operator, potentials, 0.5 + 0.1j, [4])
        assert fault.value.row == int(np.flatnonzero(values < threshold)[0])


class TestSliceGreen:
    """G(targets, sources) of a block by the slice sweep against the dense
    per-sample solve, with targets and sources anywhere in the box."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 3),
           family=st.sampled_from(sorted(BOX_FAMILIES)), rows=st.integers(1, 4))
    def test_matches_green_columns(self, seed, d, family, rows):
        local = np.random.default_rng(seed)
        box = rl.LatticeBox((int(local.integers(1, 9 if d == 1 else 6)),)
                            + tuple(int(x) for x in local.integers(1, 4, size=d - 1)))
        spec = BOX_FAMILIES[family](local, d)

        def sites():  # one to three distinct sites anywhere in the box
            size = int(local.integers(1, min(3, box.n_sites) + 1))
            return [int(x) for x in local.choice(box.n_sites, size=size, replace=False)]
        targets, sources = sites(), sites()
        z = complex(local.uniform(-3, 4), local.uniform(0.02, 1.5))
        potentials = local.uniform(-2, 2, size=(rows, box.n_sites))
        g = slice_green(rl.lattice.background_operator(box, spec), potentials, z, targets, sources)
        assert g.shape == (rows, len(targets), len(sources)) and g.flags.c_contiguous
        for row, v in zip(g, potentials):
            reference = green_columns(rl.assemble_fixed(box, spec, v), z, sources)[targets]
            np.testing.assert_allclose(row, reference, rtol=1e-10, atol=0)

    def test_rejects_bad_z_and_sites(self):
        operator = rl.lattice.background_operator(rl.LatticeBox((4, 3)), rl.Laplacian())
        potentials = np.zeros((2, 12))
        for z, targets, sources in [(0.5, [1], [2]), (complex(0.5, math.nan), [1], [2]),
                                    (0.5 + 0.1j, [12], [2]), (0.5 + 0.1j, [1], [2, 2]),
                                    (0.5 + 0.1j, [], [2]), (0.5 + 0.1j, [1], [2.5])]:
            with pytest.raises((ValueError, TypeError)):
                slice_green(operator, potentials, z, targets, sources)


class TestIdentitySweep:
    def test_randomized_triples(self):
        # positivity, Krein, determinant identity and Schur blocks across
        # random models, energies and subsets
        local = np.random.default_rng(5150)
        for _ in range(60):
            sample, z, subset = random_triple(local, max_side=4)
            g = rl.green_block(sample, z, subset, "full")
            gt = rl.green_block(sample, z, subset, "reduced")
            assert np.linalg.eigvalsh(imag_part(g.matrix)).min() > -1e-12
            assert np.linalg.eigvalsh(
                -imag_part(np.linalg.inv(gt.matrix))).min() > -1e-12
            assert rl.krein_check(sample, z, subset) <= 1e-9 * (
                1 + np.linalg.norm(g.matrix, 2))
            assert rl.det_identity_check(sample, z, subset) <= 1e-8
            if len(subset) < sample.box.n_sites:
                assert rl.schur_check(sample.matrix, z, subset) <= 1e-9
