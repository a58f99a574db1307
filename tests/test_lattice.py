import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import randlat as rl
from conftest import background_variants


class TestLatticeBox:
    def test_site_count_and_bijection(self):
        box = rl.LatticeBox((3, 4))
        assert box.n_sites == 12
        coords = box.coordinates()
        for i in range(12):
            assert box.index_of(coords[i]) == i
            assert box.site_of(i) == tuple(coords[i])

    def test_lexicographic_order(self):
        box = rl.LatticeBox((2, 2))
        assert [tuple(c) for c in box.coordinates()] == \
            [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_invalid_sides(self):
        with pytest.raises(rl.ModelError):
            rl.LatticeBox((0, 3))
        with pytest.raises(rl.ModelError):
            rl.LatticeBox(())


class TestBackground:
    def test_laplacian_1d_tridiagonal(self):
        h = rl.build_background(rl.LatticeBox((3,)), rl.Laplacian())
        assert np.array_equal(h, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_magnetic_zero_phase_two_sites(self):
        spec = rl.Magnetic()
        h = rl.build_background(rl.LatticeBox((2,)), spec)
        assert np.allclose(h, [[2, -1], [-1, 2]])

    def test_decaying_hopping_3_sites(self):
        spec = rl.DecayingHopping(amplitude=1.0, rate=1.0, truncation_radius=2.0)
        h = rl.build_background(rl.LatticeBox((3,)), spec)
        assert h[0, 1] == pytest.approx(np.exp(-1.0))
        assert h[0, 2] == pytest.approx(np.exp(-2.0))
        assert np.all(np.diag(h) == 0)

    def test_decaying_truncation_drops_long_bonds(self):
        spec = rl.DecayingHopping(amplitude=1.0, rate=1.0, truncation_radius=1.0)
        h = rl.build_background(rl.LatticeBox((3,)), spec)
        assert h[0, 2] == 0.0

    def test_decaying_matrix_elements_bounded(self, rng):
        spec = rl.DecayingHopping(amplitude=2.0, rate=0.7)
        box = rl.LatticeBox((4, 3))
        h = rl.build_background(box, spec)
        coords = box.coordinates()
        dist = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)
        assert np.all(np.abs(h) <= 2.0 * np.exp(-0.7 * dist) + 1e-15)

    def test_periodic_potential_mod_period(self):
        spec = rl.PeriodicPotential(period=(2,), values=(0.5, -0.5))
        h = rl.build_background(rl.LatticeBox((5,)), spec)
        assert np.allclose(np.diag(h), [0.5, -0.5, 0.5, -0.5, 0.5])
        assert h[0, 1] == 1.0  # hopping part unchanged

    def test_invalid_parameters(self):
        with pytest.raises(rl.ModelError):
            rl.DecayingHopping(amplitude=1.0, rate=0.0)
        with pytest.raises(rl.ModelError):
            rl.DecayingHopping(amplitude=-1.0, rate=1.0)
        with pytest.raises(rl.ModelError):
            rl.PeriodicPotential(period=(2,), values=(1.0,))

    @pytest.mark.parametrize("sides, spec", [
        pytest.param((4, 4), rl.PeriodicPotential(period=(2,), values=(0.5, -0.5)),
                     id="period-short"),
        pytest.param((4,), rl.PeriodicPotential(period=(2, 2), values=(1, 2, 3, 4)),
                     id="period-long"),
        pytest.param((6,), rl.Magnetic(axis_phases=(0.3, 0.7)), id="axis-phases-past-box"),
        pytest.param((6,), rl.Magnetic(field=0.5), id="field-on-1d-box"),
    ])
    def test_parameters_the_box_cannot_carry_rejected(self, sides, spec):
        with pytest.raises(rl.ModelError):
            rl.build_background(rl.LatticeBox(sides), spec)

    def test_magnetic_gauge_is_antisymmetric_landau(self):
        # bond x -> x + e_k carries theta_k, plus field * x_0 on axis 1
        box = rl.LatticeBox((3, 4))
        h = rl.build_background(box, rl.Magnetic(axis_phases=(0.3,), field=0.5))
        for x0, x1 in [(0, 0), (1, 2), (2, 1)]:
            i = box.index_of((x0, x1))
            assert h[i, i + 1] == pytest.approx(-np.exp(1j * 0.5 * x0))
            assert h[i + 1, i] == pytest.approx(-np.exp(-1j * 0.5 * x0))
        i = box.index_of((1, 3))
        assert h[i, i + 4] == pytest.approx(-np.exp(0.3j))
        assert h[i + 4, i] == pytest.approx(-np.exp(-0.3j))

    @pytest.mark.parametrize("dim,sides", [(1, (7,)), (2, (3, 4))])
    def test_hermiticity_exact(self, dim, sides):
        box = rl.LatticeBox(sides)
        for spec in background_variants(dim):
            h = rl.build_background(box, spec)
            assert np.max(np.abs(h - h.conj().T)) == 0.0

    @pytest.mark.parametrize("sides", [(1,), (6,), (1, 1), (1, 4), (4, 1), (3, 5),
                                       (1, 1, 1), (2, 3, 4), (3, 1, 2), (1, 4, 1)])
    def test_hopping_exactly_on_unit_distance(self, sides):
        box = rl.LatticeBox(sides)
        coords = box.coordinates()
        unit = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=-1) == 1
        off_diagonal = ~np.eye(box.n_sites, dtype=bool)
        for spec in background_variants(len(sides))[:3]:  # the nearest-neighbor families
            h = rl.build_background(box, spec)
            assert np.array_equal((h != 0) & off_diagonal, unit)

    @pytest.mark.parametrize("sides", [(1,), (7,), (3, 4), (1, 5), (2, 3, 2)])
    def test_built_as_the_mirrored_upper_triangle(self, sides):
        # h + h* summed on the bonds alone is the full sum, to the bit
        box = rl.LatticeBox(sides)
        specs = background_variants(len(sides)) + [None, rl.Magnetic()]
        if len(sides) >= 2:
            specs.append(rl.Magnetic(axis_phases=(0.4, -1.1), field=0.7))
        for spec in specs:
            h = rl.build_background(box, spec)
            upper = np.triu(h, 1)
            reference = upper + upper.conj().T
            reference[np.diag_indices(box.n_sites)] = np.diagonal(h)
            assert reference.dtype == h.dtype and reference.tobytes() == h.tobytes()

    def test_magnetic_modulus_matches_zero_phase(self):
        box = rl.LatticeBox((3, 3))
        h_phase = rl.build_background(box, rl.Magnetic(axis_phases=(0.7, 1.3)))
        h_zero = rl.build_background(box, rl.Magnetic())
        assert np.allclose(np.abs(h_phase), np.abs(h_zero))

    def test_translation_structure_in_bulk(self):
        # entries depend only on x - y away from the boundary
        box = rl.LatticeBox((9,))
        for spec in (rl.Laplacian(), rl.DecayingHopping(amplitude=1.0, rate=1.0)):
            h = rl.build_background(box, spec)
            for x in range(3, 6):
                for r in range(1, 3):
                    assert h[x, x + r] == pytest.approx(h[4, 4 + r])

    def test_zero_background_hook(self):
        h = rl.build_background(rl.LatticeBox((4,)), None)
        assert np.array_equal(h, np.zeros((4, 4)))

    @pytest.mark.parametrize("sides", [(1,), (7,), (3, 4), (1, 5), (5, 1), (2, 3, 2), (3, 1, 2)])
    def test_slices_are_the_dense_build_to_the_bit(self, sides):
        # the slice form comes from the same description as build_background:
        # its blocks are the dense diagonal blocks, its couplings the diagonals
        # of the blocks one slice on, and every other entry is 0; a chain's
        # slices are single sites.  dense_hamiltonian rebuilds H from them
        # as the dense background plus diag(V) would give it
        box = rl.LatticeBox(sides)
        specs = background_variants(len(sides))[:3] + [None]
        if len(sides) >= 2:
            specs.append(rl.Magnetic(axis_phases=(0.4, -1.1), field=0.7))
        s, m = sides[0], box.n_sites // sides[0]
        v = np.random.default_rng(7).uniform(-2, 2, size=box.n_sites)
        assert np.all(v != 0)
        for spec in specs:
            form, dense = rl.lattice.background_operator(box, spec), rl.build_background(box, spec)
            assert isinstance(form, rl.lattice.BlockTridiagonal)
            blocks, couplings = form
            assert blocks.shape == (s, m, m) and couplings.shape == (s - 1, m)
            reference = dense.copy()
            reference[np.diag_indices(box.n_sites)] += v
            assert rl.lattice.dense_hamiltonian(form, v).tobytes() == reference.tobytes()
            rebuilt = np.zeros_like(dense)
            for k in range(s):
                rebuilt[k * m:(k + 1) * m, k * m:(k + 1) * m] = blocks[k]
            for k in range(s - 1):
                rebuilt[k * m:(k + 1) * m, (k + 1) * m:(k + 2) * m] = np.diag(couplings[k])
                rebuilt[(k + 1) * m:(k + 2) * m, k * m:(k + 1) * m] = np.diag(couplings[k].conj())
            assert rebuilt.tobytes() == dense.tobytes()

    def test_decaying_slices_stay_dense(self):
        box, spec = rl.LatticeBox((2, 3)), rl.DecayingHopping(amplitude=1.0, rate=1.2)
        form = rl.lattice.background_operator(box, spec)
        # one slice of all six sites: the dense build, to the bit
        assert isinstance(form, rl.lattice.BlockTridiagonal)
        assert form.blocks.shape == (1, 6, 6) and form.couplings.shape == (0, 6)
        assert form.blocks.tobytes() == rl.build_background(box, spec).tobytes()


class TestDensities:
    def test_uniform_sup_density(self):
        assert rl.Uniform(0.0, 4.0).sup_density == 0.25

    def test_piecewise_normalization_enforced(self):
        with pytest.raises(rl.ModelError):
            rl.PiecewiseConstant(breakpoints=(0.0, 1.0), weights=(0.5,))
        rl.PiecewiseConstant(breakpoints=(0.0, 1.0), weights=(1.0,))

    def test_piecewise_sup_density(self):
        dens = rl.PiecewiseConstant(breakpoints=(0.0, 0.5, 1.0), weights=(1.5, 0.5))
        assert dens.sup_density == 1.5

    def test_piecewise_ppf_matches_cdf(self, rng):
        dens = rl.PiecewiseConstant(breakpoints=(-1.0, 0.0, 2.0), weights=(0.6, 0.2))
        u = rng.random(1000)
        x = dens.ppf(u)
        assert np.allclose(dens.cdf(x), u, atol=1e-12)
        assert np.all((x >= -1.0) & (x <= 2.0))

    def test_invalid_piecewise(self):
        with pytest.raises(rl.ModelError):
            rl.PiecewiseConstant(breakpoints=(0.0, 0.0, 1.0), weights=(1.0, 1.0))
        with pytest.raises(rl.ModelError):
            rl.PiecewiseConstant(breakpoints=(0.0, 1.0), weights=(-1.0,))


class TestSampling:
    def test_support_containment(self):
        box = rl.LatticeBox((50,))
        v = rl.sample_potential(box, rl.Uniform(0.0, 1.0), (123, 0))
        assert np.all((v >= 0.0) & (v <= 1.0))

    def test_same_seed_identical(self):
        box = rl.LatticeBox((5, 5))
        dens = rl.Uniform(-2.0, 3.0)
        v1 = rl.sample_potential(box, dens, (99, 7))
        v2 = rl.sample_potential(box, dens, (99, 7))
        assert np.array_equal(v1, v2)

    def test_different_realizations_differ(self):
        box = rl.LatticeBox((20,))
        dens = rl.Uniform(0.0, 1.0)
        assert not np.array_equal(rl.sample_potential(box, dens, (99, 0)),
                                  rl.sample_potential(box, dens, (99, 1)))

    def test_law_of_large_numbers(self):
        # oracle: an independent generator's sample mean agrees with ours
        box = rl.LatticeBox((100000,))
        v = rl.sample_potential(box, rl.Uniform(0.0, 1.0), (7, 0))
        reference = np.random.default_rng(314159).random(100000)
        assert abs(v.mean() - 0.5) < 0.01
        assert abs(reference.mean() - 0.5) < 0.01
        assert abs(v.mean() - reference.mean()) < 0.01

    @settings(max_examples=25, deadline=None)
    @given(master=st.integers(0, 2 ** 63 - 1), realization=st.integers(0, 10 ** 6))
    def test_seed_determinism_property(self, master, realization):
        box = rl.LatticeBox((11,))
        dens = rl.Uniform(0.0, 1.0)
        v1 = rl.sample_potential(box, dens, (master, realization))
        v2 = rl.sample_potential(box, dens, (master, realization))
        assert np.array_equal(v1, v2)


PIECEWISE = rl.PiecewiseConstant(breakpoints=(-1.0, 0.5, 2.0), weights=(0.5, 1.0 / 6.0))


class TestBlockDraw:
    """``sample_potentials`` against its reference, ``sample_potential`` row by row."""

    @settings(max_examples=200, deadline=None)
    @given(master=st.integers(0, 2 ** 160),
           indices=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=5),
           n=st.integers(1, 70), piecewise=st.booleans())
    @example(master=0, indices=[0, 1, 2 ** 32 - 1], n=1, piecewise=False)
    @example(master=2 ** 32 - 1, indices=[7], n=5, piecewise=True)
    @example(master=2 ** 32, indices=[2 ** 32 - 1, 0], n=4, piecewise=False)
    @example(master=2 ** 128 + 3, indices=[12], n=70, piecewise=True)
    @example(master=2 ** 160, indices=[2 ** 31], n=9, piecewise=False)
    def test_bit_identical_to_per_sample_draw(self, master, indices, n, piecewise):
        box = rl.LatticeBox((n,))
        density = PIECEWISE if piecewise else rl.Uniform(-2.0, 3.0)
        block = rl.sample_potentials(box, density, master, indices)
        reference = np.stack([rl.sample_potential(box, density, (master, i))
                              for i in indices])
        assert block.shape == reference.shape == (len(indices), n)
        assert block.tobytes() == reference.tobytes()

    def test_range_on_2d_box(self):
        box = rl.LatticeBox((3, 5))
        block = rl.sample_potentials(box, PIECEWISE, 404, range(250, 262))
        for row, i in zip(block, range(250, 262)):
            assert row.tobytes() == rl.sample_potential(box, PIECEWISE, (404, i)).tobytes()

    def test_rejects_bad_keys(self):
        box, density = rl.LatticeBox((4,)), rl.Uniform(0.0, 1.0)
        for indices in ([2 ** 32], [-1]):
            with pytest.raises(ValueError):
                rl.sample_potentials(box, density, 1, indices)
        with pytest.raises(ValueError):
            rl.sample_potentials(box, density, -1, [0])

    @pytest.mark.parametrize("seed", [7.5, True, -1], ids=["fractional", "bool", "negative"])
    def test_every_entry_rejects_a_seed_that_is_not_a_natural_number(self, seed):
        # a check that truncates would draw seed 7 for 7.5, and seed 1 for True
        box, density = rl.LatticeBox((4,)), rl.Uniform(0.0, 1.0)
        model = rl.ModelSpec(box, rl.Laplacian(), density)
        for call in (lambda: rl.sample_potentials(box, density, seed, [0]),
                     lambda: rl.sample_potential(box, density, (seed, 0)),
                     lambda: rl.assemble(box, rl.Laplacian(), density, (seed, 0)),
                     lambda: rl.McConfig(model, samples=4, master_seed=seed)):
            with pytest.raises(ValueError if seed == -1 else TypeError):
                call()

    @pytest.mark.parametrize("seed, key", [(7.0, 7), (np.int64(7), 7), (2 ** 160, 2 ** 160)],
                             ids=["integral-float", "numpy-int", "2**160"])
    def test_integral_seeds_draw_their_integer_stream(self, seed, key):
        box, density = rl.LatticeBox((9,)), rl.Uniform(-2.0, 3.0)
        block = rl.sample_potentials(box, density, seed, [0, 5])
        assert block.tobytes() == rl.sample_potentials(box, density, key, [0, 5]).tobytes()
        assert block.tobytes() == np.stack([rl.sample_potential(box, density, (seed, i))
                                            for i in (0, 5)]).tobytes()
        config = rl.McConfig(rl.ModelSpec(box, rl.Laplacian(), density), 4, seed)
        assert type(config.master_seed) is int and config.master_seed == key


class TestAssembly:
    def test_zero_potential_hook(self):
        box = rl.LatticeBox((4,))
        sample = rl.assemble_fixed(box, rl.Laplacian(), np.zeros(4))
        assert np.array_equal(sample.matrix,
                              rl.build_background(box, rl.Laplacian()))

    def test_one_site(self):
        sample = rl.assemble_fixed(rl.LatticeBox((1,)), rl.Laplacian(), [0.7])
        assert np.array_equal(sample.matrix, [[0.7]])

    def test_two_site(self):
        sample = rl.assemble_fixed(rl.LatticeBox((2,)), rl.Laplacian(), [0.1, -0.4])
        assert np.array_equal(sample.matrix, [[0.1, 1.0], [1.0, -0.4]])

    def test_assemble_reproducible(self):
        box = rl.LatticeBox((3, 3))
        s1 = rl.assemble(box, rl.Laplacian(), rl.Uniform(0, 1), (5, 2))
        s2 = rl.assemble(box, rl.Laplacian(), rl.Uniform(0, 1), (5, 2))
        assert np.array_equal(s1.matrix, s2.matrix)
        assert s1.seed_record == rl.SeedRecord(5, 2)

    def test_assembled_hermitian(self):
        box = rl.LatticeBox((2, 3))
        for spec in background_variants(2):
            sample = rl.assemble(box, spec, rl.Uniform(-1, 1), (1, 0))
            h = sample.matrix
            assert np.max(np.abs(h - h.conj().T)) == 0.0
