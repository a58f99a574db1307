import math

import numpy as np
import pytest

import randlat as rl
from randlat import montecarlo as mc


def make_config(sides=(10,), background=rl.Laplacian(),
                density=rl.Uniform(0.0, 1.0), samples=200, seed=17, workers=2):
    model = mc.ModelSpec(box=rl.LatticeBox(sides), background=background,
                         density=density)
    return mc.McConfig(model=model, samples=samples, master_seed=seed,
                       workers=workers)


class TestBounds:
    def test_minami_bound_values(self):
        cfg = make_config(samples=50)
        n1 = mc.mc_minami(cfg, 0.5 + 0.1j, [4])
        n2 = mc.mc_minami(cfg, 0.5 + 0.1j, [4, 5])
        assert n1.bound == pytest.approx(math.pi)
        assert n2.bound == pytest.approx(math.pi ** 2)
        assert n1.passed and n2.passed

    def test_minami_with_wider_density(self):
        cfg = make_config(density=rl.Uniform(0.0, 2.0), samples=50)
        chk = mc.mc_minami(cfg, 1.0 + 0.2j, [2, 7])
        assert chk.bound == pytest.approx((math.pi / 2.0) ** 2)

    def test_wegner_bound_values(self):
        cfg = make_config(samples=50)
        n2 = mc.mc_wegner_nlevel(cfg, (0.495, 0.505), 2)
        assert n2.bound == pytest.approx(math.pi ** 2 / 200.0, rel=1e-12)
        n1 = mc.mc_wegner_nlevel(cfg, (0.475, 0.525), 1)
        assert n1.bound == pytest.approx(math.pi / 2.0, rel=1e-12)
        assert n1.passed  # vacuous bound > 1 still PASSes

    def test_wegner_monotone_in_n(self):
        cfg = make_config(samples=500, seed=4)
        interval = (0.2, 0.8)
        freqs = [mc.mc_wegner_nlevel(cfg, interval, n).estimate.mean
                 for n in (1, 2, 3)]
        assert freqs[0] >= freqs[1] >= freqs[2]

    def test_wegner_n1_matches_nonzero_count_frequency(self):
        cfg = make_config(samples=300, seed=9)
        interval = (0.4, 0.6)
        freq = mc.mc_wegner_nlevel(cfg, interval, 1).estimate.mean

        def kernel(sample):
            w = np.linalg.eigvalsh(sample.matrix)
            return 1.0 if np.count_nonzero((w >= 0.4) & (w < 0.6)) == 0 else 0.0

        zero_freq = np.mean(mc.run_realizations(cfg, kernel))
        assert freq == pytest.approx(1.0 - zero_freq)

    def test_invalid_arguments(self):
        cfg = make_config(samples=10)
        with pytest.raises(ValueError):
            mc.mc_wegner_nlevel(cfg, (0.0, math.inf), 1)
        with pytest.raises(ValueError):
            mc.mc_wegner_nlevel(cfg, (0.5, 0.4), 1)
        with pytest.raises(ValueError):
            mc.mc_wegner_nlevel(cfg, (0.0, 1.0), 0)


class TestMinorSumLinkage:
    def test_per_realization_identity(self):
        cfg = make_config(sides=(8,), samples=10, seed=2)

        def kernel(sample):
            minor_sum, trace_form = mc.minor_sum_linkage(sample, 0.5 + 0.3j)
            return abs(minor_sum - trace_form) / abs(trace_form)

        residuals = mc.run_realizations(cfg, kernel)
        assert max(residuals) <= 1e-8


class TestIds:
    def test_extremes(self):
        cfg = make_config(samples=50)
        assert mc.estimate_ids(cfg, -10.0).mean == 0.0
        assert mc.estimate_ids(cfg, 10.0).mean == 1.0

    def test_symmetric_midpoint(self):
        # Laplacian + Uniform(-1, 1) has a statistically symmetric spectrum
        cfg = make_config(density=rl.Uniform(-1.0, 1.0), samples=400, seed=6)
        est = mc.estimate_ids(cfg, 0.0)
        assert abs(est.mean - 0.5) <= 3.0 * est.stderr + 1e-3

    def test_monotone_in_energy(self):
        cfg = make_config(samples=100, seed=8)
        values = [mc.estimate_ids(cfg, e).mean for e in (-1.0, 0.0, 1.0, 2.0)]
        assert values == sorted(values)


class TestDos:
    def test_matches_density_for_diagonal_model(self):
        # hopping removed: eigenvalues are the potential values, so the
        # DOS is the disorder density itself
        cfg = make_config(background=None, samples=400, seed=3)
        est = mc.estimate_dos(cfg, 0.5, 0.05)
        assert est.mean == pytest.approx(1.0, abs=3.0 * est.stderr + 0.05)

    def test_normalization_over_grid(self):
        cfg = make_config(samples=150, seed=13)
        grid = np.linspace(-2.6, 3.6, 32)
        step = grid[1] - grid[0]
        total = sum(mc.estimate_dos(cfg, e, step / 2).mean for e in grid) * step
        assert total == pytest.approx(1.0, abs=0.05)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            mc.estimate_dos(make_config(samples=10), 0.5, 0.0)


class TestRescaledPoints:
    def test_eigenvalue_at_reference_energy(self):
        sample = rl.assemble_fixed(rl.LatticeBox((1,)), None, [0.7])
        assert mc.rescaled_points(sample, 0.7)[0] == pytest.approx(0.0)

    def test_scaling_by_volume(self):
        sample = rl.assemble_fixed(rl.LatticeBox((10,)), None,
                                   np.full(10, 0.55))
        pts = mc.rescaled_points(sample, 0.5)
        assert np.allclose(pts, 0.5)  # 10 * (0.55 - 0.5)

    def test_shift_covariance(self):
        sample = rl.assemble_fixed(rl.LatticeBox((5,)), rl.Laplacian(),
                                   np.arange(5) * 0.1)
        delta = 0.2
        shifted = mc.rescaled_points(sample, 0.3 + delta)
        assert np.allclose(shifted, mc.rescaled_points(sample, 0.3) - 5 * delta)


class TestSpacing:
    def test_synthetic_poisson_process(self):
        # harness sanity: feed actual Poisson-process draws; the KS
        # statistic against the true rate must be small
        local = np.random.default_rng(77)
        lam, window = 0.1, 100.0
        point_sets = []
        for _ in range(400):
            k = local.poisson(2 * window * lam)
            point_sets.append(local.uniform(-window, window, size=k))
        stats = mc.spacing_statistics(point_sets, window, lam)
        assert stats.ks_distance < 0.03
        assert stats.count_chi2_pvalue > 0.01
        assert stats.mean_count == pytest.approx(2 * window * lam, rel=0.1)

    def test_histogram_totals(self):
        local = np.random.default_rng(5)
        point_sets = [local.uniform(-1, 1, size=local.poisson(4.0))
                      for _ in range(50)]
        stats = mc.spacing_statistics(point_sets, 1.0, 2.0)
        assert len(stats.counts) == 50
        assert np.all(stats.gaps >= 0)

    def test_experiment_runs_end_to_end(self):
        cfg = make_config(sides=(40,), density=rl.Uniform(0.0, 15.0),
                          samples=60, seed=19)
        stats = mc.spacing_experiment(cfg, 7.5, 30.0, dos_bandwidth=1.0)
        assert stats.rate > 0
        assert np.isfinite(stats.ks_distance)

    def test_estimated_rate_is_the_dos_estimate(self, monkeypatch):
        cfg = make_config(sides=(40,), density=rl.Uniform(0.0, 15.0),
                          samples=30, seed=23, workers=3)
        spectrum, calls = mc.spectrum, []
        monkeypatch.setattr(mc, "spectrum", lambda s: calls.append(1) or spectrum(s))
        stats = mc.spacing_experiment(cfg, 7.5, 30.0, dos_bandwidth=0.7)
        assert len(calls) == cfg.samples  # one spectrum per realization
        assert stats.rate == mc.estimate_dos(cfg, 7.5, 0.7).mean

    def test_zero_estimated_rate_is_a_numerical_fault(self):
        # no eigenvalue within the default dos_bandwidth of 0.5 in 5 draws
        cfg = make_config(samples=5)
        with pytest.raises(rl.NumericalFault, match="dos_bandwidth"):
            mc.spacing_experiment(cfg, 0.5, 1.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            mc.spacing_statistics([np.array([0.1])], 1.0, 0.0)
        with pytest.raises(ValueError):
            mc.spacing_statistics([np.array([0.1])], -1.0, 1.0)


class TestFracMomentDecay:
    def test_diagonal_model_below_floor(self):
        cfg = make_config(sides=(8,), background=None, samples=20, seed=1)
        fit = mc.frac_moment_decay(cfg, 0.5, 0.1, 0.5)
        assert fit.below_floor
        assert fit.slope == -math.inf

    def test_strong_disorder_localized(self):
        cfg = make_config(sides=(24,), density=rl.Uniform(0.0, 15.0),
                          samples=300, seed=23)
        fit = mc.frac_moment_decay(cfg, 7.5, 0.1, 0.5)
        assert fit.slope < 0
        assert fit.r_squared > 0.9

    def test_rejects_bad_parameters(self):
        cfg = make_config(sides=(10,), samples=10)
        with pytest.raises(ValueError):
            mc.frac_moment_decay(cfg, 0.5, 0.1, 1.2)
        with pytest.raises(ValueError):
            mc.frac_moment_decay(cfg, 0.5, -0.1, 0.5)
        with pytest.raises(ValueError):
            mc.frac_moment_decay(make_config(sides=(3,), samples=10),
                                 0.5, 0.1, 0.5)


class TestBackgroundForm:
    """A nearest-neighbour background is its slices in any dimension: no run
    on one builds the dense N x N matrix.  Only ``decaying`` stays dense."""

    class DenseBuild(Exception):
        pass

    def refuse_dense_builds(self, monkeypatch):
        def refuse(box, spec):
            raise self.DenseBuild(box)
        for module in (rl, rl.lattice, mc, rl.spectral):
            if hasattr(module, "build_background"):
                monkeypatch.setattr(module, "build_background", refuse)

    @pytest.mark.parametrize("background", [
        rl.Laplacian(), rl.PeriodicPotential(period=(2,), values=(0.3, -0.4)),
        rl.Magnetic(axis_phases=(0.8,)), None])
    def test_chains_never_build_the_dense_background(self, monkeypatch, background):
        self.refuse_dense_builds(monkeypatch)
        cfg = make_config(sides=(40,), background=background, samples=mc._BLOCK_SIZE + 7,
                          density=rl.Uniform(-1.0, 1.0))
        assert len(mc.count_realizations(cfg, -0.5, 0.5)) == cfg.samples
        assert mc.spacing_experiment(cfg, 0.0, 1.0, rate=0.25).counts.size == cfg.samples
        sample = rl.assemble_fixed(cfg.model.box, background, np.zeros(40))
        assert sample.matrix.shape == (40, 40)  # built from the bands on request

    def test_nearest_neighbour_boxes_never_build_it(self, monkeypatch):
        self.refuse_dense_builds(monkeypatch)
        for sides, background in [((3, 4), rl.Laplacian()),
                                  ((2, 3, 2), rl.Magnetic(axis_phases=(0.3,), field=0.5))]:
            cfg = make_config(sides=sides, background=background, samples=mc._BLOCK_SIZE + 7,
                              density=rl.Uniform(-1.0, 1.0), workers=2)
            assert len(mc.count_realizations(cfg, -0.5, 0.5)) == cfg.samples
            assert mc.mc_minami(cfg, 0.5 + 0.1j, [1, 7]).estimate.samples == cfg.samples
            # the decay fit needs 3 distances along axis 0, which these boxes lack
            longer = make_config(sides=(5,) + sides[1:], background=background, samples=9)
            assert mc.frac_moment_decay(longer, 0.5, 0.1, 0.5).distances.size == 4
            assert mc.spacing_experiment(cfg, 0.0, 1.0, rate=0.25).counts.size == cfg.samples
            sample = rl.assemble_fixed(cfg.model.box, background, np.zeros(12))
            assert sample.matrix.shape == (12, 12)  # built from the slices on request
        decaying = make_config(sides=(3, 4), background=rl.DecayingHopping(amplitude=1.0, rate=1.2),
                               samples=5)
        with pytest.raises(self.DenseBuild):
            mc.count_realizations(decaying, -0.5, 0.5)


class TestCallingThread:
    """Counts on every background, and every kernel on a chain, run on the
    calling thread; only the kernels of a model off a chain use the pool.
    Counts and minami draw each block at once, never one realization at a
    time."""

    def test_chains_and_counts_never_reach_the_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("realizations went to the thread pool")
        monkeypatch.setattr(mc, "ThreadPoolExecutor", refuse)
        cfg = make_config(sides=(8,), samples=mc._BLOCK_SIZE + 7, workers=8)
        assert mc.mc_minami(cfg, 0.5 + 0.1j, [3, 4]).estimate.samples == cfg.samples
        assert mc.frac_moment_decay(cfg, 0.5, 0.1, 0.5).distances.size == 7
        dense = make_config(sides=(3, 4), samples=mc._BLOCK_SIZE + 7, workers=8)
        assert len(mc.count_realizations(dense, -0.5, 0.5)) == dense.samples

    @pytest.mark.parametrize("sides, background", [
        ((8,), rl.Laplacian()), ((3, 4), rl.Laplacian()),
        ((2, 3, 2), rl.Magnetic(axis_phases=(0.3,), field=0.5)),
        ((6,), rl.DecayingHopping(amplitude=1.0, rate=1.2))])
    def test_minami_draws_whole_blocks(self, monkeypatch, sides, background):
        def refuse(*args):
            raise AssertionError("minami drew one realization at a time")
        monkeypatch.setattr(mc, "sample_potential", refuse)
        cfg = make_config(sides=sides, background=background,
                          samples=mc._BLOCK_SIZE + 7, workers=2)
        assert mc.mc_minami(cfg, 0.5 + 0.1j, [1, 2]).estimate.samples == cfg.samples

    @pytest.mark.parametrize("sides, background", [
        ((3, 4), rl.Laplacian()), ((6,), rl.DecayingHopping(amplitude=1.0, rate=1.2))])
    def test_dense_counts_draw_whole_blocks(self, monkeypatch, sides, background):
        def refuse(*args):
            raise AssertionError("a count drew one realization at a time")
        monkeypatch.setattr(mc, "sample_potential", refuse)
        cfg = make_config(sides=sides, background=background,
                          samples=mc._BLOCK_SIZE + 7, workers=3)
        assert len(mc.count_realizations(cfg, -0.5, 0.5)) == cfg.samples


class TestReproducibility:
    def test_bit_identical_across_worker_counts(self):
        # a chain's sweep runs on the calling thread; a 2D box's blocks on the pool
        for sides, samples, sites in [((10,), 130, [2, 3]), ((4, 5), mc._BLOCK_SIZE + 37, [6, 12])]:
            for workers in (1, 2, 3, 8):
                cfg = make_config(sides=sides, samples=samples, seed=42, workers=workers)
                chk = mc.mc_minami(cfg, 0.5 + 0.1j, sites)
                if workers == 1:
                    reference = chk
                else:
                    assert chk.estimate == reference.estimate

    @pytest.mark.parametrize("sides, background", [
        ((10,), rl.Laplacian()), ((4, 5), rl.Magnetic(axis_phases=(0.2, 0.5), field=0.3)),
        ((10,), rl.DecayingHopping(amplitude=1.0, rate=1.2))])
    def test_minami_rows_bit_identical_whatever_the_block(self, monkeypatch, sides, background):
        # a 7-sample run is the prefix of a run over more than one scheduling
        # block, realization by realization, and one-row sweeps change nothing
        values = []
        monkeypatch.setattr(mc, "_estimate", lambda v: values.append(v) or mc.McEstimate(0, 0, 0))
        for samples, workers in [(7, 1), (mc._BLOCK_SIZE + 37, 2)]:
            cfg = make_config(sides=sides, background=background, samples=samples, workers=workers)
            mc.mc_minami(cfg, 0.3 + 0.2j, [3, 9])
        monkeypatch.setattr(rl.spectral, "_STACK_BYTES", 1)
        mc.mc_minami(make_config(sides=sides, background=background, samples=7), 0.3 + 0.2j, [3, 9])
        small, big, one_row = values
        assert small.tobytes() == big[:7].tobytes() == one_row.tobytes()

    # at these seeds the realization of least Im g is 275, in the second
    # scheduling block, on the chain and 255, the last of the first, on the box
    @pytest.mark.parametrize("sides, seed", [((6,), 11), ((3, 4), 9)])
    @pytest.mark.parametrize("failing", ["all", "least"])
    def test_minami_fault_names_the_first_failing_realization(self, monkeypatch, sides, seed,
                                                              failing):
        # as the per-sample reference path does, whichever scheduling block fails
        cfg = make_config(sides=sides, samples=mc._BLOCK_SIZE + 37, seed=seed, workers=2)
        z, sites = 0.5 + 0.1j, [4]

        def lowest(sample):  # the smallest eigenvalue of Im g, here Im g itself
            return float(rl.green_block(sample, z, sites).matrix[0, 0].imag)

        lows = np.array(mc.run_realizations(cfg, lowest))
        threshold = math.inf if failing == "all" else np.sort(lows)[1]
        expected = int(np.flatnonzero(lows < threshold)[0])
        assert expected == (0 if failing == "all" else {(6,): 275, (3, 4): 255}[sides])
        monkeypatch.setattr(rl.spectral, "POSITIVITY_TOL", -threshold)
        with pytest.raises(rl.NumericalFault, match=f"^realization {expected}: imaginary part"):
            mc.mc_minami(cfg, z, sites)
        with pytest.raises(rl.NumericalFault, match=f"^realization {expected}: imaginary part"):
            mc.run_realizations(cfg, lambda s: rl.det_im(rl.green_block(s, z, sites)))

    @pytest.mark.parametrize("samples", [130, mc._BLOCK_SIZE + 37])
    def test_counts_bit_identical_across_worker_counts(self, samples):
        # the block-drawn count path, on either side of one scheduling block
        results = {}
        for workers in (1, 3, 8):
            cfg = make_config(sides=(6,), samples=samples, seed=42, workers=workers)
            results[workers] = (mc.mc_wegner_nlevel(cfg, (0.2, 0.9), 1).estimate,
                                mc.estimate_ids(cfg, 0.7))
        assert results[1] == results[3] == results[8]

    @pytest.mark.parametrize("sides", [pytest.param((6,), id="chain"),
                                       pytest.param((4, 4), id="dense")])  # dense: on the pool
    def test_block_boundary_independence(self, sides):
        # more samples than one scheduling block
        big = mc._BLOCK_SIZE + 37
        vals = {}
        for workers in (1, 4):
            cfg = make_config(sides=sides, samples=big, seed=5, workers=workers)
            vals[workers] = mc.run_realizations(
                cfg, lambda s: float(np.linalg.eigvalsh(s.matrix)[0]))
        assert vals[1] == vals[4]

    @pytest.mark.parametrize("sides, background", [
        ((7,), rl.Laplacian()),
        ((7,), rl.PeriodicPotential(period=(2,), values=(0.3, -0.4))),
        ((7,), rl.Magnetic(axis_phases=(0.8,))),
        ((7,), None),
        ((2, 3), rl.Laplacian()),          # dense: eigvalsh of each row
        ((6,), rl.DecayingHopping(amplitude=1.0, rate=1.2)),
    ])
    def test_counts_match_per_sample_reference(self, sides, background):
        cfg = make_config(sides=sides, background=background, samples=mc._BLOCK_SIZE + 37,
                          seed=2 ** 64 + 9, workers=2)
        for a, b in [(0.1, 0.9), (-math.inf, 1.3)]:
            counts = mc.count_realizations(cfg, a, b)
            reference = mc.run_realizations(
                cfg, lambda s: rl.count_eigenvalues(s.matrix, (a, b)))
            assert counts.dtype.kind == "i"
            assert counts.tolist() == reference

    def test_estimator_is_pure(self):
        cfg = make_config(samples=60, seed=31)
        a = mc.estimate_ids(cfg, 0.7)
        b = mc.estimate_ids(cfg, 0.7)
        assert a == b
