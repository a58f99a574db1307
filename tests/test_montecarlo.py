import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randlat as rl
from randlat import cli
from randlat import montecarlo as mc
from conftest import BOX_FAMILIES


def make_config(sides=(10,), background=rl.Laplacian(),
                density=rl.Uniform(0.0, 1.0), samples=200, seed=17, workers=2):
    model = mc.ModelSpec(box=rl.LatticeBox(sides), background=background,
                         density=density)
    return mc.McConfig(model=model, samples=samples, master_seed=seed,
                       workers=workers)


def block_rows(sides) -> int:
    """Realizations per scheduling block on a box of ``sides``."""
    return mc._block_rows(rl.LatticeBox(sides))


@pytest.fixture
def draws(monkeypatch):
    """The length of every block ``_map_blocks`` draws, in the order drawn."""
    lengths = []

    def draw(box, density, master_seed, block):
        lengths.append(len(block))
        return rl.sample_potentials(box, density, master_seed, block)
    monkeypatch.setattr(mc, "sample_potentials", draw)
    return lengths


@pytest.fixture
def blocks_of_256(monkeypatch):
    """Scheduling blocks of 256 realizations on every box of 6 sites or more,
    as on a box of 64 sites or more, so that a few hundred samples cross one."""
    monkeypatch.setattr(mc, "_BLOCK_VALUES", 6 * 256)
    assert block_rows((6,)) == block_rows((3, 4)) == 256


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

    def test_bounds_past_a_float_power(self):
        # (pi rho)^140 at rho = 100 is past the float range, and so is 1600^100,
        # though the Wegner bound pi^100 1600^100 / 100! is not
        minami = make_config(sides=(140,), density=rl.Uniform(0.0, 0.01), samples=3)
        assert mc.mc_minami(minami, 0.5 + 0.1j, range(140)).bound == math.inf
        wegner = make_config(sides=(1600,), samples=3)
        exact = Fraction(math.pi) ** 100 * 1600 ** 100 / math.factorial(100)
        assert mc.mc_wegner_nlevel(wegner, (0.0, 1.0), 100).bound == pytest.approx(float(exact),
                                                                                   rel=1e-11)
        # a bound inside the float range is the plain float expression, to the bit
        small = make_config(sides=(16,), samples=3)
        assert mc.mc_wegner_nlevel(small, (0.0, 1.0), 20).bound == \
            (math.pi ** 20 / math.factorial(20)) * 16.0 ** 20

    def test_passes_at_three_stderr_and_no_further(self):
        def check(mean):
            return mc.BoundCheck(mc.McEstimate(mean=mean, stderr=0.25, samples=100), bound=1.0)
        assert check(1.0 + 3.0 * 0.25).passed  # 1.75, exactly at the margin
        assert not check(1.0 + 3.01 * 0.25).passed
        assert check(1.0 + 3.01 * 0.25).verdict == "FAIL"

    @pytest.mark.parametrize("mean", [1.3, 0.7, 1.0])
    def test_z_score_is_the_slack_over_the_stderr(self, mean):
        check = mc.BoundCheck(mc.McEstimate(mean=mean, stderr=0.2, samples=100), bound=1.0)
        assert check.z_score == (1.0 - mean) / 0.2
        assert math.copysign(1.0, check.z_score) == math.copysign(1.0, 1.0 - mean)

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


# every public entry point with one parameter NaN, which no check may let through
NAN_CALLS = {
    "samples": lambda: mc.McConfig(model=make_config().model, samples=math.nan, master_seed=1),
    "workers": lambda: make_config(workers=math.nan),
    "check_count": lambda: mc.check_count("n", math.nan),
    "check_positive": lambda: mc.check_positive("h", math.nan),
    "wegner-n": lambda: mc.mc_wegner_nlevel(make_config(samples=5), (0.2, 0.9), math.nan),
    "wegner-interval": lambda: mc.mc_wegner_nlevel(make_config(samples=5), (math.nan, 0.9), 1),
    "minami-z": lambda: mc.mc_minami(make_config(samples=5), complex(0.5, math.nan), [4]),
    "dos-bandwidth": lambda: mc.estimate_dos(make_config(samples=5), 0.5, bandwidth=math.nan),
    "spacing-window": lambda: mc.spacing_experiment(make_config(samples=5), 0.5, window=math.nan,
                                                    rate=1.0),
    "spacing-rate": lambda: mc.spacing_experiment(make_config(samples=5), 0.5, 1.0, rate=math.nan),
    "spacing-dos_bandwidth": lambda: mc.spacing_experiment(make_config(samples=5), 0.5, 1.0,
                                                           dos_bandwidth=math.nan),
    "fracmoment-eps": lambda: mc.frac_moment_decay(make_config(samples=5), 0.5, math.nan, 0.5),
    "fracmoment-s": lambda: mc.frac_moment_decay(make_config(samples=5), 0.5, 0.1, math.nan),
}


@pytest.mark.parametrize("call", NAN_CALLS.values(), ids=NAN_CALLS.keys())
def test_nan_parameters_rejected(call):
    with pytest.raises(ValueError):
        call()


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

    def test_estimated_rate_is_the_dos_estimate(self, monkeypatch, draws):
        cfg = make_config(sides=(40,), density=rl.Uniform(0.0, 15.0),
                          samples=30, seed=23, workers=3)

        def refuse(*args):
            raise AssertionError("a spectrum was computed row by row")
        monkeypatch.setattr(mc, "spectrum", refuse)
        stats = mc.spacing_experiment(cfg, 7.5, 30.0, dos_bandwidth=0.7)
        assert draws == [cfg.samples]  # the window and the DOS counts from one sweep of the block
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

    @pytest.mark.parametrize("window, rate", [(-1.0, 1.0), (0.0, None), (1.0, -1.0), (1.0, 0.0)])
    def test_checks_parameters_before_drawing(self, monkeypatch, window, rate):
        def refuse(*args):
            raise AssertionError("drew a realization before checking the parameters")
        monkeypatch.setattr(mc, "sample_potentials", refuse)
        with pytest.raises(ValueError):
            mc.spacing_experiment(make_config(samples=5), 0.5, window, rate=rate)

    @pytest.mark.parametrize("rate, length", [(0.5, 3.0), (1 / 15, 120.0), (2.0, 40.0)])
    def test_window_gap_law_integrates_its_density(self, rate, length):
        from scipy import integrate

        def density(t):
            return (length - t) * math.exp(-rate * t)
        total = integrate.quad(density, 0.0, length, epsabs=0, epsrel=1e-13)[0]
        for g in np.linspace(0.0, length, 13)[1:]:
            part = integrate.quad(density, 0.0, g, epsabs=0, epsrel=1e-13)[0]
            assert mc.window_gap_cdf(np.array([g]), rate, length)[0] == pytest.approx(
                part / total, rel=1e-11)
        assert mc.window_gap_cdf(np.array([0.0, length, 2 * length]), rate, length).tolist() \
            == [0.0, 1.0, 1.0]

    def test_window_gap_law_limits(self):
        # rate L -> 0: the gaps of uniform points, 1 - (1 - g/L)^2, within 2 rate L;
        # rate L -> inf: Exponential(rate), within g e^(-g rate)/(rate L - 1) <= 1/(rate L)
        g = np.linspace(0.0, 1.0, 101)
        small = mc.window_gap_cdf(g, 1e-4, 1.0)
        assert np.max(np.abs(small - (1.0 - (1.0 - g) ** 2))) <= 2e-4
        g = np.linspace(0.0, 30.0, 301)
        large = mc.window_gap_cdf(g, 1.0, 1e4)
        assert np.max(np.abs(large + np.expm1(-g))) <= 1e-4
        assert np.all(np.diff(small) > 0) and np.all(np.diff(large) >= 0)

    def test_none_chain_rejects_at_the_nominal_rate(self):
        # on a `none` chain the levels are the i.i.d. potentials, so at the true
        # rate the window's gaps follow window_gap_cdf: over 200 seeds, p < 0.05
        # must come up as often as Binomial(200, 0.05) allows (the Exponential
        # law, blind to the window, rejected 99 of these 200 runs at p < 0.05)
        from scipy import stats
        rejections = 0
        for seed in range(200):
            cfg = make_config(sides=(100,), background=None, density=rl.Uniform(0.0, 15.0),
                              samples=50, seed=seed, workers=1)
            rejections += mc.spacing_experiment(cfg, 7.5, 60.0, rate=1 / 15).ks_pvalue < 0.05
        assert stats.binomtest(rejections, 200, 0.05).pvalue > 1e-3, rejections


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


    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 3),
           family=st.sampled_from(sorted(BOX_FAMILIES)),
           max_distance=st.one_of(st.none(), st.integers(3, 5)))
    def test_block_values_match_the_dense_reference(self, seed, d, family, max_distance):
        # every row of every block (here of 2 rows), |G(target, origin)|^s from
        # the slice sweep, against frac_moment on that realization's dense H
        local = np.random.default_rng(seed)
        sides = ((int(local.integers(4, 10 if d == 1 else 7)),)
                 + tuple(int(x) for x in local.integers(1, 4, size=d - 1)))
        spec = BOX_FAMILIES[family](local, d)
        cfg = make_config(sides=sides, background=spec, density=rl.Uniform(-2.0, 2.0),
                          samples=int(local.integers(1, 6)), seed=int(local.integers(0, 2 ** 32)))
        z = complex(local.uniform(-3, 4), local.uniform(0.02, 1.5))
        s = float(local.uniform(0.1, 0.9))
        blocks, map_blocks = [], mc._map_blocks

        def recording(*args, **kwargs):
            blocks.extend(map_blocks(*args, **kwargs))
            return blocks
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mc, "_map_blocks", recording)
            patch.setattr(mc, "_BLOCK_SIZE", 2)
            patch.setattr(mc, "_BLOCK_VALUES", 0)
            fit = mc.frac_moment_decay(cfg, z.real, z.imag, s, max_distance)
        box = cfg.model.box
        assert [len(b) for b in blocks] == [2] * (cfg.samples // 2) + [1] * (cfg.samples % 2)
        assert np.concatenate(blocks).shape == (cfg.samples, fit.distances.size)
        for i, row in enumerate(np.concatenate(blocks)):
            sample = rl.assemble(box, spec, cfg.model.density, (cfg.master_seed, i))
            reference = [rl.frac_moment(sample, box.index_of((int(r),) + (0,) * (d - 1)), 0, z, s)
                         for r in fit.distances]
            np.testing.assert_allclose(row, reference, rtol=1e-10, atol=0)

    @pytest.fixture(scope="class")
    def strong_disorder(self):
        cfg = make_config(sides=(12,), density=rl.Uniform(0.0, 15.0), samples=40, seed=8)
        return cfg, mc.frac_moment_decay(cfg, 7.5, 0.1, 0.5)

    def test_log_means_are_the_log_of_the_mean_moment(self, strong_disorder):
        # E |G(0, y)|^s, the paper's fractional moment, from the per-row dense reference
        cfg, fit = strong_disorder
        box = cfg.model.box
        rows = mc.run_realizations(cfg, lambda sample: [
            rl.frac_moment(sample, box.index_of((int(r),)), 0, 7.5 + 0.1j, 0.5)
            for r in fit.distances])
        assert not fit.below_floor
        np.testing.assert_allclose(fit.log_means, np.log(np.mean(rows, axis=0)), rtol=1e-10, atol=0)

    def test_fit_is_the_least_squares_line(self, strong_disorder):
        _, fit = strong_disorder
        x, y = fit.distances, fit.log_means
        (slope, intercept), *_ = np.linalg.lstsq(np.column_stack([x, np.ones_like(x)]), y,
                                                 rcond=None)
        r_squared = 1.0 - np.sum((y - slope * x - intercept) ** 2) / np.sum((y - y.mean()) ** 2)
        assert fit.slope == pytest.approx(slope, rel=1e-10)
        assert fit.intercept == pytest.approx(intercept, rel=1e-10)
        assert fit.r_squared == pytest.approx(r_squared, rel=1e-10)


def lorentz_mean(lo: float, hi: float, z: complex) -> float:
    """E Im (V - z)^-1 for V ~ Uniform(lo, hi): the mean of Im g on one site of
    the diagonal model."""
    return (math.atan((hi - z.real) / z.imag) - math.atan((lo - z.real) / z.imag)) / (hi - lo)


class TestDiagonalWitnesses:
    """Closed forms on the diagonal model (no background: H = diag V, whose
    eigenvalues are the i.i.d. potentials), checked two-sided.  There the
    paper's bounds are nearly attained, so a wrong factor shows, where the
    one-sided bound checks let it through.  Each run spans several scheduling
    blocks.  The mutants these tests kill are listed in ``tests/mutate.py``."""

    @pytest.mark.parametrize("sides, sites", [
        pytest.param((16,), [5], id="chain-n1"), pytest.param((16,), [5, 6], id="chain-n2"),
        pytest.param((4, 4), [5], id="box-n1"), pytest.param((4, 4), [5, 6], id="box-n2-slice"),
        pytest.param((4, 4), [5, 10], id="box-n2-apart"),
        pytest.param((4, 3, 3), [0, 13, 35], id="box3d-n3")])
    def test_minami_mean_is_the_lorentzian_power(self, draws, sides, sites):
        # E det Im g = prod over the sites of E Im (V_x - z)^-1, near (pi rho)^n
        z = 0.5 + 0.1j
        cfg = make_config(sides=sides, background=None, samples=3 * block_rows(sides) + 100,
                          seed=2024)
        est = mc.mc_minami(cfg, z, sites).estimate
        exact = lorentz_mean(0.0, 1.0, z) ** len(sites)
        assert abs(est.mean - exact) <= 4.0 * est.stderr, (est, exact)
        assert len(draws) == 4

    def test_stderr_is_calibrated(self):
        # over K = 100 seeds of 2 000 samples, the z-scores of the n = 1 mean against
        # its closed form must have a sample variance inside the two-sided 99.9%
        # interval of chi2(99) / 99, [0.60, 1.54]: a stderr off by a factor c moves
        # it by 1 / c^2
        z = 0.5 + 0.1j
        exact = lorentz_mean(0.0, 1.0, z)
        scores = []
        for seed in range(100):
            cfg = make_config(sides=(16,), background=None, samples=2000, seed=seed, workers=1)
            est = mc.mc_minami(cfg, z, [5]).estimate
            scores.append((est.mean - exact) / est.stderr)
        assert 0.60 <= np.var(scores, ddof=1) <= 1.54

    @pytest.mark.parametrize("interval", [(0.45, 0.55), (0.495, 0.505)])
    @pytest.mark.parametrize("n, sides", [(1, (10,)), (2, (10,)), (3, (4, 3, 3))],
                             ids=["1", "2", "3-box3d"])
    def test_wegner_frequency_is_the_binomial_tail(self, draws, interval, n, sides):
        # the count in [a, b) of N i.i.d. Uniform(0, 1) levels is Binomial(N, b - a),
        # so the hits over S samples are Binomial(S, P(count >= n)): an exact
        # two-sided binomial test, which holds for rare hits where +-k stderr does not
        from scipy import stats
        cfg = make_config(sides=sides, background=None, samples=3 * block_rows(sides) + 100,
                          seed=2024)
        a, b = interval
        tail = float(stats.binom.sf(n - 1, cfg.model.box.n_sites, b - a))
        hits = round(mc.mc_wegner_nlevel(cfg, interval, n).estimate.mean * cfg.samples)
        assert stats.binomtest(hits, cfg.samples, tail).pvalue > 1e-4, (hits, tail * cfg.samples)
        assert len(draws) == 4

    @pytest.mark.parametrize("energy, bandwidth", [(0.5, 0.05), (0.98, 0.05)])
    @pytest.mark.parametrize("sides", [(10,), (4, 3, 3)])
    def test_dos_is_the_window_probability(self, draws, sides, energy, bandwidth):
        # E dos = (F(E + h) - F(E - h)) / 2h, here p / 2h for p the length of
        # [E - h, E + h) inside [0, 1): the window's counts summed over S samples
        # of N levels are Binomial(S N, p), tested exactly and two-sided
        from scipy import stats
        cfg = make_config(sides=sides, background=None, samples=3 * block_rows(sides) + 100,
                          seed=2024)
        trials = cfg.samples * cfg.model.box.n_sites
        p = min(energy + bandwidth, 1.0) - max(energy - bandwidth, 0.0)
        total = round(mc.estimate_dos(cfg, energy, bandwidth).mean * 2 * bandwidth * trials)
        assert stats.binomtest(total, trials, p).pvalue > 1e-4, (total, p * trials)
        assert len(draws) == 4


class TestBackgroundForm:
    """A nearest-neighbour background is its slices in any dimension: no run
    on one builds the dense N x N matrix.  Only ``decaying`` does, as its one slice."""

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
    def test_chains_never_build_the_dense_background(self, monkeypatch, draws, background):
        self.refuse_dense_builds(monkeypatch)
        rows = block_rows((40,))
        cfg = make_config(sides=(40,), background=background, samples=rows + 7,
                          density=rl.Uniform(-1.0, 1.0))
        assert len(mc.count_realizations(cfg, -0.5, 0.5)) == cfg.samples
        assert mc.spacing_experiment(cfg, 0.0, 1.0, rate=0.25).counts.size == cfg.samples
        assert draws == [rows, 7] * 2  # each run crosses a scheduling block
        sample = rl.assemble_fixed(cfg.model.box, background, np.zeros(40))
        assert sample.matrix.shape == (40, 40)  # built from the bands on request

    def test_nearest_neighbour_boxes_never_build_it(self, monkeypatch, draws):
        self.refuse_dense_builds(monkeypatch)
        for sides, background in [((3, 4), rl.Laplacian()),
                                  ((2, 3, 2), rl.Magnetic(axis_phases=(0.3,), field=0.5))]:
            rows = block_rows(sides)
            cfg = make_config(sides=sides, background=background, samples=rows + 7,
                              density=rl.Uniform(-1.0, 1.0), workers=2)
            assert len(mc.count_realizations(cfg, -0.5, 0.5)) == cfg.samples
            assert mc.mc_minami(cfg, 0.5 + 0.1j, [1, 7]).estimate.samples == cfg.samples
            # the decay fit needs 3 distances along axis 0, which these boxes lack
            longer = make_config(sides=(5,) + sides[1:], background=background, samples=9)
            assert mc.frac_moment_decay(longer, 0.5, 0.1, 0.5).distances.size == 4
            assert mc.spacing_experiment(cfg, 0.0, 1.0, rate=0.25).counts.size == cfg.samples
            sample = rl.assemble_fixed(cfg.model.box, background, np.zeros(12))
            assert sample.matrix.shape == (12, 12)  # built from the slices on request
            # the count, minami and spacing runs each cross a scheduling block
            assert sorted(draws) == [7, 7, 7, 9, rows, rows, rows]
            draws.clear()
        decaying = make_config(sides=(3, 4), background=rl.DecayingHopping(amplitude=1.0, rate=1.2),
                               samples=5)
        with pytest.raises(self.DenseBuild):
            mc.count_realizations(decaying, -0.5, 0.5)


# every experiment, as a call on a config
EXPERIMENTS = {
    "wegner": lambda cfg: mc.mc_wegner_nlevel(cfg, (-0.5, 0.5), 1),
    "ids": lambda cfg: mc.estimate_ids(cfg, 0.2),
    "dos": lambda cfg: mc.estimate_dos(cfg, 0.2, 0.5),
    "minami": lambda cfg: mc.mc_minami(cfg, 0.5 + 0.1j, [1, 2]),
    "spacing": lambda cfg: mc.spacing_experiment(cfg, 0.0, 1.0, rate=0.25),
    "fracmoment": lambda cfg: mc.frac_moment_decay(cfg, 0.5, 0.1, 0.5),
}


class TestCallingThread:
    """Every experiment draws each scheduling block at once, never one
    realization at a time.  Only ``mc_minami`` on slices of more than one
    site uses the thread pool: every other kernel, and ``mc_minami`` on a
    chain or on one slice (a ``decaying`` background), runs on the calling thread."""

    def test_chains_and_counts_never_reach_the_pool(self, monkeypatch, draws):
        def refuse(*args, **kwargs):
            raise AssertionError("realizations went to the thread pool")
        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", refuse)

        def crossing(sides, **kwargs):  # a config of two scheduling blocks
            return make_config(sides=sides, samples=block_rows(sides) + 7, workers=8, **kwargs)
        cfg = crossing((8,))
        assert mc.mc_minami(cfg, 0.5 + 0.1j, [3, 4]).estimate.samples == cfg.samples
        assert mc.frac_moment_decay(cfg, 0.5, 0.1, 0.5).distances.size == 7
        dense = crossing((3, 4))
        assert len(mc.count_realizations(dense, -0.5, 0.5)) == dense.samples
        assert mc.spacing_experiment(dense, 0.0, 1.0, rate=0.25).counts.size == dense.samples
        longer = crossing((5, 4))
        assert mc.frac_moment_decay(longer, 0.5, 0.1, 0.5).distances.size == 4
        decaying = crossing((64,), background=rl.DecayingHopping(amplitude=1.0, rate=1.2))
        assert mc.mc_minami(decaying, 0.5 + 0.1j, [3, 4]).estimate.samples == decaying.samples
        assert draws == [block_rows((8,)), 7] * 2 + [block_rows((3, 4)), 7] * 2 + \
            [block_rows((5, 4)), 7, 256, 7]

    def test_minami_on_slices_reaches_the_pool(self, monkeypatch, draws):
        pools = []

        def record(*args, **kwargs):
            pools.append(kwargs)
            return ThreadPoolExecutor(*args, **kwargs)
        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", record)
        cfg = make_config(sides=(3, 4), samples=block_rows((3, 4)) + 7, workers=2)
        assert mc.mc_minami(cfg, 0.5 + 0.1j, [1, 7]).estimate.samples == cfg.samples
        assert pools == [{"max_workers": 2}]
        assert sorted(draws) == [7, block_rows((3, 4))]

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    @pytest.mark.parametrize("sides, background", [
        pytest.param((8,), rl.Laplacian(), id="chain"),
        pytest.param((4, 3), rl.Laplacian(), id="box"),
        pytest.param((4, 3, 2), rl.Magnetic(axis_phases=(0.3,), field=0.5), id="magnetic"),
        pytest.param((6,), rl.DecayingHopping(amplitude=1.0, rate=1.2), id="decaying")])
    def test_draws_whole_blocks(self, monkeypatch, draws, sides, background, experiment):
        def refuse(*args):
            raise AssertionError("a realization was drawn alone")
        monkeypatch.setattr(rl.lattice, "sample_potential", refuse)
        rows = block_rows(sides)
        cfg = make_config(sides=sides, background=background, density=rl.Uniform(-1.0, 1.0),
                          samples=rows + 7, workers=2)
        EXPERIMENTS[experiment](cfg)
        # one draw per scheduling block; minami's slice sweep may draw on the pool
        assert sorted(draws) == [7, rows]

    def test_block_rows_follow_the_potentials_drawn(self, draws):
        # the three workload shapes: a 10-site chain, a 16 x 16 box, and a
        # 1600-site chain whose 8 samples are one block
        assert (mc._BLOCK_SIZE, mc._BLOCK_VALUES) == (256, 1 << 14)
        assert block_rows((10,)) == 1638 and block_rows((16, 16)) == 256
        mc.mc_wegner_nlevel(make_config(samples=2 * 1638 + 5), (0.2, 0.9), 1)
        mc.mc_minami(make_config(sides=(16, 16), samples=257, workers=1), 0.5 + 0.1j, [135, 136])
        mc.mc_wegner_nlevel(make_config(sides=(1600,), samples=8), (0.2, 0.9), 1)
        assert draws == [1638, 1638, 5, 256, 1, 8]


class TestReproducibility:
    def test_bit_identical_across_worker_counts(self, draws):
        # a chain's sweep runs on the calling thread; a 2D box's blocks on the pool
        for sides, sites in [((10,), [2, 3]), ((4, 5), [6, 12])]:
            for workers in (1, 2, 3, 8):
                cfg = make_config(sides=sides, samples=block_rows(sides) + 37, seed=42,
                                  workers=workers)
                chk = mc.mc_minami(cfg, 0.5 + 0.1j, sites)
                if workers == 1:
                    reference = chk
                else:
                    assert chk.estimate == reference.estimate
                assert sorted(draws) == [37, block_rows(sides)]  # two scheduling blocks
                draws.clear()

    @pytest.mark.parametrize("sides, background", [
        ((10,), rl.Laplacian()), ((4, 5), rl.Magnetic(axis_phases=(0.2, 0.5), field=0.3)),
        ((10,), rl.DecayingHopping(amplitude=1.0, rate=1.2))])
    def test_minami_rows_bit_identical_whatever_the_block(self, monkeypatch, draws, sides,
                                                          background):
        # a 7-sample run is the prefix of a run over more than one scheduling
        # block, realization by realization, and one-row sweeps change nothing
        values = []
        monkeypatch.setattr(mc, "_estimate", lambda v: values.append(v) or mc.McEstimate(0, 0, 0))
        for samples, workers in [(7, 1), (block_rows(sides) + 37, 2)]:
            cfg = make_config(sides=sides, background=background, samples=samples, workers=workers)
            mc.mc_minami(cfg, 0.3 + 0.2j, [3, 9])
        assert sorted(draws) == [7, 37, block_rows(sides)]
        monkeypatch.setattr(rl.spectral, "_STACK_BYTES", 1)
        mc.mc_minami(make_config(sides=sides, background=background, samples=7), 0.3 + 0.2j, [3, 9])
        small, big, one_row = values
        assert small.tobytes() == big[:7].tobytes() == one_row.tobytes()

    # at these seeds the realization of least Im g is 275, in the second
    # 256-row scheduling block, on the chain and 255, the last of the first, on the box
    @pytest.mark.parametrize("sides, seed", [((6,), 11), ((3, 4), 9)])
    @pytest.mark.parametrize("failing", ["all", "least"])
    def test_minami_fault_names_the_first_failing_realization(self, monkeypatch, blocks_of_256,
                                                              sides, seed, failing):
        # as the per-sample reference path does, whichever scheduling block fails
        cfg = make_config(sides=sides, samples=256 + 37, seed=seed, workers=2)
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

    @pytest.mark.parametrize("samples", [130, 256 + 37])
    def test_counts_bit_identical_across_worker_counts(self, blocks_of_256, draws, samples):
        # the block-drawn count path, on either side of one 256-row scheduling block
        results = {}
        for workers in (1, 3, 8):
            cfg = make_config(sides=(6,), samples=samples, seed=42, workers=workers)
            results[workers] = (mc.mc_wegner_nlevel(cfg, (0.2, 0.9), 1).estimate,
                                mc.estimate_ids(cfg, 0.7))
        assert results[1] == results[3] == results[8]
        assert draws == ([130] if samples == 130 else [256, 37]) * 6

    @pytest.mark.parametrize("sides", [pytest.param((6,), id="chain"),
                                       pytest.param((4, 4), id="dense")])  # per-row: never pooled
    def test_block_boundary_independence(self, draws, sides):
        # more samples than one scheduling block
        big = block_rows(sides) + 37
        vals = {}
        for workers in (1, 4):
            cfg = make_config(sides=sides, samples=big, seed=5, workers=workers)
            vals[workers] = mc.run_realizations(
                cfg, lambda s: float(np.linalg.eigvalsh(s.matrix)[0]))
        assert vals[1] == vals[4]
        assert draws == [block_rows(sides), 37] * 2

    @pytest.mark.parametrize("sides, background", [
        ((7,), rl.Laplacian()),
        ((7,), rl.PeriodicPotential(period=(2,), values=(0.3, -0.4))),
        ((7,), rl.Magnetic(axis_phases=(0.8,))),
        ((7,), None),
        ((2, 3), rl.Laplacian()),          # dense: eigvalsh of each row
        ((6,), rl.DecayingHopping(amplitude=1.0, rate=1.2)),
    ])
    def test_counts_match_per_sample_reference(self, blocks_of_256, draws, sides, background):
        cfg = make_config(sides=sides, background=background, samples=256 + 37,
                          seed=2 ** 64 + 9, workers=2)
        for a, b in [(0.1, 0.9), (-math.inf, 1.3)]:
            counts = mc.count_realizations(cfg, a, b)
            reference = mc.run_realizations(
                cfg, lambda s: rl.count_eigenvalues(s.matrix, (a, b)))
            assert counts.dtype.kind == "i"
            assert counts.tolist() == reference
        assert draws == [256, 37] * 4

    @pytest.mark.parametrize("experiment, model", [
        pytest.param({"name": "wegner", "interval": [0.2, 0.9], "n": 2}, {}, id="wegner"),
        pytest.param({"name": "ids", "energy": 0.7}, {}, id="ids"),
        pytest.param({"name": "dos", "energy": 0.5, "bandwidth": 0.2}, {}, id="dos"),
        pytest.param({"name": "minami", "z": [0.5, 0.1], "delta": [3, 4]}, {}, id="minami-chain"),
        pytest.param({"name": "minami", "z": [0.5, 0.1], "delta": [1, 7]}, {"sides": [4, 3]},
                     id="minami-box"),
        pytest.param({"name": "minami", "z": [0.5, 0.1], "delta": [3, 9]},
                     {"background": {"variant": "decaying", "amplitude": 1.0, "rate": 1.2}},
                     id="minami-decaying"),
        pytest.param({"name": "spacing", "energy": 0.5, "window": 4.0, "dos_bandwidth": 0.3}, {},
                     id="spacing"),
        pytest.param({"name": "fracmoment", "energy": 0.5, "eps": 0.1, "s": 0.5}, {},
                     id="fracmoment")])
    def test_records_whatever_the_block(self, monkeypatch, draws, experiment, model):
        # 1-row blocks, 7-row blocks and the production blocks write the same bytes
        raw = {"model": {"sides": [12], "background": {"variant": "laplacian"},
                         "density": {"variant": "uniform", "lo": 0.0, "hi": 1.0}, **model},
               "experiment": {**experiment, "samples": 40}, "runtime": {"seed": 3, "workers": 2}}
        written = []
        for size, values in [(1, 0), (7, 0), (mc._BLOCK_SIZE, mc._BLOCK_VALUES)]:
            monkeypatch.setattr(mc, "_BLOCK_SIZE", size)
            monkeypatch.setattr(mc, "_BLOCK_VALUES", values)
            written.append(cli.dumps(cli.run_experiment(cli.parse_config(raw))))
        assert written[0] == written[1] == written[2]
        assert sorted(draws) == sorted([1] * 40 + [7] * 5 + [5] + [40])

    @pytest.mark.parametrize("sides", [[40], [5, 4]], ids=["chain", "box"])
    @pytest.mark.parametrize("rate", [{"dos_bandwidth": 0.3}, {"rate": 0.9}],
                             ids=["estimated-rate", "rate"])
    def test_spacing_records_whatever_the_block_and_workers(self, monkeypatch, sides, rate):
        # a chain's window eigenvalues by multisection, each row the same whatever
        # the other rows of its block
        raw = {"model": {"sides": sides, "background": {"variant": "laplacian"},
                         "density": {"variant": "uniform", "lo": 0.0, "hi": 1.0}},
               "experiment": {"name": "spacing", "energy": 0.5, "window": 4.0, "samples": 20,
                              **rate},
               "runtime": {"seed": 3, "workers": 1}}
        written = set()
        for size, values in [(1, 0), (7, 0), (mc._BLOCK_SIZE, mc._BLOCK_VALUES)]:
            monkeypatch.setattr(mc, "_BLOCK_SIZE", size)
            monkeypatch.setattr(mc, "_BLOCK_VALUES", values)
            for workers in (1, 2):
                raw["runtime"]["workers"] = workers
                (record,) = cli.run_experiment(cli.parse_config(raw))
                assert record["n_gaps"] > 0
                written.add(cli.dumps(record))
        assert len(written) == 1

    def test_estimator_is_pure(self):
        cfg = make_config(samples=60, seed=31)
        a = mc.estimate_ids(cfg, 0.7)
        b = mc.estimate_ids(cfg, 0.7)
        assert a == b
