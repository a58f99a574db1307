"""Reproducible Monte Carlo over disorder realizations: moment bounds on
Green blocks, n-level eigenvalue-count bounds, integrated density of
states, level-spacing statistics and fractional-moment decay fits.

Every realization is a pure function of (model, master seed, realization
index), and every kernel's rows are independent of the other rows in its
block; reduction happens in realization-index order, so results are
bit-identical for any worker count and any block size.

One driver, ``_map_blocks``, draws each scheduling block of realizations at
once and hands it to a kernel on ``background_operator``'s slices: the counts
of ``wegner``, ``ids`` and ``dos`` (``count_block``), the slice sweep
``slice_green`` of ``mc_minami`` and ``frac_moment_decay``, or the window's
eigenvalues of ``spacing`` (``window_eigenvalues``).  ``run_realizations``,
one realization at a time as a sample, is the per-sample reference.  A block
holds about ``_BLOCK_VALUES`` potential values, and at least ``_BLOCK_SIZE``
realizations: its size depends on the box alone, never on ``workers``.  Only ``mc_minami``
over several slices of several sites shares the blocks among ``workers`` threads.

The level statistics test the gaps seen in a window against the law of a
Poisson process's gaps seen through it (``window_gap_cdf``), and the window
counts against the Poisson law, by the tests of ``gof``: numpy and ``math``
alone, loaded by the spacing statistics only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .lattice import (BackgroundSpec, BlockTridiagonal, DisorderDensity, HamiltonianSample,
                      LatticeBox, SeedRecord, as_integer, as_seed, background_operator,
                      sample_potentials)
from .spectral import (NumericalFault, _as_z, check_exponent, count_block, det_im_block,
                       green_columns, imag_part, slice_green, spectrum, sum_principal_minors,
                       window_eigenvalues)

# A scheduling block holds max(_BLOCK_SIZE, _BLOCK_VALUES // N) realizations of a box of
# N sites (``_block_rows``), so that on a small box each numpy call over it does real
# work; larger blocks gain little and raise the peak memory.  It depends on the box alone,
# never on ``workers``, and every kernel's rows are independent of the other rows in it.
_BLOCK_SIZE = 256
_BLOCK_VALUES = 1 << 14


@dataclass(frozen=True)
class ModelSpec:
    box: LatticeBox
    background: BackgroundSpec
    density: DisorderDensity


@dataclass(frozen=True)
class McConfig:
    model: ModelSpec
    samples: int
    master_seed: int
    workers: int = 1

    def __post_init__(self):
        check_count("samples", self.samples)
        check_count("workers", self.workers)
        object.__setattr__(self, "master_seed", as_seed(self.master_seed))


# ---------------------------------------------------------------------------
# parameter checks, shared by the experiments below and by config parsing
# ---------------------------------------------------------------------------

def check_count(name: str, value: int, least: int = 1) -> int:
    if not value >= least:  # NaN too
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def check_interval(interval: tuple[float, float]) -> tuple[float, float]:
    a, b = interval
    length = b - a
    if not np.isfinite(length) or length <= 0:
        raise ValueError(f"interval must be bounded and nonempty, got {interval}")
    return interval


def check_positive(name: str, value: float) -> float:
    if not value > 0:  # NaN too
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def decay_reach(box: LatticeBox, max_distance: Optional[int]) -> int:
    """Largest distance along the first axis that the decay fit uses."""
    reach = box.sides[0] - 1
    if max_distance is not None:
        reach = min(as_integer(max_distance), reach)
    if reach < 3:
        raise ValueError(f"need at least 3 distances along the first axis, got {reach}")
    return reach


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    samples: int


@dataclass(frozen=True)
class BoundCheck:
    """A Monte Carlo estimate against a theoretical upper bound; PASS
    allows a 3-stderr one-sided margin for sampling noise."""

    estimate: McEstimate
    bound: float

    @property
    def slack(self) -> float:
        return self.bound - self.estimate.mean

    @property
    def z_score(self) -> float:
        if self.estimate.stderr == 0.0:
            return math.inf if self.slack >= 0 else -math.inf
        return self.slack / self.estimate.stderr

    @property
    def passed(self) -> bool:
        return self.estimate.mean <= self.bound + 3.0 * self.estimate.stderr

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"


def _bound(power: Callable[[], float], log_bound: float) -> float:
    """The bound ``power()`` evaluates or, if a step of it overflows, exp(``log_bound``),
    which is inf past the float range."""
    try:
        return power()
    except OverflowError:
        with np.errstate(over="ignore"):
            return float(np.exp(log_bound))


def _estimate(values: np.ndarray) -> McEstimate:
    values = np.asarray(values, dtype=float)
    m = len(values)
    stderr = float(np.std(values, ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return McEstimate(mean=float(np.mean(values)), stderr=stderr, samples=m)


def _block_rows(box: LatticeBox) -> int:
    """Realizations per scheduling block on ``box``."""
    return max(_BLOCK_SIZE, _BLOCK_VALUES // box.n_sites)


def _map_blocks(config: McConfig,
                kernel: Callable[[BlockTridiagonal, np.ndarray, range], Sequence],
                stacked: bool = False) -> list:
    """``kernel(operator, potentials, block)`` of every scheduling block, in
    order: ``operator`` is the model's ``background_operator``, built once,
    and ``potentials`` the block's (B, N) draw (``sample_potentials``).  A
    ``NumericalFault`` is raised again naming the realization of its ``row``.
    numpy holds the interpreter lock around one matrix's LAPACK call and
    releases it around a stack, so only a ``stacked`` kernel (``mc_minami``'s
    slice sweep) over more than one slice of m > 1 sites shares the blocks
    among ``config.workers`` threads; every other kernel runs on the calling thread."""
    model = config.model
    operator = background_operator(model.box, model.background)

    def run_block(block: range) -> Sequence:
        potentials = sample_potentials(model.box, model.density, config.master_seed, block)
        try:
            return kernel(operator, potentials, block)
        except NumericalFault as exc:
            where = (f"realization {block[exc.row]}" if exc.row is not None else
                     f"realizations {block.start} to {block.stop - 1}")
            raise NumericalFault(f"{where}: {exc}") from exc

    rows = _block_rows(model.box)
    blocks = [range(start, min(start + rows, config.samples))
              for start in range(0, config.samples, rows)]
    pooled = stacked and min(operator.blocks.shape[:2]) > 1  # (slices, m)
    if not pooled or config.workers == 1 or len(blocks) == 1:
        return [run_block(block) for block in blocks]
    from concurrent.futures import ThreadPoolExecutor  # only a pooled run loads it

    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        return list(pool.map(run_block, blocks))


def run_realizations(config: McConfig,
                     kernel: Callable[[HamiltonianSample], object]) -> list:
    """``kernel`` of every realization as a ``HamiltonianSample``, in
    realization-index order: a per-row adapter over ``_map_blocks``."""
    box = config.model.box

    def rows(operator: BlockTridiagonal, potentials: np.ndarray, block: range) -> list:
        out = []
        for row, (i, potential) in enumerate(zip(block, potentials)):
            sample = HamiltonianSample(box, operator, potential, SeedRecord(config.master_seed, i))
            try:
                out.append(kernel(sample))
            except NumericalFault as exc:
                raise NumericalFault(str(exc), row) from exc
        return out

    return [item for result in _map_blocks(config, rows) for item in result]


def count_realizations(config: McConfig, a: float, b: float) -> np.ndarray:
    """The number of eigenvalues in [a, b) of every realization, as an int
    array in realization-index order, each block counted at once (``count_block``)."""
    return np.concatenate(_map_blocks(config, lambda op, v, _: count_block(op, v, a, b)))


# ---------------------------------------------------------------------------
# moment / counting bounds
# ---------------------------------------------------------------------------

def mc_minami(config: McConfig, z, indices: Sequence[int]) -> BoundCheck:
    """Mean of det Im g over realizations vs the bound
    (pi * sup_density)^n for a subset of n sites, each scheduling block
    reduced at once by the slice sweep (``det_im_block``)."""
    zc = _as_z(z)
    vals = np.concatenate(_map_blocks(
        config, lambda op, v, _: det_im_block(op, v, zc, indices), stacked=True))
    n, rho = len(indices), config.model.density.sup_density
    bound = _bound(lambda: (math.pi * rho) ** n, n * math.log(math.pi * rho))
    return BoundCheck(estimate=_estimate(vals), bound=bound)


def mc_wegner_nlevel(config: McConfig, interval: tuple[float, float],
                     n: int) -> BoundCheck:
    """Empirical frequency of at least n eigenvalues in the interval vs
    the bound (pi^n / n!) sup_density^n |J|^n |box|^n."""
    check_count("n", n)
    a, b = check_interval(interval)
    length = b - a

    hits = count_realizations(config, a, b) >= n
    rho = config.model.density.sup_density
    vol = config.model.box.n_sites
    bound = _bound(lambda: (math.pi ** n / math.factorial(n)) * (rho * length * vol) ** n,
                   n * math.log(math.pi * rho * length * vol) - math.lgamma(n + 1))
    return BoundCheck(estimate=_estimate(hits), bound=bound)


def minor_sum_linkage(sample: HamiltonianSample, z) -> tuple[float, float]:
    """Per-realization identity: the sum of 2x2 principal-minor
    determinants of Im R equals [(Tr Im R)^2 - Tr (Im R)^2]/2.
    Returns (minor_sum, trace_form)."""
    im_r = imag_part(green_columns(sample, z, range(sample.box.n_sites)))
    minor_sum = sum_principal_minors(im_r, 2)
    tr = float(np.trace(im_r).real)
    tr_sq = float(np.trace(im_r @ im_r).real)
    return minor_sum, (tr * tr - tr_sq) / 2.0


# ---------------------------------------------------------------------------
# density of states
# ---------------------------------------------------------------------------

def estimate_ids(config: McConfig, energy: float) -> McEstimate:
    """Mean of #{eigenvalues < E} / |box| over realizations."""
    return _estimate(count_realizations(config, -math.inf, energy) / config.model.box.n_sites)


def _dos_window(energy: float, bandwidth: float) -> tuple[float, float]:
    """[E - h, E + h), the window whose eigenvalue count, over 2 h |box|
    (``_dos_values``), estimates the density of states at E."""
    check_positive("bandwidth", bandwidth)
    return energy - bandwidth, energy + bandwidth


def _dos_values(counts: np.ndarray, bandwidth: float, vol: int) -> np.ndarray:
    return counts / (2.0 * bandwidth * vol)


def estimate_dos(config: McConfig, energy: float, bandwidth: float = 0.05) -> McEstimate:
    """Central-difference estimate of the density of states at E with
    half-width ``bandwidth``; the O(h) bias is accepted and recorded by
    the caller, not corrected here."""
    counts = count_realizations(config, *_dos_window(energy, bandwidth))
    return _estimate(_dos_values(counts, bandwidth, config.model.box.n_sites))


# ---------------------------------------------------------------------------
# level statistics
# ---------------------------------------------------------------------------

def rescaled_points(sample: HamiltonianSample, energy: float) -> np.ndarray:
    """|box| * (E_j - E) for all eigenvalues E_j of the realization."""
    return sample.box.n_sites * (spectrum(sample) - energy)


@dataclass(frozen=True)
class SpacingStats:
    """Pooled rescaled-spectrum statistics around a reference energy."""

    window: float
    rate: float                      # reference intensity (DOS estimate)
    gaps: np.ndarray = field(repr=False)       # within-realization gaps, pooled
    counts: np.ndarray = field(repr=False)     # per-realization window counts
    ks_distance: float
    ks_pvalue: float
    count_chi2_pvalue: float
    mean_count: float
    expected_count: float            # 2 * window * rate


def window_gap_cdf(g: np.ndarray, rate: float, length: float) -> np.ndarray:
    """F(g) = P(min(g, L)) / P(L): the law of the gaps of a Poisson process of
    intensity ``rate`` whose two ends both fall in a window of length L.  A gap
    g is seen with weight (L - g), so its density is proportional to
    (L - g) e^(-rate g) on [0, L] (the Palm distribution; Daley & Vere-Jones,
    vol. I, 2003), and with x = rate g,
    P(g) = (L - g)(1 - e^(-x))/rate + (x - 1 + e^(-x))/rate^2, two terms >= 0."""
    def mass(g):
        x = rate * g
        seen = -np.expm1(-x)  # 1 - e^(-x), exact for small x
        return (length - g) * seen / rate + (x - seen) / rate ** 2

    return mass(np.minimum(g, length)) / mass(length)


def spacing_statistics(point_sets: Sequence[np.ndarray], window: float,
                       rate: float) -> SpacingStats:
    """Build spacing statistics from per-realization rescaled point sets.

    Gaps are nearest-neighbor differences within each realization's
    window [-window, window), pooled across realizations; they are tested
    against the law of a Poisson process's gaps seen through that window
    (``window_gap_cdf``).  Window counts are tested against
    Poisson(2 * window * rate).
    """
    return _window_statistics([pts[(pts >= -window) & (pts < window)] for pts in point_sets],
                              window, rate)


def _window_statistics(inside: Sequence[np.ndarray], window: float, rate: float) -> SpacingStats:
    """``spacing_statistics`` of the point sets ``inside``, each already in the window."""
    check_positive("window", window)
    check_positive("rate", rate)
    from . import gof  # the goodness-of-fit tests, which no other experiment loads
    gap_chunks = [np.diff(np.sort(pts)) for pts in inside if len(pts) >= 2]
    gaps = np.concatenate(gap_chunks) if gap_chunks else np.empty(0)
    counts = np.array([len(pts) for pts in inside], dtype=int)
    if len(gaps) > 0:
        ks_distance, ks_pvalue = gof.ks_test(gaps, lambda g: window_gap_cdf(g, rate, 2.0 * window))
    else:
        ks_distance, ks_pvalue = math.nan, math.nan
    return SpacingStats(
        window=window, rate=rate, gaps=gaps, counts=counts,
        ks_distance=ks_distance, ks_pvalue=ks_pvalue,
        count_chi2_pvalue=gof.poisson_chi2_pvalue(counts, 2.0 * window * rate),
        mean_count=float(np.mean(counts)),
        expected_count=2.0 * window * rate)


def spacing_experiment(config: McConfig, energy: float, window: float,
                       rate: Optional[float] = None,
                       dos_bandwidth: float = 0.05) -> SpacingStats:
    """Pool rescaled spectra near ``energy`` over realizations and test
    them against the Poisson predictions at intensity ``rate`` (estimated
    from the same sweep, as ``estimate_dos`` would, when not supplied).
    Each scheduling block's eigenvalues in the window, and its counts in the
    DOS window, come from one ``window_eigenvalues`` call: a window holds the
    eigenvalues that its counts put in [E - window/|box|, E + window/|box|)."""
    vol = config.model.box.n_sites
    check_positive("window", window)
    if rate is not None:
        check_positive("rate", rate)
    dos_window = _dos_window(energy, dos_bandwidth) if rate is None else None
    lo, hi = energy - window / vol, energy + window / vol
    blocks = _map_blocks(config, lambda op, v, _: window_eigenvalues(op, v, lo, hi, dos_window))
    if dos_window is not None:
        counts = np.concatenate([block_counts for _, block_counts in blocks])
        rate = _estimate(_dos_values(counts, dos_bandwidth, vol)).mean
        if rate == 0:
            raise NumericalFault(f"estimated rate is 0: no eigenvalue within {dos_bandwidth} of "
                                 f"energy {energy}; widen dos_bandwidth or give rate")
    return _window_statistics([vol * (w - energy) for values, _ in blocks for w in values],
                              window, rate)


# ---------------------------------------------------------------------------
# fractional-moment decay
# ---------------------------------------------------------------------------

_LOG_FLOOR = -650.0  # log of smallest trusted mean moment


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log mean |G(0, y)|^s against |y| along an
    axis; a negative slope signals exponential decay."""

    slope: float
    intercept: float
    r_squared: float
    distances: np.ndarray = field(repr=False)
    log_means: np.ndarray = field(repr=False)
    below_floor: bool = False


def frac_moment_decay(config: McConfig, energy: float, eps: float, s: float,
                      max_distance: Optional[int] = None) -> DecayFit:
    """Estimate E|G(0, y; E + i*eps)|^s for y along the first axis and
    fit the log-mean against distance; each scheduling block's
    G(targets, origin) comes from one slice sweep (``slice_green``)."""
    check_exponent(s)
    check_positive("eps", eps)
    box = config.model.box
    zc = complex(energy, eps)
    origin = box.index_of((0,) * box.dimension)
    reach = decay_reach(box, max_distance)
    dists = np.arange(1, reach + 1)
    targets = [box.index_of((int(r),) + (0,) * (box.dimension - 1)) for r in dists]

    # C-contiguous rows, so that the mean below sums the realizations in order
    moments = np.concatenate(_map_blocks(
        config, lambda op, v, _: np.abs(slice_green(op, v, zc, targets, [origin])[:, :, 0]) ** s))
    means = moments.mean(axis=0)
    with np.errstate(divide="ignore"):
        log_means = np.log(means)
    usable = log_means > _LOG_FLOOR
    if np.count_nonzero(usable) < 3:
        return DecayFit(slope=-math.inf, intercept=math.nan, r_squared=math.nan,
                        distances=dists.astype(float), log_means=log_means,
                        below_floor=True)
    x = dists[usable].astype(float)
    y = log_means[usable]
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else math.nan
    return DecayFit(slope=float(slope), intercept=float(intercept),
                    r_squared=r_squared, distances=dists.astype(float),
                    log_means=log_means, below_floor=False)
