"""Reproducible Monte Carlo over disorder realizations: moment bounds on
Green blocks, n-level eigenvalue-count bounds, integrated density of
states, level-spacing statistics and fractional-moment decay fits.

Every realization is a pure function of (model, master seed, realization
index); reduction happens in realization-index order, so results are
bit-identical for any worker count.

Every run holds ``background_operator``'s form: no N x N background unless
the model is ``decaying``.  Eigenvalue counts (``wegner``, ``ids``, ``dos``)
take one path: each scheduling block is drawn and counted at once, on the
calling thread (``count_realizations``).  ``mc_minami`` draws each block at
once too and computes det Im g for all of it (``det_im_block``).  The
per-sample kernels (the Green solves of ``frac_moment_decay``, spectra)
draw one realization at a time (``run_realizations``).  For both,
``workers`` threads share the blocks unless the model is a chain
(``_map_blocks``).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .lattice import (Background, BackgroundSpec, DisorderDensity, HamiltonianSample,
                      LatticeBox, SeedRecord, as_integer, background_operator,
                      sample_potential, sample_potentials)
from .spectral import (NumericalFault, _as_z, _chain_bands, check_exponent, count_block,
                       count_in, det_im_block, green_columns, imag_part, spectrum,
                       sum_principal_minors)

_BLOCK_SIZE = 256  # realizations per scheduling block; fixed for determinism


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


# ---------------------------------------------------------------------------
# parameter checks, shared by the experiments below and by config parsing
# ---------------------------------------------------------------------------

def check_count(name: str, value: int, least: int = 1) -> int:
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def check_interval(interval: tuple[float, float]) -> tuple[float, float]:
    a, b = interval
    length = b - a
    if not np.isfinite(length) or length <= 0:
        raise ValueError(f"interval must be bounded and nonempty, got {interval}")
    return interval


def check_positive(name: str, value: float) -> float:
    if value <= 0:
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


def _estimate(values: np.ndarray) -> McEstimate:
    values = np.asarray(values, dtype=float)
    m = len(values)
    stderr = float(np.std(values, ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return McEstimate(mean=float(np.mean(values)), stderr=stderr, samples=m)


def _blocks(config: McConfig) -> list[range]:
    """The scheduling blocks of ``_BLOCK_SIZE`` realization indices, in order."""
    return [range(start, min(start + _BLOCK_SIZE, config.samples))
            for start in range(0, config.samples, _BLOCK_SIZE)]


def run_realizations(config: McConfig,
                     kernel: Callable[[HamiltonianSample], object]) -> list:
    """Map ``kernel`` over all realizations, each drawn alone
    (``sample_potential``), returning the results in realization-index
    order; the scheduling blocks are shared as ``_map_blocks`` says."""
    model = config.model
    background = background_operator(model.box, model.background)

    def run_block(block: range) -> list:
        out = []
        for i in block:
            rec = SeedRecord(config.master_seed, i)
            sample = HamiltonianSample(
                box=model.box, background=background,
                potential=sample_potential(model.box, model.density, rec), seed_record=rec)
            try:
                out.append(kernel(sample))
            except NumericalFault as exc:
                raise NumericalFault(f"realization {i}: {exc}") from exc
        return out

    return [item for result in _map_blocks(config, run_block, background) for item in result]


def _map_blocks(config: McConfig, run_block: Callable[[range], object],
                operator: Background) -> list:
    """``run_block`` of every scheduling block, in block order.  The kernels
    of a chain (slices of m = 1 site) are small numpy calls that hold the
    interpreter lock, so its blocks run on the calling thread; any other
    ``operator``'s blocks go to a pool of ``config.workers`` threads, which
    overlap their LAPACK calls."""
    blocks = _blocks(config)
    if _chain_bands(operator) is not None or config.workers == 1 or len(blocks) == 1:
        return [run_block(block) for block in blocks]
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        return list(pool.map(run_block, blocks))


def count_realizations(config: McConfig, a: float, b: float) -> np.ndarray:
    """The number of eigenvalues in [a, b) of every realization, as an int
    array in realization-index order.  Each scheduling block's potentials are
    drawn in one pass (``sample_potentials``) and counted at once
    (``count_block``), block after block on the calling thread."""
    model = config.model
    background = background_operator(model.box, model.background)
    return np.concatenate([
        count_block(background, sample_potentials(model.box, model.density,
                                                  config.master_seed, block), a, b)
        for block in _blocks(config)])


# ---------------------------------------------------------------------------
# moment / counting bounds
# ---------------------------------------------------------------------------

def mc_minami(config: McConfig, z, indices: Sequence[int]) -> BoundCheck:
    """Mean of det Im g over realizations vs the bound
    (pi * sup_density)^n for a subset of n sites.  Each scheduling block is
    drawn in one pass (``sample_potentials``) and reduced at once
    (``det_im_block``): by the slice sweep on a nearest-neighbour background,
    by one dense solve per realization otherwise."""
    zc = _as_z(z)
    model = config.model
    operator = background_operator(model.box, model.background)

    def run_block(block: range) -> np.ndarray:
        potentials = sample_potentials(model.box, model.density, config.master_seed, block)
        try:
            return det_im_block(operator, potentials, zc, indices)
        except NumericalFault as exc:
            raise NumericalFault(f"realization {block[exc.row]}: {exc}") from exc

    vals = np.concatenate(_map_blocks(config, run_block, operator))
    bound = (math.pi * model.density.sup_density) ** len(indices)
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
    bound = (math.pi ** n / math.factorial(n)) * (rho * length * vol) ** n
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


def _poisson_chi2_pvalue(counts: np.ndarray, lam: float) -> float:
    """Chi-square goodness of fit of integer counts against Poisson(lam),
    merging tail bins to keep expected occupancy >= 5."""
    from scipy import stats
    m = len(counts)
    kmax = int(counts.max())
    observed = np.bincount(counts.astype(int), minlength=kmax + 1).astype(float)
    expected = m * stats.poisson.pmf(np.arange(kmax + 1), lam)
    expected = np.append(expected, m * stats.poisson.sf(kmax, lam))
    observed = np.append(observed, 0.0)
    # merge low-occupancy bins from the right
    while len(expected) > 2 and expected[-1] < 5.0:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected = expected[:-1]
        observed = observed[:-1]
    if len(expected) < 2:
        return 1.0
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    return float(stats.chi2.sf(chi2, df=len(expected) - 1))


def spacing_statistics(point_sets: Sequence[np.ndarray], window: float,
                       rate: float) -> SpacingStats:
    """Build spacing statistics from per-realization rescaled point sets.

    Gaps are nearest-neighbor differences within each realization's
    window, pooled across realizations; they are tested against
    Exponential(rate).  Window counts are tested against
    Poisson(2 * window * rate).
    """
    from scipy import stats
    check_positive("window", window)
    check_positive("rate", rate)
    gap_chunks = []
    counts = []
    for pts in point_sets:
        inside = np.sort(pts[(pts >= -window) & (pts < window)])
        counts.append(len(inside))
        if len(inside) >= 2:
            gap_chunks.append(np.diff(inside))
    gaps = np.concatenate(gap_chunks) if gap_chunks else np.empty(0)
    counts = np.array(counts, dtype=int)
    if len(gaps) > 0:
        ks = stats.kstest(gaps, "expon", args=(0.0, 1.0 / rate))
        ks_distance, ks_pvalue = float(ks.statistic), float(ks.pvalue)
    else:
        ks_distance, ks_pvalue = math.nan, math.nan
    return SpacingStats(
        window=window, rate=rate, gaps=gaps, counts=counts,
        ks_distance=ks_distance, ks_pvalue=ks_pvalue,
        count_chi2_pvalue=_poisson_chi2_pvalue(counts, 2.0 * window * rate),
        mean_count=float(np.mean(counts)),
        expected_count=2.0 * window * rate)


def spacing_experiment(config: McConfig, energy: float, window: float,
                       rate: Optional[float] = None,
                       dos_bandwidth: float = 0.05) -> SpacingStats:
    """Pool rescaled spectra near ``energy`` over realizations and test
    them against the Poisson predictions at intensity ``rate`` (estimated
    from the same spectra, as ``estimate_dos`` would, when not supplied)."""
    vol = config.model.box.n_sites
    dos_window = _dos_window(energy, dos_bandwidth) if rate is None else None
    spectra = run_realizations(config, spectrum)
    if dos_window is not None:
        counts = np.array([count_in(w, *dos_window) for w in spectra])
        rate = _estimate(_dos_values(counts, dos_bandwidth, vol)).mean
        if rate == 0:
            raise NumericalFault(f"estimated rate is 0: no eigenvalue within {dos_bandwidth} of "
                                 f"energy {energy}; widen dos_bandwidth or give rate")
    return spacing_statistics([vol * (w - energy) for w in spectra], window, rate)


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
    fit the log-mean against distance."""
    check_exponent(s)
    check_positive("eps", eps)
    box = config.model.box
    zc = complex(energy, eps)
    origin = box.index_of((0,) * box.dimension)
    reach = decay_reach(box, max_distance)
    dists = np.arange(1, reach + 1)
    targets = [box.index_of((int(r),) + (0,) * (box.dimension - 1)) for r in dists]

    def kernel(sample: HamiltonianSample) -> np.ndarray:
        return np.abs(green_columns(sample, zc, [origin])[targets, 0]) ** s

    moments = np.array(run_realizations(config, kernel))
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
