import numpy as np
import pytest

import randlat as rl


def background_variants(dimension):
    """One instance of each background family for a given dimension."""
    return [
        rl.Laplacian(),
        rl.PeriodicPotential(period=(2,) * dimension,
                             values=tuple(0.3 * k for k in range(2 ** dimension))),
        rl.Magnetic(axis_phases=(0.9,) * dimension),
        rl.DecayingHopping(amplitude=1.0, rate=1.2),
    ]


# every background family on a box of d axes, its parameters drawn from ``local``
BOX_FAMILIES = {
    "laplacian": lambda local, d: rl.Laplacian(),
    "periodic": lambda local, d: rl.PeriodicPotential(
        period=(2,) * d, values=tuple(local.uniform(-2, 2, size=2 ** d))),
    "magnetic": lambda local, d: rl.Magnetic(
        axis_phases=tuple(local.uniform(-4, 4, size=int(local.integers(0, d + 1)))),
        field=float(local.uniform(-2, 2)) if d >= 2 else 0.0),
    "none": lambda local, d: None,
    "decaying": lambda local, d: rl.DecayingHopping(
        amplitude=1.0, rate=float(local.uniform(0.5, 2)),
        truncation_radius=float(local.uniform(1, 3)) if local.integers(0, 2) else None),
}


def random_box(rng, max_side=8):
    """A random 1D box of 4 to max_side**2 sites or 2D box of sides 2 to max_side."""
    dim = int(rng.integers(1, 3))
    if dim == 1:
        return rl.LatticeBox((int(rng.integers(4, max_side * max_side + 1)),))
    return rl.LatticeBox((int(rng.integers(2, max_side + 1)),
                          int(rng.integers(2, max_side + 1))))


def random_triple(rng, max_side=8):
    """A random (sample, z, subset) triple over 1D/2D boxes and all
    background variants, for identity-residual sweeps."""
    box = random_box(rng, max_side)
    spec = background_variants(box.dimension)[int(rng.integers(0, 4))]
    density = rl.Uniform(-1.0, 1.0)
    sample = rl.assemble(box, spec, density, (int(rng.integers(0, 2 ** 31)), 0))
    z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2.0))
    # proper subset: the Schur split needs a non-empty complement
    n_sub = int(rng.integers(1, min(4, box.n_sites - 1) + 1))
    subset = sorted(rng.choice(box.n_sites, size=n_sub, replace=False).tolist())
    return sample, z, subset


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def scipy_poisson_chi2_pvalue(counts, lam):
    """The reference of ``gof.poisson_chi2_pvalue``, on ``scipy.stats``: the chi-square
    test of integer counts against Poisson(lam), tail bins merged from the right until
    each expects >= 5."""
    from scipy import stats
    m = len(counts)
    kmax = int(counts.max())
    observed = np.bincount(counts.astype(int), minlength=kmax + 1).astype(float)
    expected = m * stats.poisson.pmf(np.arange(kmax + 1), lam)
    expected = np.append(expected, m * stats.poisson.sf(kmax, lam))
    observed = np.append(observed, 0.0)
    while len(expected) > 2 and expected[-1] < 5.0:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected = expected[:-1]
        observed = observed[:-1]
    if len(expected) < 2:
        return 1.0
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    return float(stats.chi2.sf(chi2, df=len(expected) - 1))
