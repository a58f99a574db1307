import numpy as np
import pytest

import randlat as rl
from randlat.lattice import gauge_phase


def background_variants(dimension):
    """One instance of each background family for a given dimension."""
    return [
        rl.Laplacian(),
        rl.PeriodicPotential(period=(2,) * dimension,
                             values=tuple(0.3 * k for k in range(2 ** dimension))),
        rl.Magnetic(phase=gauge_phase([0.9] * dimension)),
        rl.DecayingHopping(amplitude=1.0, rate=1.2),
    ]


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
