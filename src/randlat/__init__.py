"""Finite-volume random lattice Schrodinger operators: exact resolvent
identities, Monte Carlo verification of moment and eigenvalue-count
bounds, and level-spacing statistics."""

from .lattice import (DecayingHopping, HamiltonianSample, Laplacian,
                      LatticeBox, Magnetic, ModelError, PeriodicPotential,
                      PiecewiseConstant, SeedRecord, Uniform, assemble,
                      assemble_fixed, build_background, sample_potential,
                      sample_potentials)
from .montecarlo import (BoundCheck, McConfig, McEstimate, ModelSpec,
                         SpacingStats, estimate_dos, estimate_ids,
                         frac_moment_decay, mc_minami, mc_wegner_nlevel,
                         rescaled_points, spacing_experiment)
from .spectral import (GreenBlock, NonHermitianError, NumericalFault,
                       SpectralDecomposition, count_eigenvalues,
                       det_identity_check, det_im, eig_hermitian, frac_moment,
                       green_block, krein_check, resolvent, schur_check,
                       sum_principal_minors, wedge_count_check)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
