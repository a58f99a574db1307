"""Finite lattice boxes, background operators, disorder densities and
assembly of single-realization Hamiltonians H = H0 + diag(V)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np
from numpy.random import Generator, Philox, SeedSequence


class ModelError(ValueError):
    """Invalid model parameter (geometry, background or density)."""


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeBox:
    """A finite box [0, s_1) x ... x [0, s_d) in Z^d with lexicographic
    site ordering.  All matrices in the package are indexed by this order."""

    sides: tuple[int, ...]

    def __post_init__(self):
        if len(self.sides) == 0:
            raise ModelError("box must have at least one axis")
        if any(int(s) != s or s < 1 for s in self.sides):
            raise ModelError(f"sides must be positive integers, got {self.sides}")
        object.__setattr__(self, "sides", tuple(int(s) for s in self.sides))

    @property
    def dimension(self) -> int:
        return len(self.sides)

    @property
    def n_sites(self) -> int:
        return int(np.prod(self.sides))

    def coordinates(self) -> np.ndarray:
        """(n_sites, d) integer array of site coordinates, lexicographic."""
        return np.array(list(itertools.product(*(range(s) for s in self.sides))),
                        dtype=np.int64).reshape(self.n_sites, self.dimension)

    def index_of(self, site: Sequence[int]) -> int:
        site = tuple(int(c) for c in site)
        if len(site) != self.dimension:
            raise ModelError(f"site {site} has wrong dimension for box {self.sides}")
        idx = 0
        for c, s in zip(site, self.sides):
            if not 0 <= c < s:
                raise ModelError(f"site {site} outside box {self.sides}")
            idx = idx * s + c
        return idx

    def site_of(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.n_sites:
            raise ModelError(f"index {index} out of range")
        out = []
        for s in reversed(self.sides):
            out.append(index % s)
            index //= s
        return tuple(reversed(out))


# ---------------------------------------------------------------------------
# background operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Laplacian:
    """Nearest-neighbor hopping: entry 1 on |x-y| = 1, zero diagonal."""


@dataclass(frozen=True)
class PeriodicPotential:
    """Laplacian plus a deterministic potential, periodic with the given
    period vector; one value per site of the period cell (lexicographic)."""

    period: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if any(int(p) != p or p < 1 for p in self.period):
            raise ModelError(f"period must be positive integers, got {self.period}")
        if len(self.values) != int(np.prod(self.period)):
            raise ModelError("values must supply one entry per period-cell site")


@dataclass(frozen=True)
class Magnetic:
    """Discrete magnetic Schrodinger operator: diagonal 2d, off-diagonal
    -exp(i A(x, y)) on nearest-neighbor pairs, with A(x, y) = -A(y, x)."""

    phase: Callable[[Sequence[int], Sequence[int]], float]


def gauge_phase(axis_phases: Sequence[float] = (), field: float = 0.0
                ) -> Callable[[Sequence[int], Sequence[int]], float]:
    """Antisymmetric bond phase for ``Magnetic``: +theta_k along axis k
    (0 past the given axes), plus the Landau-gauge term field * x_0 on
    axis-1 bonds (a uniform 2D flux)."""
    thetas = [float(p) for p in axis_phases]
    field = float(field)

    def phase(x, y):
        diff = np.asarray(y) - np.asarray(x)
        axis = int(np.flatnonzero(diff)[0])
        base = thetas[axis] if axis < len(thetas) else 0.0
        if axis == 1:
            base = base + field * float(min(x[0], y[0]))
        return float(diff[axis]) * base

    return phase


@dataclass(frozen=True)
class DecayingHopping:
    """Hopping t(x, y) = amplitude * exp(-rate * |x - y|), zero diagonal,
    dropped beyond the truncation radius (default: no truncation)."""

    amplitude: float
    rate: float
    truncation_radius: Optional[float] = None

    def __post_init__(self):
        if self.amplitude <= 0:
            raise ModelError(f"amplitude must be > 0, got {self.amplitude}")
        if self.rate <= 0:
            raise ModelError(f"rate must be > 0, got {self.rate}")


BackgroundSpec = Union[Laplacian, PeriodicPotential, Magnetic, DecayingHopping, None]

_PHASE_ANTISYM_TOL = 1e-12


def build_background(box: LatticeBox, spec: BackgroundSpec) -> np.ndarray:
    """Realize the background operator restricted to ``box`` (plain
    truncation).  Hermitian by construction: the upper triangle is built
    and mirrored, so max|H - H*| is exactly zero.

    ``spec=None`` is the diagonal-only test hook: a zero matrix.
    """
    n = box.n_sites
    coords = box.coordinates()
    if spec is None:
        return np.zeros((n, n))

    if isinstance(spec, (Laplacian, PeriodicPotential)):
        h = np.zeros((n, n))
        h[_nn_bonds(box, coords)] = 1.0
        h = h + h.T
        if isinstance(spec, PeriodicPotential):
            h[np.diag_indices(n)] = _periodic_values(coords, spec)
        return h

    if isinstance(spec, Magnetic):
        h = np.zeros((n, n), dtype=complex)

        def hop(x, y):
            a_xy = float(spec.phase(x, y))
            a_yx = float(spec.phase(y, x))
            if abs((a_xy + a_yx) % (2 * np.pi)) > _PHASE_ANTISYM_TOL \
                    and abs((a_xy + a_yx) % (2 * np.pi) - 2 * np.pi) > _PHASE_ANTISYM_TOL:
                raise ModelError(f"phase not antisymmetric at bond {tuple(x)}-{tuple(y)}")
            return -np.exp(1j * a_xy)

        i, j = _nn_bonds(box, coords)
        h[i, j] = [hop(coords[a], coords[b]) for a, b in zip(i, j)]
        h = h + h.conj().T
        # diagonal counts all 2d neighbors of the infinite-lattice operator
        h[np.diag_indices(n)] = 2 * box.dimension
        return h

    if isinstance(spec, DecayingHopping):
        radius = spec.truncation_radius
        if radius is None:
            radius = float(np.linalg.norm(np.array(box.sides) - 1)) + 1.0
        h = np.zeros((n, n))
        dist = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)
        mask = np.triu(dist <= radius, k=1)
        h[mask] = spec.amplitude * np.exp(-spec.rate * dist[mask])
        return h + h.T

    raise ModelError(f"unknown background spec {spec!r}")


def _nn_bonds(box: LatticeBox, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j), i < j, of the nearest-neighbor pairs: along
    axis k the lexicographic stride is s_{k+1} * ... * s_d, and the bond
    (i, i + stride) exists wherever coordinate k of site i is < s_k - 1."""
    strides = [int(np.prod(box.sides[k + 1:])) for k in range(box.dimension)]
    lows = [np.flatnonzero(coords[:, k] < side - 1) for k, side in enumerate(box.sides)]
    return np.concatenate(lows), np.concatenate([i + s for i, s in zip(lows, strides)])


def _periodic_values(coords: np.ndarray, spec: PeriodicPotential) -> np.ndarray:
    period = np.array(spec.period, dtype=np.int64)
    cell = coords % period
    strides = np.concatenate([np.cumprod(period[::-1])[::-1][1:], [1]])
    return np.array(spec.values)[cell @ strides]


# ---------------------------------------------------------------------------
# disorder densities
# ---------------------------------------------------------------------------

_NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class Uniform:
    """Uniform density on [lo, hi)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ModelError(f"need hi > lo, got [{self.lo}, {self.hi})")

    @property
    def sup_density(self) -> float:
        return 1.0 / (self.hi - self.lo)

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def ppf(self, u: np.ndarray) -> np.ndarray:
        return self.lo + (self.hi - self.lo) * u

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return np.clip((np.asarray(x, dtype=float) - self.lo) / (self.hi - self.lo), 0.0, 1.0)


@dataclass(frozen=True)
class PiecewiseConstant:
    """Density constant on [b_k, b_{k+1}) with value weights[k]; must
    integrate to one within 1e-12."""

    breakpoints: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        b = np.asarray(self.breakpoints, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if len(b) != len(w) + 1 or len(w) < 1:
            raise ModelError("need len(breakpoints) == len(weights) + 1")
        if np.any(np.diff(b) <= 0):
            raise ModelError("breakpoints must be strictly increasing")
        if np.any(w < 0):
            raise ModelError("weights must be nonnegative")
        total = float(np.sum(w * np.diff(b)))
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise ModelError(f"density integrates to {total}, not 1")

    @property
    def sup_density(self) -> float:
        return float(max(self.weights))

    @property
    def support(self) -> tuple[float, float]:
        return (self.breakpoints[0], self.breakpoints[-1])

    def _cdf_knots(self) -> np.ndarray:
        b = np.asarray(self.breakpoints, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        return np.concatenate([[0.0], np.cumsum(w * np.diff(b))])

    def ppf(self, u: np.ndarray) -> np.ndarray:
        return np.interp(u, self._cdf_knots(), self.breakpoints)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.breakpoints, self._cdf_knots())


DisorderDensity = Union[Uniform, PiecewiseConstant]


# ---------------------------------------------------------------------------
# sampling and assembly
# ---------------------------------------------------------------------------

class SeedRecord(NamedTuple):
    master_seed: int
    realization: int


def _as_seed_record(seed_record) -> SeedRecord:
    master, realization = seed_record
    return SeedRecord(int(master), int(realization))


def sample_potential(box: LatticeBox, density: DisorderDensity,
                     seed_record) -> np.ndarray:
    """i.i.d. potential draws, one per site, via inverse CDF on a
    counter-based stream keyed by (master seed, realization index).
    Deterministic and independent of any surrounding draw order."""
    rec = _as_seed_record(seed_record)
    bitgen = Philox(seed=SeedSequence(entropy=rec.master_seed,
                                      spawn_key=(rec.realization,)))
    u = Generator(bitgen).random(box.n_sites)
    return density.ppf(u)


@dataclass(frozen=True)
class HamiltonianSample:
    """One disorder realization H = background + diag(potential)."""

    box: LatticeBox
    background: np.ndarray = field(repr=False)
    potential: np.ndarray = field(repr=False)
    seed_record: Optional[SeedRecord] = None

    @property
    def matrix(self) -> np.ndarray:
        h = self.background.copy()
        h[np.diag_indices(self.box.n_sites)] += self.potential
        return h


def assemble(box: LatticeBox, spec: BackgroundSpec, density: DisorderDensity,
             seed_record) -> HamiltonianSample:
    rec = _as_seed_record(seed_record)
    return HamiltonianSample(box=box,
                             background=build_background(box, spec),
                             potential=sample_potential(box, density, rec),
                             seed_record=rec)


def assemble_fixed(box: LatticeBox, spec: BackgroundSpec,
                   potential: Sequence[float]) -> HamiltonianSample:
    """Test hook: assemble with an explicit potential vector (e.g. V = 0)."""
    potential = np.asarray(potential, dtype=float)
    if potential.shape != (box.n_sites,):
        raise ModelError(f"potential must have shape ({box.n_sites},)")
    return HamiltonianSample(box=box,
                             background=build_background(box, spec),
                             potential=potential,
                             seed_record=None)
