"""Finite lattice boxes, background operators, disorder densities and
assembly of single-realization Hamiltonians H = H0 + diag(V).  Every
background is its slices along axis 0 (``BlockTridiagonal``, built by
``background_operator``): a chain's are single sites, and a ``decaying`` one
is one slice, its dense matrix (``build_background``, the reference for all).
Every run draws potentials for a block of realizations in one vectorized
pass (``sample_potentials``); the per-realization draw of the same stream
(``sample_potential``) is its reference."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np


class ModelError(ValueError):
    """Invalid model parameter (geometry, background or density)."""


def as_integer(value) -> int:
    """``value`` as an int: an integral number such as 1e5 is one; a bool or 2.7 is not."""
    integral = isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) or integral):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def as_seed(value) -> int:
    """``value`` as a master seed: an integer (``as_integer``) >= 0."""
    seed = as_integer(value)
    if seed < 0:
        raise ValueError(f"expected a non-negative seed, got {value!r}")
    return seed


def as_real(value) -> float:
    """``value`` as a finite float: an int or a float is one; a bool, a
    string, NaN or an infinity is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"expected a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an int beyond the float range
        real = math.inf
    if not math.isfinite(real):
        raise ValueError(f"expected a finite number, got {value!r}")
    return real


def _positive_integers(name: str, values) -> tuple[int, ...]:
    try:
        values = tuple(as_integer(v) for v in values)
    except TypeError as exc:
        raise ModelError(f"{name} must be positive integers: {exc}") from exc
    if any(v < 1 for v in values):
        raise ModelError(f"{name} must be positive integers, got {values}")
    return values


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
        object.__setattr__(self, "sides", _positive_integers("sides", self.sides))

    @property
    def dimension(self) -> int:
        return len(self.sides)

    @property
    def n_sites(self) -> int:
        return int(np.prod(self.sides))

    def coordinates(self) -> np.ndarray:
        """(n_sites, d) integer array of site coordinates, lexicographic."""
        return np.indices(self.sides, dtype=np.int64).reshape(self.dimension, -1).T.copy()

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
        _positive_integers("period", self.period)
        if len(self.values) != int(np.prod(self.period)):
            raise ModelError("values must supply one entry per period-cell site")


@dataclass(frozen=True)
class Magnetic:
    """Discrete magnetic Schrodinger operator: diagonal 2d, off-diagonal
    -exp(i A(x, y)) on nearest-neighbor pairs.  The gauge is data: the bond
    x -> x + e_k carries A = theta_k (``axis_phases[k]``, 0 past the given
    axes), plus the Landau-gauge term ``field`` * x_0 on axis-1 bonds (a
    uniform 2D flux); A(x + e_k, x) = -A(x, x + e_k)."""

    axis_phases: tuple[float, ...] = ()
    field: float = 0.0


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
# Backgrounds whose bonds join nearest neighbours only: each realization is
# block tridiagonal in slices along axis 0.  None is the diagonal-only test hook.
_NEAREST_NEIGHBOUR = (Laplacian, PeriodicPotential, Magnetic, type(None))


# The rules that tie a background's parameters to the box's dimension d, by
# parameter name (the spec's field and the config key): (rule(value, d), what it asks)
_BOX_RULES = {"period": (lambda period, d: len(period) == d, "one entry per axis"),
              "axis_phases": (lambda phases, d: len(phases) <= d, "at most one entry per axis"),
              "field": (lambda field, d: field == 0 or d >= 2, "d >= 2 if non-zero")}


def check_on_box(key: str, value, box: LatticeBox):
    """``value`` of background parameter ``key``, if it meets its rule on ``box``."""
    rule, asks = _BOX_RULES[key]
    if not rule(value, box.dimension):
        raise ModelError(f"{key} {value!r} needs {asks}; the box is {box.dimension}D")
    return value


def build_background(box: LatticeBox, spec: BackgroundSpec) -> np.ndarray:
    """Realize the background operator restricted to ``box`` (plain
    truncation) as a dense matrix, the reference form; ``spec=None``, the
    diagonal-only test hook, gives a zero matrix.  Hermitian by construction
    (``_dense``), so max|H - H*| is exactly zero."""
    if not isinstance(spec, DecayingHopping):
        return _dense(*_nearest_neighbour(box, spec))
    coords = box.coordinates()
    radius = spec.truncation_radius
    if radius is None:
        radius = float(np.linalg.norm(np.array(box.sides) - 1)) + 1.0
    dist = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)
    i, j = np.nonzero(np.triu(dist <= radius, k=1))
    return _dense(np.zeros(box.n_sites), [(i, j, spec.amplitude * np.exp(-spec.rate * dist[i, j]))])


def _nearest_neighbour(box: LatticeBox, spec: BackgroundSpec) -> tuple[np.ndarray, list]:
    """A nearest-neighbour background, described once: its real diagonal,
    and per axis the bonds (i, j) of ``_nn_bonds`` with the value h_ij on each."""
    if not isinstance(spec, _NEAREST_NEIGHBOUR):
        raise ModelError(f"unknown background spec {spec!r}")
    for key in _BOX_RULES:
        if hasattr(spec, key):
            check_on_box(key, getattr(spec, key), box)
    coords = box.coordinates()
    bonds = _nn_bonds(box, coords)
    if isinstance(spec, Magnetic):
        thetas = np.zeros(box.dimension)
        thetas[:len(spec.axis_phases)] = spec.axis_phases
        phases = [thetas[k] + spec.field * coords[i, 0] if k == 1 else thetas[k]
                  for k, (i, _) in enumerate(bonds)]
        # diagonal counts all 2d neighbors of the infinite-lattice operator
        return (np.full(box.n_sites, 2.0 * box.dimension),
                [(i, j, np.full(len(i), -np.exp(1j * a))) for (i, j), a in zip(bonds, phases)])
    diagonal = (_periodic_values(coords, spec) if isinstance(spec, PeriodicPotential)
                else np.zeros(box.n_sites))
    hopping = 0.0 if spec is None else 1.0
    return diagonal.astype(float), [(i, j, np.full(len(i), hopping)) for i, j in bonds]


def _dense(diagonal: np.ndarray, bonds: list) -> np.ndarray:
    """A background's matrix from its diagonal and its values on the bonds
    (i, j), i < j: the upper triangle mirrored as h + h* (a magnetic lower
    triangle carries -A), summed on the bonds alone, where one term is 0."""
    n = len(diagonal)
    h = np.zeros((n, n), dtype=np.result_type(float, *(v for _, _, v in bonds)))
    zero = h.dtype.type(0)
    for i, j, values in bonds:
        h[i, j], h[j, i] = _mirrored(values, zero)
    h[np.diag_indices(n)] = diagonal
    return h


def _mirrored(values: np.ndarray, zero) -> tuple[np.ndarray, np.ndarray]:
    """Entries h_ij and h_ji of bonds with values h_ij, as h + h* writes
    them in ``zero``'s dtype: each value plus the conjugate of its mirror's 0."""
    return values + np.conj(zero), zero + np.conj(values)


def _nn_bonds(box: LatticeBox, coords: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per axis k, index arrays (i, j), i < j, of the nearest-neighbor pairs
    along k: the lexicographic stride is s_{k+1} * ... * s_d, and the bond
    (i, i + stride) exists wherever coordinate k of site i is < s_k - 1."""
    strides = [int(np.prod(box.sides[k + 1:])) for k in range(box.dimension)]
    lows = [np.flatnonzero(coords[:, k] < side - 1) for k, side in enumerate(box.sides)]
    return [(i, i + s) for i, s in zip(lows, strides)]


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
    return SeedRecord(as_seed(master), int(realization))


def sample_potential(box: LatticeBox, density: DisorderDensity,
                     seed_record) -> np.ndarray:
    """i.i.d. potential draws, one per site, via inverse CDF on a
    counter-based stream keyed by (master seed, realization index).
    Deterministic and independent of any surrounding draw order.  This is
    the reference for ``sample_potentials``; no run calls it, so only it
    loads ``numpy.random``."""
    from numpy.random import Generator, Philox, SeedSequence

    rec = _as_seed_record(seed_record)
    bitgen = Philox(seed=SeedSequence(entropy=rec.master_seed,
                                      spawn_key=(rec.realization,)))
    u = Generator(bitgen).random(box.n_sites)
    return density.ppf(u)


# numpy's SeedSequence (a pool of four uint32 words) and Philox4x64-10 (Salmon
# et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).  Both streams
# are frozen by numpy's stream-compatibility policy (NEP 19).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# the round multipliers and the key increments (Weyl constants), one per key word
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
_PHILOX_ROUNDS = 10


class _Hash:
    """SeedSequence's hash of one uint32 word, whose multiplier advances by
    ``mult`` with every call: hashmix (``_INIT_A``, ``_MULT_A``) when mixing
    entropy into the pool, and the output hash of ``generate_state``
    (``_INIT_B``, ``_MULT_B``).  ``value`` may be an int or a uint64 array
    of uint32 values, in which a product of two words cannot wrap before
    the mask."""

    def __init__(self, const: int, mult: int):
        self.const, self.mult = const, mult

    def __call__(self, value):
        value = value ^ self.const
        self.const = (self.const * self.mult) & _MASK32
        value = (value * self.const) & _MASK32
        return value ^ (value >> 16)


def _mix(x, y):
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ (result >> 16)


def _philox_keys(master_seed: int, realizations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two uint64 key words of ``Philox(seed=SeedSequence(master_seed,
    spawn_key=(i,)))`` for every i in ``realizations`` (each < 2**32, one
    spawn-key word).  The master seed's words fill and mix the pool once;
    only the spawn-key word, the last one mixed in, is vectorized."""
    words = [(master_seed >> s) & _MASK32 for s in range(0, max(master_seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))  # padded, as SeedSequence does beside a spawn key
    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        pool = [_mix(p, hashmix(word)) for p in pool]
    spawn = realizations.astype(np.uint64)
    pool = [_mix(p, hashmix(spawn)) for p in pool]
    # generate_state(2, uint64): four hashed pool words, read as two little-endian uint64
    output_hash = _Hash(_INIT_B, _MULT_B)
    state = [output_hash(p) for p in pool]
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _mulhilo(a: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low uint64 words of the 128-bit products a * m, from 32-bit
    halves (Warren, Hacker's Delight, 8-2); no partial sum overflows."""
    low, shift = np.uint64(_MASK32), np.uint64(32)  # numpy scalars: no conversion per call
    a_lo, a_hi = a & low, a >> shift
    m_lo, m_hi = m & low, m >> shift
    t = a_hi * m_lo + (a_lo * m_lo >> shift)
    w1 = (t & low) + a_lo * m_hi
    return a_hi * m_hi + (t >> shift) + (w1 >> shift), a * m


def _philox_random(key: tuple[np.ndarray, np.ndarray], n: int) -> np.ndarray:
    """(B, n): the first n ``Generator(Philox).random()`` draws of each of B
    keys.  Philox bumps its 256-bit counter before each block of four uint64
    words, so block k (0-based) is Philox4x64-10 of the counter (k + 1, 0, 0, 0);
    a draw is (u64 >> 11) * 2**-53.  Counter words 0 and 2, which the round
    multiplies, are carried as x[0] and x[1]; words 1 and 3 as y[0] and y[1]."""
    blocks, size = -(-n // 4), len(key[0])
    x = np.zeros((2, blocks, size), dtype=np.uint64)  # keys last: long inner loops
    x[0] = np.arange(1, blocks + 1, dtype=np.uint64)[:, None]
    y = np.zeros_like(x)
    k = np.stack(key)[:, None, :]
    for r in range(_PHILOX_ROUNDS):
        if r:
            k = k + _PHILOX_W
        hi, lo = _mulhilo(x, _PHILOX_M)
        x, y = hi[::-1] ^ y ^ k, lo[::-1]
    words = np.stack([x[0], y[0], x[1], y[1]], axis=1).transpose(2, 0, 1)
    return (words.reshape(size, 4 * blocks)[:, :n] >> np.uint64(11)) * 2.0 ** -53


def sample_potentials(box: LatticeBox, density: DisorderDensity, master_seed: int,
                      realizations: Sequence[int]) -> np.ndarray:
    """(B, N): row b is ``sample_potential(box, density, (master_seed,
    realizations[b]))``, bit for bit, drawn for the whole block in one
    vectorized pass of the same counter-based stream.  Indices must be
    below 2**32."""
    index = np.asarray(realizations, dtype=np.int64).reshape(-1)
    if np.any((index < 0) | (index > _MASK32)):
        raise ValueError("realization indices must be in [0, 2**32)")
    u = _philox_random(_philox_keys(as_seed(master_seed), index), box.n_sites)
    return density.ppf(u)


class BlockTridiagonal(NamedTuple):
    """A background in slices, each coupled to the next by a diagonal block.
    A nearest-neighbour model's slice k holds the m = s_2 * ... * s_d sites
    with x_0 = k, consecutive in the lexicographic order (a chain's are its
    sites, m = 1); a bond along axis 0 joins site r of slice k to site r of
    slice k + 1.  Any other background is one slice of all N sites."""

    blocks: np.ndarray     # (slices, m, m): the background on each slice
    couplings: np.ndarray  # (slices - 1, m): h_{x, x + m} for the sites x of slice k


Background = Union[BlockTridiagonal, np.ndarray]


def background_operator(box: LatticeBox, spec: BackgroundSpec) -> BlockTridiagonal:
    """The background on ``box`` as its slices: a nearest-neighbour model's
    along axis 0, built with no N x N array, else one slice holding the
    dense matrix (``build_background``)."""
    if not isinstance(spec, _NEAREST_NEIGHBOUR):
        return BlockTridiagonal(build_background(box, spec)[None], np.zeros((0, box.n_sites)))
    diagonal, [(_, _, along_axis0), *inside] = _nearest_neighbour(box, spec)
    slices, m = box.sides[0], box.n_sites // box.sides[0]
    blocks = np.zeros((slices, m, m),
                      dtype=np.result_type(diagonal, along_axis0, *(v for _, _, v in inside)))
    k, r = np.divmod(np.arange(box.n_sites), m)
    blocks[k, r, r] = diagonal
    zero = blocks.dtype.type(0)
    for i, j, values in inside:  # i and j share a slice
        blocks[i // m, i % m, j % m], blocks[i // m, j % m, i % m] = _mirrored(values, zero)
    # the axis-0 bonds are (x, x + m) for x < (s_1 - 1) m, in order
    return BlockTridiagonal(blocks, along_axis0.reshape(slices - 1, m))


def dense_hamiltonian(background: Background, potential: np.ndarray) -> np.ndarray:
    """The dense matrix of background + diag(potential), from the slices (or
    a dense array) to the bit as ``build_background`` gives it: a fresh array."""
    if isinstance(background, np.ndarray):
        h = background.copy()
    else:
        blocks, couplings = background
        slices, m = blocks.shape[:2]
        h = np.zeros((slices * m, slices * m), dtype=blocks.dtype)
        k = np.arange(slices)
        h.reshape(slices, m, slices, m)[k, :, k, :] = blocks
        x = np.arange(couplings.size)  # site x and x + m, one slice on
        h[x, x + m], h[x + m, x] = _mirrored(couplings.ravel(), h.dtype.type(0))
    h[np.diag_indices(len(potential))] += potential
    return h


@dataclass(frozen=True)
class HamiltonianSample:
    """One disorder realization H = background + diag(potential), with the
    background in either form; ``matrix`` is the dense H, built on each call."""

    box: LatticeBox
    background: Background = field(repr=False)
    potential: np.ndarray = field(repr=False)
    seed_record: Optional[SeedRecord] = None

    @property
    def matrix(self) -> np.ndarray:
        return dense_hamiltonian(self.background, self.potential)


def assemble(box: LatticeBox, spec: BackgroundSpec, density: DisorderDensity,
             seed_record) -> HamiltonianSample:
    rec = _as_seed_record(seed_record)
    return HamiltonianSample(box=box, background=background_operator(box, spec),
                             potential=sample_potential(box, density, rec),
                             seed_record=rec)


def assemble_fixed(box: LatticeBox, spec: BackgroundSpec,
                   potential: Sequence[float]) -> HamiltonianSample:
    """Test hook: assemble with an explicit potential vector (e.g. V = 0)."""
    potential = np.asarray(potential, dtype=float)
    if potential.shape != (box.n_sites,):
        raise ModelError(f"potential must have shape ({box.n_sites},)")
    return HamiltonianSample(box=box, background=background_operator(box, spec),
                             potential=potential, seed_record=None)
