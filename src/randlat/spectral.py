"""Hermitian spectral computations: eigendecompositions, resolvents,
Green blocks, the rank-n perturbation (Krein) and Schur-complement
identities, determinants of imaginary parts, and symmetric-function
identities for sums of principal minors.  Every spectrum (``spectrum``),
eigenvalue count in [a, b) of a block of realizations (``count_block``),
window of a block's eigenvalues (``window_eigenvalues``),
solve with H - z (``green_columns`` for one sample, ``slice_green`` for a
block) and det Im g of a block (``det_im_block``) goes through this module.

On slices of one site (``lattice.BlockTridiagonal`` of a chain, or of a box
such as (N, 1)) a block's counts work on the two bands, by one Sturm sweep
(``count_block``), and so do the eigenvalues in a window of every row of a
block, by Sturm multisection (``window_eigenvalues``); on any other
background they work on the dense H (``lattice.dense_hamiltonian``), as the
per-sample spectra (``spectrum``) and solves (``green_columns``) do.  Every
Green quantity of a block of realizations, det Im g (``det_im_block``) and
G(targets, sources) for ``fracmoment``, comes from one kernel, the slice
sweep ``slice_green``, on every background: a ``decaying`` one is the
one-slice case.  The dense ``HamiltonianSample.matrix``, with ``spectrum``,
``green_columns``, ``green_block`` and ``det_im`` on it, stays the reference.
No kernel here loads scipy."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .lattice import BlockTridiagonal, HamiltonianSample, as_integer, dense_hamiltonian


class NonHermitianError(ValueError):
    """Input matrix fails the Hermiticity check."""


class NumericalFault(RuntimeError):
    """A numerical invariant was violated (positivity, convergence,
    internal cross-check).  ``row`` is the index of the first failing
    matrix when the check ran on a stack of them."""

    def __init__(self, message: str, row: Optional[int] = None):
        super().__init__(message)
        self.row = row


EIG_TOL = 1e-10
HERMITICITY_RTOL = 1e-12
POSITIVITY_TOL = 1e-12
MINOR_BRUTE_FORCE_CAP = 14


def _as_z(z: complex) -> complex:
    zc = complex(z)
    if not zc.imag > 0:
        raise ValueError(f"Im z must be > 0, got {zc}")
    return zc


def _check_hermitian(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise NonHermitianError(f"expected square matrix, got shape {h.shape}")
    scale = max(np.linalg.norm(h, np.inf), 1.0)
    if np.max(np.abs(h - h.conj().T)) > HERMITICITY_RTOL * scale:
        raise NonHermitianError("matrix is not Hermitian within tolerance")
    return h


def _as_matrix(h) -> np.ndarray:
    return h.matrix if isinstance(h, HamiltonianSample) else np.asarray(h)


def check_exponent(s: float) -> float:
    if not 0 < s < 1:
        raise ValueError(f"s must be in (0, 1), got {s}")
    return s


# ---------------------------------------------------------------------------
# decomposition and resolvents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralDecomposition:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns


def eig_hermitian(h) -> SpectralDecomposition:
    """Full decomposition with validated residual and unitarity."""
    h = _check_hermitian(_as_matrix(h))
    try:
        w, u = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalFault(f"eigendecomposition failed: {exc}") from exc
    hnorm = max(np.linalg.norm(h, 2), 1.0)
    if np.linalg.norm(h @ u - u * w, 2) > EIG_TOL * hnorm:
        raise NumericalFault("eigenpair residual exceeds tolerance")
    if np.linalg.norm(u.conj().T @ u - np.eye(len(w)), 2) > EIG_TOL:
        raise NumericalFault("eigenvector matrix is not unitary to tolerance")
    return SpectralDecomposition(eigenvalues=w, eigenvectors=u)


def _chain_bands(background) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The real diagonal and off-diagonal moduli of slices of one site, else
    None: a Hermitian tridiagonal matrix is unitarily similar, by a diagonal
    gauge, to the real one with off-diagonal |h_{i, i+1}|."""
    if isinstance(background, BlockTridiagonal) and background.blocks.shape[1] == 1:
        return background.blocks[:, 0, 0].real, np.abs(background.couplings[:, 0])
    return None


def spectrum(h) -> np.ndarray:
    """Ascending eigenvalues of a sample or matrix.  No Hermiticity check:
    this is the per-sample reference path."""
    return np.linalg.eigvalsh(_as_matrix(h))


def count_in(w: np.ndarray, a: float, b: float) -> int:
    """Number of values of ``w`` in the half-open interval [a, b), the
    convention of a Sturm count #{w < b} - #{w < a}."""
    return int(np.count_nonzero((w >= a) & (w < b)))


_TINY = float(np.finfo(float).tiny)


def _count_below(diagonals: np.ndarray, off_squared: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(E, B): #{eigenvalues < x_e} of each symmetric tridiagonal matrix T
    whose diagonal is column b of ``diagonals`` (N, B), site-major, and whose
    squared off-diagonal is ``off_squared`` (N - 1), for each x_e of the column
    ``x`` (E, 1): the number of negative pivots of T - x = L D L^T, by
    Sylvester's law of inertia (Golub & Van Loan, Matrix Computations, 8.4).
    Each pivot decreases in x, so a pivot that is exactly 0 is positive just
    below x: it counts as non-negative and goes on as the smallest positive
    float, which gives the count at x^- and keeps the [a, b) convention.
    The sites go in chunks of 16 or more, each one (sites, E, B) buffer of
    about ``_STACK_BYTES``, with two in-place ufuncs per site.  A zero pivot
    divided by leaves +-inf or NaN (0/0 on a zero coupling) in its chunk, so
    only a chunk whose sum is not finite runs again with the zero rule."""
    n, shape = len(diagonals), (len(x), diagonals.shape[1])
    chunk = max(16, _STACK_BYTES // (8 * shape[0] * shape[1]))
    buffer = np.empty((min(chunk, n) + 1, *shape))  # row 0: the pivot carried in
    buffer[0] = np.inf  # so site 0, whose coupling is 0, subtracts 0 / inf = 0
    e2, q = np.concatenate([[0.0], off_squared]), np.empty(shape)
    count = np.zeros(shape, dtype=np.int64)
    with np.errstate(all="ignore"):  # zero pivots flag their chunk; e2 / tiny may overflow
        for start in range(0, n, chunk):
            sites, couplings = diagonals[start:start + chunk, None], e2[start:start + chunk]
            d = np.subtract(sites, x, out=buffer[1:len(sites) + 1])
            for p, row, c in zip(buffer, d, couplings):
                np.divide(c, p, out=q)
                np.subtract(row, q, out=row)
            if not np.isfinite(d.sum()):  # a zero pivot was divided by: again, with the rule
                np.subtract(sites, x, out=d)
                for p, row, c in zip(buffer, d, couplings):
                    row -= c / np.where(p == 0, _TINY, p)
            count += np.count_nonzero(d < 0, axis=0)
            buffer[0] = d[-1]
    return count


def count_block(background: BlockTridiagonal, potentials: np.ndarray, a: float,
                b: float) -> np.ndarray:
    """Eigenvalue counts in [a, b) of the realizations background + diag(V)
    for each row V of ``potentials`` (B, N), as an int array.  On slices of
    one site, the Sturm count #{λ < b} - #{λ < a} over the whole block at
    once, with no spectrum and no scipy import; on any other background,
    ``count_in`` of each row's ``eigvalsh`` spectrum of the dense H."""
    bands = _chain_bands(background)
    if bands is not None:
        below = _count_below((bands[0] + potentials).T, bands[1] ** 2, np.array([[a], [b]]))
        return below[1] - below[0]
    return np.array([count_in(np.linalg.eigvalsh(dense_hamiltonian(background, v)), a, b)
                     for v in potentials], dtype=np.int64)


# interior points per bracket in each multisection sweep, the same for every box and
# block, so that a row's eigenvalues never depend on the other rows of its block
_SWEEP_POINTS = 7
_EPS = float(np.finfo(float).eps)


def window_eigenvalues(background: BlockTridiagonal, potentials: np.ndarray, lo: float,
                       hi: float, counted: Optional[tuple[float, float]] = None):
    """(values, counts) for the realizations background + diag(V), V a row of
    ``potentials`` (B, N): values[b] row b's eigenvalues in [lo, hi), ascending,
    and counts[b] its count in ``counted`` = [a, b), as ``count_block`` gives it
    (None without ``counted``).  By Sturm multisection on slices of one site,
    else from each row's ``eigvalsh`` spectrum of the dense H."""
    edges = [*(counted or ()), lo, hi]
    bands = _chain_bands(background)
    if bands is None:
        spectra = [np.linalg.eigvalsh(dense_hamiltonian(background, v)) for v in potentials]
        below = np.array([np.searchsorted(w, edges) for w in spectra], dtype=np.int64).T
        values = [w[below[-2, b]:below[-1, b]] for b, w in enumerate(spectra)]
    else:
        below, values = _multisection(bands[0][:, None] + potentials.T, bands[1], edges)
    return values, (below[1] - below[0] if counted else None)


def _multisection(diagonals: np.ndarray, off: np.ndarray, edges: list):
    """(below, values) for the symmetric tridiagonal matrices whose diagonal is
    column b of ``diagonals`` (N, B), site-major as ``_count_below`` takes them,
    and whose off-diagonal is ``off``: below (E, B) the counts at ``edges`` =
    [..., lo, hi], and values[b] the eigenvalues of matrix b in [lo, hi) by
    multisection (Barth, Martin & Wilkinson, Numer. Math. 9, 1967; LAPACK
    dstebz).  Each has a bracket, which every sweep cuts at ``_SWEEP_POINTS``
    points, keeping the part that holds it by the counts there, until [l, u)
    is no wider than 2 eps max(|l|, |u|) + eps times the Gershgorin radius
    (Demmel, Dhillon & Ren, ETNA 3, 1995).  Each sweep is one ``_count_below``
    over the live brackets, in chunks of sites."""
    off_squared = off ** 2
    below = _count_below(diagonals, off_squared, np.array(edges)[:, None])
    if not off.any():  # diagonal matrices, whose eigenvalues are their diagonals, exactly
        return below, [np.sort(d[(d >= edges[-2]) & (d < edges[-1])]) for d in diagonals.T]
    first, n = below[-2], below[-1] - below[-2]
    rows = np.repeat(np.arange(len(n)), n)
    target = np.arange(len(rows)) - np.repeat(np.cumsum(n) - n - first, n)  # eigenvalue index
    reach = np.pad(off, (1, 0)) + np.pad(off, (0, 1))
    radius = np.max(np.abs(diagonals) + reach[:, None], axis=0)[rows]  # Gershgorin
    lower, upper = (np.full(len(rows), float(edge)) for edge in edges[-2:])
    steps = np.arange(1, _SWEEP_POINTS + 1)[:, None] / (_SWEEP_POINTS + 1)
    live = np.arange(len(rows))
    while live.size:
        l, u = lower[live], upper[live]
        grid = np.concatenate([l[None], l + (u - l) * steps, u[None]])
        below_grid = _count_below(diagonals[:, rows[live]], off_squared, grid[1:-1])
        i = np.count_nonzero(below_grid <= target[live], axis=0)  # counts rise along the grid
        new_l, new_u = np.take_along_axis(grid, np.stack([i, i + 1]), axis=0)
        lower[live], upper[live] = new_l, new_u
        converged = new_u - new_l <= _EPS * (2 * np.maximum(abs(new_l), abs(new_u)) + radius[live])
        live = live[~(converged | ((new_l == l) & (new_u == u)))]  # or stuck in the last bits
    return below, np.split((lower + upper) / 2, np.cumsum(n)[:-1])  # the midpoints


def green_columns(h, z, sites: Sequence[int],
                  potential: Optional[np.ndarray] = None) -> np.ndarray:
    """Columns (H - z)^{-1} e_y for y in ``sites``, as an N x len(sites)
    array.  When ``potential`` is given it is first removed from H on
    ``sites`` (the reduced operator)."""
    zc = _as_z(z)
    mat = _as_matrix(h).astype(complex)
    n = mat.shape[0]
    idx = _check_subset(n, sites)
    if potential is not None:
        mat[idx, idx] -= np.asarray(potential, dtype=float)[list(idx)]
    mat[np.diag_indices(n)] -= zc
    cols = np.zeros((n, len(idx)), dtype=complex)
    cols[idx, range(len(idx))] = 1.0
    return np.linalg.solve(mat, cols)


def resolvent(h, z) -> np.ndarray:
    """(H - z)^{-1} for Im z > 0."""
    h = _as_matrix(h)
    return green_columns(h, z, range(h.shape[0]))


def imag_part(m: np.ndarray) -> np.ndarray:
    """Operator imaginary part (M - M*)/2i; a Hermitian matrix, or a stack
    (..., n, n) of them."""
    return (m - np.swapaxes(m, -1, -2).conj()) / 2j


def _log_det_positive(m: np.ndarray, name: str):
    """log det of a Hermitian positive-definite matrix, or of each one in a
    stack (..., n, n), from its eigenvalues; NumericalFault if one is below
    -POSITIVITY_TOL, naming the first such matrix of a stack as its ``row``."""
    w = np.linalg.eigvalsh(m)
    lowest = w.min(axis=-1)
    bad = np.flatnonzero(lowest < -POSITIVITY_TOL)
    if bad.size:
        raise NumericalFault(f"{name} has eigenvalue {lowest.flat[bad[0]]}, expected positive",
                             row=int(bad[0]) if m.ndim > 2 else None)
    return np.sum(np.log(np.maximum(w, np.finfo(float).tiny)), axis=-1)


# ---------------------------------------------------------------------------
# Green blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GreenBlock:
    """The subset x subset block of a resolvent: full flavor uses H, the
    reduced flavor uses H with the potential removed on the subset."""

    indices: tuple[int, ...]
    matrix: np.ndarray
    z: complex
    flavor: str  # "full" | "reduced"


def _check_subset(n: int, indices: Sequence[int]) -> tuple[int, ...]:
    idx = tuple(as_integer(i) for i in indices)
    if len(idx) == 0:
        raise ValueError("subset must be nonempty")
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate indices in subset {idx}")
    if any(i < 0 or i >= n for i in idx):
        raise ValueError(f"subset {idx} out of range for size {n}")
    return idx


def green_block(h, z, indices: Sequence[int], flavor: str = "full",
                potential: Optional[np.ndarray] = None) -> GreenBlock:
    """Block of (H - z)^{-1} on the given site subset.

    For the reduced flavor the potential on the subset is subtracted
    first; ``potential`` may be omitted when ``h`` is a
    HamiltonianSample.
    """
    zc = _as_z(z)
    if flavor not in ("full", "reduced"):
        raise ValueError(f"unknown flavor {flavor!r}")
    if potential is None and isinstance(h, HamiltonianSample):
        potential = h.potential
    if flavor == "reduced" and potential is None:
        raise ValueError("reduced flavor needs the potential vector")
    cols = green_columns(h, zc, indices, potential if flavor == "reduced" else None)
    idx = _check_subset(cols.shape[0], indices)
    return GreenBlock(indices=idx, matrix=cols[list(idx), :], z=zc, flavor=flavor)


def det_im(block: Union[GreenBlock, np.ndarray]) -> float:
    """det of the (positive definite) imaginary part of a Green block,
    computed from eigenvalues in log space."""
    m = block.matrix if isinstance(block, GreenBlock) else np.asarray(block)
    return float(np.exp(_log_det_positive(imag_part(m), "imaginary part")))


def det_im_block(operator: BlockTridiagonal, potentials: np.ndarray, z,
                 indices: Sequence[int]) -> np.ndarray:
    """det Im g for g = ``slice_green``'s G(indices, indices) of each row V of
    ``potentials`` (B, N): row b is ``det_im(green_block(sample_b, z, indices))``
    to rounding.  A non-positive Im g raises NumericalFault naming the first such ``row``."""
    g = slice_green(operator, potentials, z, indices, indices)
    return np.exp(_log_det_positive(imag_part(g), "imaginary part"))


# size of each stack of matrices the slice sweep works on, which sets its rows:
# the (rows, m, m) folds and the (rows, M, M) span solves each stay in cache; and
# of the Sturm count's (sites, points, rows) chunk, which sets its sites
_STACK_BYTES = 1 << 17


def slice_green(operator: BlockTridiagonal, potentials: np.ndarray, z,
                targets: Sequence[int], sources: Sequence[int]) -> np.ndarray:
    """(B, len(targets), len(sources)), C-contiguous: G(T, S), the rows
    ``targets`` and columns ``sources`` of (H - z)^{-1} for every realization
    H = operator + diag(V), V a row of ``potentials`` (B, N), each row the
    same whatever the other rows.  The recursive Green's function sweep
    (MacKinnon & Kramer, Z. Phys. B 53, 1983) folds the slices left of the
    first slice holding a site of T or S, and right of the last, into
    self-energies by Schur complements, one slice at a time: with
    C = diag(c_k) the coupling of slice k to k + 1 and g the inverse of slice
    k's block of H - z less the self-energy so far, the next slice's is
    C* g C (left) or C g C* (right).  Only the slices in between, the span,
    are solved densely, one right-hand side per source.  Both steps take a
    few rows at a time (``_STACK_BYTES``).  On a chain (m = 1) the sweep is a
    continued fraction, elementwise over the rows; one slice is solved whole."""
    zc = _as_z(z)
    blocks, c = operator
    slices, m = blocks.shape[:2]
    targets, sources = (_check_subset(slices * m, sites) for sites in (targets, sources))
    first, last = min(targets + sources) // m, max(targets + sources) // m
    shifted = blocks - zc * np.eye(m)
    size = (last - first + 1) * m  # H - z on the span, less the potential:
    span = dense_hamiltonian(BlockTridiagonal(shifted[first:last + 1], c[first:last]),
                             np.zeros(size))
    unit = np.zeros((1, size, len(sources)), dtype=complex)  # one matrix, not a stack of vectors
    unit[0, [i - first * m for i in sources], range(len(sources))] = 1.0
    rows_out = [i - first * m for i in targets]

    inv = np.reciprocal if m == 1 else np.linalg.inv
    diag = np.arange(m)

    def block(v: np.ndarray, k: int, sigma: np.ndarray) -> np.ndarray:
        """Slice k of H - z less sigma, for the rows' potentials v."""
        a = shifted[k] - sigma
        a[:, diag, diag] += v[:, k * m:(k + 1) * m]
        return a

    def rows(stack: int) -> int:
        """Rows per stack of (rows, stack, stack) complex entries."""
        return max(1, _STACK_BYTES // (16 * stack * stack))

    out = []
    for start in range(0, len(potentials), rows(m)):
        v = potentials[start:start + rows(m)]
        left = right = np.zeros((len(v), m, m), dtype=complex)
        for k in range(first):
            left = c[k].conj()[:, None] * inv(block(v, k, left)) * c[k]
        for k in range(slices - 1, last, -1):
            right = c[k - 1][:, None] * inv(block(v, k, right)) * c[k - 1].conj()
        for part in range(0, len(v), rows(size)):
            r = slice(part, part + rows(size))
            h = np.repeat(span[None], len(v[r]), axis=0)
            h[:, range(size), range(size)] += v[r, first * m:(last + 1) * m]
            h[:, :m, :m] -= left[r]
            h[:, -m:, -m:] -= right[r]
            out.append(np.take(np.linalg.solve(h, unit), rows_out, axis=1))
    return np.concatenate(out)


def krein_check(sample: HamiltonianSample, z, indices: Sequence[int]) -> float:
    """Spectral-norm residual of the rank-n perturbation identity
    g = (V_sub + g_reduced^{-1})^{-1}."""
    g = green_block(sample, z, indices, "full").matrix
    gt = green_block(sample, z, indices, "reduced")
    v_sub = np.diag(sample.potential[list(gt.indices)]).astype(complex)
    try:
        rhs = np.linalg.inv(v_sub + np.linalg.inv(gt.matrix))
    except np.linalg.LinAlgError as exc:
        raise NumericalFault(f"singular reduced block: {exc}") from exc
    return float(np.linalg.norm(g - rhs, 2))


def det_identity_check(sample: HamiltonianSample, z, indices: Sequence[int]) -> float:
    """Relative residual of
    det Im g = det(-Im g_reduced^{-1}) / |det(V_sub + g_reduced^{-1})|^2."""
    lhs = det_im(green_block(sample, z, indices, "full"))
    gt = green_block(sample, z, indices, "reduced")
    gt_inv = np.linalg.inv(gt.matrix)
    v_sub = np.diag(sample.potential[list(gt.indices)]).astype(complex)
    log_num = _log_det_positive(-imag_part(gt_inv), "-Im g_reduced^-1")
    _, logabs = np.linalg.slogdet(v_sub + gt_inv)
    rhs = float(np.exp(log_num - 2.0 * logabs))
    return abs(lhs - rhs) / lhs


def schur_check(h, z, p_indices: Sequence[int]) -> float:
    """Max spectral-norm residual over all four blocks of the
    Schur-complement inverse formula against the directly computed
    resolvent.  The P-block uses the effective operator
    PHP - PHQ (QHQ - z)^{-1} QHP."""
    h = _check_hermitian(_as_matrix(h)).astype(complex)
    n = h.shape[0]
    p = list(_check_subset(n, p_indices))
    if len(p) == n:
        raise ValueError("P must be a proper subset")
    q = [i for i in range(n) if i not in set(p)]

    a = h[np.ix_(p, p)]
    b = h[np.ix_(p, q)]
    c = h[np.ix_(q, q)]
    rq = resolvent(c, z)
    s_inv = resolvent(a - b @ rq @ b.conj().T, z)

    r = resolvent(h, z)
    residuals = [
        np.linalg.norm(r[np.ix_(p, p)] - s_inv, 2),
        np.linalg.norm(r[np.ix_(p, q)] + s_inv @ b @ rq, 2),
        np.linalg.norm(r[np.ix_(q, p)] + rq @ b.conj().T @ s_inv, 2),
        np.linalg.norm(r[np.ix_(q, q)] - (rq + rq @ b.conj().T @ s_inv @ b @ rq), 2),
    ]
    return float(max(residuals))


def frac_moment(sample: HamiltonianSample, x: int, y: int, z, s: float) -> float:
    """|G(x, y; z)|^s for a fractional exponent 0 < s < 1."""
    check_exponent(s)
    _check_subset(sample.box.n_sites, [x])
    g_xy = green_columns(sample, z, [y])[x, 0]
    return float(abs(g_xy) ** s)


# ---------------------------------------------------------------------------
# symmetric-function identities and eigenvalue counting
# ---------------------------------------------------------------------------

def elementary_symmetric(values: np.ndarray, n: int) -> float:
    """e_n of the given values via Newton's recursion on power sums."""
    values = np.asarray(values, dtype=float)
    big_n = len(values)
    if not 1 <= n <= big_n:
        raise ValueError(f"need 1 <= n <= {big_n}, got {n}")
    powers = [np.sum(values ** k) for k in range(1, n + 1)]
    e = [1.0]
    for k in range(1, n + 1):
        acc = 0.0
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * powers[i - 1]
        e.append(acc / k)
    return float(e[n])


def _brute_minor_sum(a: np.ndarray, n: int) -> float:
    total = 0.0
    for subset in itertools.combinations(range(a.shape[0]), n):
        sub = a[np.ix_(subset, subset)]
        total += float(np.linalg.det(sub).real)
    return total


def sum_principal_minors(a, n: int) -> float:
    """Sum of det over all n x n principal minors of a Hermitian matrix,
    equal to e_n of its eigenvalues.  For sizes up to 14, a brute-force
    minor enumeration is cross-asserted against the Newton recursion."""
    a = _check_hermitian(_as_matrix(a))
    result = elementary_symmetric(spectrum(a), n)  # checks 1 <= n <= N
    if a.shape[0] <= MINOR_BRUTE_FORCE_CAP:
        brute = _brute_minor_sum(a, n)
        scale = max(abs(brute), abs(result), 1e-300)
        if abs(brute - result) / scale > 1e-9:
            raise NumericalFault(
                f"minor-sum cross-check failed: brute {brute} vs e_n {result}")
    return result


def count_eigenvalues(h, interval: tuple[float, float]) -> int:
    """Number of eigenvalues in the half-open interval [a, b)."""
    a, b = interval
    return count_in(spectrum(_check_hermitian(_as_matrix(h))), a, b)


def wedge_count_check(h, interval: tuple[float, float], n: int) -> bool:
    """Check that e_n of the spectral projection's 0/1 eigenvalues equals
    C(k, n) for k eigenvalues inside the interval (0 when k < n)."""
    h = _check_hermitian(_as_matrix(h))
    a, b = interval
    w, u = np.linalg.eigh(h)
    # w ascends, so the eigenvalues in [a, b) are the k after those below a
    below, k = count_in(w, -math.inf, a), count_in(w, a, b)
    inside = u[:, below:below + k]
    proj = inside @ inside.conj().T
    lhs = elementary_symmetric(spectrum(proj), n)  # checks 1 <= n <= N
    expected = float(math.comb(k, n)) if k >= n else 0.0
    return abs(lhs - expected) <= 1e-8 * max(1.0, expected)
