"""Hermitian spectral computations: eigendecompositions, resolvents,
Green blocks, the rank-n perturbation (Krein) and Schur-complement
identities, determinants of imaginary parts, and symmetric-function
identities for sums of principal minors.  Every spectrum (``spectrum``),
eigenvalue count in [a, b) of a block of realizations (``count_block``),
solve with H - z (``green_columns``) and det Im g of a block of
realizations (``det_im_block``) goes through this module.

On slices of one site (``lattice.BlockTridiagonal`` of a chain, or of a box
such as (N, 1)) spectra and counts work on the two bands, a block's counts by
one Sturm sweep; on any other background they work on the dense H
(``lattice.dense_hamiltonian``), as the per-sample solves of ``green_columns``
do.  ``det_im_block`` sweeps the slices for a whole block at once, and solves
a dense background row by row.  The dense ``HamiltonianSample.matrix``, with
``green_block`` and ``det_im`` on it, stays the reference for both paths."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .lattice import Background, BlockTridiagonal, HamiltonianSample, as_integer, dense_hamiltonian


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
    this is the per-realization hot path.  A tridiagonal sample goes to
    LAPACK dsterf (root-free QR) on its bands, O(N^2) in place of O(N^3)."""
    bands = _chain_bands(getattr(h, "background", None))
    if bands is None:
        return np.linalg.eigvalsh(_as_matrix(h))
    diagonal, off = bands[0] + h.potential, bands[1]
    if len(diagonal) == 1:  # the dsterf wrapper rejects an empty off-diagonal
        return diagonal
    from scipy.linalg import lapack  # loads all of scipy.linalg; count_block does not
    w, info = lapack.dsterf(diagonal, off)
    if info:
        raise NumericalFault(f"dsterf: {info} off-diagonal entries did not converge")
    return w


def count_in(w: np.ndarray, a: float, b: float) -> int:
    """Number of values of ``w`` in the half-open interval [a, b), the
    convention of a Sturm count #{w < b} - #{w < a}."""
    return int(np.count_nonzero((w >= a) & (w < b)))


_TINY = float(np.finfo(float).tiny)


def _count_below(diagonals: np.ndarray, off_squared: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(E, B): #{eigenvalues < x_e} of each symmetric tridiagonal matrix T
    whose diagonal is row b of ``diagonals`` (B, N) and whose squared
    off-diagonal is ``off_squared`` (N - 1), for each x_e of the column ``x``
    (E, 1): the number of negative pivots of T - x = L D L^T, by Sylvester's
    law of inertia (Golub & Van Loan, Matrix Computations, 8.4).  The loop
    runs over sites, with arrays over points and rows.  Each pivot decreases
    in x, so a pivot that is exactly 0 is positive just below x: it counts as
    non-negative and goes on as the smallest positive float, which gives the
    count at x^- and keeps the [a, b) convention."""
    pivot = diagonals[:, 0] - x
    count = np.zeros(pivot.shape, dtype=np.int64)
    with np.errstate(over="ignore"):  # e2 / tiny may round to inf, as Python floats do
        for k, e2 in enumerate(off_squared, start=1):
            count += pivot < 0
            pivot = (diagonals[:, k] - x) - e2 / np.where(pivot == 0, _TINY, pivot)
    return count + (pivot < 0)


def count_block(background: Background, potentials: np.ndarray, a: float,
                b: float) -> np.ndarray:
    """Eigenvalue counts in [a, b) of the realizations background + diag(V)
    for each row V of ``potentials`` (B, N), as an int array.  On slices of
    one site, the Sturm count #{λ < b} - #{λ < a} over the whole block at
    once, with no spectrum and no scipy import; on any other background,
    ``count_in`` of each row's ``eigvalsh`` spectrum of the dense H."""
    bands = _chain_bands(background)
    if bands is not None:
        below = _count_below(bands[0] + potentials, bands[1] ** 2, np.array([[a], [b]]))
        return below[1] - below[0]
    return np.array([count_in(np.linalg.eigvalsh(dense_hamiltonian(background, v)), a, b)
                     for v in potentials], dtype=np.int64)


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


def det_im_block(operator: Background, potentials: np.ndarray, z,
                 indices: Sequence[int]) -> np.ndarray:
    """det Im g for g the full Green block on ``indices`` of each realization
    operator + diag(V), V a row of ``potentials`` (B, N): a (B,) array, row b
    equal to ``det_im(green_block(sample_b, z, indices))`` to rounding and the
    same whatever the other rows.  On a ``BlockTridiagonal`` operator, the
    slice sweep ``_slice_green`` over many rows at once; on a dense one, one
    row's ``green_columns`` at a time.  A non-positive Im g raises
    NumericalFault with the first failing row as its ``row``."""
    zc = _as_z(z)
    idx = list(_check_subset(potentials.shape[1], indices))
    if isinstance(operator, np.ndarray):
        g = np.stack([green_columns(dense_hamiltonian(operator, v), zc, idx)[idx]
                      for v in potentials])
    else:
        g = _slice_green(operator, potentials, zc, idx)
    return np.exp(_log_det_positive(imag_part(g), "imaginary part"))


# size of each stack of matrices the slice sweep works on, which sets its rows:
# the (rows, m, m) folds and the (rows, M, M) span solves each stay in cache
_STACK_BYTES = 1 << 17


def _slice_green(operator: BlockTridiagonal, potentials: np.ndarray, zc: complex,
                 idx: list[int]) -> np.ndarray:
    """(B, n, n): the Green block on the sites ``idx`` of every row, by the
    recursive Green's function sweep (MacKinnon & Kramer, Z. Phys. B 53, 1983).
    The slices left of the first slice holding a site of ``idx``, and right of
    the last, are folded into self-energies by Schur complements, one slice at a
    time: with C = diag(c_k) the coupling of slice k to k + 1 and
    g the inverse of slice k's block of H - z less the self-energy so far, the
    next slice's is C* g C (left) or C g C* (right).  Only the M sites of the
    slices in between are solved densely.  Both steps take a few rows at a
    time (``_STACK_BYTES``).  On slices of m = 1 site (a chain) every block is
    a scalar and the sweep is a continued fraction, elementwise over the rows."""
    blocks, c = operator
    slices, m = blocks.shape[:2]
    first, last = min(idx) // m, max(idx) // m
    shifted = blocks - zc * np.eye(m)
    size = (last - first + 1) * m
    span = np.zeros((size, size), dtype=complex)  # H - z on the span, less the potential
    for j in range(last - first + 1):
        span[j * m:(j + 1) * m, j * m:(j + 1) * m] = shifted[first + j]
    upper = np.arange(size - m)  # site x of the span and x + m, one slice on
    span[upper, upper + m] = c[first:last].ravel()
    span[upper + m, upper] = c[first:last].conj().ravel()
    local = [i - first * m for i in idx]
    unit = np.zeros((1, size, len(idx)), dtype=complex)  # one matrix, not a stack of vectors
    unit[0, local, range(len(idx))] = 1.0

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
            out.append(np.linalg.solve(h, unit)[:, local])
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
