"""Dense Hermitian spectral computations: eigendecompositions, resolvents,
Green blocks, the rank-n perturbation (Krein) and Schur-complement
identities, determinants of imaginary parts, and symmetric-function
identities for sums of principal minors."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .lattice import HamiltonianSample


class NonHermitianError(ValueError):
    """Input matrix fails the Hermiticity check."""


class NumericalFault(RuntimeError):
    """A numerical invariant was violated (positivity, convergence,
    internal cross-check)."""


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


def resolvent(h, z) -> np.ndarray:
    """(H - z)^{-1} for Im z > 0."""
    zc = _as_z(z)
    h = _as_matrix(h)
    n = h.shape[0]
    return np.linalg.solve(h.astype(complex) - zc * np.eye(n), np.eye(n, dtype=complex))


def imag_part(m: np.ndarray) -> np.ndarray:
    """Operator imaginary part (M - M*)/2i; a Hermitian matrix."""
    return (m - m.conj().T) / 2j


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
    idx = tuple(int(i) for i in indices)
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
    mat = _as_matrix(h).astype(complex)
    idx = _check_subset(mat.shape[0], indices)
    if flavor == "reduced":
        if potential is None:
            raise ValueError("reduced flavor needs the potential vector")
        mat = mat.copy()
        mat[idx, idx] -= np.asarray(potential, dtype=float)[list(idx)]
    mat[np.diag_indices(mat.shape[0])] -= zc
    cols = np.zeros((mat.shape[0], len(idx)), dtype=complex)
    cols[idx, range(len(idx))] = 1.0
    sol = np.linalg.solve(mat, cols)
    return GreenBlock(indices=idx, matrix=sol[list(idx), :], z=zc, flavor=flavor)


def det_im(block: Union[GreenBlock, np.ndarray]) -> float:
    """det of the (positive definite) imaginary part of a Green block,
    computed from eigenvalues in log space."""
    m = block.matrix if isinstance(block, GreenBlock) else np.asarray(block)
    w = np.linalg.eigvalsh(imag_part(m))
    if w.min() < -POSITIVITY_TOL:
        raise NumericalFault(
            f"imaginary part has eigenvalue {w.min()}, expected positive")
    w = np.maximum(w, np.finfo(float).tiny)
    return float(np.exp(np.sum(np.log(w))))


def krein_check(sample: HamiltonianSample, z, indices: Sequence[int]) -> float:
    """Spectral-norm residual of the rank-n perturbation identity
    g = (V_sub + g_reduced^{-1})^{-1}."""
    g = green_block(sample, z, indices, "full").matrix
    gt = green_block(sample, z, indices, "reduced").matrix
    idx = list(_check_subset(sample.box.n_sites, indices))
    v_sub = np.diag(sample.potential[idx]).astype(complex)
    try:
        rhs = np.linalg.inv(v_sub + np.linalg.inv(gt))
    except np.linalg.LinAlgError as exc:
        raise NumericalFault(f"singular reduced block: {exc}") from exc
    return float(np.linalg.norm(g - rhs, 2))


def det_identity_check(sample: HamiltonianSample, z, indices: Sequence[int]) -> float:
    """Relative residual of
    det Im g = det(-Im g_reduced^{-1}) / |det(V_sub + g_reduced^{-1})|^2."""
    lhs = det_im(green_block(sample, z, indices, "full"))
    gt = green_block(sample, z, indices, "reduced").matrix
    gt_inv = np.linalg.inv(gt)
    idx = list(_check_subset(sample.box.n_sites, indices))
    v_sub = np.diag(sample.potential[idx]).astype(complex)
    w = np.linalg.eigvalsh(-imag_part(gt_inv))
    if w.min() < -POSITIVITY_TOL:
        raise NumericalFault(
            f"-Im g_reduced^-1 has eigenvalue {w.min()}, expected positive")
    w = np.maximum(w, np.finfo(float).tiny)
    _, logabs = np.linalg.slogdet(v_sub + gt_inv)
    rhs = float(np.exp(np.sum(np.log(w)) - 2.0 * logabs))
    return abs(lhs - rhs) / lhs


def schur_check(h, z, p_indices: Sequence[int]) -> float:
    """Max spectral-norm residual over all four blocks of the
    Schur-complement inverse formula against the directly computed
    resolvent.  The P-block uses the effective operator
    PHP - PHQ (QHQ - z)^{-1} QHP."""
    zc = _as_z(z)
    h = _check_hermitian(_as_matrix(h)).astype(complex)
    n = h.shape[0]
    p = list(_check_subset(n, p_indices))
    if len(p) == n:
        raise ValueError("P must be a proper subset")
    q = [i for i in range(n) if i not in set(p)]

    a = h[np.ix_(p, p)]
    b = h[np.ix_(p, q)]
    c = h[np.ix_(q, q)]
    rq = np.linalg.inv(c - zc * np.eye(len(q)))
    s_inv = np.linalg.inv(a - zc * np.eye(len(p)) - b @ rq @ b.conj().T)

    r = resolvent(h, zc)
    residuals = [
        np.linalg.norm(r[np.ix_(p, p)] - s_inv, 2),
        np.linalg.norm(r[np.ix_(p, q)] + s_inv @ b @ rq, 2),
        np.linalg.norm(r[np.ix_(q, p)] + rq @ b.conj().T @ s_inv, 2),
        np.linalg.norm(r[np.ix_(q, q)] - (rq + rq @ b.conj().T @ s_inv @ b @ rq), 2),
    ]
    return float(max(residuals))


def frac_moment(sample: HamiltonianSample, x: int, y: int, z, s: float) -> float:
    """|G(x, y; z)|^s for a fractional exponent 0 < s < 1."""
    if not 0 < s < 1:
        raise ValueError(f"s must be in (0, 1), got {s}")
    zc = _as_z(z)
    n = sample.box.n_sites
    _check_subset(n, [x])
    _check_subset(n, [y])
    mat = sample.matrix.astype(complex)
    mat[np.diag_indices(n)] -= zc
    col = np.zeros(n, dtype=complex)
    col[y] = 1.0
    g_xy = np.linalg.solve(mat, col)[x]
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
    big_n = a.shape[0]
    if not 1 <= n <= big_n:
        raise ValueError(f"need 1 <= n <= {big_n}, got {n}")
    w = np.linalg.eigvalsh(a)
    result = elementary_symmetric(w, n)
    if big_n <= MINOR_BRUTE_FORCE_CAP:
        brute = _brute_minor_sum(a, n)
        scale = max(abs(brute), abs(result), 1e-300)
        if abs(brute - result) / scale > 1e-9:
            raise NumericalFault(
                f"minor-sum cross-check failed: brute {brute} vs e_n {result}")
    return result


def count_eigenvalues(h, interval: tuple[float, float]) -> int:
    """Number of eigenvalues in the half-open interval [a, b)."""
    a, b = interval
    if b <= a:
        return 0
    w = np.linalg.eigvalsh(_check_hermitian(_as_matrix(h)))
    return int(np.count_nonzero((w >= a) & (w < b)))


def wedge_count_check(h, interval: tuple[float, float], n: int) -> bool:
    """Check that e_n of the spectral projection's 0/1 eigenvalues equals
    C(k, n) for k eigenvalues inside the interval (0 when k < n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    h = _check_hermitian(_as_matrix(h))
    if n > h.shape[0]:
        raise ValueError(f"n={n} exceeds dimension {h.shape[0]}")
    a, b = interval
    w, u = np.linalg.eigh(h)
    inside = (w >= a) & (w < b)
    k = int(np.count_nonzero(inside))
    proj = u[:, inside] @ u[:, inside].conj().T
    lhs = elementary_symmetric(np.linalg.eigvalsh(proj), n)
    expected = float(math.comb(k, n)) if k >= n else 0.0
    return abs(lhs - expected) <= 1e-8 * max(1.0, expected)
