"""Quadrature verification of the closed-form integral identities used
by the moment bounds: the Gaussian representation of 1/sqrt(det M) for
matrices with positive-definite imaginary part, two rational line
integrals, and the determinant-of-imaginary-part integral bound at
dimensions one and two; and the suite that runs them all against their
error contracts."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .spectral import NumericalFault


class QuadratureError(NumericalFault):
    """Reported quadrature error exceeds the requested tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the truncated-domain Gauss-Legendre rules."""

    tolerance: float = 1e-8
    order: int = 240
    tail_mass: float = 1e-12  # target Gaussian tail outside the truncation


def _imag_part(m: np.ndarray) -> np.ndarray:
    return (m - m.conj().T) / 2j


def _require_positive_imag(m: np.ndarray, name: str) -> np.ndarray:
    w = np.linalg.eigvalsh(_imag_part(m))
    if w.min() <= 0:
        raise ValueError(f"{name} must have positive-definite imaginary part "
                         f"(min eigenvalue {w.min()})")
    return w


# ---------------------------------------------------------------------------
# Gaussian representation of 1/sqrt(det M)
# ---------------------------------------------------------------------------

def gauss_repr_check(m, spec: QuadratureSpec = QuadratureSpec(tolerance=1e-7)) -> float:
    """|quadrature - closed form| for the identity

        1/sqrt(det M) = exp(i n pi/4) * (2 pi)^{-n/2}
                        * integral exp(-i <u, M u>/2) d^n u,

    where M = B - iA with A positive definite, n in {1, 2}, and the
    square root on the principal branch.  The integrand modulus decays
    as exp(-<u, A u>/2), which fixes the truncation radius."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    n = m.shape[0]
    if m.shape != (n, n) or n not in (1, 2):
        raise ValueError(f"need a 1x1 or 2x2 matrix, got shape {m.shape}")
    a = -_imag_part(m)
    w = np.linalg.eigvalsh(a)
    if w.min() <= 0:
        raise ValueError(f"-Im M must be positive definite (min eig {w.min()})")
    # The closed form uses the principal branch of sqrt(det M); it agrees
    # with the analytic continuation only while the eigenvalue phases of M
    # (each in (-pi, 0)) sum above -pi.  Outside that domain the principal
    # branch flips sign and the stated identity does not apply.
    phase_sum = float(np.angle(np.linalg.eigvals(m)).sum())
    if phase_sum <= -math.pi:
        raise ValueError(
            f"eigenvalue phase sum {phase_sum:.3f} <= -pi: outside the "
            "principal-branch domain of the determinant identity")

    radius = math.sqrt(2.0 * math.log(1.0 / spec.tail_mass) / w.min()) + 1.0
    nodes, weights = np.polynomial.legendre.leggauss(spec.order)
    nodes = nodes * radius
    weights = weights * radius

    def tensor_integral(order_nodes, order_weights):
        if n == 1:
            u = order_nodes[:, None]
            wt = order_weights
        else:
            u1, u2 = np.meshgrid(order_nodes, order_nodes, indexing="ij")
            u = np.stack([u1.ravel(), u2.ravel()], axis=1)
            wt = np.outer(order_weights, order_weights).ravel()
        quad_form = np.einsum("ki,ij,kj->k", u, m, u)
        return np.sum(wt * np.exp(-0.5j * quad_form))

    value = tensor_integral(nodes, weights)
    # error estimate: compare against a coarser rule plus the Gaussian tail
    nodes_c, weights_c = np.polynomial.legendre.leggauss(spec.order // 2)
    coarse = tensor_integral(nodes_c * radius, weights_c * radius)
    tail = n * 2.0 * math.sqrt(2.0 * math.pi / w.min()) * spec.tail_mass
    est_error = abs(value - coarse) + tail
    if est_error > spec.tolerance:
        raise QuadratureError(f"estimated quadrature error {est_error:.3e} "
                              f"exceeds tolerance {spec.tolerance:.3e}")

    lhs = np.exp(1j * n * math.pi / 4.0) * value / (2.0 * math.pi) ** (n / 2.0)
    rhs = 1.0 / np.sqrt(np.linalg.det(m))  # principal branch
    return float(abs(lhs - rhs))


# ---------------------------------------------------------------------------
# rational line integrals
# ---------------------------------------------------------------------------

_QUAD_OPTS = dict(epsabs=1e-11, epsrel=1e-11, limit=400)


def _split_quad(f, peak: float) -> tuple[float, float]:
    """Integrate f over the real line, split at the integrand's peak so
    the adaptive rule resolves sharply peaked cases."""
    left, err_l = integrate.quad(f, -np.inf, peak, **_QUAD_OPTS)
    right, err_r = integrate.quad(f, peak, np.inf, **_QUAD_OPTS)
    return left + right, err_l + err_r


def gv_line_integral_check(a: complex, b: complex) -> float:
    """|quadrature - closed form| for
    integral dx / |a x + b|^2 = pi / Im(conj(b) a),
    valid when Im(conj(b) a) > 0."""
    a, b = complex(a), complex(b)
    denom = (np.conj(b) * a).imag
    if denom <= 0:
        raise ValueError(f"need Im(conj(b) a) > 0, got {denom}")
    peak = -(np.conj(a) * b).real / abs(a) ** 2
    value, err = _split_quad(lambda x: 1.0 / abs(a * x + b) ** 2, peak)
    if err > 2e-9:
        raise QuadratureError(f"quadrature error estimate {err:.3e} too large")
    return abs(value - math.pi / denom)


def gv_quadratic_integral_check(a: float, b: float, c: float) -> float:
    """|quadrature - closed form| for
    integral dx / (a x^2 + b x + c) = 2 pi / sqrt(4 a c - b^2),
    valid when a > 0 and the discriminant 4 a c - b^2 > 0."""
    if a <= 0:
        raise ValueError(f"need a > 0, got {a}")
    disc = 4.0 * a * c - b * b
    if disc <= 0:
        raise ValueError(f"need 4ac - b^2 > 0, got {disc}")
    value, err = _split_quad(lambda x: 1.0 / (a * x * x + b * x + c),
                             -b / (2.0 * a))
    if err > 2e-9:
        raise QuadratureError(f"quadrature error estimate {err:.3e} too large")
    return abs(value - 2.0 * math.pi / math.sqrt(disc))


# ---------------------------------------------------------------------------
# determinant-of-imaginary-part integral bound
# ---------------------------------------------------------------------------

def gv_lemma_check(a_mat) -> tuple[float, float]:
    """Integral over v of det Im[(diag(v) - A)^{-1}] for a matrix A with
    positive-definite imaginary part, n in {1, 2}.  Returns
    (integral value, bound pi^n); at n = 1 the value equals pi exactly,
    at n = 2 it is bounded by pi^2."""
    a_mat = np.atleast_2d(np.asarray(a_mat, dtype=complex))
    n = a_mat.shape[0]
    if a_mat.shape != (n, n) or n not in (1, 2):
        raise ValueError(f"need a 1x1 or 2x2 matrix, got shape {a_mat.shape}")
    _require_positive_imag(a_mat, "A")

    if n == 1:
        alpha = complex(a_mat[0, 0])
        value, err = integrate.quad(lambda v: (1.0 / (v - alpha)).imag,
                                    -np.inf, np.inf, **_QUAD_OPTS)
        if err > 1e-9:
            raise QuadratureError(f"quadrature error estimate {err:.3e} too large")
        return float(value), math.pi

    def det_im_inv(v1: float, v2: float) -> float:
        g = np.linalg.inv(np.diag([v1, v2]) - a_mat)
        return float(np.linalg.det(_imag_part(g)).real)

    inner_opts = dict(epsabs=1e-10, epsrel=1e-10, limit=200)

    def outer(v1: float) -> float:
        val, _ = integrate.quad(lambda v2: det_im_inv(v1, v2),
                                -np.inf, np.inf, **inner_opts)
        return val

    value, err = integrate.quad(outer, -np.inf, np.inf,
                                epsabs=1e-8, epsrel=1e-8, limit=200)
    if err > 1e-6:
        raise QuadratureError(f"quadrature error estimate {err:.3e} too large")
    return float(value), math.pi ** 2


# ---------------------------------------------------------------------------
# the oracle suite
# ---------------------------------------------------------------------------

def identity_suite(sweep_draws: int = 25, sweep_seed: int = 0) -> list[dict]:
    """The full quadrature-oracle suite: fixed closed-form cases plus a
    seeded randomized sweep.  One record per check."""
    records = []

    def add(check: str, case: str, discrepancy: float, contract: float):
        records.append({"check": check, "case": case,
                        "discrepancy": discrepancy, "contract": contract,
                        "verdict": "PASS" if discrepancy <= contract else "FAIL"})

    add("gauss_repr", "n1_pure_imag",
        gauss_repr_check(np.array([[-1j]])), 1e-6)
    add("gauss_repr", "n1_mixed",
        gauss_repr_check(np.array([[1.0 - 1j]])), 1e-6)
    add("gauss_repr", "n2_diag",
        gauss_repr_check(np.diag([1.0 - 1j, 2.0 - 1j])), 1e-6)
    add("gv_line", "cauchy", gv_line_integral_check(1.0, -1j), 1e-8)
    add("gv_line", "scaled", gv_line_integral_check(2.0, -1j), 1e-8)
    add("gv_quadratic", "unit", gv_quadratic_integral_check(1, 0, 1), 1e-8)
    add("gv_quadratic", "mixed", gv_quadratic_integral_check(1, 1, 1), 1e-8)

    value, bound = gv_lemma_check(np.array([[1j]]))
    add("gv_lemma_n1", "cauchy", abs(value - math.pi), 1e-10)
    value, bound = gv_lemma_check(np.diag([1j, 1j]))
    add("gv_lemma_n2", "decoupled", max(0.0, value - bound), 1e-6)
    value, bound = gv_lemma_check(np.array([[1j, 0.3], [0.3, 1j]]))
    add("gv_lemma_n2", "coupled", max(0.0, value - bound), 1e-6)

    rng = np.random.default_rng(sweep_seed)
    for k in range(sweep_draws):
        while True:
            b_part = rng.uniform(-2, 2, size=(2, 2))
            b_part = (b_part + b_part.T) / 2
            a_part = rng.uniform(-0.5, 0.5, size=(2, 2))
            a_part = (a_part + a_part.T) / 2 + np.eye(2) * rng.uniform(1.0, 2.0)
            m = b_part - 1j * a_part
            if np.angle(np.linalg.eigvals(m)).sum() > -math.pi + 0.05:
                break
        add("gauss_repr", f"sweep_{k}", gauss_repr_check(m), 1e-6)
        a, b = complex(*rng.uniform(-2, 2, 2)), complex(*rng.uniform(-2, 2, 2))
        if (np.conj(b) * a).imag <= 0:
            a = np.conj(a)
        if (np.conj(b) * a).imag > 1e-3:
            add("gv_line", f"sweep_{k}", gv_line_integral_check(a, b), 1e-8)
        qa = rng.uniform(0.5, 3.0)
        qb = rng.uniform(-1.0, 1.0)
        qc = (qb * qb + rng.uniform(0.5, 4.0)) / (4 * qa)
        add("gv_quadratic", f"sweep_{k}",
            gv_quadratic_integral_check(qa, qb, qc), 1e-8)
    return records
