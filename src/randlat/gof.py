"""Goodness-of-fit tests of ``montecarlo.spacing_statistics``, in numpy and
``math`` alone: the one-sample Kolmogorov-Smirnov test against any CDF, and
the chi-square test of counts against a Poisson law.

Only ``spacing_statistics`` imports this module, so no other experiment
compiles or loads it.

- The KS p-value is Kolmogorov's exact law of D_n.  It follows the branch
  selection of Simard & L'Ecuyer (J. Stat. Softw. 39(11), 2011): the
  Ruben-Gambino closed forms at the ends, twice the one-sided Smirnov tail
  where that tail is small, and otherwise 1 - the Durbin matrix power of
  Marsaglia, Tsang & Wang (J. Stat. Softw. 8(18), 2003).
- The chi-square and Poisson tails are regularized incomplete gamma
  functions: the series of P below a + 1, Lentz's continued fraction of Q
  above it (Press et al., Numerical Recipes, 3rd ed., section 6.2).  The
  other tail is 1 minus that one only where it is at least 0.08 for every
  a >= 1/2, so no tail is taken as 1 minus a number near 1.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_EPS = float(np.finfo(float).eps)
_TINY = 1e-300
_MAX_TERMS = 100_000
_SCALE_EXP = 128  # the matrix power is rescaled by 2**128 as it grows

# At most this many observations, the Smirnov tail serves only where nD^2 >= 4;
# above it, from nD^2 >= 2.2 (Simard & L'Ecuyer's choice for the complement).
_SMALL_N = 140


def ks_test(sample: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> tuple[float, float]:
    """(D, p) of the two-sided one-sample KS test of ``sample`` against ``cdf``."""
    x = np.sort(sample)
    n = len(x)
    values = cdf(x)
    d_plus = np.max(np.arange(1.0, n + 1) / n - values)
    d_minus = np.max(values - np.arange(0.0, n) / n)
    d = float(d_plus if d_plus > d_minus else d_minus)
    return d, kolmogorov_sf(n, d)


def kolmogorov_sf(n: int, d: float) -> float:
    """P(D_n > d) for the two-sided KS statistic of n observations."""
    if d >= 1.0:
        return 0.0
    t = n * d
    if t <= 0.5:
        return 1.0
    if t <= 1.0:  # Ruben-Gambino: n!/n^n (2nd - 1)^n
        return 1.0 - math.exp(math.lgamma(n + 1) - n * math.log(n) + n * math.log(2 * t - 1))
    if t >= n - 1:  # Ruben-Gambino
        return 2.0 * (1.0 - d) ** n
    if d >= 0.5 or t * d >= (4.0 if n <= _SMALL_N else 2.2):
        return min(1.0, 2.0 * _smirnov_sf(n, d))
    return min(1.0, max(0.0, 1.0 - _durbin_cdf(n, d)))


def _smirnov_sf(n: int, d: float) -> float:
    """P(D+_n >= d), the one-sided tail, by the Birnbaum-Tingey sum
    d sum_j C(n, j) a^(n-j) b^(j-1), a = 1 - d - j/n and b = d + j/n.  Each
    term is a binomial probability over b, taken in logs in Loader's form
    (Stirling errors and log1p), so that no log of order n! is rounded."""
    nd = n * d
    j = np.arange(1, math.floor(n * (1.0 - d)) + 1)
    with np.errstate(divide="ignore"):  # a last term of 0^(nd), where nd is an integer
        logs = (_stirling_error(n) - _stirling_error(j) - _stirling_error(n - j)
                + 0.5 * np.log(n / (2.0 * math.pi * j * (n - j)))
                + j * np.log1p(nd / j) + (n - j) * np.log1p(-nd / (n - j)) - np.log(d + j / n))
    logs = np.append(logs, n * math.log1p(-d) - math.log(d))  # j = 0
    top = logs.max()
    return d * math.exp(top) * float(np.exp(logs - top).sum())


_STIRLING_DIRECT = np.array([math.lgamma(m + 1) - (m + 0.5) * math.log(m) + m
                             - 0.5 * math.log(2.0 * math.pi) for m in range(1, 16)])


def _stirling_error(m):
    """log m! - log(sqrt(2 pi m) (m/e)^m) for integers m >= 1: directly up to
    15, and by its asymptotic series beyond (Loader, 2000)."""
    m = np.asarray(m)
    x = np.maximum(m, 16.0)
    r = 1.0 / (x * x)
    series = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / x
    return np.where(m <= 15, _STIRLING_DIRECT[np.clip(m, 1, 15) - 1], series)


def _durbin_cdf(n: int, d: float) -> float:
    """P(D_n < d) as n!/n^n times the middle entry of H^n, H the Durbin
    matrix of order 2k - 1, k = ceil(nd) (Marsaglia, Tsang & Wang)."""
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    i = np.arange(1, m + 1)
    inv_fact = np.cumprod(1.0 / i)  # 1/j! for j = 1..m; underflow to 0 is harmless
    w = np.concatenate(([1.0], inv_fact[:-1]))  # 1/j! for j = 0..m-1
    v = (1.0 - h ** i) * inv_fact
    v[-1] = (1.0 - 2.0 * h ** m + max(0.0, 2.0 * h - 1.0) ** m) * inv_fact[-1]
    rows, cols = np.indices((m, m))
    band = rows - cols + 1  # H[r, c] = 1/(r - c + 1)! on and below the superdiagonal
    hmat = np.where(band >= 0, w[np.clip(band, 0, m - 1)], 0.0)
    hmat[:, 0] = v
    hmat[-1, :] = v[::-1]

    power, exponent, h_exponent = np.eye(m), 0, 0
    e = n
    while e:
        if e & 1:
            power = power @ hmat
            exponent += h_exponent
        e >>= 1
        if e:
            hmat = hmat @ hmat
            h_exponent *= 2
            if abs(hmat[k - 1, k - 1]) > 2.0 ** _SCALE_EXP:
                hmat *= 2.0 ** -_SCALE_EXP
                h_exponent += _SCALE_EXP
    p = power[k - 1, k - 1]
    for i in range(1, n + 1):  # times n!/n^n, one factor at a time
        p = i * p / n
        if abs(p) < 2.0 ** -_SCALE_EXP:
            p *= 2.0 ** _SCALE_EXP
            exponent -= _SCALE_EXP
    return math.ldexp(p, exponent)


def _log_gamma_prefactor(a: float, x: float) -> float:
    return a * math.log(x) - x - math.lgamma(a)


def _gamma_series(a: float, x: float) -> float:
    """P(a, x) by its power series; converges fast for x < a + 1."""
    term = total = 1.0 / a
    ap = a
    for _ in range(_MAX_TERMS):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) <= abs(total) * _EPS:
            return total * math.exp(_log_gamma_prefactor(a, x))
    raise ArithmeticError(f"incomplete gamma series did not converge at a={a}, x={x}")


def _gamma_fraction(a: float, x: float) -> float:
    """Q(a, x) by its continued fraction, Lentz's method; for x >= a + 1."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = d if abs(d) >= _TINY else _TINY
        c = b + an / c
        c = c if abs(c) >= _TINY else _TINY
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) <= _EPS:
            return h * math.exp(_log_gamma_prefactor(a, x))
    raise ArithmeticError(f"incomplete gamma fraction did not converge at a={a}, x={x}")


def gamma_p(a: float, x: float) -> float:
    """The regularized lower incomplete gamma function P(a, x), a > 0."""
    if x <= 0.0:
        return 0.0
    return _gamma_series(a, x) if x < a + 1.0 else 1.0 - _gamma_fraction(a, x)


def gamma_q(a: float, x: float) -> float:
    """The regularized upper incomplete gamma function Q(a, x) = 1 - P(a, x), a > 0."""
    if x <= 0.0:
        return 1.0
    return 1.0 - _gamma_series(a, x) if x < a + 1.0 else _gamma_fraction(a, x)


def chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square with ``df`` degrees of freedom."""
    return gamma_q(df / 2.0, x / 2.0)


def poisson_pmf(k: np.ndarray, lam: float) -> np.ndarray:
    """P(X = k) for X ~ Poisson(lam), k >= 0 integers."""
    lgam = np.array([math.lgamma(j + 1.0) for j in k])
    return np.exp(k * math.log(lam) - lgam - lam)


def poisson_sf(k: int, lam: float) -> float:
    """P(X > k) for X ~ Poisson(lam), which is P(k + 1, lam)."""
    return gamma_p(k + 1.0, lam)


def poisson_chi2_pvalue(counts: np.ndarray, lam: float) -> float:
    """Chi-square goodness of fit of integer counts against Poisson(lam),
    merging tail bins to keep expected occupancy >= 5."""
    m = len(counts)
    kmax = int(counts.max())
    observed = np.bincount(counts.astype(int), minlength=kmax + 1).astype(float)
    expected = m * poisson_pmf(np.arange(kmax + 1), lam)
    expected = np.append(expected, m * poisson_sf(kmax, lam))
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
    return chi2_sf(chi2, len(expected) - 1)
