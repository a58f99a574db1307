"""``randlat.gof`` against ``scipy.stats``, which serves as the oracle here
and nowhere in ``src/``.

Which side is right where the two differ was settled once against an exact
evaluation in mpmath (60 digits; the Kolmogorov law as 1 - n!/n^n (H^n)_kk):
- where scipy's ``kstwo.sf`` approximates by Pelz-Good, scipy is the one off,
  by 1.85e-5 relative at (n, D) = (151, 0.1185), where ``gof`` (the exact
  Durbin matrix) is 5.9e-14 off;
- in scipy's Pomeranz branch near nD^2 = 4, scipy is 5.6e-12 off at
  (62, 0.2517) and ``gof`` 7.2e-13;
- in the Miller branch both sides take twice the one-sided Smirnov tail, which
  the law itself exceeds by the chance of crossing both bands: at nD^2 = 2.21
  both are 1.1e-6 to 1.5e-6 off at n = 141, 300 and 1000, and agree with each
  other to 3e-14.
"""

import math

import numpy as np
import pytest
from scipy import stats

from randlat import gof

from conftest import scipy_poisson_chi2_pvalue


def test_chi2_and_poisson_tails_match_scipy():
    rng = np.random.default_rng(2003)
    size = 2000
    df = rng.integers(1, 41, size)
    x = rng.uniform(0.0, 4.0 * df + 40.0)
    lam = np.exp(rng.uniform(math.log(0.01), math.log(60.0), size))
    k = rng.integers(0, 120, size)
    cases = {
        "chi2.sf": ([gof.chi2_sf(a, b) for a, b in zip(x, df)], stats.chi2.sf(x, df)),
        "poisson.pmf": ([gof.poisson_pmf(np.array([a]), b)[0] for a, b in zip(k, lam)],
                        stats.poisson.pmf(k, lam)),
        "poisson.sf": ([gof.poisson_sf(int(a), b) for a, b in zip(k, lam)],
                       stats.poisson.sf(k, lam)),
    }
    for name, (ours, ref) in cases.items():
        normal = ref > 1e-300  # below it the float range, not the method, sets the error
        assert np.count_nonzero(normal) > size // 2, name
        np.testing.assert_allclose(np.array(ours)[normal], ref[normal], rtol=1e-12, atol=0,
                                   err_msg=name)


def test_poisson_chi2_pvalue_matches_the_scipy_reference():
    rng = np.random.default_rng(139)
    for _ in range(300):
        lam = float(rng.uniform(0.2, 30.0))
        counts = rng.poisson(lam * rng.uniform(0.7, 1.3), size=int(rng.integers(1, 400)))
        ref, ours = scipy_poisson_chi2_pvalue(counts, lam), gof.poisson_chi2_pvalue(counts, lam)
        if ref < 1e-300:
            assert 0.0 <= ours < 1e-300
            continue
        # a p-value e^-s moves by s times the rounding of the statistic it is read at
        assert ours == pytest.approx(ref, rel=1e-12 * max(1.0, -math.log(ref)), abs=0)


def test_gamma_tails_are_complements():
    for a in (0.5, 1.0, 3.0, 12.5, 80.0):
        for x in (0.0, 0.1, a, a + 0.999, a + 1.0, 3.0 * a + 10.0):
            assert gof.gamma_p(a, x) + gof.gamma_q(a, x) == pytest.approx(1.0, abs=1e-15)


def scipy_branch(n: int, d: float) -> str:
    """The method scipy's ``kstwo.sf`` takes at (n, d) (scipy/stats/_ksstats.py)."""
    t, w = n * d, n * d * d
    if t <= 1.0 or t >= n - 1:
        return "ruben-gambino"
    if d >= 0.5:
        return "smirnov"
    if n <= 140:
        return "durbin" if w <= 0.754693 else "pomeranz" if w <= 4.0 else "smirnov"
    if w >= 2.2:
        return "miller"
    return "durbin" if n * d ** 1.5 <= 1.4 else "pelz-good"


# The largest relative difference from scipy allowed in each branch: 1e-12 where
# scipy is exact, and the mpmath finding (module docstring) where it is not.
BRANCH_RTOL = {"ruben-gambino": 1e-12, "durbin": 1e-12, "smirnov": 1e-12,
               "pomeranz": 2e-11, "miller": 1e-12, "pelz-good": 5e-5}


@pytest.fixture(scope="module")
def ks_points():
    """(n, d) pairs over n in 5..10 000, grouped by scipy's branch."""
    rng = np.random.default_rng(2011)
    points = {branch: [] for branch in BRANCH_RTOL}
    while min(len(p) for p in points.values()) < 40:
        n = int(round(math.exp(rng.uniform(math.log(5), math.log(10_000)))))
        pick = rng.random()
        if pick < 0.1:
            d = rng.uniform(0.5, 1.2) / n
        elif pick < 0.2:
            d = rng.uniform(0.5, 1.0)
        else:
            d = math.sqrt(math.exp(rng.uniform(math.log(0.1), math.log(300.0))) / n)
        if d < 1.0 and len(points[scipy_branch(n, d)]) < 40:
            points[scipy_branch(n, d)].append((n, d))
    return points


@pytest.mark.parametrize("branch", BRANCH_RTOL)
def test_kolmogorov_sf_matches_kstwo(ks_points, branch):
    for n, d in ks_points[branch]:
        ref = float(stats.kstwo.sf(d, n))
        ours = gof.kolmogorov_sf(n, d)
        if ref < 1e-300:  # scipy returns 0 from nD^2 >= 370, where the tail underflows
            assert 0.0 <= ours < 1e-300
        else:
            assert ours == pytest.approx(ref, rel=BRANCH_RTOL[branch], abs=0), (n, d)


def test_ks_test_matches_kstest():
    rng = np.random.default_rng(18)
    for n in (7, 60, 300, 1500):
        sample = rng.exponential(size=n) * rng.uniform(0.8, 1.25)

        def cdf(x):
            return -np.expm1(-x)

        d, p = gof.ks_test(sample, cdf)
        ref = stats.kstest(sample, cdf)
        assert d == ref.statistic  # the same D+/D- formula, bit for bit
        assert p == pytest.approx(ref.pvalue, rel=BRANCH_RTOL[scipy_branch(n, d)], abs=0)
