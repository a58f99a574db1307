"""Acceptance suite: one check per release criterion, each printing a
single PASS/FAIL line.  Run with `pytest -s tests/test_acceptance.py` to
see the lines as they complete.  Thresholds are fixed here and must not
be loosened; the randomized parts use frozen seeds so the suite is
reproducible bit for bit."""

import json
import math

import numpy as np
import pytest
from scipy import stats

import randlat as rl
from randlat import cli, gof
from randlat import montecarlo as mc
from randlat import spectral as sp
from randlat.integrals import gv_lemma_check, identity_suite

from conftest import random_triple, scipy_poisson_chi2_pvalue


def _report(num: int, name: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    line = f"[{tag}] criterion {num:2d} {name}: {detail}"
    print(line)
    assert passed, line


def _mc_config(sides, density, samples, seed, background=rl.Laplacian(),
               workers=8):
    model = mc.ModelSpec(box=rl.LatticeBox(sides), background=background,
                         density=density)
    return mc.McConfig(model=model, samples=samples, master_seed=seed,
                       workers=workers)


def test_criterion_01_identity_suite():
    rng = np.random.default_rng(1001)
    worst = {"krein": 0.0, "det": 0.0, "schur": 0.0, "posit": 0.0}
    for _ in range(1000):
        sample, z, subset = random_triple(rng)
        green = sp.green_block(sample, z, subset)
        lam_min = np.linalg.eigvalsh(sp.imag_part(green.matrix)).min()
        worst["posit"] = min(worst["posit"], float(lam_min))
        worst["krein"] = max(worst["krein"], sp.krein_check(sample, z, subset))
        worst["det"] = max(worst["det"], sp.det_identity_check(sample, z, subset))
        worst["schur"] = max(worst["schur"], sp.schur_check(sample, z, subset))
    ok = (worst["krein"] <= 1e-9 and worst["det"] <= 1e-8
          and worst["schur"] <= 1e-9 and worst["posit"] > -1e-12)
    _report(1, "identity suite (1000 triples)", ok,
            f"krein {worst['krein']:.2e} det {worst['det']:.2e} "
            f"schur {worst['schur']:.2e} min-eig {worst['posit']:.2e}")


def test_criterion_02_fermionic_trace_oracle():
    rng = np.random.default_rng(2002)
    worst = 0.0
    for _ in range(25):
        n_dim = int(rng.integers(2, 11))
        raw = rng.normal(size=(n_dim, n_dim)) + 1j * rng.normal(size=(n_dim, n_dim))
        a = (raw + raw.conj().T) / 2
        eigs = np.linalg.eigvalsh(a)
        for n in range(1, n_dim + 1):
            brute = sp._brute_minor_sum(a, n)
            newton = sp.elementary_symmetric(eigs, n)
            scale = max(abs(brute), abs(newton), 1e-300)
            worst = max(worst, abs(brute - newton) / scale)
    _report(2, "fermionic-trace identity (N <= 10)", worst <= 1e-9,
            f"max relative residual {worst:.2e}")


@pytest.mark.slow
def test_criterion_03_minami_bound():
    z = 0.5 + 0.1j
    cases = [("n=1", [16]), ("n=2 adjacent", [15, 16]),
             ("n=2 separated", [3, 28])]
    backgrounds = [("laplacian", rl.Laplacian()),
                   ("magnetic", rl.Magnetic(axis_phases=(0.4,)))]
    details, ok = [], True
    for bg_name, bg in backgrounds:
        cfg = _mc_config((32,), rl.Uniform(0.0, 1.0), 10_000, 303,
                         background=bg)
        for label, delta in cases:
            chk = mc.mc_minami(cfg, z, delta)
            margin_ok = chk.estimate.mean + 3 * chk.estimate.stderr <= chk.bound
            ok = ok and margin_ok
            details.append(f"{bg_name} {label} mean {chk.estimate.mean:.4f} "
                           f"bound {chk.bound:.4f}")
    _report(3, "Minami bound |L|=32 M=1e4", ok, "; ".join(details))


@pytest.mark.slow
def test_criterion_04_wegner_nlevel():
    cfg = _mc_config((10,), rl.Uniform(0.0, 1.0), 100_000, 404)
    interval = (0.495, 0.505)  # length 0.01 centered in-band
    details, ok = [], True
    for n in (1, 2, 3):
        chk = mc.mc_wegner_nlevel(cfg, interval, n)
        ok = ok and chk.estimate.mean <= chk.bound
        details.append(f"n={n} freq {chk.estimate.mean:.5f} "
                       f"bound {chk.bound:.5f}")
        if n == 2:
            assert abs(chk.bound - math.pi ** 2 / 200.0) < 1e-12
    assert cfg.model.density.sup_density == 1.0
    _report(4, "n-level Wegner |L|=10 M=1e5", ok, "; ".join(details))


def test_criterion_05_minor_sum_linkage():
    cfg = _mc_config((16,), rl.Uniform(0.0, 1.0), 200, 505)

    def kernel(sample):
        minor_sum, trace_form = mc.minor_sum_linkage(sample, 0.5 + 0.2j)
        return abs(minor_sum - trace_form) / abs(trace_form)

    worst = max(mc.run_realizations(cfg, kernel))
    _report(5, "minor-sum linkage (200 realizations)", worst <= 1e-8,
            f"max relative residual {worst:.2e}")


def test_criterion_06_dos_ids():
    # monotone IDS in [0, 1] on an energy grid, up to MC noise
    cfg = _mc_config((20,), rl.Uniform(0.0, 1.0), 400, 606)
    grid = np.linspace(-2.5, 3.5, 13)
    estimates = [mc.estimate_ids(cfg, e) for e in grid]
    in_range = all(0.0 <= est.mean <= 1.0 for est in estimates)
    monotone = all(
        b.mean - a.mean >= -3.0 * math.hypot(a.stderr, b.stderr)
        for a, b in zip(estimates, estimates[1:]))

    # with hopping removed the IDS is the disorder CDF
    flat = _mc_config((20,), rl.Uniform(0.0, 1.0), 400, 607, background=None)
    cdf_ok = True
    for e in (0.1, 0.25, 0.5, 0.75, 0.9):
        est = mc.estimate_ids(flat, e)
        cdf_ok = cdf_ok and abs(est.mean - e) <= 3.0 * est.stderr + 1e-12

    dos = mc.estimate_dos(cfg, 0.5, 0.1)
    dos_positive = dos.mean - 3.0 * dos.stderr > 0.0

    _report(6, "DOS/IDS sanity", in_range and monotone and cdf_ok and dos_positive,
            f"range {in_range} monotone {monotone} V-only CDF {cdf_ok} "
            f"band-center DOS {dos.mean:.4f} +- {dos.stderr:.4f}")


@pytest.mark.slow
def test_criterion_07_poisson_statistics():
    energy, window = 7.5, 60.0
    results = {}
    for sides in (100, 400, 1600):
        cfg = _mc_config((sides,), rl.Uniform(0.0, 15.0), 200, 42)
        results[sides] = mc.spacing_experiment(
            cfg, energy, window,
            dos_bandwidth=max(0.05, window / sides))
    ks = {L: st.ks_distance for L, st in results.items()}
    chi2 = {L: st.count_chi2_pvalue for L, st in results.items()}
    trend_ok = ks[1600] <= ks[100] + 0.02  # non-increasing within noise
    final_ok = ks[1600] < 0.1
    chi2_ok = all(p > 0.01 for p in chi2.values())
    detail = "; ".join(
        f"|L|={L} ks {ks[L]:.4f} chi2p {chi2[L]:.4f}" for L in results)
    _report(7, "Poisson statistics (200 realizations/size)",
            trend_ok and final_ok and chi2_ok, detail)


def test_criterion_07_negative_control():
    """A weak-disorder chain shorter than its localization length (about
    105/W^2 at the band centre; Kappus & Wegner, Z. Phys. B 45, 1981) has
    extended states, not Poisson levels: criterion 7's checks must fail on it."""
    disorder, sides, window = 1.0, 100, 60.0
    st = mc.spacing_experiment(_mc_config((sides,), rl.Uniform(0.0, disorder), 200, 42),
                               disorder / 2, window, dos_bandwidth=max(0.05, window / sides))
    rejected = not st.ks_distance < 0.1 and not st.count_chi2_pvalue > 0.01
    _report(7, "negative control: W=1, |L|=100 is not Poisson", rejected,
            f"ks {st.ks_distance:.4f} chi2p {st.count_chi2_pvalue:.3e}")
    # Its tails lie far below 1e-80 and come from tail forms, not 1 - cdf.  The KS
    # tail of all the gaps, about e^-760, is below the float range on both sides,
    # so it is checked on the first 1000 gaps.
    ref_chi2 = scipy_poisson_chi2_pvalue(st.counts, st.expected_count)
    gaps = st.gaps[:1000]

    def law(g):
        return mc.window_gap_cdf(g, st.rate, 2 * window)
    ks, ref_ks = gof.ks_test(gaps, law), stats.kstest(gaps, law)
    assert ks[0] == ref_ks.statistic
    for ours, ref in [(st.count_chi2_pvalue, ref_chi2), (ks[1], ref_ks.pvalue)]:
        assert math.isfinite(ours) and 0.0 < ours < 1e-80
        assert ours == pytest.approx(ref, rel=1e-6)


def test_criterion_08_fractional_moment_decay():
    cfg = _mc_config((32,), rl.Uniform(0.0, 15.0), 300, 808)
    fit = mc.frac_moment_decay(cfg, 7.5, 0.1, 0.5)
    ok = fit.slope < 0 and fit.r_squared > 0.9 and not fit.below_floor
    _report(8, "fractional-moment decay s=1/2 eps=0.1", ok,
            f"slope {fit.slope:.3f} R^2 {fit.r_squared:.4f}")


def test_criterion_09_oracle_quadrature():
    records = identity_suite(sweep_draws=25, sweep_seed=0)
    failed = [rec for rec in records if rec["verdict"] != "PASS"]
    # the contracts encoded in the suite match the release thresholds
    contracts = {rec["check"]: rec["contract"] for rec in records}
    assert contracts["gauss_repr"] == 1e-6
    assert contracts["gv_line"] == 1e-8
    assert contracts["gv_quadratic"] == 1e-8
    assert contracts["gv_lemma_n1"] == 1e-10
    value, bound = gv_lemma_check(np.array([[1j, 0.5], [0.5, 1.5j]]))
    lemma2_ok = value <= bound + 1e-6
    _report(9, "oracle quadrature suite", not failed and lemma2_ok,
            f"{len(records)} checks, {len(failed)} failed; "
            f"n=2 lemma value {value:.6f} <= pi^2")


def test_criterion_10_determinism(tmp_path):
    raw = {
        "model": {
            "sides": [32],
            "background": {"variant": "laplacian"},
            "density": {"variant": "uniform", "lo": 0.0, "hi": 1.0},
        },
        "experiment": {"name": "minami", "z": [0.5, 0.1], "delta": [15, 16],
                       "samples": 2000},
        "runtime": {"seed": 1010},
    }
    outputs = {}
    for workers in (1, 8):
        config_path = tmp_path / f"cfg{workers}.json"
        config_path.write_text(json.dumps(raw))
        out_path = tmp_path / f"out{workers}.jsonl"
        code = cli.run(str(config_path), {"workers": workers,
                                          "out": str(out_path)})
        assert code == 0
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        for rec in records:
            rec.pop("duration_s")
        outputs[workers] = records
    identical = outputs[1] == outputs[8]
    _report(10, "determinism across worker counts", identical,
            "metric outputs bit-identical for workers 1 and 8")
