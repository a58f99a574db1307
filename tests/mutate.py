"""Mutation check: each mutant below is a one-line change to the program that
a test must catch.  For each one the script copies the repository's
``src``, ``tests``, ``configs`` and ``pyproject.toml`` to a temporary
directory, applies the change there, runs the tier-1 suite with ``-x`` on the
copy, and counts the mutant killed when pytest fails.  It prints each mutant's
verdict and first failing test, then "killed / total"; it exits 1 if a mutant
survives, and stops if pytest gives no verdict (a usage error, no tests).

    python3 tests/mutate.py              # every mutant, one suite run each
    python3 tests/mutate.py -k count:    # the mutants whose name holds "count:"
    python3 tests/mutate.py -k count: -- tests/test_spectral.py -k count_below
                                         # pytest arguments in place of the suite

A kernel's new code brings its mutants here.  The file is not a test module
(pytest collects ``test_*.py``), so tier-1 does not run it."""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "configs", "pyproject.toml")
SUITE = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str    # relative to the repository root
    old: str     # text that occurs exactly once in ``file``
    new: str
    killer: str  # the test expected to fail first, as pytest names it (no parameters)


MC, SPECTRAL = "src/randlat/montecarlo.py", "src/randlat/spectral.py"
LATTICE = "src/randlat/lattice.py"
WITNESSES = "tests/test_montecarlo.py::TestDiagonalWitnesses::"

MUTANTS = [
    # the checks of the Monte Carlo reductions
    Mutant("minami reports 3 det Im g", MC,
           "return BoundCheck(estimate=_estimate(vals), bound=bound)",
           "return BoundCheck(estimate=_estimate(3 * vals), bound=bound)",
           WITNESSES + "test_minami_mean_is_the_lorentzian_power"),
    Mutant("wegner counts > n in place of >= n", MC,
           "hits = count_realizations(config, a, b) >= n",
           "hits = count_realizations(config, a, b) > n",
           "tests/test_montecarlo.py::TestBounds::test_wegner_n1_matches_nonzero_count_frequency"),
    Mutant("dos over h |box| in place of 2 h |box|", MC,
           "return counts / (2.0 * bandwidth * vol)",
           "return counts / (bandwidth * vol)",
           "tests/test_acceptance.py::test_criterion_07_poisson_statistics"),
    Mutant("BoundCheck.passed with a 30-stderr margin", MC,
           "self.bound + 3.0 * self.estimate.stderr",
           "self.bound + 30.0 * self.estimate.stderr",
           "tests/test_montecarlo.py::TestBounds::test_passes_at_three_stderr_and_no_further"),
    Mutant("stderr as std / m^0.45", MC,
           "np.std(values, ddof=1) / math.sqrt(m)",
           "np.std(values, ddof=1) / m ** 0.45",
           WITNESSES + "test_stderr_is_calibrated"),
    Mutant("z-score with its sign flipped", MC,
           "return self.slack / self.estimate.stderr",
           "return -self.slack / self.estimate.stderr",
           "tests/test_montecarlo.py::TestBounds::test_z_score_is_the_slack_over_the_stderr"),
    Mutant("fracmoment takes the Lyapunov mean exp E log|G|^s", MC,
           "log_means = np.log(means)",
           "log_means = np.log(moments).mean(axis=0)",
           "tests/test_montecarlo.py::TestFracMomentDecay::"
           "test_log_means_are_the_log_of_the_mean_moment"),
    Mutant("fracmoment fits its intercept at distance + 1", MC,
           "slope, intercept = np.polyfit(x, y, 1)",
           "slope, intercept = np.polyfit(x + 1, y, 1)",
           "tests/test_montecarlo.py::TestFracMomentDecay::test_fit_is_the_least_squares_line"),
    Mutant("fracmoment's r_squared with the residual sum halved", MC,
           "float(np.sum(resid ** 2)) / ss_tot",
           "float(np.sum(resid ** 2)) / 2 / ss_tot",
           "tests/test_montecarlo.py::TestFracMomentDecay::test_fit_is_the_least_squares_line"),
    Mutant("ids over |box| + 1", MC,
           "/ config.model.box.n_sites)",
           "/ (config.model.box.n_sites + 1))",
           "tests/test_acceptance.py::test_criterion_06_dos_ids"),
    Mutant("spacing gaps pooled across realizations", MC,
           "gap_chunks = [np.diff(np.sort(pts)) for pts in inside if len(pts) >= 2]",
           "gap_chunks = [np.diff(np.sort(np.concatenate([*inside, []])))]",
           "tests/test_acceptance.py::test_criterion_07_poisson_statistics"),
    Mutant("spacing rate x 1.1", MC,
           "rate = _estimate(_dos_values(counts, dos_bandwidth, vol)).mean",
           "rate = 1.1 * _estimate(_dos_values(counts, dos_bandwidth, vol)).mean",
           "tests/test_acceptance.py::test_criterion_07_poisson_statistics"),
    # the window of an uncoupled chain
    Mutant("uncoupled window closed at hi", SPECTRAL,
           "(d >= edges[-2]) & (d < edges[-1])",
           "(d >= edges[-2]) & (d <= edges[-1])",
           "tests/test_spectral.py::TestWindowEigenvalues::test_chain_matches_dense"),
    Mutant("uncoupled window left unsorted", SPECTRAL,
           "[np.sort(d[(d >= edges[-2]) & (d < edges[-1])]) for d in diagonals.T]",
           "[d[(d >= edges[-2]) & (d < edges[-1])] for d in diagonals.T]",
           "tests/test_spectral.py::TestTridiagonalPath::test_spectrum_matches_dense"),
    # the Sturm count in site chunks
    Mutant("count: a flagged chunk is never run again", SPECTRAL,
           "if not np.isfinite(d.sum()):",
           "if False:",
           "tests/test_spectral.py::TestCounting::test_half_open_convention"),
    Mutant("count: finiteness check weakened to d.all()", SPECTRAL,
           "if not np.isfinite(d.sum()):",
           "if not d.all():",
           "tests/test_spectral.py::TestTridiagonalPath::"
           "test_count_below_is_the_site_by_site_recurrence"),
    Mutant("count: the pivot carried in taken from the chunk's first site", SPECTRAL,
           "buffer[0] = d[-1]",
           "buffer[0] = d[0]",
           "tests/test_acceptance.py::test_criterion_07_poisson_statistics"),
    Mutant("count: a zero pivot counted as negative", SPECTRAL,
           "count += np.count_nonzero(d < 0, axis=0)",
           "count += np.count_nonzero(d <= 0, axis=0)",
           "tests/test_spectral.py::TestCounting::test_half_open_convention"),
    Mutant("count: the zero rule goes on as -tiny", SPECTRAL,
           "row -= c / np.where(p == 0, _TINY, p)",
           "row -= c / np.where(p == 0, -_TINY, p)",
           "tests/test_spectral.py::TestTridiagonalPath::test_block_count_matches_dense"),
    # what a model run loads, and the seed check
    Mutant("lattice imports numpy.random at module level", LATTICE,
           "import numpy as np\n\n\nclass ModelError",
           "import numpy as np\nfrom numpy.random import Generator, Philox, SeedSequence\n\n\n"
           "class ModelError",
           "tests/test_cli.py::TestImports::"
           "test_model_runs_load_numpy_random_and_the_pool_only_if_used"),
    Mutant("seed check lets -1 through", LATTICE,
           "if seed < 0:",
           "if seed < -1:",
           "tests/test_cli.py::TestParseConfig::test_error_messages_carry_field_paths"),
]


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the mutant's text in its file under ``root``; the text must
    occur exactly once, or the list has gone stale."""
    path = root / mutant.file
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        raise SystemExit(f"{mutant.name}: {mutant.file} holds its text {found} times, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def run_suite(root: Path, pytest_args: list[str]) -> tuple[int, str]:
    """(pytest's exit code, its first failing test or '') for the tier-1 command,
    with ``pytest_args`` added, run under ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, *SUITE, *pytest_args], cwd=root, env=env,
                          capture_output=True, text=True)
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return proc.returncode, failed.group(1) if failed else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-k", default="", help="run only the mutants whose name holds this text")
    parser.add_argument("pytest_args", nargs="*",
                        help="after --: pytest arguments, such as test files, for every run")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.k in m.name]
    killed = 0
    for m in chosen:
        with tempfile.TemporaryDirectory(prefix="randlat-mutant-") as tmp:
            root = Path(tmp)
            for name in COPIED:
                source = ROOT / name
                if source.is_dir():
                    shutil.copytree(source, root / name,
                                    ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
                else:
                    shutil.copy2(source, root / name)
            apply(m, root)
            start = time.monotonic()
            code, first = run_suite(root, args.pytest_args)
        seconds = time.monotonic() - start
        if code not in (0, 1):  # not a verdict: a usage error, or no test collected
            raise SystemExit(f"{m.name}: pytest exited {code}")
        if code == 0:
            print(f"SURVIVED  {m.name} ({seconds:.0f} s)", flush=True)
            continue
        killed += 1
        expected = "" if first.split("[")[0] == m.killer else f"; expected {m.killer}"
        print(f"killed    {m.name} by {first or f'pytest exit {code}'}{expected} ({seconds:.0f} s)",
              flush=True)
    print(f"{killed} / {len(chosen)} killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
