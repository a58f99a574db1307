"""The benchmark's workloads: the config each one hands to `randlat run`,
why it was chosen, and the reference values its correctness check uses.

Each workload is one closed-loop client: a single CLI run at a time.
The seed given on the command line becomes the config's `runtime.seed`;
the program sees only the generated config.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

# Every workload uses the nearest-neighbour Laplacian background.
_LAPLACIAN = {"variant": "laplacian"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str            # one line, copied into BENCHMARK.json: stresses, bypasses
    experiment: dict    # the `experiment` block, without `samples`
    model: dict
    workers: int
    size: int           # realizations per full-size invocation
    min_size: int       # realizations of the invocation that gives `setup_s`
    probe_size: int     # realizations the traced run uses in process
    # Where the traced run needs a spectral parameter, a site pair or a
    # window that the experiment itself does not define, it uses these.
    probe: dict = field(default_factory=dict)
    compare_workers: bool = False  # traced run checks workers 1 == 2

    @property
    def capped_workers(self) -> int:
        """The workload's worker count, never more than the machine's cores."""
        return min(self.workers, os.cpu_count() or 1)

    def config(self, seed: int, size: int | None = None,
               workers: int | None = None) -> dict:
        """The JSON config handed to `randlat run` for this seed."""
        exp = dict(self.experiment, samples=self.size if size is None else size)
        return {"model": self.model, "experiment": exp,
                "runtime": {"seed": seed,
                            "workers": self.capped_workers if workers is None else workers}}


WORKLOADS = {w.name: w for w in [
    Workload(
        name="wegner_1d_small",
        why=("Stresses per-realization RNG setup, assembly and the Python loop (~60 "
             "of ~100 us; eigvalsh ~15 us); bypasses dense solves, the pool and "
             "scipy.stats. Single-threaded baseline."),
        # n=1: at n=2 this interval gives a mean of exactly 0, which no
        # check can tell from a broken kernel; the kernel costs the same.
        experiment={"name": "wegner", "interval": [0.495, 0.505], "n": 1},
        model={"sides": [10], "background": _LAPLACIAN,
               "density": {"variant": "uniform", "lo": 0.0, "hi": 1.0}},
        workers=1, size=60000, min_size=1, probe_size=4000,
        probe={"z": [0.5, 0.005], "delta": [4, 5], "energy": 0.5,
               "window": 10.0}),
    Workload(
        name="minami_2d_medium",
        why=("Stresses the dense complex solve in green_block and the worker pool: "
             "the only d>=2 workload and the only one the pool speeds up; bypasses "
             "scipy.stats and integrals."),
        experiment={"name": "minami", "z": [0.5, 0.1], "delta": [135, 136]},
        model={"sides": [16, 16], "background": _LAPLACIAN,
               "density": {"variant": "uniform", "lo": 0.0, "hi": 1.0}},
        workers=2, size=2048, min_size=1, probe_size=512,
        probe={"energy": 0.5, "window": 20.0}, compare_workers=True),
    Workload(
        name="spacing_1d_large",
        why=("Stresses the dense O(N^3) eigensolve, twice per realization (>95%), "
             "and build_background; bypasses RNG cost and green_block; one "
             "scheduling block, so workers 2 never overlap."),
        experiment={"name": "spacing", "energy": 7.5, "window": 60.0,
                    "dos_bandwidth": 0.15},
        model={"sides": [1600], "background": _LAPLACIAN,
               "density": {"variant": "uniform", "lo": 0.0, "hi": 15.0}},
        workers=2, size=8, min_size=1, probe_size=2,
        probe={"z": [7.5, 0.15], "delta": [799, 800]}, compare_workers=True),
]}


# ---------------------------------------------------------------------------
# reference values for the correctness check
# ---------------------------------------------------------------------------

# Means at a seed the benchmark does not otherwise use and at ten times
# the workload's size; regenerate with `python3 perfbench/reference.py`.
# For spacing the mean is the density-of-states estimate that becomes
# the record's `rate`.
REFERENCE_SEED = 2_147_483_647
REFERENCES = {
    "wegner_1d_small": {"mean": 0.001725,
                        "stderr": 5.357280474652241e-05, "samples": 600000},
    "minami_2d_medium": {"mean": 0.6203288933409496,
                         "stderr": 0.0009137242536059572, "samples": 20480},
    "spacing_1d_large": {"mean": 0.06403645833333334,
                         "stderr": 0.001310164139156683, "samples": 80},
}

SIGMAS = 4.0  # allowed distance from a reference, in combined stderr


def _off_reference(value: float, ref: dict, size: int, stderr: float = 0.0) -> float:
    """How far ``value``, a mean over ``size`` realizations, lies from the
    reference, in combined stderr.  The run's own stderr can be 0 for a
    frequency at small sizes, so the reference's per-realization spread
    bounds it from below."""
    own = max(stderr, ref["stderr"] * math.sqrt(ref["samples"] / size))
    return abs(value - ref["mean"]) / math.hypot(own, ref["stderr"])


def check_record(workload: Workload, record: dict, size: int) -> list[str]:
    """Problems with one output record of a run at `size`; [] if none.

    The checks do not depend on the RNG stream: a change of stream moves
    each statistic by sampling noise only, a wrong kernel moves it more.
    """
    problems = []
    if record.get("verdict") == "FAIL":
        problems.append(f"verdict FAIL in {record.get('check', record.get('experiment'))}")
    name = workload.experiment["name"]
    if name in ("wegner", "minami"):
        if record.get("samples") != size:
            problems.append(f"samples {record.get('samples')} != {size}")
        off = _off_reference(float(record["mean"]), REFERENCES[workload.name], size,
                             float(record["stderr"]))
        if not off <= SIGMAS:
            problems.append(f"mean {record['mean']} is {off:.1f} stderr off the reference")
    elif name == "spacing":
        off = _off_reference(float(record["rate"]), REFERENCES[workload.name], size)
        if not off <= SIGMAS:
            problems.append(f"rate {record['rate']} is {off:.1f} stderr off the reference")
        expected = float(record["expected_count"])
        count_off = abs(float(record["mean_count"]) - expected) / math.sqrt(
            max(expected, 1.0) / size)
        if not count_off <= SIGMAS:
            problems.append(f"mean_count {record['mean_count']} is {count_off:.1f} "
                            f"Poisson stderr off expected_count {expected}")
    return problems


def check_output(workload: Workload, records: list[dict], size: int) -> list[str]:
    """Problems with a whole run's records (already parsed)."""
    if not records:
        return ["no records written"]
    if len(records) != 1:
        return [f"expected one record, got {len(records)}"]
    problems = []
    for rec in records:
        problems.extend(check_record(workload, rec, size))
    return problems
