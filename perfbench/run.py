"""randlat benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement goes through the
`randlat run` CLI (`python3 -m randlat.cli run`), each invocation a fresh
process with BLAS pinned to one thread; the driver writes the config and
the program sees nothing else.

--trace 0 measures the end-to-end metrics: for at least --seconds it
alternates a minimal-size invocation (`setup_s`) with a full one
(`wall_s`, `peak_rss_mb`), checks every output and reports medians.
--trace 1 runs the per-layer probes (probes.py) in a fresh process,
times `import randlat.cli`, and for the pooled workloads compares the
records written at workers 1 and 2.

The last line of standard output is the result JSON; the lines before it
are the provenance and a readable summary.  Spans are written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREADS = 1
# Pinned here so that every child, and numpy in this process, inherits it.
os.environ.update({var: str(BLAS_THREADS) for var in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")})
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, check_output  # noqa: E402

MIN_PAIRS = 3            # setup/full pairs per run, whatever --seconds says
INVOCATION_TIMEOUT_S = 150
IMPORT_PROBES = 3
# Smoke mode: sizes divided by this, for testing the driver itself.
SMOKE_DIVISOR = 100

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "items_per_s": "1/s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.import_scipy_stats_s": "s",
    "cli.parse_config_ms": "ms", "cli.emit_ms": "ms",
    "lattice.build_background_ms": "ms", "lattice.sample_potential_us": "us",
    "lattice.matrix_us": "us", "lattice.matrix_bytes": "bytes",
    "spectral.eigvalsh_us": "us", "spectral.green_block_us": "us",
    "spectral.det_im_us": "us",
    "montecarlo.experiment_us": "us", "montecarlo.overhead_us": "us",
    "montecarlo.unattributed_us": "us", "montecarlo.parallel_efficiency": "ratio",
    "montecarlo.reduce_ms": "ms",
    "integrals.gauss_repr_ms": "ms", "integrals.gv_line_ms": "ms",
    "integrals.gv_quadratic_ms": "ms", "integrals.gv_lemma_ms": "ms",
    "trace.overhead_us": "us",
}

_DURATION = re.compile(r', "duration_s": [^,}]+')


class Invocation:
    """One finished `randlat run` child: wall time, peak RSS, exit code,
    and its output lines."""

    def __init__(self, config: dict, workdir: Path, tag: str):
        cfg_path, out_path, err_path = (workdir / f"{tag}.{ext}"
                                        for ext in ("json", "out", "err"))
        cfg_path.write_text(json.dumps(config))
        cmd = [sys.executable, "-m", "randlat.cli", "run",
               "--config", str(cfg_path), "--out", str(out_path)]
        with open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
            timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own rusage (peak RSS).
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        self.returncode = proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.lines = out_path.read_text().splitlines() if out_path.exists() else []
        self.stderr = err_path.read_text()

    def records(self) -> list[dict]:
        return [json.loads(line) for line in self.lines]

    def stable_lines(self) -> list[str]:
        """Output lines without `duration_s`, the one field that may differ."""
        return [_DURATION.sub("", line) for line in self.lines]

    def problems(self, workload, size: int, full: bool) -> list[str]:
        if self.returncode != 0:
            return [f"exit code {self.returncode}: {self.stderr.strip()[-300:]}"]
        try:
            records = self.records()
        except json.JSONDecodeError as exc:
            return [f"unreadable output: {exc}"]
        if not full:
            return [f"verdict FAIL in {r.get('check', r.get('experiment'))}"
                    for r in records if r.get("verdict") == "FAIL"]
        return check_output(workload, records, size)


def sizes(workload, smoke: bool) -> tuple[int, int]:
    """(full size, probe size) for this run."""
    if not smoke:
        return workload.size, workload.probe_size
    return (max(workload.min_size + 1, workload.size // SMOKE_DIVISOR),
            max(1, workload.probe_size // SMOKE_DIVISOR))


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _line_count(directory: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(directory.rglob("*.py")))


def provenance(workload, seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the checkout need not be a git repository
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "workload": workload.name,
        "workers": workload.capped_workers,
        "seed": seed,
        # Informational only, not a metric.
        "lines_src": _line_count(SRC),
        "lines_scripts": _line_count(ROOT / "scripts") if (ROOT / "scripts").is_dir() else 0,
    }


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------

def measure(workload, seed: int, seconds: float, smoke: bool, workdir: Path) -> dict:
    size, _ = sizes(workload, smoke)
    if not Path(importlib.util.cache_from_source(str(SRC / "randlat" / "cli.py"))).exists():
        # First run in this checkout: compile the bytecode before timing.
        subprocess.run([sys.executable, "-c", "import randlat.cli"], cwd=ROOT, check=True)
    setup_cfg = workload.config(seed, size=workload.min_size)
    full_cfg = workload.config(seed, size=size)
    setups, walls, rss = [], [], []
    attempted, failed, reference_lines = 0, 0, None
    start = time.perf_counter()
    min_pairs = 1 if smoke else MIN_PAIRS
    while True:
        pair_start = time.perf_counter()
        setup = Invocation(setup_cfg, workdir, f"setup{len(setups)}")
        full = Invocation(full_cfg, workdir, f"full{len(walls)}")
        setups.append(setup.wall_s)
        walls.append(full.wall_s)
        rss.append(full.rss_mb)
        for inv, problems in ((setup, setup.problems(workload, workload.min_size, False)),
                              (full, full.problems(workload, size, True))):
            attempted += 1
            if inv is full and not problems:
                # Same seed, same inputs: every repeat must write the same records.
                reference_lines = reference_lines or full.stable_lines()
                if full.stable_lines() != reference_lines:
                    problems = ["records differ from the first invocation of this run"]
            if problems:
                failed += 1
                print(f"FAILED {workload.name}: {'; '.join(problems)}", file=sys.stderr)
        # Stop before a pair that would end past --seconds.
        now = time.perf_counter()
        if len(walls) >= min_pairs and now + (now - pair_start) - start > seconds:
            break
    # Rates per pair: its two invocations run back to back, so a slow or
    # fast spell of the machine cancels in their difference.  The floor
    # matters in smoke mode only, where the two sizes can time alike.
    rates = [(size - workload.min_size) / max(full - setup, 1e-3)
             for full, setup in zip(walls, setups)]
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "items_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(rss),
    }
    print(f"{workload.name}: {len(walls)} setup/full pairs, {attempted} invocations, "
          f"failed_fraction {failed}/{attempted} = {failed / attempted:g}")
    print(f"{workload.name}: setup walls {[round(t, 3) for t in setups]}, "
          f"full walls {[round(t, 3) for t in walls]}")
    return {"attempted": attempted, "failed": failed, "values": values,
            "units": END_TO_END_UNITS}


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------

def _importtime(code: str, tracer: Tracer, name: str) -> tuple[dict, str]:
    """Cumulative seconds per module from `-X importtime` in a fresh
    interpreter running ``code``, and the code's standard output."""
    with tracer.span(name):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              cwd=ROOT, capture_output=True, text=True, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    return cumulative, proc.stdout


def import_times(tracer: Tracer) -> dict:
    """Median import time of randlat.cli over fresh interpreters, and the
    share of it that scipy.stats takes.

    `from scipy import stats` goes through scipy's lazy loader, which
    `-X importtime` does not report as a line of its own, so the share is
    the cold import of scipy.stats after numpy and scipy, counted only
    when importing randlat.cli loads it."""
    cli_s, loads_stats = [], []
    for _ in range(IMPORT_PROBES):
        cumulative, out = _importtime(
            "import sys, randlat.cli; print('scipy.stats' in sys.modules)",
            tracer, "cli.import")
        cli_s.append(cumulative["randlat.cli"])
        loads_stats.append(out.strip() == "True")
    stats_s = [0.0]
    if any(loads_stats):
        stats_s = [_importtime("import numpy, scipy; import scipy.stats", tracer,
                               "cli.import_scipy_stats")[0]["scipy.stats"]
                   for _ in range(IMPORT_PROBES)]
    return {"cli.import_s": statistics.median(cli_s),
            "cli.import_scipy_stats_s": statistics.median(stats_s)}


def trace(workload, seed: int, smoke: bool, workdir: Path) -> dict:
    _, probe_size = sizes(workload, smoke)
    run_id = f"{workload.name}-{seed}-{os.getpid()}"
    tracer = Tracer(run_id, "driver")
    values, missing = {}, {}
    attempted, failed = 0, 0

    def fail(message: str) -> None:
        nonlocal failed
        failed += 1
        print(f"FAILED {workload.name}: {message}", file=sys.stderr)

    attempted += 1
    try:
        values.update(import_times(tracer))
    except subprocess.CalledProcessError as exc:
        fail(f"import randlat.cli exited {exc.returncode}")

    metrics_path, spans_path = workdir / "probe_metrics.json", workdir / "probe_spans.jsonl"
    attempted += 1
    try:
        with tracer.span("probes"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "probes.py"), "--workload", workload.name,
                 "--seed", str(seed), "--probe-size", str(probe_size), "--run-id", run_id,
                 "--metrics", str(metrics_path), "--spans", str(spans_path)],
                cwd=ROOT, timeout=INVOCATION_TIMEOUT_S)
        if proc.returncode != 0:
            fail(f"probes exited {proc.returncode}")
        else:
            probed = json.loads(metrics_path.read_text())
            values.update(probed["metrics"])
            missing.update(probed["missing"])
    except subprocess.TimeoutExpired:
        fail(f"probes ran over {INVOCATION_TIMEOUT_S} s")

    if workload.compare_workers:
        runs = {}
        for workers in (1, 2):
            attempted += 1
            with tracer.span(f"cli.run.workers{workers}"):
                runs[workers] = inv = Invocation(
                    workload.config(seed, size=probe_size, workers=workers),
                    workdir, f"workers{workers}")
            problems = inv.problems(workload, probe_size, True)
            if problems:
                fail(f"at workers {workers}: {'; '.join(problems)}")
        attempted += 1
        if runs[1].stable_lines() != runs[2].stable_lines():
            fail("records at workers 1 and 2 differ beyond duration_s")

    for name in PER_LAYER_UNITS:
        if name not in values and name not in missing:
            missing[name] = "not reported"
    for name, why in sorted(missing.items()):
        print(f"missing {name}: {why}")
    OUT.mkdir(exist_ok=True)
    # One file per workload: the probe process's spans, then the driver's.
    spans_out = OUT / f"spans-{workload.name}.jsonl"
    spans_out.write_text(spans_path.read_text() if spans_path.exists() else "")
    tracer.write(spans_out, mode="a")
    return {"attempted": attempted, "failed": failed,
            "values": {k: v for k, v in values.items() if k in PER_LAYER_UNITS},
            "units": PER_LAYER_UNITS}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for testing the driver itself")
    args = parser.parse_args(argv)

    if not (SRC / "randlat" / "cli.py").is_file():
        print(f"error: no randlat sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        print(json.dumps({"provenance": provenance(workload, args.seed)}))
        if args.trace:
            result = trace(workload, args.seed, args.smoke, workdir)
        else:
            result = measure(workload, args.seed, args.seconds, args.smoke, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = result["units"]
    for name, value in result["values"].items():
        print(f"  {workload.name} {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["values"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
