"""Per-layer probes for the traced run, executed in a fresh process that
`run.py` starts with BLAS pinned to one thread and `src/` on the path.

Each probe times direct calls to one layer's public functions on the
workload's own inputs and records a span around every call.  A probe
whose function has gone (renamed, removed, new signature) is reported
as missing instead of stopping the run.

    python3 perfbench/probes.py --workload NAME --seed N --probe-size K \
        --run-id ID --metrics OUT.json --spans OUT.jsonl
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import statistics
import sys
import time
import traceback

from tracing import Tracer
from workloads import WORKLOADS

PROBE_BUDGET_S = 0.3   # time spent repeating one probed call
MIN_REPS = 3
MAX_REPS = 400
MAX_PROBE_SAMPLES = 64  # distinct realizations the single-call probes cycle through
EXPERIMENT_REPS = 2


def public(module: str, name: str):
    """``randlat.<module>.<name>``; LookupError if it has gone."""
    try:
        return getattr(importlib.import_module(f"randlat.{module}"), name)
    except (ImportError, AttributeError) as exc:
        raise LookupError(f"randlat.{module}.{name} is gone: {exc}") from exc


class Probes:
    def __init__(self, workload, seed: int, probe_size: int, tracer: Tracer):
        self.workload = workload
        self.seed = seed
        self.probe_size = probe_size
        self.tracer = tracer
        self.metrics: dict[str, float] = {}
        self.missing: dict[str, str] = {}
        self._cache: dict[str, object] = {}

    # -- helpers ----------------------------------------------------------

    def record(self, metric: str, compute) -> None:
        try:
            self.metrics[metric] = float(compute())
        except Exception as exc:  # a probe must not stop the others
            self.missing[metric] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)

    def repeat(self, name: str, calls) -> float:
        """Median seconds per call over a time-boxed number of calls;
        ``calls(i)`` makes the i-th call."""
        start = time.perf_counter()
        for i in range(MAX_REPS):
            if i >= MIN_REPS and time.perf_counter() - start > PROBE_BUDGET_S:
                break
            with self.tracer.span(name):
                calls(i)
        return self.tracer.median_s(name)

    def cached(self, key: str, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def box(self):
        return public("lattice", "LatticeBox")(tuple(self.workload.model["sides"]))

    def background_spec(self):
        return public("lattice", "Laplacian")()

    def density(self):
        dens = self.workload.model["density"]
        return public("lattice", "Uniform")(lo=dens["lo"], hi=dens["hi"])

    def n_samples(self) -> int:
        return max(1, min(self.probe_size, MAX_PROBE_SAMPLES))

    def samples(self):
        def make():
            box = self.box()
            background = public("lattice", "build_background")(box, self.background_spec())
            sample_potential = public("lattice", "sample_potential")
            sample = public("lattice", "HamiltonianSample")
            return [sample(box=box, background=background,
                           potential=sample_potential(box, self.density(), (self.seed, i)),
                           seed_record=(self.seed, i))
                    for i in range(self.n_samples())]
        return self.cached("samples", make)

    def z(self) -> complex:
        re, im = self.workload.experiment.get("z") or self.workload.probe["z"]
        return complex(re, im)

    def delta(self) -> list[int]:
        return self.workload.experiment.get("delta") or self.workload.probe["delta"]

    def run_experiment(self, raw: dict) -> list[dict]:
        cli = importlib.import_module("randlat.cli")
        return cli.run_experiment(cli.parse_config(raw))

    def run_mc(self, workers: int = 1, size: int | None = None) -> list[dict]:
        return self.run_experiment(self.workload.config(
            self.seed, size=self.probe_size if size is None else size, workers=workers))

    # -- layers -----------------------------------------------------------

    def cli_layer(self) -> None:
        own = self.workload.config(self.seed)
        self.record("cli.parse_config_ms", lambda: 1e3 * self.repeat(
            "cli.parse_config", lambda i: public("cli", "parse_config")(own)))

        def emit_ms():
            records = self.cached("records", self.run_mc)
            emit = public("cli", "emit")
            return 1e3 * self.repeat(
                "cli.emit", lambda i: emit(records, io.StringIO(), "json-lines"))
        self.record("cli.emit_ms", emit_ms)

    def lattice_layer(self) -> None:
        def build_background_ms():
            build, box, spec = public("lattice", "build_background"), self.box(), self.background_spec()
            return 1e3 * self.repeat("lattice.build_background", lambda i: build(box, spec))
        self.record("lattice.build_background_ms", build_background_ms)

        def sample_potential_us():
            fn = public("lattice", "sample_potential")
            box, density = self.box(), self.density()
            return 1e6 * self.repeat("lattice.sample_potential",
                                     lambda i: fn(box, density, (self.seed, i)))
        self.record("lattice.sample_potential_us", sample_potential_us)

        def matrix_us():
            samples = self.samples()
            return 1e6 * self.repeat("lattice.matrix",
                                     lambda i: samples[i % len(samples)].matrix)
        self.record("lattice.matrix_us", matrix_us)
        # Computed from the array's size, not measured.
        self.record("lattice.matrix_bytes", lambda: self.samples()[0].matrix.nbytes)

    def spectral_layer(self) -> None:
        import numpy as np

        def eigvalsh_us():
            matrices = [s.matrix for s in self.samples()]
            return 1e6 * self.repeat("spectral.eigvalsh",
                                     lambda i: np.linalg.eigvalsh(matrices[i % len(matrices)]))
        self.record("spectral.eigvalsh_us", eigvalsh_us)

        def green_block_us():
            fn, samples, z, delta = public("spectral", "green_block"), self.samples(), self.z(), self.delta()
            return 1e6 * self.repeat("spectral.green_block",
                                     lambda i: fn(samples[i % len(samples)], z, delta, "full"))
        self.record("spectral.green_block_us", green_block_us)

        def det_im_us():
            green_block, det_im = public("spectral", "green_block"), public("spectral", "det_im")
            blocks = [green_block(s, self.z(), self.delta(), "full") for s in self.samples()]
            return 1e6 * self.repeat("spectral.det_im",
                                     lambda i: det_im(blocks[i % len(blocks)]))
        self.record("spectral.det_im_us", det_im_us)

    def montecarlo_layer(self) -> None:
        size = self.probe_size

        def overhead_us():
            mc = importlib.import_module("randlat.montecarlo")
            model = mc.ModelSpec(box=self.box(), background=self.background_spec(),
                                 density=self.density())
            config = mc.McConfig(model=model, samples=size, master_seed=self.seed, workers=1)
            with self.tracer.span("montecarlo.run_realizations.noop") as span:
                mc.run_realizations(config, lambda s: None)
            return 1e6 * self.tracer.duration_s(span) / size

        def traced_experiment() -> dict:
            import numpy as np
            mc = importlib.import_module("randlat.montecarlo")
            lat = importlib.import_module("randlat.lattice")
            restore = []
            for owner, attr, name in [
                    (mc, "build_background", "lattice.build_background"),
                    (mc, "sample_potential", "lattice.sample_potential"),
                    (lat.HamiltonianSample, "matrix", "lattice.matrix"),
                    (np.linalg, "eigvalsh", "spectral.eigvalsh"),
                    (mc, "green_block", "spectral.green_block"),
                    (mc, "det_im", "spectral.det_im"),
                    (mc, "spacing_statistics", "montecarlo.reduce")]:
                if hasattr(owner, attr):
                    restore.append(self.tracer.wrap(owner, attr, f"{name}.in_experiment"))
            try:
                with self.tracer.span("montecarlo.experiment.traced") as span:
                    self.run_mc(1)
            finally:
                for undo in reversed(restore):
                    undo()
            return span

        def experiments() -> dict:
            """Seconds per experiment: untraced at workers 1 and 2, traced
            at workers 1, and the traced runs' time outside probed calls."""
            self.run_mc(1, size=1)  # lazy imports and first calls, untimed
            traced = []
            for _ in range(EXPERIMENT_REPS):  # interleaved, so drift hits both
                with self.tracer.span("montecarlo.experiment.w1"):
                    self.run_mc(1)
                traced.append(traced_experiment())
            with self.tracer.span("montecarlo.experiment.w2"):
                self.run_mc(2)
            return {"w1": self.tracer.median_s("montecarlo.experiment.w1"),
                    "w2": self.tracer.median_s("montecarlo.experiment.w2"),
                    "traced": self.tracer.median_s("montecarlo.experiment.traced"),
                    "unattributed": statistics.median(self.tracer.self_time_s(span)
                                                      for span in traced)}

        def timing(key: str) -> float:
            return self.cached("experiments", experiments)[key]

        self.record("montecarlo.experiment_us", lambda: 1e6 * timing("w1") / size)
        self.record("montecarlo.parallel_efficiency",
                    lambda: timing("w1") / (2.0 * timing("w2")))
        self.record("montecarlo.unattributed_us", lambda: 1e6 * timing("unattributed") / size)
        self.record("trace.overhead_us",
                    lambda: 1e6 * (timing("traced") - timing("w1")) / size)
        self.record("montecarlo.overhead_us", overhead_us)

        def reduce_ms():
            import numpy as np
            rescaled_points = public("montecarlo", "rescaled_points")
            reduce = public("montecarlo", "spacing_statistics")
            exp = self.workload.experiment
            energy = exp.get("energy", self.workload.probe.get("energy"))
            window = exp.get("window", self.workload.probe.get("window"))
            dens = self.workload.model["density"]
            rate = 1.0 / (dens["hi"] - dens["lo"])
            points = [np.asarray(rescaled_points(s, energy)) for s in self.samples()]
            return 1e3 * self.repeat("montecarlo.reduce",
                                     lambda i: reduce(points, window, rate))
        self.record("montecarlo.reduce_ms", reduce_ms)

    def integrals_layer(self) -> None:
        import numpy as np
        # The closed-form cases of the identity suite, the same in every
        # traced run: no workload runs the suite end to end.
        for metric, fn_name, args in [
                ("integrals.gauss_repr_ms", "gauss_repr_check",
                 (np.diag([1.0 - 1j, 2.0 - 1j]),)),
                ("integrals.gv_line_ms", "gv_line_integral_check", (1.0, -1j)),
                ("integrals.gv_quadratic_ms", "gv_quadratic_integral_check", (1, 1, 1)),
                ("integrals.gv_lemma_ms", "gv_lemma_check",
                 (np.array([[1j, 0.3], [0.3, 1j]]),))]:
            def ms(fn_name=fn_name, args=args, metric=metric):
                fn = public("integrals", fn_name)
                return 1e3 * self.repeat(metric[:-3], lambda i: fn(*args))
            self.record(metric, ms)

    def run(self) -> None:
        with self.tracer.span("probe.cli"):
            self.cli_layer()
        with self.tracer.span("probe.lattice"):
            self.lattice_layer()
        with self.tracer.span("probe.spectral"):
            self.spectral_layer()
        with self.tracer.span("probe.montecarlo"):
            self.montecarlo_layer()
        with self.tracer.span("probe.integrals"):
            self.integrals_layer()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--probe-size", type=int, required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--metrics", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    tracer = Tracer(args.run_id, "probes")
    probes = Probes(WORKLOADS[args.workload], args.seed, args.probe_size, tracer)
    try:
        probes.run()
    finally:
        tracer.write(args.spans)
    with open(args.metrics, "w") as fh:
        json.dump({"metrics": probes.metrics, "missing": probes.missing}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
