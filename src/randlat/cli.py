"""Command-line orchestration: JSON config parsing, the experiment
registry, seeded runs, and machine-readable output (json-lines / csv).

Exit codes: 0 all verdicts PASS (or no verdicts), 1 a verdict FAILED,
2 configuration error, 3 numerical fault or I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from . import lattice, montecarlo
from .spectral import NumericalFault, _as_z, _check_subset

SCHEMA_TAG = "randlat-result/1"
OUT_DIR_ENV = "RANDLAT_OUT_DIR"


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _require_keys(block: dict, path: str, required: set, optional: set = frozenset()):
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(block) - required - optional
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown key")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"{path}.{sorted(missing)[0]}: missing required key")


def _parse_background(block: dict, path: str) -> lattice.BackgroundSpec:
    _require_keys(block, path, {"variant"},
                  {"period", "values", "axis_phases", "field",
                   "amplitude", "rate", "truncation_radius"})
    variant = block["variant"]
    try:
        if variant == "laplacian":
            return lattice.Laplacian()
        if variant == "periodic":
            return lattice.PeriodicPotential(period=tuple(block["period"]),
                                             values=tuple(float(v) for v in block["values"]))
        if variant == "magnetic":
            axis_phases = [float(p) for p in block.get("axis_phases", [])]
            field = float(block.get("field", 0.0))

            def phase(x, y):
                # bond direction: +theta_k along axis k, Landau-gauge term
                # field * x_0 on axis-1 bonds (2D uniform flux)
                diff = np.asarray(y) - np.asarray(x)
                axis = int(np.flatnonzero(diff)[0])
                sign = float(diff[axis])
                base = axis_phases[axis] if axis < len(axis_phases) else 0.0
                if axis == 1:
                    base = base + field * float(min(x[0], y[0]))
                return sign * base

            return lattice.Magnetic(phase=phase)
        if variant == "decaying":
            radius = block.get("truncation_radius")
            return lattice.DecayingHopping(
                amplitude=float(block["amplitude"]), rate=float(block["rate"]),
                truncation_radius=None if radius is None else float(radius))
        if variant == "none":
            return None  # diagonal-only test hook
    except KeyError as exc:
        raise ConfigError(f"{path}.{exc.args[0]}: missing required key") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.variant: unknown variant {variant!r}")


def _parse_density(block: dict, path: str) -> lattice.DisorderDensity:
    _require_keys(block, path, {"variant"}, {"lo", "hi", "breakpoints", "weights"})
    variant = block["variant"]
    try:
        if variant == "uniform":
            return lattice.Uniform(lo=float(block["lo"]), hi=float(block["hi"]))
        if variant == "piecewise":
            return lattice.PiecewiseConstant(
                breakpoints=tuple(float(b) for b in block["breakpoints"]),
                weights=tuple(float(w) for w in block["weights"]))
    except KeyError as exc:
        raise ConfigError(f"{path}.{exc.args[0]}: missing required key") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.variant: unknown variant {variant!r}")


def _parse_model(block: dict, path: str) -> montecarlo.ModelSpec:
    _require_keys(block, path, {"sides", "background", "density"}, {"dimension"})
    try:
        box = lattice.LatticeBox(sides=tuple(block["sides"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}.sides: {exc}") from exc
    if "dimension" in block and block["dimension"] != box.dimension:
        raise ConfigError(f"{path}.dimension: does not match len(sides)")
    return montecarlo.ModelSpec(
        box=box,
        background=_parse_background(block["background"], f"{path}.background"),
        density=_parse_density(block["density"], f"{path}.density"))


# ---------------------------------------------------------------------------
# experiment registry
# ---------------------------------------------------------------------------

REQUIRED = object()  # the default of a parameter that the config must give


@dataclass(frozen=True)
class Experiment:
    """One experiment.  ``params`` maps each key of the config's
    experiment block to ``(check, default)``: ``check(value, box)``
    returns the value the runner gets, or raises ValueError/TypeError.
    Defaults are checked too.  ``run(params, mc_config)`` returns the
    records' own fields; ``mc_config`` is None when no model is needed."""

    params: dict[str, tuple[Callable, Any]]
    run: Callable[[dict, Optional[montecarlo.McConfig]], list[dict]]
    needs_model: bool = True


def _seed(value, box) -> int:
    return np.random.SeedSequence(int(value)).entropy  # rejects negative seeds


def _count(name: str) -> Callable:
    return lambda value, box: montecarlo.check_count(name, int(value))


def _z(value, box) -> complex:
    re, im = value
    return _as_z(complex(re, im))


def _max_distance(value, box):
    montecarlo.decay_reach(box, value)
    return value


def _estimate_fields(est: montecarlo.McEstimate) -> dict:
    return {"mean": est.mean, "stderr": est.stderr, "samples": est.samples}


def _bound_fields(check: montecarlo.BoundCheck) -> list[dict]:
    return [{**_estimate_fields(check.estimate), "bound": check.bound,
             "slack": check.slack, "z_score": check.z_score,
             "verdict": check.verdict}]


def _run_spacing(p: dict, config: montecarlo.McConfig) -> list[dict]:
    stats = montecarlo.spacing_experiment(config, p["energy"], p["window"],
                                          rate=p["rate"],
                                          dos_bandwidth=p["dos_bandwidth"])
    return [{"energy": p["energy"], "window": stats.window, "rate": stats.rate,
             "ks_distance": stats.ks_distance, "ks_pvalue": stats.ks_pvalue,
             "count_chi2_pvalue": stats.count_chi2_pvalue,
             "mean_count": stats.mean_count,
             "expected_count": stats.expected_count,
             "n_gaps": int(len(stats.gaps)),
             "count_histogram": np.bincount(stats.counts).tolist()}]


def _run_fracmoment(p: dict, config: montecarlo.McConfig) -> list[dict]:
    fit = montecarlo.frac_moment_decay(config, p["energy"], p["eps"], p["s"],
                                       max_distance=p["max_distance"])
    return [{"energy": p["energy"], "eps": p["eps"], "s": p["s"],
             "slope": fit.slope, "intercept": fit.intercept,
             "r_squared": fit.r_squared, "below_floor": fit.below_floor,
             "log_means": fit.log_means.tolist()}]


def _run_identities(p: dict, config) -> list[dict]:
    from . import integrals  # loads scipy.integrate, which no other experiment needs
    return integrals.identity_suite(sweep_draws=p["sweep_draws"],
                                    sweep_seed=p["sweep_seed"])


_ENERGY = (lambda v, box: float(v), REQUIRED)
_SAMPLES = (_count("samples"), REQUIRED)
_BANDWIDTH = (lambda v, box: montecarlo.check_positive("bandwidth", float(v)), 0.05)

EXPERIMENTS: dict[str, Experiment] = {
    "minami": Experiment(
        {"z": (_z, REQUIRED),
         "delta": (lambda v, box: _check_subset(box.n_sites, v), REQUIRED),
         "samples": _SAMPLES},
        lambda p, mc: _bound_fields(montecarlo.mc_minami(mc, p["z"], p["delta"]))),
    "wegner": Experiment(
        {"interval": (lambda v, box: montecarlo.check_interval(tuple(float(x) for x in v)),
                      REQUIRED),
         "n": (_count("n"), REQUIRED),
         "samples": _SAMPLES},
        lambda p, mc: _bound_fields(
            montecarlo.mc_wegner_nlevel(mc, p["interval"], p["n"]))),
    "ids": Experiment(
        {"energy": _ENERGY, "samples": _SAMPLES},
        lambda p, mc: [{"energy": p["energy"], **_estimate_fields(
            montecarlo.estimate_ids(mc, p["energy"]))}]),
    "dos": Experiment(
        {"energy": _ENERGY, "samples": _SAMPLES, "bandwidth": _BANDWIDTH},
        lambda p, mc: [{"energy": p["energy"], "bandwidth": p["bandwidth"],
                        **_estimate_fields(montecarlo.estimate_dos(
                            mc, p["energy"], p["bandwidth"]))}]),
    "spacing": Experiment(
        {"energy": _ENERGY,
         "window": (lambda v, box: montecarlo.check_positive("window", float(v)), REQUIRED),
         "samples": _SAMPLES,
         "rate": (lambda v, box: v if v is None else montecarlo.check_positive("rate", v),
                  None),
         "dos_bandwidth": _BANDWIDTH},
        _run_spacing),
    "fracmoment": Experiment(
        {"energy": _ENERGY,
         "eps": (lambda v, box: montecarlo.check_positive("eps", float(v)), REQUIRED),
         "s": (lambda v, box: montecarlo.check_exponent(float(v)), REQUIRED),
         "samples": _SAMPLES,
         "max_distance": (_max_distance, None)},
        _run_fracmoment),
    "identities": Experiment(
        {"sweep_draws": (lambda v, box: int(v), 25), "sweep_seed": (_seed, 0)},
        _run_identities, needs_model=False),
}


def _checked(path: str, check: Callable, value: Any, box: Optional[lattice.LatticeBox]):
    """``check(value, box)``, reporting a bad value as a ConfigError at ``path``."""
    try:
        return check(value, box)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_config(raw: dict, overrides: Optional[dict] = None) -> dict:
    """Validate one experiment config and return a resolved copy with
    flag overrides applied.  Raises ConfigError with a field path."""
    overrides = overrides or {}
    _require_keys(raw, "config", {"experiment"}, {"model", "runtime"})
    if not isinstance(raw["experiment"], dict):
        raise ConfigError("config.experiment: expected an object")
    exp = dict(raw["experiment"])
    if "name" not in exp:
        raise ConfigError("config.experiment.name: missing required key")
    name = exp.pop("name")
    if name not in EXPERIMENTS:
        raise ConfigError(f"config.experiment.name: unknown experiment {name!r}")
    entry = EXPERIMENTS[name]
    if overrides.get("samples") is not None:
        exp["samples"] = overrides["samples"]
    required = {key for key, (_, default) in entry.params.items() if default is REQUIRED}
    _require_keys(exp, "config.experiment", required, set(entry.params) - required)

    _require_keys(raw.get("runtime", {}), "config.runtime", set(),
                  {"seed", "workers", "out", "format"})
    runtime = dict(raw.get("runtime", {}))
    for key in ("seed", "workers", "out", "format"):
        if overrides.get(key) is not None:
            runtime[key] = overrides[key]
    runtime.setdefault("seed", 0)
    runtime.setdefault("workers", 1)
    runtime.setdefault("format", "json-lines")
    if runtime["format"] not in ("json-lines", "csv"):
        raise ConfigError(f"config.runtime.format: unknown format {runtime['format']!r}")
    if not isinstance(runtime.get("out", ""), str):  # open() would take an int as a file descriptor
        raise ConfigError("config.runtime.out: expected a path string")
    _checked("config.runtime.seed", _seed, runtime["seed"], None)
    _checked("config.runtime.workers", _count("workers"), runtime["workers"], None)

    model = None
    if entry.needs_model:
        if "model" not in raw:
            raise ConfigError("config.model: missing required key")
        model = _parse_model(raw["model"], "config.model")
    box = None if model is None else model.box
    params = {key: _checked(f"config.experiment.{key}", check, exp.get(key, default), box)
              for key, (check, default) in entry.params.items()}

    return {"name": name, "experiment": exp, "params": params,
            "runtime": runtime, "model": model, "model_raw": raw.get("model"),
            "raw": raw}


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------

def _config_echo(cfg: dict) -> dict:
    # enough to re-run: model, experiment params, seed.  Worker count and
    # output paths do not affect metrics and are excluded so that output
    # files are identical across worker counts.
    echo: dict[str, Any] = {"experiment": {"name": cfg["name"], **cfg["experiment"]}}
    if cfg["model_raw"] is not None:
        echo["model"] = cfg["model_raw"]
    echo["seed"] = cfg["runtime"]["seed"]
    return echo


def run_experiment(cfg: dict) -> list[dict]:
    """Execute one parsed experiment config; returns result records: the
    shared head, the experiment's own fields and, for model experiments,
    the seed."""
    entry = EXPERIMENTS[cfg["name"]]
    runtime = cfg["runtime"]
    head = {"schema": SCHEMA_TAG, "experiment": cfg["name"],
            "config": _config_echo(cfg)}
    config, tail = None, {}
    if entry.needs_model:
        config = montecarlo.McConfig(model=cfg["model"],
                                     samples=cfg["params"]["samples"],
                                     master_seed=int(runtime["seed"]),
                                     workers=int(runtime["workers"]))
        tail = {"seed": runtime["seed"]}
    return [{**head, **fields, **tail} for fields in entry.run(cfg["params"], config)]


# ---------------------------------------------------------------------------
# output serialization
# ---------------------------------------------------------------------------

def format_number(v: float) -> str:
    """JSON number literal with 17 significant digits (round-trip exact
    for IEEE doubles); non-finite values become strings."""
    if isinstance(v, float):
        if math.isnan(v):
            return '"nan"'
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return format(v, ".17g")
    return str(v)


def dumps(obj: Any) -> str:
    """JSON serialization with deterministic key order (insertion order)
    and 17-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_number(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(x) for x in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {dumps(v)}"
                               for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _flatten(record: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        elif isinstance(value, (list, tuple)):
            flat[name] = dumps(value)
        else:
            flat[name] = value
    return flat


def emit(records: list[dict], destination, fmt: str = "json-lines") -> None:
    """Write records as json-lines (one per line, fixed key order) or as
    flattened csv with a documented header."""
    if fmt == "json-lines":
        for rec in records:
            destination.write(dumps(rec) + "\n")
        return
    if fmt == "csv":
        import csv as _csv
        flats = [_flatten(rec) for rec in records]
        header: list[str] = []
        for flat in flats:
            for key in flat:
                if key not in header:
                    header.append(key)
        writer = _csv.DictWriter(destination, fieldnames=header)
        writer.writeheader()
        for flat in flats:
            row = {k: (format_number(v).strip('"') if isinstance(v, float) else v)
                   for k, v in flat.items()}
            writer.writerow(row)
        return
    raise ConfigError(f"config.runtime.format: unknown format {fmt!r}")


def _resolve_out(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(config_path: Optional[str], overrides: Optional[dict] = None) -> int:
    """Load a config file (a single experiment object or a list of them),
    run each experiment, write records, and map outcomes to exit codes."""
    overrides = overrides or {}
    try:
        if config_path is not None:
            with open(config_path) as fh:
                raw = json.load(fh)
        elif overrides.get("experiment"):
            raw = {"experiment": {"name": overrides["experiment"]}}
        else:
            raise ConfigError("config: no config file or --experiment given")
        if overrides.get("experiment"):
            raw = dict(raw)
            raw["experiment"] = dict(raw.get("experiment", {}),
                                     name=overrides["experiment"])
        raw_list = raw if isinstance(raw, list) else [raw]
        configs = [parse_config(item, overrides) for item in raw_list]
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    # records grouped by destination, each written in the format of the
    # first item that names it; a fault keeps what earlier items produced
    groups: dict[Optional[str], tuple[str, list]] = {}
    code = 0
    try:
        for cfg in configs:
            start = time.monotonic()
            records = run_experiment(cfg)
            for rec in records:
                rec["duration_s"] = time.monotonic() - start
                if rec.get("verdict") == "FAIL":
                    code = 1
            dest = _resolve_out(cfg["runtime"].get("out"))
            groups.setdefault(dest, (cfg["runtime"]["format"], []))[1].extend(records)
    except NumericalFault as exc:
        print(f"numerical fault: {exc}", file=sys.stderr)
        code = 3

    try:
        for dest, (fmt, records) in groups.items():
            if dest is None:
                emit(records, sys.stdout, fmt)
            else:
                with open(dest, "w") as fh:
                    emit(records, fh, fmt)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 3
    return code


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="randlat",
        description="Random lattice operator experiments: moment and "
                    "eigenvalue-count bound checks, level statistics, and "
                    "closed-form identity verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("--config", help="path to a JSON config file")
    run_p.add_argument("--seed", type=int, help="override master seed")
    run_p.add_argument("--samples", type=int, help="override sample count")
    run_p.add_argument("--workers", type=int, help="override worker count")
    run_p.add_argument("--out", help="output file (default: stdout)")
    run_p.add_argument("--format", choices=["json-lines", "csv"],
                       help="output format")
    run_p.add_argument("--experiment", help="override the experiment name")

    id_p = sub.add_parser("identities",
                          help="run the full closed-form identity suite")
    id_p.add_argument("--out", help="output file (default: stdout)")
    id_p.add_argument("--format", choices=["json-lines", "csv"])

    args = parser.parse_args(argv)
    if args.command == "identities":
        return run(None, {"experiment": "identities", "out": args.out,
                          "format": args.format})
    overrides = {key: getattr(args, key) for key in
                 ("seed", "samples", "workers", "out", "format", "experiment")}
    return run(args.config, overrides)


if __name__ == "__main__":
    sys.exit(main())
