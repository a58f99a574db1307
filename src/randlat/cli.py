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
from .spectral import NumericalFault, _as_z, _check_subset, check_exponent

SCHEMA_TAG = "randlat-result/1"
OUT_DIR_ENV = "RANDLAT_OUT_DIR"


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


# ---------------------------------------------------------------------------
# config parsing: every block is parsed from a table of its parameters
# ---------------------------------------------------------------------------

REQUIRED = object()  # the default of a parameter that the config must give


def _require_keys(block: dict, path: str, required: set, optional: set = frozenset()):
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(block) - required - optional
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown key")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"{path}.{sorted(missing)[0]}: missing required key")


def _parse_block(block: dict, path: str, params: dict[str, tuple[Callable, Any]],
                 box: Optional[lattice.LatticeBox] = None) -> dict:
    """Check ``block``'s keys against ``params``, which maps each key to
    ``(check, default)``, and return ``{key: check(block.get(key, default), box)}``.
    A check raises ValueError/TypeError on a bad value, reported here at
    ``path.<key>``; one that parses a nested block raises ConfigError with
    the path below ``key``."""
    required = {key for key, (_, default) in params.items() if default is REQUIRED}
    _require_keys(block, path, required, set(params) - required)
    values = {}
    for key, (check, default) in params.items():
        try:
            values[key] = check(block.get(key, default), box)
        except ConfigError as exc:
            raise ConfigError(f"{path}.{key}{exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}.{key}: {exc}") from exc
    return values


def _merged(block: dict, path: str, overrides: dict) -> dict:
    """A copy of ``block`` with the overrides that are not None applied."""
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected an object")
    return {**block, **{key: value for key, value in overrides.items() if value is not None}}


def _choice(value, names):
    if not isinstance(value, str) or value not in names:
        raise ValueError(f"must be one of {', '.join(names)}; got {value!r}")
    return value


def _select(block: dict, path: str, key: str, table: dict) -> tuple[str, dict]:
    """``block[key]``, which must name an entry of ``table``, and the rest of the block."""
    rest = _merged(block, path, {})
    given = {key: rest.pop(key)} if key in rest else {}
    return _parse_block(given, path, {key: (lambda v, box: _choice(v, table), REQUIRED)})[key], rest


def _parse_variant(block: dict, table: dict, box: lattice.LatticeBox):
    """A nested block whose ``variant`` names an entry ``(constructor, params)``
    of ``table``; ``params`` checks the other keys, and the constructor the
    rules that span keys.  Error paths are relative to the block."""
    name, rest = _select(block, "", "variant", table)
    make, params = table[name]
    return make(**_parse_block(rest, "", params, box))


def _seed(value, box) -> int:
    return lattice.as_seed(value)


def _count(name: str, least: int = 1) -> Callable:
    return lambda value, box: montecarlo.check_count(name, lattice.as_integer(value), least)


def _out(value, box) -> Optional[str]:
    if value is not None and not isinstance(value, str):  # open() takes an int as a file descriptor
        raise TypeError(f"expected a path string, got {value!r}")
    return value


def _dimension(value, box):
    if value is not None and value != box.dimension:
        raise ValueError(f"{value!r} does not match len(sides) = {box.dimension}")
    return value


def _reals(value, box) -> tuple[float, ...]:
    return tuple(lattice.as_real(x) for x in value)


_FLOAT = (lambda v, box: lattice.as_real(v), REQUIRED)
_FLOATS = (_reals, REQUIRED)

RUNTIME = {"seed": (_seed, 0), "workers": (_count("workers"), 1), "out": (_out, None),
           "format": (lambda v, box: _choice(v, ("json-lines", "csv")), "json-lines")}

# each variant of a model block: (constructor, params)
BACKGROUNDS: dict[str, tuple[Callable, dict]] = {
    "laplacian": (lattice.Laplacian, {}),
    "periodic": (lattice.PeriodicPotential,
                 {"period": (lambda v, box: lattice.check_on_box("period", tuple(v), box),
                             REQUIRED),
                  "values": _FLOATS}),
    "magnetic": (lattice.Magnetic,
                 {"axis_phases": (lambda v, box: lattice.check_on_box(
                     "axis_phases", _reals(v, box), box), ()),
                  "field": (lambda v, box: lattice.check_on_box("field", lattice.as_real(v), box),
                            0.0)}),
    "decaying": (lattice.DecayingHopping,
                 {"amplitude": _FLOAT, "rate": _FLOAT,
                  "truncation_radius": (lambda v, box: None if v is None else lattice.as_real(v),
                                        None)}),
    "none": (lambda: None, {}),  # diagonal-only test hook
}

DENSITIES: dict[str, tuple[Callable, dict]] = {
    "uniform": (lattice.Uniform, {"lo": _FLOAT, "hi": _FLOAT}),
    "piecewise": (lattice.PiecewiseConstant, {"breakpoints": _FLOATS, "weights": _FLOATS}),
}

MODEL = {"sides": (lambda v, box: lattice.LatticeBox(sides=tuple(v)), REQUIRED),
         "dimension": (_dimension, None),
         "background": (lambda v, box: _parse_variant(v, BACKGROUNDS, box), REQUIRED),
         "density": (lambda v, box: _parse_variant(v, DENSITIES, box), REQUIRED)}


def _parse_model(block: dict, path: str) -> montecarlo.ModelSpec:
    # the first pass checks the keys and builds the box that the second checks against
    unchecked = {key: (lambda v, box: v, default) for key, (_, default) in MODEL.items()}
    box = _parse_block(block, path, {**unchecked, "sides": MODEL["sides"]})["sides"]
    model = _parse_block(block, path, MODEL, box)
    return montecarlo.ModelSpec(box=box, background=model["background"],
                                density=model["density"])


# ---------------------------------------------------------------------------
# experiment registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    """One experiment.  ``params`` is the experiment block's parameter
    table (see ``_parse_block``).  ``run(params, mc_config)`` returns the
    records' own fields; ``mc_config`` is None when no model is needed."""

    params: dict[str, tuple[Callable, Any]]
    run: Callable[[dict, Optional[montecarlo.McConfig]], list[dict]]
    needs_model: bool = True


def _z(value, box) -> complex:
    re, im = value
    return _as_z(complex(lattice.as_real(re), lattice.as_real(im)))


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


_SAMPLES = (_count("samples"), REQUIRED)
_BANDWIDTH = (lambda v, box: montecarlo.check_positive("bandwidth", lattice.as_real(v)), 0.05)

EXPERIMENTS: dict[str, Experiment] = {
    "minami": Experiment(
        {"z": (_z, REQUIRED),
         "delta": (lambda v, box: _check_subset(box.n_sites, v), REQUIRED),
         "samples": _SAMPLES},
        lambda p, mc: _bound_fields(montecarlo.mc_minami(mc, p["z"], p["delta"]))),
    "wegner": Experiment(
        {"interval": (lambda v, box: montecarlo.check_interval(_reals(v, box)), REQUIRED),
         "n": (_count("n"), REQUIRED),
         "samples": _SAMPLES},
        lambda p, mc: _bound_fields(
            montecarlo.mc_wegner_nlevel(mc, p["interval"], p["n"]))),
    "ids": Experiment(
        {"energy": _FLOAT, "samples": _SAMPLES},
        lambda p, mc: [{"energy": p["energy"], **_estimate_fields(
            montecarlo.estimate_ids(mc, p["energy"]))}]),
    "dos": Experiment(
        {"energy": _FLOAT, "samples": _SAMPLES, "bandwidth": _BANDWIDTH},
        lambda p, mc: [{"energy": p["energy"], "bandwidth": p["bandwidth"],
                        **_estimate_fields(montecarlo.estimate_dos(
                            mc, p["energy"], p["bandwidth"]))}]),
    "spacing": Experiment(
        {"energy": _FLOAT,
         "window": (lambda v, box: montecarlo.check_positive("window", lattice.as_real(v)),
                    REQUIRED),
         "samples": _SAMPLES,
         "rate": (lambda v, box: v if v is None else montecarlo.check_positive(
             "rate", lattice.as_real(v)), None),
         "dos_bandwidth": _BANDWIDTH},
        _run_spacing),
    "fracmoment": Experiment(
        {"energy": _FLOAT,
         "eps": (lambda v, box: montecarlo.check_positive("eps", lattice.as_real(v)), REQUIRED),
         "s": (lambda v, box: check_exponent(lattice.as_real(v)), REQUIRED),
         "samples": _SAMPLES,
         "max_distance": (_max_distance, None)},
        _run_fracmoment),
    "identities": Experiment(
        {"sweep_draws": (_count("sweep_draws", least=0), 25), "sweep_seed": (_seed, 0)},
        _run_identities, needs_model=False),
}


def parse_config(raw: dict, overrides: Optional[dict] = None) -> dict:
    """Validate one experiment config and return a resolved copy with
    flag overrides applied.  Raises ConfigError with a field path."""
    overrides = overrides or {}
    _require_keys(raw, "config", {"experiment"}, {"model", "runtime"})
    exp = _merged(raw["experiment"], "config.experiment",
                  {"name": overrides.get("experiment"), "samples": overrides.get("samples")})
    name, exp = _select(exp, "config.experiment", "name", EXPERIMENTS)
    entry = EXPERIMENTS[name]
    runtime = _parse_block(_merged(raw.get("runtime", {}), "config.runtime",
                                   {key: overrides.get(key) for key in RUNTIME}),
                           "config.runtime", RUNTIME)
    model = None
    if entry.needs_model:
        _require_keys(raw, "config", {"model"}, set(raw))
        model = _parse_model(raw["model"], "config.model")
    params = _parse_block(exp, "config.experiment", entry.params,
                          None if model is None else model.box)
    return {"name": name, "experiment": exp, "params": params,
            "runtime": runtime, "model": model, "model_raw": raw.get("model")}


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
                                     master_seed=runtime["seed"],
                                     workers=runtime["workers"])
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
    raise ValueError(f"unknown format {fmt!r}")


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
            raw = {"experiment": {}}  # parse_config fills in the name
        else:
            raise ConfigError("config: no config file or --experiment given")
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
