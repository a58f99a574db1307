import glob
import io
import json
import math
import os
import subprocess
import sys

import pytest

import randlat
from randlat import cli, integrals, montecarlo
from randlat.spectral import NumericalFault


MINAMI_CONFIG = {
    "model": {
        "sides": [10],
        "background": {"variant": "laplacian"},
        "density": {"variant": "uniform", "lo": 0.0, "hi": 1.0},
    },
    "experiment": {"name": "minami", "z": [0.5, 0.1], "delta": [2, 3],
                   "samples": 40},
    "runtime": {"seed": 7, "workers": 2},
}


def set_experiment(**experiment):
    """A config mutation that replaces the experiment block."""
    return lambda raw: raw.update(experiment=experiment)


def fracmoment(**changes):
    return set_experiment(**{"name": "fracmoment", "energy": 0.5, "eps": 0.1,
                             "s": 0.5, "samples": 10, **changes})


def shipped_config_items():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for path in sorted(glob.glob(os.path.join(root, "configs", "*.json"))):
        with open(path) as fh:
            raw = json.load(fh)
        for k, item in enumerate(raw if isinstance(raw, list) else [raw]):
            yield pytest.param(item, id=f"{os.path.basename(path)}[{k}]")


def set_background(sides, **background):
    """A config mutation that replaces the box and the background block."""
    return lambda raw: raw["model"].update(sides=sides, background=background)


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def read_records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


class TestParseConfig:
    def test_accepts_valid_config(self):
        cfg = cli.parse_config(MINAMI_CONFIG)
        assert cfg["name"] == "minami"
        assert cfg["runtime"]["seed"] == 7
        assert cfg["model"].box.n_sites == 10

    def test_defaults(self):
        raw = {k: v for k, v in MINAMI_CONFIG.items() if k != "runtime"}
        cfg = cli.parse_config(raw)
        assert cfg["runtime"] == {"seed": 0, "workers": 1, "out": None,
                                  "format": "json-lines"}

    def test_overrides_take_precedence(self):
        cfg = cli.parse_config(MINAMI_CONFIG,
                               {"seed": 99, "samples": 5, "workers": 4})
        assert cfg["runtime"]["seed"] == 99
        assert cfg["runtime"]["workers"] == 4
        assert cfg["experiment"]["samples"] == 5

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda r: r.pop("experiment"), "config.experiment"),
        (lambda r: r["experiment"].pop("name"), "config.experiment.name"),
        (lambda r: r["experiment"].update(name="bogus"),
         "config.experiment.name"),
        (lambda r: r["experiment"].pop("delta"), "config.experiment.delta"),
        (lambda r: r["experiment"].update(extra=1), "config.experiment.extra"),
        (lambda r: r.pop("model"), "config.model"),
        (lambda r: r["model"].pop("sides"), "config.model.sides"),
        (lambda r: r["model"]["background"].update(variant="bogus"),
         "config.model.background.variant"),
        (lambda r: r["model"]["density"].update(lo=2.0, hi=1.0),
         "config.model.density"),
        (lambda r: r["model"].update(dimension=2), "config.model.dimension"),
        (lambda r: r["runtime"].update(format="xml"), "config.runtime.format"),
        (lambda r: r["runtime"].update(color=True), "config.runtime.color"),
        pytest.param(lambda r: r["model"].update(sides=[3]) or fracmoment()(r),
                     "config.experiment.max_distance", id="fracmoment-sides-3"),
        pytest.param(lambda r: r["experiment"].update(samples=0),
                     "config.experiment.samples", id="samples-0"),
        pytest.param(lambda r: r["experiment"].update(z=[0.5, -0.1]),
                     "config.experiment.z", id="z-lower-half-plane"),
        pytest.param(lambda r: r["experiment"].update(z="abc"),
                     "config.experiment.z", id="z-string"),
        pytest.param(lambda r: r["experiment"].update(delta=[2, 30]),
                     "config.experiment.delta", id="delta-out-of-range"),
        pytest.param(lambda r: r["experiment"].update(delta=[2, 2]),
                     "config.experiment.delta", id="delta-duplicate"),
        pytest.param(set_experiment(name="wegner", interval=[0.6, 0.4], n=1,
                                    samples=10),
                     "config.experiment.interval", id="interval-reversed"),
        pytest.param(set_experiment(name="wegner", interval=[0.4, 0.6], n=0,
                                    samples=10),
                     "config.experiment.n", id="n-0"),
        pytest.param(set_experiment(name="dos", energy=0.5, bandwidth=0,
                                    samples=10),
                     "config.experiment.bandwidth", id="bandwidth-0"),
        pytest.param(set_experiment(name="spacing", energy=0.5, window=-1,
                                    samples=10),
                     "config.experiment.window", id="window-negative"),
        pytest.param(fracmoment(s=1.5), "config.experiment.s", id="s-1.5"),
        pytest.param(fracmoment(eps=0.0), "config.experiment.eps", id="eps-0"),
        pytest.param(lambda r: r["runtime"].update(workers=0),
                     "config.runtime.workers", id="workers-0"),
        pytest.param(lambda r: r["runtime"].update(seed=-1),
                     "config.runtime.seed", id="seed-negative"),
        pytest.param(lambda r: r["model"].update(sides=["a"]),
                     "config.model.sides", id="sides-string"),
        pytest.param(lambda r: r["model"].update(dimension="x"),
                     "config.model.dimension", id="dimension-string"),
        pytest.param(lambda r: r["model"].update(background={
            "variant": "periodic", "period": [2], "values": [1, "a"]}),
                     "config.model.background", id="periodic-values-string"),
        pytest.param(lambda r: r["runtime"].update(out=1),
                     "config.runtime.out", id="out-int"),
        pytest.param(set_background([4, 4], variant="periodic", period=[2],
                                    values=[0.5, -0.5]),
                     "config.model.background.period", id="period-short"),
        pytest.param(set_background([4], variant="periodic", period=[2, 2],
                                    values=[1, 2, 3, 4]),
                     "config.model.background.period", id="period-long"),
        pytest.param(set_background([6], variant="magnetic", axis_phases=[0.3, 0.7]),
                     "config.model.background.axis_phases", id="axis-phases-past-box"),
        pytest.param(set_background([6], variant="magnetic", field=0.5),
                     "config.model.background.field", id="field-on-1d-box"),
        pytest.param(lambda r: r["experiment"].update(samples=2.7),
                     "config.experiment.samples", id="samples-fractional"),
        pytest.param(lambda r: r["experiment"].update(samples=True),
                     "config.experiment.samples", id="samples-bool"),
        pytest.param(lambda r: r["runtime"].update(seed=3.7),
                     "config.runtime.seed", id="seed-fractional"),
        pytest.param(set_experiment(name="identities", sweep_draws=-3),
                     "config.experiment.sweep_draws", id="sweep-draws-negative"),
        pytest.param(lambda r: r["experiment"].update(delta=[2.5]),
                     "config.experiment.delta", id="delta-fractional"),
        pytest.param(lambda r: r["experiment"].update(delta=[True]),
                     "config.experiment.delta", id="delta-bool"),
        pytest.param(lambda r: r["model"].update(sides=[True, 5]),
                     "config.model.sides", id="sides-bool"),
        pytest.param(fracmoment(max_distance=5.5), "config.experiment.max_distance",
                     id="max-distance-fractional"),
        pytest.param(set_background([4], variant="periodic", period=[True], values=[0.5]),
                     "config.model.background", id="period-bool"),
        pytest.param(lambda r: r["experiment"].update(z=[math.nan, 0.1]),
                     "config.experiment.z", id="z-nan"),
        pytest.param(fracmoment(energy=math.nan), "config.experiment.energy",
                     id="fracmoment-energy-nan"),
        pytest.param(set_experiment(name="ids", energy=math.nan, samples=10),
                     "config.experiment.energy", id="ids-energy-nan"),
        pytest.param(set_experiment(name="dos", energy=math.inf, samples=10),
                     "config.experiment.energy", id="dos-energy-inf"),
        pytest.param(set_experiment(name="ids", energy=True, samples=10),
                     "config.experiment.energy", id="ids-energy-bool"),
        pytest.param(set_experiment(name="spacing", energy=0.5, window=1.0, rate=True,
                                    samples=10),
                     "config.experiment.rate", id="spacing-rate-bool"),
        pytest.param(set_experiment(name="dos", energy=0.5, bandwidth=math.nan, samples=10),
                     "config.experiment.bandwidth", id="bandwidth-nan"),
        pytest.param(set_experiment(name="wegner", interval=[False, True], n=1, samples=10),
                     "config.experiment.interval", id="interval-bool"),
        pytest.param(set_experiment(name="ids", energy="0.5", samples=10),
                     "config.experiment.energy", id="energy-string"),
        pytest.param(set_background([6], variant="magnetic", axis_phases=[math.nan]),
                     "config.model.background", id="axis-phases-nan"),
    ])
    def test_error_messages_carry_field_paths(self, mutate, fragment):
        raw = json.loads(json.dumps(MINAMI_CONFIG))
        mutate(raw)
        with pytest.raises(cli.ConfigError, match=fragment.replace(".", r"\.")):
            cli.parse_config(raw)

    def test_integral_float_counts_accepted(self):
        raw = json.loads(json.dumps(MINAMI_CONFIG))
        raw["experiment"]["samples"] = 1e5
        raw["runtime"]["seed"] = 7.0
        cfg = cli.parse_config(raw)
        assert cfg["params"]["samples"] == 100000 and cfg["runtime"]["seed"] == 7

    @pytest.mark.parametrize("raw", shipped_config_items())
    def test_accepts_shipped_configs(self, raw):
        cli.parse_config(raw)
        # and runs end to end at its shipped workers, at 16 samples where it has samples
        cfg = cli.parse_config(raw, {"samples": 16} if "samples" in raw["experiment"] else None)
        records = cli.run_experiment(cfg)
        assert records and all(r.get("verdict") != "FAIL" for r in records)

    def test_identities_needs_no_model(self):
        cfg = cli.parse_config({"experiment": {"name": "identities"}})
        assert cfg["model"] is None


class TestSerialization:
    def test_seventeen_digit_floats(self):
        assert cli.format_number(1.0 / 3.0) == "0.33333333333333331"
        assert float(cli.format_number(0.1)) == 0.1
        assert cli.format_number(float("nan")) == '"nan"'
        assert cli.format_number(float("-inf")) == '"-inf"'

    def test_dumps_preserves_key_order(self):
        assert cli.dumps({"b": 1, "a": [1.5, None, True]}) == \
            '{"b": 1, "a": [1.5, null, true]}'

    def test_round_trip_exact(self):
        values = [math.pi, 1e-300, 123456.789, -0.0]
        parsed = json.loads(cli.dumps({"v": values}))
        assert parsed["v"] == values

    def test_csv_emission(self):
        buf = io.StringIO()
        cli.emit([{"a": 1, "nested": {"x": 0.5}, "tags": [1, 2]}], buf, "csv")
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "a,nested.x,tags"
        assert lines[1] == '1,0.5,"[1, 2]"'


class TestRun:
    def test_successful_run_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, MINAMI_CONFIG)
        out = tmp_path / "result.jsonl"
        assert cli.run(path, {"out": str(out)}) == 0
        (rec,) = read_records(out)
        assert rec["schema"] == cli.SCHEMA_TAG
        assert rec["verdict"] == "PASS"
        assert rec["mean"] <= rec["bound"]
        assert rec["config"]["seed"] == 7

    def test_missing_config_file_exit_two(self, capsys):
        assert cli.run("/nonexistent/config.json") == 2
        assert "configuration error" in capsys.readouterr().err

    def test_invalid_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.run(str(path)) == 2

    def test_bad_schema_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": {"name": "minami"}})
        assert cli.run(path) == 2
        assert "config." in capsys.readouterr().err

    def test_bad_value_exit_two(self, tmp_path, capsys):
        raw = json.loads(json.dumps(MINAMI_CONFIG))
        raw["experiment"]["z"] = [0.5, -0.1]
        assert cli.run(write_config(tmp_path, raw)) == 2
        assert "config.experiment.z" in capsys.readouterr().err

    def test_failed_verdict_exit_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(integrals, "identity_suite",
                            lambda **kw: [{"verdict": "FAIL"}])
        path = write_config(tmp_path, {"experiment": {"name": "identities"}})
        assert cli.run(path) == 1

    def test_numerical_fault_exit_three(self, tmp_path, monkeypatch, capsys):
        def boom(cfg):
            raise NumericalFault("synthetic")
        monkeypatch.setattr(cli, "run_experiment", boom)
        path = write_config(tmp_path, MINAMI_CONFIG)
        assert cli.run(path) == 3
        assert "numerical fault" in capsys.readouterr().err

    def test_quadrature_error_exit_three(self, tmp_path, monkeypatch, capsys):
        def boom(*args):
            raise integrals.QuadratureError("synthetic")
        monkeypatch.setattr(integrals, "gv_line_integral_check", boom)
        path = write_config(tmp_path, {"experiment": {"name": "identities"}})
        assert cli.run(path) == 3
        assert "numerical fault: synthetic" in capsys.readouterr().err

    def test_zero_estimated_dos_exit_three(self, tmp_path, capsys):
        raw = json.loads(json.dumps(MINAMI_CONFIG))
        raw["experiment"] = {"name": "spacing", "energy": 0.5, "window": 1.0,
                             "samples": 5}
        assert cli.run(write_config(tmp_path, raw)) == 3
        assert "dos_bandwidth" in capsys.readouterr().err

    def test_unwritable_output_exit_three(self, tmp_path, capsys):
        path = write_config(tmp_path, MINAMI_CONFIG)
        assert cli.run(path, {"out": str(tmp_path / "no/dir/out.jsonl")}) == 3

    def test_config_list(self, tmp_path):
        raw = json.loads(json.dumps(MINAMI_CONFIG))
        raw["experiment"] = {"name": "ids", "energy": 0.5, "samples": 30}
        path = write_config(tmp_path, [MINAMI_CONFIG, raw])
        out = tmp_path / "result.jsonl"
        assert cli.run(path, {"out": str(out)}) == 0
        records = read_records(out)
        assert [r["experiment"] for r in records] == ["minami", "ids"]

    def test_config_list_items_keep_their_own_output(self, tmp_path):
        first = json.loads(json.dumps(MINAMI_CONFIG))
        first["runtime"]["out"] = str(tmp_path / "first.jsonl")
        second = json.loads(json.dumps(MINAMI_CONFIG))
        second["experiment"] = {"name": "ids", "energy": 0.5, "samples": 30}
        second["runtime"].update(out=str(tmp_path / "second.csv"), format="csv")
        assert cli.run(write_config(tmp_path, [first, second])) == 0
        assert [r["experiment"] for r in read_records(first["runtime"]["out"])] \
            == ["minami"]
        lines = (tmp_path / "second.csv").read_text().splitlines()
        assert lines[0].startswith("schema,experiment,")
        assert len(lines) == 2 and ",ids," in lines[1]

    def test_block_fault_without_a_row_keeps_earlier_records(self, tmp_path, monkeypatch,
                                                              capsys):
        # a kernel's fault that names no row is reported for its whole block
        def boom(*args):
            raise NumericalFault("x")
        monkeypatch.setattr(montecarlo, "count_block", boom)
        raw = json.loads(json.dumps(MINAMI_CONFIG))
        raw["experiment"] = {"name": "ids", "energy": 0.5, "samples": 30}
        out = tmp_path / "result.jsonl"
        assert cli.run(write_config(tmp_path, [MINAMI_CONFIG, raw]), {"out": str(out)}) == 3
        assert [r["experiment"] for r in read_records(out)] == ["minami"]
        assert "numerical fault: realizations 0 to 29: x" in capsys.readouterr().err

    def test_fault_keeps_earlier_records(self, tmp_path, monkeypatch, capsys):
        run_experiment = cli.run_experiment

        def second_faults(cfg):
            if cfg["name"] == "ids":
                raise NumericalFault("synthetic")
            return run_experiment(cfg)
        monkeypatch.setattr(cli, "run_experiment", second_faults)
        raw = json.loads(json.dumps(MINAMI_CONFIG))
        raw["experiment"] = {"name": "ids", "energy": 0.5, "samples": 30}
        out = tmp_path / "result.jsonl"
        path = write_config(tmp_path, [MINAMI_CONFIG, raw])
        assert cli.run(path, {"out": str(out)}) == 3
        assert [r["experiment"] for r in read_records(out)] == ["minami"]

    def test_bound_past_a_float_power_exit_zero(self, tmp_path):
        # 1600 ** 100 overflows a float; the Wegner bound, about 1.4e212, does not
        wegner = json.loads(json.dumps(MINAMI_CONFIG))
        wegner["model"]["sides"] = [1600]
        wegner["experiment"] = {"name": "wegner", "interval": [0.0, 1.0], "n": 100, "samples": 4}
        out = tmp_path / "result.jsonl"
        assert cli.run(write_config(tmp_path, [MINAMI_CONFIG, wegner]), {"out": str(out)}) == 0
        records = read_records(out)
        assert [r["experiment"] for r in records] == ["minami", "wegner"]
        assert math.isfinite(records[1]["bound"]) and records[1]["verdict"] == "PASS"

    def test_out_dir_env_resolves_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
        path = write_config(tmp_path, MINAMI_CONFIG)
        assert cli.run(path, {"out": "env_result.jsonl"}) == 0
        assert (tmp_path / "env_result.jsonl").exists()

    def test_env_var_ignored_for_absolute_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, "/nonexistent")
        out = tmp_path / "abs_result.jsonl"
        path = write_config(tmp_path, MINAMI_CONFIG)
        assert cli.run(path, {"out": str(out)}) == 0
        assert out.exists()


class TestDeterminism:
    @staticmethod
    def strip_durations(path):
        records = read_records(path)
        for rec in records:
            rec.pop("duration_s")
        return records

    def test_worker_count_invariance(self, tmp_path):
        outputs = {}
        for workers in (1, 8):
            raw = json.loads(json.dumps(MINAMI_CONFIG))
            raw["runtime"]["workers"] = workers
            path = write_config(tmp_path, raw, f"cfg{workers}.json")
            out = tmp_path / f"out{workers}.jsonl"
            assert cli.run(path, {"out": str(out)}) == 0
            outputs[workers] = self.strip_durations(out)
        assert outputs[1] == outputs[8]

    def test_round_trip_from_config_echo(self, tmp_path):
        path = write_config(tmp_path, MINAMI_CONFIG)
        out1 = tmp_path / "first.jsonl"
        assert cli.run(path, {"out": str(out1)}) == 0
        (rec,) = read_records(out1)
        rebuilt = {
            "model": rec["config"]["model"],
            "experiment": rec["config"]["experiment"],
            "runtime": {"seed": rec["config"]["seed"]},
        }
        path2 = write_config(tmp_path, rebuilt, "rebuilt.json")
        out2 = tmp_path / "second.jsonl"
        assert cli.run(path2, {"out": str(out2)}) == 0
        assert self.strip_durations(out1) == self.strip_durations(out2)


class TestImports:
    @staticmethod
    def run_python(code, *args):
        src = os.path.dirname(os.path.dirname(randlat.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, check=True)
        return proc.stdout.strip()

    def test_cli_import_leaves_scipy_integrate_and_stats_unloaded(self):
        assert self.run_python("import sys, randlat.cli; print([m for m in "
                               "('scipy.integrate', 'scipy.stats') if m in sys.modules])") == "[]"

    def test_spacing_leaves_scipy_stats_and_special_unloaded(self):
        # spacing's p-values are numpy and math alone (randlat.gof); scipy.stats
        # was most of a spacing run's startup time and memory
        spacing = {"name": "spacing", "energy": 0.5, "window": 4.0, "dos_bandwidth": 0.3,
                   "samples": 20}
        configs = [dict(MINAMI_CONFIG, experiment=spacing),
                   dict(MINAMI_CONFIG, experiment=dict(spacing, rate=0.9))]
        code = ("import json, sys; from randlat import cli\n"
                "for raw in json.loads(sys.argv[1]):\n"
                "    (record,) = cli.run_experiment(cli.parse_config(raw))\n"
                "    assert record['n_gaps'] > 0, record\n"
                "print([m for m in ('scipy.stats', 'scipy.special') if m in sys.modules])")
        assert self.run_python(code, json.dumps(configs)) == "[]"

    def test_runs_leave_scipy_linalg_unloaded(self):
        # every 1D experiment, and spacing on a 2D box, is numpy alone: the Sturm
        # count serves wegner, ids and dos, the slice sweep minami and fracmoment,
        # and Sturm multisection spacing on a chain; scipy.linalg would add about
        # 19 MB to their peak memory
        spacing = {"name": "spacing", "energy": 0.5, "window": 4.0, "dos_bandwidth": 0.3,
                   "samples": 20}
        experiments = [{"name": "wegner", "interval": [0.4, 0.6], "n": 1, "samples": 20},
                       {"name": "ids", "energy": 0.5, "samples": 20},
                       {"name": "dos", "energy": 0.5, "samples": 20},
                       {"name": "minami", "z": [0.5, 0.1], "delta": [2, 3], "samples": 20},
                       {"name": "fracmoment", "energy": 0.5, "eps": 0.1, "s": 0.5, "samples": 20},
                       spacing, dict(spacing, rate=0.9)]
        configs = [dict(MINAMI_CONFIG, experiment=exp) for exp in experiments]
        configs.append(dict(MINAMI_CONFIG, model=dict(MINAMI_CONFIG["model"], sides=[6, 5]),
                            experiment=spacing))
        code = ("import json, sys; from randlat import cli\n"
                "for raw in json.loads(sys.argv[1]):\n"
                "    (record,) = cli.run_experiment(cli.parse_config(raw))\n"
                "    assert record.get('n_gaps', 1) > 0, record\n"
                "print('scipy.linalg' in sys.modules)")
        assert self.run_python(code, json.dumps(configs)) == "False"

    def test_2d_minami_leaves_scipy_linalg_unloaded(self):
        # the slice sweep is numpy alone; importing scipy.linalg would take about
        # as long as the whole setup of a 2D minami run.  It serves minami in 2D,
        # fracmoment in 2D and minami on a decaying background (one slice)
        minami = {"name": "minami", "z": [0.5, 0.1], "delta": [13, 14], "samples": 20}
        box = dict(MINAMI_CONFIG["model"], sides=[6, 5])
        decaying = dict(box, background={"variant": "decaying", "amplitude": 1.0, "rate": 1.2})
        configs = [dict(MINAMI_CONFIG, model=box, experiment=minami),
                   dict(MINAMI_CONFIG, model=box,
                        experiment={"name": "fracmoment", "energy": 0.5, "eps": 0.1, "s": 0.5,
                                    "samples": 20}),
                   dict(MINAMI_CONFIG, model=decaying, experiment=minami)]
        code = ("import json, sys; from randlat import cli\n"
                "for raw in json.loads(sys.argv[1]):\n"
                "    cli.run_experiment(cli.parse_config(raw))\n"
                "print('scipy.linalg' in sys.modules)")
        assert self.run_python(code, json.dumps(configs)) == "False"


class TestMain:
    def test_run_subcommand(self, tmp_path):
        path = write_config(tmp_path, MINAMI_CONFIG)
        out = tmp_path / "main.jsonl"
        assert cli.main(["run", "--config", path, "--out", str(out),
                         "--samples", "20", "--seed", "3"]) == 0
        (rec,) = read_records(out)
        assert rec["samples"] == 20
        assert rec["seed"] == 3

    def test_experiment_flag_without_config(self, tmp_path):
        out = tmp_path / "ident.jsonl"
        assert cli.main(["run", "--experiment", "identities",
                         "--out", str(out)]) == 0
        records = read_records(out)
        assert all(r["verdict"] == "PASS" for r in records)
        assert {r["check"] for r in records} >= {"gauss_repr", "gv_line",
                                                 "gv_quadratic", "gv_lemma_n1"}

    def test_experiment_flag_on_config_list(self, tmp_path):
        first = json.loads(json.dumps(MINAMI_CONFIG))
        first["experiment"] = {"name": "dos", "energy": 0.5, "samples": 20}
        second = json.loads(json.dumps(MINAMI_CONFIG))
        second["experiment"] = {"name": "ids", "energy": 0.3, "samples": 20}
        out = tmp_path / "list.jsonl"
        assert cli.main(["run", "--config", write_config(tmp_path, [first, second]),
                         "--experiment", "ids", "--out", str(out)]) == 0
        records = read_records(out)
        assert [r["experiment"] for r in records] == ["ids", "ids"]
        assert [r["energy"] for r in records] == [0.5, 0.3]

    def test_identities_subcommand_csv(self, tmp_path):
        out = tmp_path / "ident.csv"
        assert cli.main(["identities", "--out", str(out),
                         "--format", "csv"]) == 0
        lines = out.read_text().strip().splitlines()
        assert "check" in lines[0].split(",")
        assert len(lines) > 10

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main([])
