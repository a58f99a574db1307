"""Recompute the reference means that the correctness check compares
against (`REFERENCES` in workloads.py) and print them.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/reference.py
"""

from __future__ import annotations

import json

from randlat import cli, montecarlo

from workloads import REFERENCE_SEED, REFERENCES, WORKLOADS

SCALE = 10


def main() -> None:
    for name in REFERENCES:
        workload = WORKLOADS[name]
        raw = workload.config(REFERENCE_SEED, size=SCALE * workload.size)
        cfg = cli.parse_config(raw)
        if cfg["name"] == "spacing":
            exp, runtime = cfg["experiment"], cfg["runtime"]
            config = montecarlo.McConfig(model=cfg["model"], samples=exp["samples"],
                                         master_seed=runtime["seed"],
                                         workers=runtime["workers"])
            est = montecarlo.estimate_dos(config, exp["energy"], exp["dos_bandwidth"])
            mean, stderr, samples = est.mean, est.stderr, est.samples
        else:
            (record,) = cli.run_experiment(cfg)
            mean, stderr, samples = record["mean"], record["stderr"], record["samples"]
        print(json.dumps({name: {"mean": mean, "stderr": stderr, "samples": samples}}))


if __name__ == "__main__":
    main()
