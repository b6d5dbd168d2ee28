"""Record the reference outputs that the benchmark's checks compare against.

    python3 bench/record_reference.py

Writes ``bench/reference/outputs.json`` (every ``miph measures`` value for
the measures-eval couples, and each fit workload's final log-likelihood per
observation) and ``bench/reference/eval_grid.npz`` (density, survival and
CDF of ``miph eval --grid 0:40:101`` per couple, as float32: its rounding,
under 1e-7 relative, is well inside the 1e-6 check). Re-record only when a
change to the program is meant to change these outputs, and say so.
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from miph import cli, estimation  # noqa: E402


def main() -> int:
    measures, grids = {}, {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = Path(tmp) / "out.csv"
        for ages in workloads.MEASURES_COUPLES:
            model = str(workloads.MODEL_PATH)
            if cli.main(["measures", model, "--ages", ages, "--output", str(out)]):
                return 1
            with open(out, newline="", encoding="utf-8") as fh:
                measures[ages] = {
                    "|".join((r["measure"], r["time1"], r["time2"])): float(r["value"])
                    for r in csv.DictReader(fh)
                }
            if cli.main(["eval", model, "--ages", ages, "--grid", workloads.EVAL_GRID,
                         "--output", str(out)]):
                return 1
            values = np.loadtxt(out, delimiter=",", skiprows=1)[:, 2:]
            grids[ages] = values.reshape(101, 101, 3).astype(np.float32)

    loglik = {}
    for name in ("desk-fit", "paper-fit"):
        w = workloads.make(name, 0, False, HERE)
        obs, config = w.data(), w.config()
        loglik[name] = estimation.fit(obs, config).final_loglik / obs.n

    ref = HERE / "reference"
    ref.mkdir(exist_ok=True)
    with open(ref / "outputs.json", "w", encoding="utf-8") as fh:
        json.dump({"measures": measures, "loglik_per_obs": loglik}, fh, indent=1)
        fh.write("\n")
    np.savez_compressed(ref / "eval_grid.npz", **grids)
    return 0


if __name__ == "__main__":
    sys.exit(main())
