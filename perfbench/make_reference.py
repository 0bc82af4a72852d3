"""Regenerate the committed reference outputs under ``perfbench/reference``.

    python3 perfbench/make_reference.py lspar     # ~15 seconds
    python3 perfbench/make_reference.py sampled   # ~1 second

Run it only when a change to the program is meant to change results; the
benchmark's correctness checks compare every run against these files.
"""

from __future__ import annotations

import csv
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def make_lspar() -> None:
    from nonsmooth.experiments import LsparExperimentConfig, run_lspar_experiment

    tmp_root = os.path.join(ROOT, workloads.TMP_DIRNAME)
    os.makedirs(tmp_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as out:
        run_lspar_experiment(LsparExperimentConfig(trials=workloads.LSPAR_TRIALS, out_dir=out))
        with open(os.path.join(out, "trials.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
    with open(workloads.LSPAR_REF, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(workloads.LSPAR_REF_FIELDS)
        w.writerows([r[k] for k in workloads.LSPAR_REF_FIELDS] for r in rows)


def make_sampled() -> None:
    ref = workloads.sampled_reference()
    with open(workloads.SAMPLED_REF, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    which = sys.argv[1:] or ["lspar", "sampled"]
    for name in which:
        {"lspar": make_lspar, "sampled": make_sampled}[name]()
