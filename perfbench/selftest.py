"""Self-test of the benchmark at a tiny size (about three minutes).

    python3 perfbench/selftest.py

Checks that
* every metric named in BENCHMARK.json is printed, end-to-end metrics with
  ``--trace 0`` and per-layer metrics with ``--trace 1``, on every workload,
  with ``failed == 0`` against the committed references;
* a planted wrong reference value makes ``fail_frac`` > 0 (lspar, sampled),
  in a copy of ``src/`` and ``perfbench/`` whose references are altered;
* in a directory holding only BENCHMARK.json and ``perfbench/`` the
  benchmark exits non-zero without printing a result.

Scratch copies go under ``.perfbench_tmp/`` of the checkout.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"
SEED = "7"


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args, "--seed", SEED, "--seconds", SECONDS]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def copy_tree(dst: str, with_sources: bool) -> None:
    """BENCHMARK.json and perfbench/ (and src/ when asked for) under ``dst``."""
    os.makedirs(dst)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dst)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, os.path.join(dst, "perfbench"), ignore=skip)
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dst, "src"), ignore=skip)


def result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def plant_lspar(ref_dir: str) -> None:
    path = os.path.join(ref_dir, "lspar_trials.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("final_f")
    rows[1][col] = repr(1.5 * float(rows[1][col]))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def plant_sampled(key: str):
    def plant(ref_dir: str) -> None:
        path = os.path.join(ref_dir, "sampled.json")
        with open(path) as fh:
            ref = json.load(fh)
        ref[key]["sampled_clarke_dd"] += 1e-3
        with open(path, "w") as fh:
            json.dump(ref, fh)

    return plant


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok: bool, what: str) -> None:
        print(("PASS  " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in spec["workloads"]:
        for trace in (0, 1):
            res = result(bench("--workload", w["name"], "--trace", str(trace)))
            got = set(res["metrics"])
            check(got == wanted[trace], f"{w['name']} trace={trace}: metrics are exactly the listed ones")
            check(res["failed"] == 0 and res["correct"], f"{w['name']} trace={trace}: no failed op")

    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        plants = (
            ("lspar", "final_f of one trial", plant_lspar),
            ("sampled", "builtin at 0", plant_sampled("xsqsin@0")),
            ("sampled", "PA tree at a kink", plant_sampled("pa2@kink#0")),
        )
        for k, (name, what, plant) in enumerate(plants):
            planted = os.path.join(tmp, f"planted-{k}")
            copy_tree(planted, with_sources=True)
            plant(os.path.join(planted, "perfbench", "reference"))
            res = result(bench("--workload", name, "--trace", "0", cwd=planted))
            check(res["failed"] > 0 and not res["correct"], f"{name}: a planted wrong reference ({what}) fails ops")

        bare = os.path.join(tmp, "bare")
        copy_tree(bare, with_sources=False)
        proc = bench("--workload", "exact", "--trace", "0", cwd=bare)
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout, "without the sources: non-zero exit, no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
