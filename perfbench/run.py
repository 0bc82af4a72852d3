"""Benchmark of the ``nonsmooth`` package: one workload, one run.

    python3 perfbench/run.py --workload {lspar,exact,sampled,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  The package is imported from ``src/``
of that checkout; the script exits with code 2, printing no result, when
the sources are not there.

With ``--trace 0`` it times set-up in fresh processes (median of
``SETUP_PROBES``), then runs the workload in one fresh worker process and
prints every end-to-end metric.  Timed metrics are scaled to the reference
machine's speed by the probe in ``calib.py``; the raw figures are printed
above the result.  With ``--trace 1`` the worker also runs
the traced pass and the per-layer metrics are printed instead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it restate the
numbers for a reader, with sample counts and failures by class.

BLAS and OpenMP threads are pinned to 1 in every process the benchmark
starts; each workload is a closed loop with one client.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("lspar", "exact", "sampled", "cli")
SETUP_PROBES = 15
DEADLINE_S = 170.0  # the whole run, build and set-up included
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
os.environ.update(dict.fromkeys(PINNED, "1"))  # before numpy loads, here and in every child

import calib  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def worker_argv(args, *extra) -> list:
    return [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload, "--seed", str(args.seed), *extra]


def remaining(t0: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - t0)
    if left <= 0:
        raise BenchError("run deadline passed")
    return left


def setup_probe(args, env, t0) -> float:
    """Seconds from starting a fresh worker to its READY line."""
    start = time.perf_counter()
    proc = subprocess.Popen(worker_argv(args, "--setup-only"), cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        took = time.perf_counter() - start
        proc.communicate(timeout=remaining(t0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed (exit {proc.returncode})")
    return took


def run_worker(args, env, t0) -> dict:
    argv = worker_argv(args, "--seconds", str(args.seconds), "--trace", str(args.trace))
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=remaining(t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker exceeded the run deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "nonsmooth", "__init__.py")):
        print(f"perfbench: no nonsmooth sources under {SRC}", file=sys.stderr)
        return 2
    # the build: byte-compile once so that cold imports read .pyc files
    if not (compileall.compile_dir(SRC, quiet=1) and compileall.compile_dir(HERE, quiet=1)):
        print("perfbench: byte-compilation failed", file=sys.stderr)
        return 2
    env = child_env()
    try:
        speed, setups = calib.Speed(), []
        for _ in range(0 if args.trace else SETUP_PROBES):
            speed.probe()
            setups.append(setup_probe(args, env, t0))
        res = run_worker(args, env, t0)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, ".perfbench_tmp"), ignore_errors=True)

    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(
        f"machine: nproc={os.cpu_count()} python={res['python']} numpy={res['numpy']} "
        f"threads pinned to 1 ({', '.join(PINNED)}); closed loop, 1 client"
    )
    if "notes" in res:
        print(f"notes: {res['notes']}")
    fail_frac = res["failed"] / res["attempted"]
    print(
        f"fail_frac = {fail_frac!r} ({res['failed']} of {res['attempted']} attempted; "
        f"by class: {json.dumps(res['fail_classes'], sort_keys=True)})"
    )
    if args.trace:
        metrics = res["layer_metrics"]
        print(
            f"traced: {res['traced_s']!r} s vs untraced {res['untraced_s']!r} s for the same "
            f"{res['ops'] // 2} ops; spans in {res['spans_file']}"
        )
        for name, m in metrics.items():
            print(f"  {name} = {m['value']!r} {m['unit']}")
        out_metrics = metrics
    else:
        raw = dict(res, setup_s=statistics.median(setups))
        scale = {"setup_s": speed.factor(), "ops_per_s": 1.0 / res["speed_factor"],
                 "op_ms.p50": res["speed_factor"], "op_ms.p90": res["speed_factor"], "peak_rss_mb": 1.0}
        values = {name: raw[name] * scale[name] for name, _ in END_TO_END}
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
        print(f"ops: {res['ops']} in {res['timed_s']!r} s timed; latency percentiles over {res['ops']} samples")
        print(
            f"machine speed factor: {speed.factor():.4f} during set-up, {res['speed_factor']:.4f} during the "
            f"run ({res['speed_probes']} kernel calls); times below are raw times x factor"
        )
        for name, unit in END_TO_END:
            print(f"  {name} = {values[name]!r} {unit}  (raw {raw[name]!r})")
        out_metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
