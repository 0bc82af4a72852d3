"""One measured process of the benchmark; ``run.py`` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

The process imports numpy and ``nonsmooth``, builds the workload's inputs
and, with ``--setup-only``, prints ``READY`` and exits: the parent times
that as set-up.  Otherwise it runs the workload as a closed loop with one
client for S seconds and prints one JSON line of raw results.

With ``--trace 1`` it first runs untraced for S/2 seconds (K units), then
wraps the package (see ``tracing.py``) and reruns the same K units traced;
the difference of the two timed totals is the tracing overhead.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()
import numpy  # noqa: E402

T_NUMPY = time.perf_counter()
import nonsmooth  # noqa: E402

T_NONSMOOTH = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

import calib  # noqa: E402
import workloads  # noqa: E402

OUT_DIRNAME = ".perfbench_out"
PROBE_EVERY_S = 1.0  # between machine-speed probes, see calib.py


def run_units(wl, seconds: float = None, units: int = None, min_ops: int = 0, tracer=None, speed=None) -> dict:
    """Run whole passes until about ``seconds`` of loop time and at least
    ``min_ops`` ops (never past twice ``seconds``), or exactly ``units`` units.

    The loop stops at the pass boundary nearest to ``seconds``.  With
    ``speed``, the machine-speed kernel is timed between units about every
    ``PROBE_EVERY_S`` seconds and once at the end."""
    latencies, fails = [], Counter()
    timed = 0.0
    i = 0
    start = time.perf_counter()

    def more() -> bool:
        if units is not None:
            return i < units
        if i == 0 or i % wl.pass_len:
            return True
        elapsed = time.perf_counter() - start
        per_pass = elapsed / (i // wl.pass_len)
        short = elapsed + 0.5 * per_pass < seconds or len(latencies) < min_ops
        return short and elapsed < 2 * seconds

    while more():
        if speed is not None and speed.due(PROBE_EVERY_S):
            speed.probe()
        if tracer is not None:
            tracer.current_op = i
        dt, outcomes = wl.step(i)
        timed += dt
        for latency, fail in outcomes:
            latencies.append(latency)
            if fail is not None:
                fails[fail] += 1
        i += 1
    if speed is not None:
        speed.probe()
    return {"units": i, "timed_s": timed, "latencies": latencies, "fails": fails}


def summarize(res: dict, wl) -> dict:
    final_fails = wl.final_checks()
    lat = numpy.array(res["latencies"]) * 1e3
    failed_ops = sum(res["fails"].values())
    fails = res["fails"] + Counter(final_fails)
    return {
        "ops": int(lat.size),
        "attempted": int(lat.size) + wl.n_final_checks,
        "failed": failed_ops + len(final_fails),
        "fail_classes": dict(fails),
        "timed_s": res["timed_s"],
        "ops_per_s": (lat.size - failed_ops) / res["timed_s"],
        "op_ms.p50": float(numpy.percentile(lat, 50)),
        "op_ms.p90": float(numpy.percentile(lat, 90)),
    }


def peak_rss_mb(workload: str) -> float:
    # a cli op is its own process; every child of this process is one
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# per-layer metrics: (name, unit, better); calls and self_s come from spans
CALLS_AND_SELF = (
    "solvers.ridge_ls_solve",
    "solvers.lspar_objective",
    "stationarity.lspar_d_stationarity_check",
    "polyhedra.lp_solve",
    "polyhedra.vertex_enumeration",
    "polyhedra.conv_hull",
    "subdiff.bouligand",
    "subdiff.clarke",
    "subdiff.frechet",
    "subdiff.limiting",
    "expr.evaluate",
    "sampled.as_evaluator.fn",
    "sampled.as_gradient_oracle.fn",
    "solvers.oracle_from_expr.fn",
    "solvers.oracle_from_expr.subgrad",
)
SELF_ONLY = (
    "solvers.mm_lspar",
    "solvers.subgradient_method",
    "stationarity.classify",
    "sampled.gradient_sampling",
    "sampled.sampled_clarke_dd",
    "sampled.fd_dir_deriv",
    "cli.main",
)
TOTAL_ONLY = ("experiments.tune_subgrad_coefficient", "gallery.run_gallery")
LAYER_NAMES = (
    "expr", "polyhedra", "subdiff", "stationarity", "sampled", "solvers",
    "experiments", "gallery", "cli", "import",
)


def per_layer_spec() -> list:
    spec = []
    for fn in CALLS_AND_SELF:
        spec += [(f"{fn}.calls", "count", "lower"), (f"{fn}.self_s", "s", "lower")]
    spec += [(f"{fn}.self_s", "s", "lower") for fn in SELF_ONLY]
    spec += [(f"{fn}.total_s", "s", "lower") for fn in TOTAL_ONLY]
    spec += [
        ("solvers.mm_lspar.outer_iters", "count", "lower"),
        ("solvers.mm_lspar.accepted_steps", "count", "lower"),
        ("stationarity.lspar_d_stationarity_check.n_selections", "count", "lower"),
        ("polyhedra.lp_solve.infeasible_frac", "ratio", "lower"),
        ("polyhedra.vertex_enumeration.vertices_per_basis", "ratio", "higher"),
        ("polyhedra.conv_hull.kept_frac", "ratio", "higher"),
        ("import.numpy_ms", "ms", "lower"),
        ("import.nonsmooth_ms", "ms", "lower"),
    ]
    spec += [(f"layer.{m}.self_s", "s", "lower") for m in LAYER_NAMES]
    spec += [
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    return spec


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(stats: dict, counts: Counter, child_calls: Counter) -> dict:
    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    m = {}
    for fn in CALLS_AND_SELF:
        m[f"{fn}.calls"] = get(fn, "calls")
        m[f"{fn}.self_s"] = float(get(fn, "self_s"))
    for fn in SELF_ONLY:
        m[f"{fn}.self_s"] = float(get(fn, "self_s"))
    for fn in TOTAL_ONLY:
        m[f"{fn}.total_s"] = float(get(fn, "total_s"))
    accepted = int(counts["solvers.mm_lspar.accepted_steps"])
    checks_in_mm = child_calls[("solvers.mm_lspar", "stationarity.lspar_d_stationarity_check")]
    m["solvers.mm_lspar.outer_iters"] = accepted + checks_in_mm - int(counts["solvers.mm_lspar.max_iter_exits"])
    m["solvers.mm_lspar.accepted_steps"] = accepted
    m["stationarity.lspar_d_stationarity_check.n_selections"] = int(
        counts["stationarity.lspar_d_stationarity_check.n_selections"]
    )
    m["polyhedra.lp_solve.infeasible_frac"] = _ratio(counts["polyhedra.lp_solve.infeasible"], get("polyhedra.lp_solve", "calls"))
    m["polyhedra.vertex_enumeration.vertices_per_basis"] = _ratio(
        counts["polyhedra.vertex_enumeration.vertices"], counts["polyhedra.vertex_enumeration.bases"]
    )
    m["polyhedra.conv_hull.kept_frac"] = _ratio(counts["polyhedra.conv_hull.kept"], counts["polyhedra.conv_hull.points"])
    for layer in LAYER_NAMES:
        m[f"layer.{layer}.self_s"] = float(sum(s["self_s"] for n, s in stats.items() if n.split(".")[0] == layer))
    return m


def traced_run(wl, seconds: float, out_dir: str) -> dict:
    import tracing

    plain = run_units(wl, seconds=seconds / 2)
    tracer = tracing.Tracer()
    if wl.name == "cli":
        wl.span_dir = out_dir
    tracing.install(tracer)
    wl.tracer = tracer
    traced = run_units(wl, units=plain["units"], tracer=tracer)
    tracer.enabled = False
    tracer.save(os.path.join(out_dir, "spans.npz"))
    parts = [(tracer.names, tracer.arrays(), tracer.counts)]
    parts += [tracing.load(os.path.join(out_dir, f)) for f in sorted(os.listdir(out_dir)) if f.startswith("cli-")]
    stats, counts, child_calls = tracing.aggregate(parts)
    metrics = layer_metrics(stats, counts, child_calls)
    if wl.name == "cli":  # mean over the one-shot processes
        for name in ("numpy", "nonsmooth"):
            s = stats[f"import.{name}"]
            metrics[f"import.{name}_ms"] = 1e3 * s["total_s"] / s["calls"]
    else:  # this process imported once, before any op
        metrics["import.numpy_ms"] = 1e3 * (T_NUMPY - T_START)
        metrics["import.nonsmooth_ms"] = 1e3 * (T_NONSMOOTH - T_NUMPY)
    metrics["trace.overhead_s"] = traced["timed_s"] - plain["timed_s"]
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / plain["timed_s"]
    metrics["trace.spans"] = int(sum(a["start"].size for _, a, _ in parts))
    merged = {
        "timed_s": traced["timed_s"],
        "latencies": plain["latencies"] + traced["latencies"],
        "fails": plain["fails"] + traced["fails"],
    }
    out = summarize(merged, wl)
    out["layer_metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit, _ in per_layer_spec()}
    out["traced_s"] = traced["timed_s"]
    out["untraced_s"] = plain["timed_s"]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    src = os.path.join(workloads.ROOT, "src")
    if not os.path.abspath(nonsmooth.__file__).startswith(src + os.sep):
        print(f"nonsmooth imported from {nonsmooth.__file__}, not from {src}", file=sys.stderr)
        return 3
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print("READY", flush=True)
        return 0
    if args.trace:
        out_dir = os.path.join(workloads.ROOT, OUT_DIRNAME, f"{args.workload}-seed{args.seed}")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        result = traced_run(wl, args.seconds, out_dir)
        result["spans_file"] = os.path.relpath(os.path.join(out_dir, "spans.npz"), workloads.ROOT)
    else:
        speed = calib.Speed()
        result = summarize(run_units(wl, seconds=args.seconds, min_ops=wl.min_ops, speed=speed), wl)
        result["speed_factor"] = speed.factor()
        result["speed_probes"] = len(speed.samples)
    result["peak_rss_mb"] = peak_rss_mb(args.workload)
    if args.workload == "lspar":
        result["notes"] = f"{wl.uncertified} MM trials ended without a d-stationarity certificate"
    result["python"] = platform.python_version()
    result["numpy"] = numpy.__version__
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
