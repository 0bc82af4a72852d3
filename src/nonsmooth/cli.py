"""Command-line interface.

Subcommands::

    eval        evaluate an expression at a point
    subdiff     print a subdifferential (exact or sampled) as JSON
    classify    d-/l-/C-stationarity report for a point
    solve       run a solver (subgrad | proj-subgrad | mm) and dump a trace
    experiment  run the lspar or recovery experiment from a config
    gallery     run the worked-example gallery and print a pass/fail table

Exit codes: 0 on success, 1 when a gallery expectation fails, 2 on usage
errors and malformed input (one stderr line says which), 3 when a cap
refuses the input (one stderr line names the cap and the way around it).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import inspect
import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import experiments
from .expr import DimensionMismatchError, ExprSyntaxError, classify_fragment, evaluate, parse_expr
from .gallery import run_gallery
from .polyhedra import Ball, Box, DimensionCapError, PolyhedraError
from .rng import make_rng
from .sampled import as_gradient_oracle, gradient_sampling
from .solvers import (
    Constant,
    Diminishing,
    Geometric,
    Polyak,
    lspar_oracle,
    mm_lspar,
    oracle_from_expr,
    projected_subgradient,
    subgradient_method,
)
from .stationarity import TooManyTiesError, classify
from .subdiff import (
    EnumerationLimitError,
    NotDirectionallyDifferentiableError,
    UnsupportedFragmentError,
    bouligand,
    clarke,
    frechet,
    limiting,
)
from .tolerances import STATIONARITY_TOL

__all__ = ["main"]

# each cap's error, its name on stderr, and the way around it
_CAPS = (
    (EnumerationLimitError, "selection cap", "perturb the point"),
    (TooManyTiesError, "tie cap", "perturb W"),
    (DimensionCapError, "dimension cap", "lower the dimension"),
)

# the exact sets that subdiff --which names
_EXACT_SETS = {f.__name__: f for f in (frechet, limiting, clarke, bouligand)}


class InputError(Exception):
    """A malformed command-line value that argparse cannot see."""


@contextlib.contextmanager
def _flag(name: str, value):
    """Report a ValueError of the library's own check on ``value`` as a bad ``name``."""
    try:
        yield
    except ValueError as exc:
        raise InputError(f"bad {name} {value}: {exc}") from None


def _load_expr(spec: str):
    text = spec
    if not spec.lstrip().startswith("("):
        with open(spec) as fh:
            text = fh.read()
    return parse_expr(text)


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([float(p) for p in text.replace(",", " ").split()])
    except ValueError:
        raise InputError(f"expected comma- or space-separated numbers, got {text!r}") from None


_SCHEDULES = {"constant": Constant, "diminishing": Diminishing, "geometric": Geometric, "polyak": Polyak}


def _parse_schedule(text: str):
    kind, _, rest = text.partition(":")
    if kind.lower() not in _SCHEDULES:
        raise InputError(f"unknown --schedule kind {kind!r} (kinds: {', '.join(_SCHEDULES)})")
    try:
        return _SCHEDULES[kind.lower()](*(float(v) for v in rest.split(",") if v))
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad --schedule {text!r}: {exc}") from None


def _parse_projector(args, dim: int):
    """The ``--box`` or ``--ball`` set of ``solve --method proj-subgrad``,
    checked to have dimension ``dim``."""
    try:
        if args.box is not None:
            bounds = _parse_point(args.box)
            if bounds.size % 2:
                raise InputError(f"--box needs as many hi as lo values, got {bounds.size} numbers")
            C = Box(bounds[: bounds.size // 2], bounds[bounds.size // 2 :])
        else:
            vals = _parse_point(args.ball)
            if vals.size < 2:
                raise InputError(f"--ball needs a center and a radius, got {vals.size} numbers")
            C = Ball(vals[:-1], float(vals[-1]))
    except PolyhedraError as exc:
        raise InputError(f"bad {'--box' if args.box is not None else '--ball'}: {exc}") from None
    if C.dim != dim:
        raise InputError(f"the projector set has dimension {C.dim} but --x0 has {dim}")
    return C


def _cmd_eval(args) -> int:
    e = _load_expr(args.expr)
    x = _parse_point(args.point)
    print(repr(evaluate(e, x)))
    return 0


def _cmd_subdiff(args) -> int:
    e = _load_expr(args.expr)
    x = _parse_point(args.point)
    if not args.sampled and (args.seed is not None or args.radius is not None):
        raise InputError(f"exact --which {args.which} does not read --seed or --radius; only --sampled does")
    if args.sampled:
        if args.which != "clarke":
            raise InputError("sampled mode supports --which clarke only")
        if args.radius is not None and not (math.isfinite(args.radius) and args.radius > 0):
            raise InputError(f"--radius must be positive and finite, got {args.radius}")
        own = inspect.signature(gradient_sampling).parameters  # the defaults of options not given
        radius = own["radius"].default if args.radius is None else args.radius
        seed = own["seed"].default if args.seed is None else args.seed
        ss = gradient_sampling(as_gradient_oracle(e), x, radius=radius, seed=seed)
    else:
        try:
            ss = _EXACT_SETS[args.which](e, x)
        except (UnsupportedFragmentError, NotDirectionallyDifferentiableError) as exc:
            frag = classify_fragment(e).value
            raise InputError(
                f"{exc}; this is a {frag} tree in dimension {x.size}; "
                "--sampled --which clarke estimates the Clarke set of any tree"
            ) from None
    print(json.dumps(ss.to_json(), indent=2))
    if ss.is_empty:
        print(f"# {args.which} subdifferential at {x.tolist()}: empty set", file=sys.stderr)
    else:
        ncomp = len(ss.set.components)
        print(
            f"# {args.which} subdifferential at {x.tolist()}: "
            f"{ncomp} component(s), exactness={ss.exactness}",
            file=sys.stderr,
        )
    return 0


def _cmd_classify(args) -> int:
    e = _load_expr(args.expr)
    x = _parse_point(args.point)
    with _flag("--tol", args.tol):
        rep = classify(e, x, tol=args.tol)
    print(json.dumps(rep.to_json(), indent=2))
    return 0


def _write_trace(path: str, trace) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iter", "f", "step", "dist_ref", "wall_ms"])
        steps = list(trace.steps) + [float("nan")] * (
            len(trace.objectives) - len(trace.steps)
        )
        for i, f in enumerate(trace.objectives):
            dist = "" if trace.dists is None else repr(float(trace.dists[i]))
            wall = "" if trace.walls is None else f"{1e3 * trace.walls[i]:.3f}"
            w.writerow([i, repr(float(f)), repr(float(steps[i])), dist, wall])


# the optional flags of solve that each (--method, --problem) reads, besides --trace
_SOLVE_READS = {
    ("mm", "lspar"): ("N", "sigma", "seed"),
    ("subgrad", "lspar"): ("schedule", "iters", "N", "sigma", "seed"),
    ("subgrad", None): ("expr", "x0", "schedule", "iters"),
    ("proj-subgrad", None): ("expr", "x0", "schedule", "iters", "box", "ball"),
}


def _cmd_solve(args) -> int:
    if args.method == "proj-subgrad" and args.problem is not None:
        raise InputError("--method proj-subgrad does not read --problem; it projects an --expr objective")
    flags = ("expr", "x0", "schedule", "iters", "box", "ball", "N", "sigma", "seed")
    reads = _SOLVE_READS.get((args.method, args.problem), flags)  # (mm, None) fails below
    unread = [f"--{f}" for f in flags if getattr(args, f) is not None and f not in reads]
    if unread:
        via = f"--method {args.method}" + (f" --problem {args.problem}" if args.problem else "")
        raise InputError(f"{via} does not read {', '.join(unread)}")
    if args.trace:  # made before the run, so a bad path fails first
        open(args.trace, "w").close()  # and a run that fails later leaves it empty
    schedule = _parse_schedule(args.schedule or "diminishing:1")
    iters = 1000 if args.iters is None else args.iters
    if args.problem == "lspar":
        N = 10 if args.N is None else args.N
        sigma = 0.1 if args.sigma is None else args.sigma
        seed = 42 if args.seed is None else args.seed
        if N < 1:
            raise InputError(f"--N must be >= 1, got {N}")
        if not (math.isfinite(sigma) and sigma >= 0):
            raise InputError(f"--sigma must be finite and >= 0, got {sigma}")
        ds = experiments.gen_lspar_data(N, sigma, seed)
        W0 = make_rng(seed, 22).standard_normal(experiments.LSPAR_TRUE_W.shape)
        if args.method == "mm":
            trace, cert = mm_lspar(ds, W0)
            print(
                f"mm: {trace.termination} after {trace.extras['outer_iters']} outer iterations, "
                f"f={float(trace.objectives[-1])!r}, d-stationary={cert.is_d_stationary}"
            )
        else:
            with _flag("--iters", iters):
                trace = subgradient_method(lspar_oracle(ds), W0, schedule, max_iter=iters)
            print(
                f"subgrad: {trace.termination}, f={float(trace.objectives[-1])!r}, "
                f"best={float(trace.best_f)!r}"
            )
    else:
        if args.method == "mm" or args.expr is None or args.x0 is None:
            need = "--problem lspar" if args.method == "mm" else "--expr and --x0"
            raise InputError(f"--method {args.method} needs {need}")
        e = _load_expr(args.expr)
        x0 = _parse_point(args.x0)
        oracle = oracle_from_expr(e)
        if args.method == "proj-subgrad":
            if args.box is None and args.ball is None:
                raise InputError("proj-subgrad needs --box 'lo.. hi..' or --ball 'center.. r'")
            projector = _parse_projector(args, x0.size)
            with _flag("--iters", iters):
                trace = projected_subgradient(oracle, projector, x0, schedule, max_iter=iters)
        else:
            with _flag("--iters", iters):
                trace = subgradient_method(oracle, x0, schedule, max_iter=iters)
        print(
            f"{args.method}: {trace.termination}, f={float(trace.objectives[-1])!r}, "
            f"best={float(trace.best_f)!r}, x={trace.final_x.tolist()}"
        )
    if args.trace:
        _write_trace(args.trace, trace)
        print(f"trace written to {args.trace}")
    return 0


# a config field's annotation (a string: experiments.py defers annotations) -> its
# value from its key's text, a list for a comma list
_CASTS = {"int": int, "float": float, "str": str}
_CASTS["tuple"] = lambda v: tuple(map(int, v if isinstance(v, list) else [v]))


def _cmd_experiment(args) -> int:
    family = (
        experiments.LsparExperimentConfig if args.family == "lspar" else experiments.RecoveryConfig
    )
    # the config keys are the fields but out_dir, which --out sets
    casts = {f.name: _CASTS[f.type] for f in dataclasses.fields(family) if f.name != "out_dir"}
    try:
        overrides = {}
        for text in ([Path(args.config).read_text()] if args.config else []) + (args.set or []):
            overrides.update(experiments.parse_config(text))
        unknown = sorted(set(overrides) - set(casts))
        if unknown:
            raise InputError(f"unknown config key {unknown[0]!r} (keys: {', '.join(casts)})")
        values = {}
        for key, text in overrides.items():
            try:
                values[key] = casts[key](text)
            except (TypeError, ValueError) as exc:
                raise InputError(f"bad config value for {key}: {exc}") from None
        cfg = family(out_dir=args.out, **values)
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad config value: {exc}") from None
    if args.family == "lspar":
        summary = experiments.run_lspar_experiment(cfg)
        for N in cfg.N_list:
            s = summary["per_N"][N]
            print(
                f"N={N}: wins mm={s['wins']['mm']} subgrad={s['wins']['subgrad']}, "
                f"median mm={s['median_final']['mm']:.3e} "
                f"subgrad={s['median_final']['subgrad']:.3e}, "
                f"frac(mm <= subgrad)={s['frac_mm_not_worse']:.3f}"
            )
        for N in cfg.N_list:
            tuning = summary["tuning"][str(N)]
            scores = ", ".join(f"c={c:g} {f:.3e}" for c, f in tuning["scores"].items())
            print(
                f"N={N}: step tuning picked c={summary['tuned_subgrad_c'][str(N)]:g} "
                f"(mean final f: {scores})"
                + (", an end of the grid" if tuning["at_grid_edge"] else "")
            )
    else:
        out = experiments.run_recovery_experiment(cfg)
        print(
            f"{out['kind']}: final distance {out['final_distance']:.3e}, "
            f"log-slope {out['slope']:.4f} (R^2 {out['r_squared']:.3f})"
        )
    return 0


def _cmd_gallery(args) -> int:
    rows = run_gallery()
    width = max(len(name) for name, *_ in rows)
    passed = 0
    for name, ok, detail, note in rows:
        flag = "PASS" if ok else "FAIL"
        passed += ok
        print(f"{flag}  {name:<{width}}  {detail}")
        if note:
            print(f"      {'':<{width}}  note: {note}")
    print(f"{passed}/{len(rows)} examples passed")
    return 0 if passed == len(rows) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nonsmooth",
        description="subdifferentials, stationarity tests, and subgradient/MM solvers",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate an expression at a point")
    pe.add_argument("--expr", required=True, help="expression file or inline s-expression")
    pe.add_argument("--point", required=True, help="comma- or space-separated coordinates")
    pe.set_defaults(func=_cmd_eval)

    ps = sub.add_parser("subdiff", help="compute a subdifferential")
    ps.add_argument("--expr", required=True)
    ps.add_argument("--point", required=True)
    ps.add_argument("--which", required=True, choices=list(_EXACT_SETS))
    ps.add_argument("--sampled", action="store_true", help="estimate the Clarke set by sampling")
    ps.add_argument("--seed", type=int, help="--sampled seed (default: gradient_sampling's own)")
    ps.add_argument("--radius", type=float, help="--sampled radius (default: gradient_sampling's own)")
    ps.set_defaults(func=_cmd_subdiff)

    pc = sub.add_parser("classify", help="stationarity report")
    pc.add_argument("--expr", required=True)
    pc.add_argument("--point", required=True)
    pc.add_argument("--tol", type=float, default=STATIONARITY_TOL)
    pc.set_defaults(func=_cmd_classify)

    pv = sub.add_parser("solve", help="run a solver")
    pv.add_argument("--method", required=True, choices=["subgrad", "proj-subgrad", "mm"])
    pv.add_argument("--expr", help="objective expression (subgrad/proj-subgrad)")
    pv.add_argument("--x0", help="start point")
    pv.add_argument("--problem", choices=["lspar"], help="built-in problem family")
    pv.add_argument("--N", type=int, help="LSPAR samples (default 10)")
    pv.add_argument("--sigma", type=float, help="LSPAR noise standard deviation (default 0.1)")
    pv.add_argument("--schedule", help="kind:params, e.g. geometric:0.1,0.98 (default diminishing:1)")
    pv.add_argument("--iters", type=int, help="iterations of subgrad/proj-subgrad (default 1000)")
    pv.add_argument("--seed", type=int, help="LSPAR data and start seed (default 42)")
    pv.add_argument("--box", help="projector box 'lo... hi...'")
    pv.add_argument("--ball", help="projector ball 'center... radius'")
    pv.add_argument("--trace", help="write iteration trace CSV here")
    pv.set_defaults(func=_cmd_solve)

    px = sub.add_parser("experiment", help="run an experiment family")
    px.add_argument("family", choices=["lspar", "recovery"])
    px.add_argument("--config", help="flat key=value config file")
    px.add_argument("--out", help="output directory for CSV/SVG artifacts")
    px.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    px.set_defaults(func=_cmd_experiment)

    pg = sub.add_parser("gallery", help="run the worked-example gallery")
    pg.set_defaults(func=_cmd_gallery)
    return p


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ExprSyntaxError, DimensionMismatchError, OSError) as exc:
        print(f"nonsmooth: {args.command}: {exc}", file=sys.stderr)
        return 2
    except tuple(err for err, _, _ in _CAPS) as exc:
        cap, fix = next((c, f) for err, c, f in _CAPS if isinstance(exc, err))
        msg = str(exc) if fix in str(exc) else f"{exc}; {fix}"
        print(f"nonsmooth: {cap} reached ({type(exc).__name__}): {msg}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
