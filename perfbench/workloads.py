"""The benchmark's four workloads and their correctness checks.

Each workload builds its inputs in ``__init__`` (that is the set-up the
``setup_s`` metric times) and then runs *units* of work through
``step(i)``.  A unit is timed as a whole and yields one outcome per op: the
op's latency and ``None`` or the class of its failure.  Failure classes are
the exception's type name (the typed cap refusals ``EnumerationLimitError``,
``TooManyTiesError`` and ``DimensionCapError`` among them) or
``wrong:<check>`` for an answer a check rejected.  Checks run outside the
timed region and, in a traced run, with tracing paused.

The inputs form a fixed corpus, and a run goes through it in whole passes;
the benchmark seed sets the order of the units within each pass.  A corpus
drawn from the benchmark seed moved ``ops_per_s`` by 20-34% and
``op_ms.p90`` by up to 29% between seeds (five 25-second runs per
workload): the costs of the random trees are too heavy-tailed for a corpus
that fits in one run.  Whole passes keep the measured mix identical when a
faster program gets through more of them.

* ``lspar``   -- one unit is one ``run_lspar_experiment`` call (criterion-7
  configuration, fewer trials); one op is one trial, and its latency is
  the call's wall time divided by its trials.
* ``exact``   -- one op is the five exact calls on one (expr, point).
* ``sampled`` -- one op is one sampled-oracle call or one fixed-length
  subgradient run.
* ``cli``     -- one op is one ``python -m nonsmooth.cli`` process.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time

import numpy as np

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REF_DIR = os.path.join(HERE, "reference")
TMP_DIRNAME = ".perfbench_tmp"

# the criterion-7 experiment keeps its own root seed 0: trials 0-7 per N
LSPAR_TRIALS = 8  # per N, so one call is 24 trials
LSPAR_REF = os.path.join(REF_DIR, "lspar_trials.csv")
LSPAR_REF_FIELDS = ["trial", "seed", "N", "method", "final_f", "best_f", "iters", "cert"]
LSPAR_RTOL = 1e-6  # final_f vs. the reference; iters is deliberately not compared

SAMPLED_REF = os.path.join(REF_DIR, "sampled.json")
SAMPLED_REF_KEYS = ("xsinlog@0", "xsqsin@0")
SAMPLED_RTOL = 1e-7
SUBGRAD_ITERS = 300

CLI_TIMEOUT_S = 60.0
CORPUS_SEED = 0


class Workload:
    name = ""
    n_final_checks = 0
    min_ops = 100  # so that op_ms.p90 has at least 10 samples beyond it
    pass_len = 1  # units per pass over the corpus

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None  # set by a traced run
        self._order: dict = {}

    def item(self, i: int) -> int:
        """Corpus index of unit ``i``: pass ``i // pass_len`` in the seed's order."""
        p, j = divmod(i, self.pass_len)
        if p not in self._order:
            self._order = {p: gen.stream(self.seed, 9, p).permutation(self.pass_len)}
        return int(self._order[p][j])

    @contextlib.contextmanager
    def untraced(self):
        if self.tracer is None:
            yield
            return
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = True

    def final_checks(self) -> list:
        """Failure classes of whole-run checks (one entry per failed check)."""
        return []


def _timed(fn, *args):
    """(seconds, result, failure class): exceptions become failure classes."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # a refused or crashed op is a failed op
        return time.perf_counter() - t0, None, type(exc).__name__
    return time.perf_counter() - t0, out, None


# ---------------------------------------------------------------------------
# lspar
# ---------------------------------------------------------------------------


def load_lspar_reference() -> dict:
    """(N, trial, method) -> (final_f, cert) from the committed trials."""
    out = {}
    with open(LSPAR_REF, newline="") as fh:
        for r in csv.DictReader(fh):
            out[(int(r["N"]), int(r["trial"]), r["method"])] = (float(r["final_f"]), r["cert"])
    return out


class Lspar(Workload):
    """MM vs. subgradient on LSPAR through the experiment entry point."""

    name = "lspar"
    min_ops = 0  # a batch job: throughput is its metric

    def __init__(self, seed):
        super().__init__(seed)
        from nonsmooth import experiments

        self.ex = experiments
        self.ref = load_lspar_reference()
        self.tmp_root = os.path.join(ROOT, TMP_DIRNAME)
        self.uncertified = 0  # MM trials that ended without a certificate

    def step(self, i: int):
        os.makedirs(self.tmp_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=self.tmp_root) as out:
            cfg = self.ex.LsparExperimentConfig(trials=LSPAR_TRIALS, out_dir=out, jobs=1)
            dt, _, err = _timed(self.ex.run_lspar_experiment, cfg)
            n_ops = LSPAR_TRIALS * len(cfg.N_list)
            if err is not None:
                return dt, [(dt / n_ops, err)] * n_ops
            with open(os.path.join(out, "trials.csv"), newline="") as fh:
                rows = list(csv.DictReader(fh))
        # a batch job: each trial's latency is its share of the call
        with self.untraced():
            return dt, [(dt / n_ops, fail) for fail in self._check(cfg.root_seed, rows)]

    def _check(self, r: int, rows: list) -> list:
        from nonsmooth.experiments import LSPAR_TRUE_W, gen_lspar_data
        from nonsmooth.rng import make_rng

        by_trial: dict = {}
        for row in rows:
            by_trial.setdefault((int(row["N"]), int(row["trial"])), {})[row["method"]] = row
        outcomes = []
        for (N, t), pair in sorted(by_trial.items()):
            mm = pair["mm"]
            ds = gen_lspar_data(N, 0.1, int(mm["seed"]))
            W0 = make_rng(r, N, t, 22).standard_normal(LSPAR_TRUE_W.shape)
            resid = (ds.X @ W0).max(axis=1) - ds.y
            f0 = 0.5 * float(np.mean(resid * resid))
            ref_mm = self.ref.get((N, t, "mm"))
            fail = None
            if ref_mm is None:
                fail = "wrong:no_reference"
            elif ref_mm[1] == "true" and mm["cert"] != "true":
                # some MM trials (4 of the 24) stop at max_outer uncertified
                # even at the reference; a trial certified there must stay so
                fail = "wrong:mm_lost_certificate"
            elif float(mm["final_f"]) > f0:
                fail = "wrong:mm_final_above_start"
            else:
                for method, row in pair.items():
                    ref_f = self.ref[(N, t, method)][0]
                    if not math.isclose(float(row["final_f"]), ref_f, rel_tol=LSPAR_RTOL):
                        fail = f"wrong:{method}_final_f_vs_reference"
            self.uncertified += mm["cert"] != "true"
            outcomes.append(fail)
        return outcomes


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

EXACT_CATEGORIES = ("pa1", "pa2", "pa3", "plq1", "gallery")
EXACT_CORPUS = 200  # one pass, about 8 s on the reference machine


class Exact(Workload):
    """bouligand, clarke, frechet, limiting and classify on one (expr, point)."""

    name = "exact"
    n_final_checks = 1  # the gallery
    pass_len = EXACT_CORPUS

    def __init__(self, seed):
        super().__init__(seed)
        import nonsmooth

        self.ns = nonsmooth
        kinks = gen.gallery_kinks()
        self.corpus = []
        for i in range(EXACT_CORPUS):
            cat = EXACT_CATEGORIES[i % len(EXACT_CATEGORIES)]
            rng = gen.stream(CORPUS_SEED, 2, i)
            if cat == "gallery":
                _, e, x = kinks[(i // len(EXACT_CATEGORIES)) % len(kinks)]
                x = np.array(x)
            elif cat == "plq1":
                e, x = gen.random_plq_1d(rng)
            else:
                e, x = gen.random_pa_instance(rng, int(cat[2]))
            self.corpus.append((e, x))

    def query(self, e, x):
        ns = self.ns
        return ns.bouligand(e, x), ns.clarke(e, x), ns.frechet(e, x), ns.limiting(e, x), ns.classify(e, x)

    def step(self, i: int):
        e, x = self.corpus[self.item(i)]
        dt, out, err = _timed(self.query, e, x)
        if err is None:
            with self.untraced():
                err = self._check(e, x, *out)
        return dt, [(dt, err)]

    def _check(self, e, x, B, C, F, L, rep):
        contains = self.ns.contains
        for sub, sup, what in ((B, C, "bouligand_in_clarke"), (F, L, "frechet_in_limiting"), (L, C, "limiting_in_clarke")):
            if sub.is_empty:
                continue
            for comp in sub.set.components:
                V = comp.vertices
                for p in np.vstack([V, V.mean(axis=0, keepdims=True)]):
                    if not contains(sup.set, p, 1e-8):
                        return f"wrong:{what}"
        flags = (rep.is_d, rep.is_l, rep.is_C)
        if (flags[0] and flags[1] is False) or (flags[1] and flags[2] is False):
            return "wrong:d_l_C_order"
        if rep.is_d is False:
            d = rep.witness_direction
            if d is None:
                return "wrong:missing_witness"
            t = 1e-6
            if not gen.value(e, x + t * np.asarray(d)) < gen.value(e, x):
                return "wrong:witness_not_descent"
        return None

    def final_checks(self) -> list:
        from nonsmooth.gallery import run_gallery

        with self.untraced():
            rows = run_gallery()
        return [] if len(rows) == 12 and all(ok for _, ok, _, _ in rows) else ["wrong:gallery"]


# ---------------------------------------------------------------------------
# sampled
# ---------------------------------------------------------------------------

SMOOTH_POINTS = 2  # per builtin
PA_TREES = 2  # per dimension


def _generic_pa(rng, dim):
    # A tree with two identical leaves ties on a set of positive measure,
    # where the a.e. gradient oracle answers None by definition, and
    # gradient_sampling may then refuse with ValueError.  Such trees are
    # redrawn: this workload measures sampling, not that refusal.
    while True:
        e, x = gen.random_pa_instance(rng, dim)
        if gen.leaves_distinct(e):
            return e, x


def _direction(rng, dim):
    d = rng.integers(-2, 3, size=dim) / 2.0
    if not d.any():
        d[0] = 1.0
    return d


def sampled_targets() -> tuple:
    """The fixed corpus: targets ``(key, expr, point, direction)`` of the
    three oracles and starts ``(expr, x0)`` of the subgradient runs.

    A key is unique; the part before ``#`` names the kind of target."""
    rng = gen.stream(CORPUS_SEED, 3)
    targets = [("xsinlog@0", gen.xsinlog_expr(), np.zeros(1), np.ones(1)),
               ("xsqsin@0", gen.xsqsin_expr(), np.zeros(1), np.ones(1))]
    for name, mk in (("xsinlog", gen.xsinlog_expr), ("xsqsin", gen.xsqsin_expr)):
        for k in range(SMOOTH_POINTS):
            t = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.5))
            targets.append((f"{name}@smooth#{k}", mk(), np.array([t]), np.array([rng.choice((-1.0, 1.0))])))
    trees = []
    for dim in (1, 2, 3):
        for k in range(PA_TREES):
            e, x = _generic_pa(rng, dim)
            trees.append((e, x))
            targets.append((f"pa{dim}@kink#{k}", e, x, _direction(rng, dim)))
    starts = [(e, x + rng.uniform(-1.0, 1.0, size=x.size)) for e, x in trees]
    return targets, starts


def sampled_reference() -> dict:
    """The committed outputs (default seeds): every oracle on the builtins at
    0 with d = +1, and the value ``sampled_clarke_dd`` reports on every other
    target."""
    from nonsmooth.sampled import as_evaluator, as_gradient_oracle, fd_dir_deriv, gradient_sampling, sampled_clarke_dd

    ref = {}
    for key, e, x, d in sampled_targets()[0]:
        ref[key] = {"sampled_clarke_dd": sampled_clarke_dd(as_evaluator(e), x, d).value}
        if key in SAMPLED_REF_KEYS:
            V = gradient_sampling(as_gradient_oracle(e), x).set.components[0].vertices
            fd = fd_dir_deriv(as_evaluator(e), x, d)
            ref[key]["gradient_sampling"] = [float(V.min()), float(V.max())]
            ref[key]["fd_dir_deriv"] = [fd.value, fd.amplitude]
    return ref


class Sampled(Workload):
    """Sampled oracles on builtins and PA trees, plus short subgradient runs."""

    name = "sampled"

    def __init__(self, seed):
        super().__init__(seed)
        import nonsmooth

        self.ns = nonsmooth
        with open(SAMPLED_REF) as fh:
            self.ref = json.load(fh)
        targets, starts = sampled_targets()
        self.ops = []
        for key, e, x, d in targets:
            for oracle in ("fd_dir_deriv", "gradient_sampling", "sampled_clarke_dd"):
                self.ops.append((oracle, key, e, x, d))
        for e, x0 in starts:
            self.ops.append(("subgradient_method", f"pa{x0.size}", e, x0, None))
        self.pass_len = len(self.ops)

    def run_op(self, oracle, e, x, d):
        ns = self.ns
        if oracle == "fd_dir_deriv":
            return ns.fd_dir_deriv(ns.as_evaluator(e), x, d)
        if oracle == "gradient_sampling":
            return ns.gradient_sampling(ns.as_gradient_oracle(e), x)
        if oracle == "sampled_clarke_dd":
            return ns.sampled_clarke_dd(ns.as_evaluator(e), x, d)
        return ns.subgradient_method(ns.oracle_from_expr(e), x, ns.Diminishing(0.1), max_iter=SUBGRAD_ITERS)

    def step(self, i: int):
        oracle, key, e, x, d = self.ops[self.item(i)]
        dt, out, err = _timed(self.run_op, oracle, e, x, d)
        if err is None:
            with self.untraced():
                err = self._check(oracle, key, e, x, d, out)
        return dt, [(dt, err)]

    def _check(self, oracle, key, e, x, d, out):
        ns = self.ns
        label = key.split("#")[0]
        if oracle == "subgradient_method":
            f0 = gen.value(e, x)
            if not (out.best_f <= f0 + 1e-12 * (1.0 + abs(f0)) and out.best_f == float(np.min(out.objectives))):
                return "wrong:subgradient_best"
            if abs(gen.value(e, out.best_x) - out.best_f) > 1e-9 * (1.0 + abs(out.best_f)):
                return "wrong:subgradient_best_x"
            return None
        if label in SAMPLED_REF_KEYS:
            return self._check_builtin_at_zero(oracle, label, out)
        if oracle == "sampled_clarke_dd":
            ref = self.ref[key][oracle]
            if not math.isclose(out.value, ref, rel_tol=SAMPLED_RTOL, abs_tol=1e-12):
                return f"wrong:{oracle}_vs_reference"
        if label.endswith("@smooth"):
            slope = (gen.xsinlog_slope if label.startswith("xsinlog") else gen.xsqsin_slope)(float(x[0]))
            want = slope * float(d[0])
            if oracle == "fd_dir_deriv":
                # rounding in the finest quotients may leave converged False
                ok = abs(out.value - want) <= 1e-3 * (1.0 + abs(want))
            elif oracle == "gradient_sampling":
                V = out.set.components[0].vertices
                ok = V.min() - 1e-6 <= slope <= V.max() + 1e-6
            else:
                ok = self._finest_rung_ok(out, want, x[0], label)
            return None if ok else f"wrong:{oracle}_smooth"
        # PA tree at a kink: compare with the exact engine
        if oracle == "fd_dir_deriv":
            want = ns.dir_deriv(e, x, d).value
            ok = out.converged and abs(out.value - want) <= 1e-9 * (1.0 + abs(want))
        elif oracle == "gradient_sampling":
            C = ns.clarke(e, x).set
            ok = all(ns.contains(C, v, 1e-7) for v in out.set.components[0].vertices)
        else:
            # The finest rung samples within 2r = 0.0125 of the kink, where
            # only the kink's own pieces are active, so its largest quotient
            # is f°(x; d).  The reported value is checked against the
            # reference only: it extrapolates all rungs linearly, and the
            # widest rung (r = 0.1) can reach other kinks and drag it far off
            # f° (-2.10 for f° = 0.5 was seen).
            want = ns.clarke_dir_deriv(e, x, d).value
            ok = abs(out.quotients[-1] - want) <= 1e-4 * (1.0 + abs(want))
        return None if ok else f"wrong:{oracle}_vs_exact"

    @staticmethod
    def _finest_rung_ok(out, want: float, t: float, label: str) -> bool:
        """The finest rung's largest quotient at a smooth point t: at least the
        slope, and above it by at most 2r times a bound on |f''| near t."""
        r = out.params["radius_ladder"][-1]
        lo = t - 2.0 * r
        if t < 0.0:  # both builtins are affine left of 0
            bend = 0.0
        elif label.startswith("xsqsin"):  # f'' = 2 sin(1/t) - 2 cos(1/t)/t - sin(1/t)/t^2
            bend = 2.0 + 2.0 / lo + 1.0 / lo**2
        else:  # f'' = -(sin u + cos u)/t with u = log(1/t)
            bend = math.sqrt(2.0) / lo
        q = out.quotients[-1]
        return want - 1e-6 * (1.0 + abs(want)) <= q <= want + 2.0 * r * bend + 1e-6

    def _check_builtin_at_zero(self, oracle, label, out):
        ref = self.ref[label][oracle]
        if oracle == "gradient_sampling":
            V = out.set.components[0].vertices
            got = [float(V.min()), float(V.max())]
            closed = [-math.sqrt(2.0), math.sqrt(2.0)] if label.startswith("xsinlog") else [0.0, 2.0]
            ok = max(abs(g - c) for g, c in zip(got, closed)) <= 0.05
        elif oracle == "sampled_clarke_dd":
            got = [out.value]
            ref = [ref]
            closed = math.sqrt(2.0) if label.startswith("xsinlog") else 2.0
            ok = abs(out.value - closed) <= 0.05
        else:
            got = [out.value, out.amplitude]
            if label.startswith("xsinlog"):  # quotients oscillate: no derivative at 0
                ok = (not out.converged) and out.amplitude >= 1.8
            else:
                ok = out.converged and abs(out.value - 1.0) <= 1e-6
        if not ok:
            return f"wrong:{oracle}_closed_form"
        if any(not math.isclose(g, r, rel_tol=SAMPLED_RTOL, abs_tol=1e-12) for g, r in zip(got, ref)):
            return f"wrong:{oracle}_vs_reference"
        return None


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_ROUNDS = 3  # one pass: 15 processes, dims 1-3
SUBDIFF_KINDS = ("frechet", "limiting", "clarke", "bouligand")


def _point_arg(x) -> str:
    return " ".join(repr(float(v)) for v in x)


class Cli(Workload):
    """One-shot CLI processes: gallery, classify, subdiff, eval, solve."""

    name = "cli"

    def __init__(self, seed):
        super().__init__(seed)
        self.cmds = []
        for r in range(CLI_ROUNDS):
            rng = gen.stream(CORPUS_SEED, 4, r)
            dim = 1 + r % 3
            e, x = gen.random_pa_instance(rng, dim)
            sexp = gen.to_sexp(e)
            y = x + rng.uniform(-1.0, 1.0, size=dim)
            self.cmds.append((["gallery"], None))
            self.cmds.append((["classify", "--expr", sexp, "--point", _point_arg(x)], (e, x)))
            which = SUBDIFF_KINDS[r % len(SUBDIFF_KINDS)]
            self.cmds.append((["subdiff", "--expr", sexp, "--point", _point_arg(x), "--which", which], (e, x)))
            self.cmds.append((["eval", "--expr", sexp, "--point", _point_arg(y)], (e, y)))
            if r % 2:
                n_seed = int(rng.integers(1, 10**6))
                self.cmds.append((["solve", "--method", "mm", "--problem", "lspar", "--N", "10", "--seed", str(n_seed)], None))
            else:
                self.cmds.append((["solve", "--method", "subgrad", "--expr", sexp, "--x0", _point_arg(y),
                                   "--schedule", "diminishing:0.1", "--iters", "200"], (e, y)))
        self.pass_len = len(self.cmds)
        self.span_dir = None  # a traced run sets where children write spans
        self.env = dict(os.environ)

    def argv(self, i: int, args: list) -> list:
        if self.span_dir is None:
            return [sys.executable, "-m", "nonsmooth.cli", *args]
        spans = os.path.join(self.span_dir, f"cli-{i:05d}.npz")
        return [sys.executable, os.path.join(HERE, "cli_child.py"), spans, *args]

    def step(self, i: int):
        args, ctx = self.cmds[self.item(i)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.argv(i, args), cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err_text = proc.communicate(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return time.perf_counter() - t0, [(time.perf_counter() - t0, "TimeoutExpired")]
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            return dt, [(dt, f"exit_code_{proc.returncode}")]
        return dt, [(dt, self._check(args[0], ctx, out))]

    @staticmethod
    def _check(cmd, ctx, out: str):
        try:
            if cmd == "gallery":
                return None if "12/12 examples passed" in out else "wrong:gallery"
            if cmd in ("classify", "subdiff"):
                doc = json.loads(out)
                if cmd == "subdiff":
                    return None if {"kind", "at", "exactness", "set"} <= set(doc) else "wrong:subdiff_json"
                d, l, c = doc["is_d"], doc["is_l"], doc["is_C"]
                if (d and l is False) or (l and c is False):
                    return "wrong:d_l_C_order"
                if d is False:
                    e, x = ctx
                    w = np.asarray(doc["witness_direction"], dtype=float)
                    if not gen.value(e, x + 1e-6 * w) < gen.value(e, x):
                        return "wrong:witness_not_descent"
                return None
            if cmd == "eval":
                e, y = ctx
                want = gen.value(e, y)
                return None if abs(float(out) - want) <= 1e-12 * (1.0 + abs(want)) else "wrong:eval"
            if out.startswith("mm:"):
                return None if "d-stationary=True" in out else "wrong:mm_not_certified"
            e, y = ctx
            best = float(re.search(r"best=([^,]+),", out).group(1))
            return None if best <= gen.value(e, y) else "wrong:subgrad_best"
        except (ValueError, KeyError, TypeError, AttributeError):
            return f"wrong:{cmd}_output_unparsable"


WORKLOADS = {w.name: w for w in (Lspar, Exact, Sampled, Cli)}
