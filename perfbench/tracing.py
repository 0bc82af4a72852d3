"""Span tracing of the ``nonsmooth`` package from outside the program.

``install`` wraps every public function of each package module and rebinds
the wrapper in every ``nonsmooth.*`` namespace that holds the original,
because the package imports names directly (``from .polyhedra import
lp_solve``).  A span records name, start, end, parent span and op id in
flat arrays kept in memory; ``Tracer.save`` writes them when the run ends
and ``aggregate`` turns them into per-function calls, self and total times.

Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = (
    "expr",
    "polyhedra",
    "subdiff",
    "stationarity",
    "sampled",
    "solvers",
    "experiments",
    "gallery",
    "cli",
)
# factories whose returned callables are wrapped as spans of their own
FACTORIES = {
    "sampled.as_evaluator": ("fn",),
    "sampled.as_gradient_oracle": ("fn",),
    "solvers.oracle_from_expr": ("fn", "subgrad"),
}


class Tracer:
    """Flat, append-only span store with a parent stack."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.nested = array("b")  # an enclosing span has the same name
        self.counts: Counter = Counter()
        self.current_op = -1
        self.enabled = True  # off while the benchmark checks results
        self._stack: list = []
        self._active: Counter = Counter()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.nested.append(1 if self._active[nid] else 0)
        self.end.append(0.0)
        self._active[nid] += 1
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._active[self.name_id[i]] -= 1

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured by the caller (used for imports)."""
        i = self.open(self.intern(name))
        self.close(i)
        self.start[i], self.end[i] = start, end

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "nested": np.frombuffer(self.nested, dtype=np.int8).copy(),
        }

    def save(self, path: str) -> None:
        """Write spans, names and counters as one ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=object),
            counts_keys=np.array(list(self.counts), dtype=object),
            counts_vals=np.array(list(self.counts.values()), dtype=np.float64),
            **self.arrays(),
        )


def load(path: str) -> tuple:
    """(names, arrays, counts) from a file written by ``Tracer.save``."""
    with np.load(path, allow_pickle=True) as z:
        names = list(z["names"])
        counts = Counter(dict(zip(z["counts_keys"], z["counts_vals"])))
        arrs = {k: z[k] for k in ("name_id", "start", "end", "parent", "op", "nested")}
    return names, arrs, counts


def _observe(name: str, counts: Counter, args: tuple, kwargs: dict, out) -> None:
    """Count the work a call did, where the layer can waste work."""
    if name == "polyhedra.lp_solve":
        counts["polyhedra.lp_solve.infeasible"] += out.status == "infeasible"
    elif name == "polyhedra.vertex_enumeration":
        m, n = args[0].A.shape
        counts["polyhedra.vertex_enumeration.bases"] += math.comb(m, n)
        counts["polyhedra.vertex_enumeration.vertices"] += out.vertices.shape[0]
    elif name == "polyhedra.conv_hull":
        pts = np.atleast_2d(np.asarray(args[0] if args else kwargs["points"], dtype=float))
        counts["polyhedra.conv_hull.points"] += pts.shape[0] if pts.size else 0
        counts["polyhedra.conv_hull.kept"] += out.vertices.shape[0]
    elif name == "stationarity.lspar_d_stationarity_check":
        counts["stationarity.lspar_d_stationarity_check.n_selections"] += out.n_selections
    elif name == "solvers.mm_lspar":
        trace = out[0]
        counts["solvers.mm_lspar.accepted_steps"] += trace.steps.size
        counts["solvers.mm_lspar.max_iter_exits"] += trace.termination == "MAX_ITER"


OBSERVED = {
    "polyhedra.lp_solve",
    "polyhedra.vertex_enumeration",
    "polyhedra.conv_hull",
    "stationarity.lspar_d_stationarity_check",
    "solvers.mm_lspar",
}


def _span(tracer: Tracer, name: str, fn):
    nid = tracer.intern(name)
    observed = name in OBSERVED
    product = FACTORIES.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        i = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if observed:
            _observe(name, tracer.counts, args, kwargs, out)
        if product == ("fn",):
            out = _span(tracer, name + ".fn", out)
        elif product is not None:
            out = type(out)(**{f: _span(tracer, f"{name}.{f}", getattr(out, f)) for f in product})
        return out

    wrapper.__wrapped_by_perfbench__ = True
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer module.

    Generator functions are left alone: a span around one would time only
    the creation of the generator.
    """
    import importlib

    mods = {m: importlib.import_module(f"nonsmooth.{m}") for m in LAYERS}
    wrapped = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (
                attr.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ != mod.__name__
                or inspect.isgeneratorfunction(obj)
                or getattr(obj, "__wrapped_by_perfbench__", False)
            ):
                continue
            wrapped[id(obj)] = (obj, _span(tracer, f"{short}.{attr}", obj))
    for modname, mod in list(sys.modules.items()):
        if modname != "nonsmooth" and not modname.startswith("nonsmooth."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])


def aggregate(parts: list) -> tuple:
    """Per-name {calls, self_s, total_s} and summed counters over saved runs.

    ``parts`` holds ``(names, arrays, counts)`` triples.  Self time is a
    span's duration minus the durations of its direct children; total time
    sums only the outermost span of each name, so recursion is not counted
    twice.  Also returns, per name, the number of direct children of each
    other name (used to count MM outer iterations).
    """
    stats: dict = {}
    counts: Counter = Counter()
    child_calls: Counter = Counter()
    for names, a, c in parts:
        counts.update(c)
        if a["start"].size == 0:
            continue
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child
        nid = a["name_id"]
        k = len(names)
        calls = np.bincount(nid, minlength=k)
        selfs = np.bincount(nid, weights=self_t, minlength=k)
        totals = np.bincount(nid, weights=np.where(a["nested"] == 0, dur, 0.0), minlength=k)
        for j, name in enumerate(names):
            s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            s["calls"] += int(calls[j])
            s["self_s"] += float(selfs[j])
            s["total_s"] += float(totals[j])
        pidx = a["parent"][has_parent]
        pairs = zip(nid[pidx].tolist(), nid[has_parent].tolist())
        for (pj, cj), n in Counter(pairs).items():
            child_calls[(names[pj], names[cj])] += n
    return stats, counts, child_calls
