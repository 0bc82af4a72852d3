"""Input generators for the benchmark, driven by its own Philox streams.

These are copies, not imports, of the test suite's random piecewise-affine
generator and of the gallery's expressions, so that later edits to test
helpers or to the gallery cannot silently change a workload.

Random PA trees are built around a dyadic anchor so that branch ties hold
exactly in double precision: leaf coefficients are small integers, anchor
coordinates are quarters, and leaf values at the anchor come from a small
dyadic pool with deliberate collisions.
"""

from __future__ import annotations

import math

import numpy as np

from nonsmooth.expr import Abs, Affine, Builtin1D, Const, Max, Min, Scale, Sq, Sum, Var

VALUE_POOL = (-1.0, -0.5, 0.0, 0.0, 0.5, 1.0)  # collisions make kinks likely


def random_pa_instance(rng: np.random.Generator, dim: int, max_pieces: int = 6):
    """(expression, anchor point): a random PA tree kinked at the anchor."""
    x_star = rng.integers(-8, 9, size=dim) / 4.0
    n_leaves = int(rng.integers(2, max_pieces + 1))
    leaves = []
    for _ in range(n_leaves):
        a = rng.integers(-3, 4, size=dim).astype(float)
        if not a.any():
            a[int(rng.integers(dim))] = 1.0
        v = float(rng.choice(VALUE_POOL))
        b = v - float(a @ x_star)  # dyadic arithmetic: exact in doubles
        leaves.append(Affine(tuple(a), b))
    nodes: list = leaves
    while len(nodes) > 1:
        op = rng.integers(5)
        if op in (0, 1) and len(nodes) >= 2:  # max / min of 2-3 nodes
            k = min(len(nodes), int(rng.integers(2, 4)))
            picks = [nodes.pop() for _ in range(k)]
            nodes.append(Max(tuple(picks)) if op == 0 else Min(tuple(picks)))
        elif op == 2:
            nodes.append(Abs(nodes.pop()))
        elif op == 3:
            c = float(rng.choice((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)))
            nodes.append(Scale(c, nodes.pop()))
        else:
            if len(nodes) >= 2:
                a, b = nodes.pop(), nodes.pop()
                nodes.append(Sum((a, b)))
            else:
                nodes.append(Abs(nodes.pop()))
        rng.shuffle(nodes)
    return nodes[0], x_star


def leaves_distinct(e) -> bool:
    """No two Affine leaves of the tree are the same affine function."""
    leaves, todo = [], [e]
    while todo:
        node = todo.pop()
        if type(node).__name__ == "Affine":
            leaves.append((node.a, node.b))
        todo.extend(node.children())
    return len(set(leaves)) == len(leaves)


def random_max_min_at(rng: np.random.Generator, x_star: np.ndarray, max_pieces: int):
    """max or min of 2..max_pieces random affine pieces, kinked at a dyadic anchor."""
    leaves = []
    for _ in range(int(rng.integers(2, max_pieces + 1))):
        a = rng.integers(-3, 4, size=x_star.size).astype(float)
        if not a.any():
            a[0] = 1.0
        leaves.append(Affine(tuple(a), float(rng.choice(VALUE_POOL)) - float(a @ x_star)))
    op = Max if rng.integers(2) else Min
    return op(tuple(leaves))


def random_plq_1d(rng: np.random.Generator):
    """(expression, anchor): a 1-D PLQ tree, squares of PA pieces kinked at the anchor."""
    pa, x_star = random_pa_instance(rng, 1, max_pieces=4)
    inner = random_max_min_at(rng, x_star, max_pieces=3)
    c = float(rng.choice((0.5, 1.0, 2.0)))
    return Sum((pa, Scale(c, Sq(inner)))), x_star


# --- gallery expressions, as defined in the worked-example gallery ----------


def _vmax(*t):
    return Max(tuple(t))


def _vmin(*t):
    return Min(tuple(t))


def neg_abs():
    return Scale(-1.0, Abs(Var(0)))


def abs_x():
    return Abs(Var(0))


def f1_expr():
    return _vmax(Scale(-1.0, Abs(Var(0))), Affine((1.0,), -1.0))


def f2_expr():
    return _vmax(Affine((-1.0,), -1.0), _vmin(Affine((-1.0,), 0.0), Const(0.0)))


def sum_rule_exprs():
    p1 = _vmax(Var(0), Const(0.0))
    p2 = _vmin(Var(0), Const(0.0))
    return p1, p2, Sum((p1, p2))


def fig2_expr():
    return Sum((Abs(Var(0)), Scale(2.0, Abs(Var(1)))))


def relu_loss_expr():
    return Scale(0.5, Sq(Sum((_vmax(Var(0), Const(0.0)), Const(-1.0)))))


def lspar_model_expr():
    return _vmax(
        Affine((1.0, 1.0), 0.0),
        Affine((1.0, -1.0), 0.0),
        Affine((-2.0, 1.0), 0.0),
        Affine((-2.0, -1.0), 0.0),
    )


def xsinlog_expr():
    return Builtin1D("xsinlog", Var(0))


def xsqsin_expr():
    return Builtin1D("xsqsin", Var(0))


def gallery_kinks() -> list:
    """(name, expression, point) for the gallery's PA/PLQ expressions at their kinks."""
    p1, p2, s = sum_rule_exprs()
    return [
        ("neg_abs@0", neg_abs(), [0.0]),
        ("abs@0", abs_x(), [0.0]),
        ("f1@0", f1_expr(), [0.0]),
        ("f1@0.5", f1_expr(), [0.5]),
        ("f2@0", f2_expr(), [0.0]),
        ("f2@-1", f2_expr(), [-1.0]),
        ("relu_part@0", p1, [0.0]),
        ("min_part@0", p2, [0.0]),
        ("sum_rule@0", s, [0.0]),
        ("fig2@(1,0)", fig2_expr(), [1.0, 0.0]),
        ("fig2@(0,0)", fig2_expr(), [0.0, 0.0]),
        ("relu_loss@0", relu_loss_expr(), [0.0]),
        ("lspar_model@(0,0)", lspar_model_expr(), [0.0, 0.0]),
    ]


def stream(seed: int, *ids: int) -> np.random.Generator:
    """The benchmark's own random stream for ``(seed, *ids)``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *ids])))


# --- the benchmark's own evaluator and printer, used to check outputs -------


def value(e, x) -> float:
    """f(x) by a walker of the benchmark's own (PA/PLQ trees only)."""
    kind = type(e).__name__
    if kind == "Const":
        return e.c
    if kind == "Var":
        return float(x[e.i])
    if kind == "Affine":
        return float(sum(a * xi for a, xi in zip(e.a, x)) + e.b)
    if kind == "Sum":
        return float(sum(value(t, x) for t in e.terms))
    if kind == "Scale":
        return e.c * value(e.child, x)
    if kind == "Max":
        return max(value(t, x) for t in e.terms)
    if kind == "Min":
        return min(value(t, x) for t in e.terms)
    if kind == "Abs":
        return abs(value(e.child, x))
    if kind == "Sq":
        return value(e.child, x) ** 2
    raise TypeError(f"no benchmark evaluator for {kind}")


def to_sexp(e) -> str:
    """The CLI's s-expression text for a PA/PLQ tree."""
    kind = type(e).__name__
    if kind == "Const":
        return f"(const {e.c!r})"
    if kind == "Var":
        return f"(var {e.i})"
    if kind == "Affine":
        return f"(affine ({' '.join(repr(a) for a in e.a)}) {e.b!r})"
    if kind == "Sum":
        return "(sum " + " ".join(to_sexp(t) for t in e.terms) + ")"
    if kind == "Scale":
        return f"(scale {e.c!r} {to_sexp(e.child)})"
    if kind in ("Max", "Min", "Abs", "Sq"):
        kids = e.terms if kind in ("Max", "Min") else (e.child,)
        return f"({kind.lower()} " + " ".join(to_sexp(t) for t in kids) + ")"
    raise TypeError(f"no s-expression for {kind}")


def xsinlog_slope(t: float) -> float:
    """Derivative of t sin(log(1/t)) (t > 0; the function is 0 for t <= 0)."""
    return math.sin(math.log(1.0 / t)) - math.cos(math.log(1.0 / t)) if t > 0 else 0.0


def xsqsin_slope(t: float) -> float:
    """Derivative of t + t^2 sin(1/t) (t > 0; the function is t for t <= 0)."""
    return 1.0 + 2.0 * t * math.sin(1.0 / t) - math.cos(1.0 / t) if t > 0 else 1.0
