"""Expression trees for piecewise-defined functions.

The DSL covers four nested fragments:

* ``PA`` -- piecewise affine: ``Const``/``Var``/``Affine`` closed under
  ``Sum``/``Scale``/``Max``/``Min``/``Abs``;
* ``PLQ`` -- piecewise linear-quadratic: PA plus ``Sq`` applied to PA
  subtrees, closed under ``Sum``/``Scale``;
* ``SMOOTH1D`` -- one-dimensional trees containing ``Builtin1D`` leaves from
  a registry of piecewise-smooth scalar functions;
* ``GENERAL`` -- everything else.

Exact oracles accept PA/PLQ (and 1-D trees whose builtins expose one-sided
derivatives); numeric sampling oracles accept anything evaluable.
Expressions are immutable after construction and all operations here are
pure, so trees can be shared freely across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Affine",
    "Sum",
    "Scale",
    "Max",
    "Min",
    "Abs",
    "Sq",
    "Builtin1D",
    "FragmentClass",
    "ActivePattern",
    "Builtin1DSpec",
    "BUILTINS",
    "register_builtin",
    "ExprError",
    "ExprSyntaxError",
    "DimensionMismatchError",
    "classify_fragment",
    "evaluate",
    "active_pattern",
    "parse_expr",
    "print_expr",
    "dim_required",
    "vsum",
    "vmax",
    "vmin",
]


class ExprError(Exception):
    """Base class for expression errors."""


class ExprSyntaxError(ExprError):
    """Parse failure, carrying 1-based line/column of the offending token."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class DimensionMismatchError(ExprError):
    """Point dimension incompatible with the expression."""


# ---------------------------------------------------------------------------
# Node types
# ---------------------------------------------------------------------------


class Expr:
    """Base class for all expression nodes."""

    __slots__ = ()

    def children(self) -> tuple["Expr", ...]:
        return ()

    def __call__(self, x) -> float:
        return evaluate(self, x)


@dataclass(frozen=True)
class Const(Expr):
    c: float

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise ExprError("Const requires a finite value")


@dataclass(frozen=True)
class Var(Expr):
    i: int

    def __post_init__(self):
        if self.i < 0:
            raise ExprError("Var index must be non-negative")


@dataclass(frozen=True)
class Affine(Expr):
    """a^T x + b with a dense coefficient vector."""

    a: tuple
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        if not all(math.isfinite(v) for v in self.a) or not math.isfinite(self.b):
            raise ExprError("Affine requires finite coefficients")
        if len(self.a) == 0:
            raise ExprError("Affine requires at least one coefficient")


@dataclass(frozen=True)
class Sum(Expr):
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if len(self.terms) < 1:
            raise ExprError("Sum requires at least one term")

    def children(self):
        return self.terms


@dataclass(frozen=True)
class Scale(Expr):
    c: float
    child: Expr

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise ExprError("Scale requires a finite factor")

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class Max(Expr):
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if len(self.terms) < 2:
            raise ExprError("Max requires at least two children")

    def children(self):
        return self.terms


@dataclass(frozen=True)
class Min(Expr):
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if len(self.terms) < 2:
            raise ExprError("Min requires at least two children")

    def children(self):
        return self.terms


@dataclass(frozen=True)
class Abs(Expr):
    child: Expr

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class Sq(Expr):
    child: Expr

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class Builtin1D(Expr):
    name: str
    child: Expr

    def __post_init__(self):
        if self.name not in BUILTINS:
            raise ExprError(f"unknown builtin {self.name!r}")

    def children(self):
        return (self.child,)


def vsum(*terms: Expr) -> Expr:
    return Sum(tuple(terms))


def vmax(*terms: Expr) -> Expr:
    return Max(tuple(terms))


def vmin(*terms: Expr) -> Expr:
    return Min(tuple(terms))


# ---------------------------------------------------------------------------
# Builtin registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Builtin1DSpec:
    """Registry entry for a 1-D piecewise-smooth scalar function.

    ``deriv`` returns the derivative where it exists and ``None`` elsewhere.
    ``one_sided(t, s)`` returns the one-sided directional derivative
    value ``lim_{u->0+} (f(t + s*u) - f(t)) / u`` for ``s`` in {+1, -1},
    or ``None`` when the limit does not exist.
    """

    name: str
    value: Callable[[float], float]
    deriv: Callable[[float], Optional[float]]
    one_sided: Callable[[float, int], Optional[float]]
    nondiff_points: tuple


def _xsinlog_value(t: float) -> float:
    return t * math.sin(math.log(1.0 / t)) if t > 0.0 else 0.0


def _xsinlog_deriv(t: float) -> Optional[float]:
    if t > 0.0:
        u = math.log(1.0 / t)
        return math.sin(u) - math.cos(u)
    if t < 0.0:
        return 0.0
    return None  # not even directionally differentiable at 0


def _xsinlog_one_sided(t: float, s: int) -> Optional[float]:
    if t == 0.0:
        # left side is constant 0; right-side quotient sin(log(1/u)) oscillates
        return 0.0 if s < 0 else None
    d = _xsinlog_deriv(t)
    return None if d is None else s * d


def _xsqsin_value(t: float) -> float:
    return t + t * t * math.sin(1.0 / t) if t > 0.0 else t


def _xsqsin_deriv(t: float) -> Optional[float]:
    if t > 0.0:
        return 1.0 + 2.0 * t * math.sin(1.0 / t) - math.cos(1.0 / t)
    # differentiable at 0 with slope 1 (the quadratic term is o(t))
    return 1.0


def _xsqsin_one_sided(t: float, s: int) -> Optional[float]:
    d = _xsqsin_deriv(t)
    return None if d is None else s * d if t != 0.0 else (1.0 if s > 0 else -1.0)


BUILTINS: dict = {}


def register_builtin(spec: Builtin1DSpec) -> None:
    BUILTINS[spec.name] = spec


register_builtin(
    Builtin1DSpec(
        name="xsinlog",
        value=_xsinlog_value,
        deriv=_xsinlog_deriv,
        one_sided=_xsinlog_one_sided,
        nondiff_points=(0.0,),
    )
)
register_builtin(
    Builtin1DSpec(
        name="xsqsin",
        value=_xsqsin_value,
        deriv=_xsqsin_deriv,
        one_sided=_xsqsin_one_sided,
        # differentiable everywhere, but the derivative is discontinuous at 0
        nondiff_points=(),
    )
)


# ---------------------------------------------------------------------------
# Traversal and the compiled tape
# ---------------------------------------------------------------------------

Path = tuple  # tuple of child indices from the root


class FragmentClass(Enum):
    PA = "PA"
    PLQ = "PLQ"
    SMOOTH1D = "SMOOTH1D"
    GENERAL = "GENERAL"


_ORDER = {FragmentClass.PA: 0, FragmentClass.PLQ: 1, FragmentClass.GENERAL: 2}

# Tape opcodes; the first four are the nodes a sweep's hook decides.
_MAX, _MIN, _ABS, _BUILTIN, _CONST, _VAR, _AFFINE, _SUM, _SCALE, _SQ = range(10)


@dataclass(frozen=True)
class _Tape:
    """One tree in post-order, compiled once and kept on its root node.

    Node k has opcode ``ops[k]``, payload ``args[k]`` (Const or Scale
    factor, Var index, Affine ``(a, b)`` with ``a`` read-only, builtin name,
    else None), child positions ``kids[k]`` and path ``paths[k]``; the root
    is last.  ``dim`` is :func:`dim_required`; ``affine_len`` is the common
    Affine length (None without Affine leaves, -1 when they differ).
    """

    ops: tuple
    args: tuple
    kids: tuple
    paths: tuple
    preorder: tuple
    fragment: FragmentClass
    dim: int
    affine_len: Optional[int]


def _compile(e: Expr) -> _Tape:
    """The tape of ``e``; the one place that dispatches on node type."""
    opcodes = {Const: _CONST, Var: _VAR, Affine: _AFFINE, Sum: _SUM, Scale: _SCALE,
               Max: _MAX, Min: _MIN, Abs: _ABS, Sq: _SQ, Builtin1D: _BUILTIN}
    PA, PLQ, GENERAL = FragmentClass.PA, FragmentClass.PLQ, FragmentClass.GENERAL
    ops, args, kids, paths, frags, pre = [], [], [], [], [], []

    def visit(node: Expr, path: Path) -> int:
        op = next((opcodes[c] for c in type(node).__mro__ if c in opcodes), None)
        if op is None:
            raise ExprError(f"unknown node {node!r}")
        slot = len(pre)
        pre.append(-1)
        ks = tuple(visit(c, path + (i,)) for i, c in enumerate(node.children()))
        arg = getattr(node, "name" if op == _BUILTIN else "i" if op == _VAR else "c", None)
        if op == _AFFINE:
            arg = (np.array(node.a, dtype=float), node.b)
            arg[0].flags.writeable = False
        sub = [frags[c] for c in ks]
        if op in (_SUM, _SCALE):
            frag = max(sub, key=_ORDER.get)
        elif op == _SQ:
            frag = PLQ if sub[0] is PA else GENERAL
        else:  # leaves are PA; Max/Min/Abs are PA over PA children
            frag = PA if op != _BUILTIN and all(f is PA for f in sub) else GENERAL
        pre[slot] = len(ops)
        for col, item in zip((ops, args, kids, paths, frags), (op, arg, ks, path, frag)):
            col.append(item)
        return len(ops) - 1

    visit(e, ())
    lens = {len(args[k][0]) for k, op in enumerate(ops) if op == _AFFINE}
    dim = max([args[k] + 1 for k, op in enumerate(ops) if op == _VAR] + list(lens), default=0)
    fragment = frags[-1]
    if _BUILTIN in ops:
        fragment = FragmentClass.SMOOTH1D if dim <= 1 else GENERAL
    affine_len = (lens.pop() if len(lens) == 1 else -1) if lens else None
    return _Tape(*map(tuple, (ops, args, kids, paths, pre)), fragment, dim, affine_len)


def _tape(e: Expr) -> _Tape:
    """The tape of ``e``, compiled on first use and kept on the node.

    The attribute is not a dataclass field, so ``==``, ``hash`` and ``repr``
    ignore it, and it is freed with the tree.  Threads that race here write
    equal tapes, so the write needs no lock.
    """
    try:
        return e._tape
    except AttributeError:
        tape = _compile(e)
        object.__setattr__(e, "_tape", tape)
        return tape


def _sweep(tape: _Tape, x: np.ndarray, d=None, grad: bool = False, hook=None) -> tuple:
    """One forward pass over ``tape`` at ``x``: the per-node lists (values,
    derivatives).

    A derivative is the tangent along ``d`` (a float), or with ``grad`` the
    gradient (an array; below the root it may be an Affine leaf's read-only
    coefficients); without either the list is None.  Max/Min/Abs/Builtin nodes
    take ``hook(k, op, values, derivatives)`` as their (value, derivative),
    reading their children ``kids[k]`` from the lists filled so far; without
    a hook, max/min/|v|/the builtin's value.
    """
    ops, args, kids = tape.ops, tape.args, tape.kids
    size = len(ops)
    V = [0.0] * size
    D = [0.0] * size if grad or d is not None else None
    xs = x.tolist()
    for k in range(size):
        op, arg, ks = ops[k], args[k], kids[k]
        if op <= _BUILTIN:
            if hook is not None:
                V[k], dk = hook(k, op, V, D)
                if D is not None:
                    D[k] = dk
            elif op == _MAX:
                V[k] = max([V[c] for c in ks])
            elif op == _MIN:
                V[k] = min([V[c] for c in ks])
            elif op == _ABS:
                V[k] = abs(V[ks[0]])
            else:
                V[k] = BUILTINS[arg].value(V[ks[0]])
        elif op == _AFFINE:
            a, b = arg
            V[k] = float(np.dot(a, x) + b)
            if D is not None:
                D[k] = a if grad else float(a @ d)
        elif op == _VAR:
            V[k] = xs[arg]
            if grad:
                D[k] = np.zeros(len(xs))
                D[k][arg] = 1.0
            elif D is not None:
                D[k] = float(d[arg])
        elif op == _CONST:
            V[k] = arg
            if D is not None:
                D[k] = np.zeros(len(xs)) if grad else 0.0
        elif op == _SUM:
            # sum() starts from 0, so a total of -0.0 reads 0.0
            V[k] = float(sum([V[c] for c in ks]))
            if D is not None:
                D[k] = sum([D[c] for c in ks])
        elif op == _SCALE:
            V[k] = arg * V[ks[0]]
            if D is not None:
                D[k] = arg * D[ks[0]]
        elif op == _SQ:
            v = V[ks[0]]
            V[k] = v * v
            if D is not None:
                D[k] = 2.0 * v * D[ks[0]]
    if grad and not D[-1].flags.writeable:
        D[-1] = D[-1].copy()  # the root's gradient is the caller's to keep
    return V, D


def _sweep_rows(tape: _Tape, X: np.ndarray, grad: bool = False):
    """One forward pass over ``tape`` at every row of ``X`` (S, n), checked
    by :func:`_check_rows`: the values (S,), or with ``grad`` the tuple
    (values, a.e. gradients (S, n), kink mask (S,)).

    Each row gets the bits :func:`_sweep` gives it: Max/Min keep the first
    maximal/minimal child as Python's ``max``/``min`` do, Sum adds from 0
    as ``sum`` does, an Affine leaf takes one ``dot`` per row (a stacked
    matmul, which rounds like ``np.dot``; ``X @ a`` does not), and builtins
    map their scalar ``value``/``deriv`` over the column.  A row is a kink
    when some node is not differentiable there: a Max/Min tie between
    children with different gradients, Abs of a zero with a non-zero
    gradient, or a builtin at one of its ``nondiff_points`` or where its
    ``deriv`` is None.  Gradients of kink rows are meaningless.
    """
    ops, args, kids = tape.ops, tape.args, tape.kids
    S, n = X.shape
    V = [None] * len(ops)
    G = [None] * len(ops) if grad else None
    kink = np.zeros(S, dtype=bool)
    for k, (op, arg, ks) in enumerate(zip(ops, args, kids)):
        if op == _AFFINE:
            a, b = arg
            V[k] = (X[:, None, :] @ a)[:, 0] + b
            if grad:
                G[k] = np.broadcast_to(a, (S, n))
        elif op == _VAR:
            V[k] = X[:, arg].copy()
            if grad:
                G[k] = np.broadcast_to(np.eye(1, n, arg)[0], (S, n))
        elif op == _CONST:
            V[k] = np.full(S, arg, dtype=float)
            if grad:
                G[k] = np.broadcast_to(0.0, (S, n))
        elif op == _SUM:
            V[k] = sum([V[c] for c in ks])
            if grad:
                G[k] = sum([G[c] for c in ks])
        elif op == _SCALE:
            V[k] = arg * V[ks[0]]
            if grad:
                G[k] = arg * G[ks[0]]
        elif op == _SQ:
            v = V[ks[0]]
            V[k] = v * v
            if grad:
                G[k] = (2.0 * v)[:, None] * G[ks[0]]
        elif op == _ABS:
            v = V[ks[0]]
            V[k] = np.abs(v)
            if grad:
                g = G[ks[0]]
                # |h| where h = 0 with a zero gradient is smooth, like a tie
                # of equal gradients below
                kink |= (v == 0.0) & g.any(axis=1)
                G[k] = np.where((v >= 0)[:, None], g, -g)
        elif op == _BUILTIN:
            spec = BUILTINS[arg]
            ts = V[ks[0]].tolist()
            V[k] = np.array([spec.value(t) for t in ts])
            if grad:
                dv = [None if t in spec.nondiff_points else spec.deriv(t) for t in ts]
                kink |= np.array([q is None for q in dv])
                dv = np.array([0.0 if q is None else q for q in dv])
                G[k] = dv[:, None] * G[ks[0]]
        else:  # _MAX, _MIN
            vals = [V[c] for c in ks]
            v = vals[0]
            for w in vals[1:]:  # a later child wins only when strictly better
                v = np.where((w > v) if op == _MAX else (w < v), w, v)
            V[k] = v
            if grad:
                tied = np.array([w == v for w in vals])
                first = tied.argmax(axis=0)
                rows = np.arange(S)
                Gs = np.array([G[c] for c in ks])
                g = Gs[first, rows]
                # tied children with equal gradients leave the max/min smooth
                tied[first, rows] = False
                kink |= (tied & (Gs != g).any(axis=2)).any(axis=0)
                G[k] = g
    if not grad:
        return V[-1]
    return V[-1], np.array(G[-1]), kink


def dim_required(e: Expr) -> int:
    """Smallest point dimension this expression can be evaluated at."""
    return _tape(e).dim


def _check_dim(t: _Tape, n: int) -> None:
    """Raise for the first leaf of ``t`` (pre-order) that dimension ``n``
    does not fit."""
    if t.dim > n or t.affine_len not in (None, n):
        for op, arg in ((t.ops[k], t.args[k]) for k in t.preorder):
            if op == _VAR and arg >= n:
                raise DimensionMismatchError(f"var {arg} out of range for dimension {n}")
            if op == _AFFINE and len(arg[0]) != n:
                raise DimensionMismatchError(
                    f"affine coefficient length {len(arg[0])} != dimension {n}"
                )


def _check_point(e: Expr, x) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if x.size == 0:
        raise DimensionMismatchError("empty point")
    if not all(map(math.isfinite, x.tolist())):
        raise DimensionMismatchError("point has non-finite entries")
    _check_dim(_tape(e), x.size)
    return x


def _check_rows(e: Expr, X) -> np.ndarray:
    """The points ``X`` (S, n) as a C-contiguous float array, checked as
    :func:`_check_point` checks one point."""
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] == 0:
        raise DimensionMismatchError(f"points must be the rows of an (S, n) array, got shape {X.shape}")
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise DimensionMismatchError(f"point {bad[0]} has non-finite entries")
    _check_dim(_tape(e), X.shape[1])
    return X


def evaluate(e: Expr, x) -> float:
    """Evaluate ``e`` at point ``x`` (any 1-D sequence)."""
    x = _check_point(e, x)
    return _sweep(_tape(e), x)[0][-1]


def classify_fragment(e: Expr) -> FragmentClass:
    """Tightest fragment containing ``e``; deterministic and monotone."""
    return _tape(e).fragment


# ---------------------------------------------------------------------------
# Active patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ActivePattern:
    """Which branches are active at a point, per Max/Min/Abs node path.

    ``branch_active`` maps the path of each Max/Min node to the tuple of
    0-based child indices whose value lies within ``tol`` of the node value.
    ``abs_sign`` maps each Abs node path to '+', '-', or '0' (child within
    ``tol`` of zero).
    """

    branch_active: dict = field(default_factory=dict)
    abs_sign: dict = field(default_factory=dict)
    tol: float = 0.0

    @property
    def is_smooth_point(self) -> bool:
        """True when all active sets are singletons and no Abs child is 0."""
        return all(len(v) == 1 for v in self.branch_active.values()) and all(
            s != "0" for s in self.abs_sign.values()
        )


def active_pattern(e: Expr, x, tol: float = 0.0) -> ActivePattern:
    """Activity record of every Max/Min/Abs node of ``e`` at ``x``.

    Requires a PA or PLQ tree; ``tol`` is an absolute activity tolerance
    (0 gives the exact pattern).
    """
    tape = _tape(e)
    if tape.fragment not in (FragmentClass.PA, FragmentClass.PLQ):
        raise ExprError(
            f"active_pattern requires a PA/PLQ tree, got {tape.fragment.value}"
        )
    if tol < 0:
        raise ExprError("tol must be >= 0")
    x = _check_point(e, x)
    branch: dict = {}
    signs: dict = {}

    def record(k, op, V, _):
        path = tape.paths[k]
        vals = [V[c] for c in tape.kids[k]]
        if op == _ABS:
            v = vals[0]
            signs[path] = "0" if abs(v) <= tol else ("+" if v > 0 else "-")
            return abs(v), None
        if op == _MAX:
            v = max(vals)
            branch[path] = tuple(i for i, w in enumerate(vals) if w >= v - tol)
        else:
            v = min(vals)
            branch[path] = tuple(i for i, w in enumerate(vals) if w <= v + tol)
        return v, None

    _sweep(tape, x, hook=record)
    return ActivePattern(branch_active=branch, abs_sign=signs, tol=tol)


# ---------------------------------------------------------------------------
# S-expression parser / printer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")
_NUM_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _tokenize(text: str):
    tokens = []
    for lineno, line in enumerate(text.splitlines() or [""], start=1):
        body = line.split(";", 1)[0]  # ';' starts a comment
        for m in _TOKEN_RE.finditer(body):
            tokens.append((m.group(0), lineno, m.start() + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def _err(self, msg: str, tok=None):
        if tok is None:
            tok = self.tokens[self.pos - 1] if self.pos else ("", 1, 1)
        raise ExprSyntaxError(msg, tok[1], tok[2])

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else ("", 1, 1)
            raise ExprSyntaxError("unexpected end of input", last[1], last[2])
        self.pos += 1
        return tok

    def number(self) -> float:
        tok = self.next()
        if not _NUM_RE.match(tok[0]):
            self._err(f"expected a number, got {tok[0]!r}", tok)
        return float(tok[0])

    def integer(self) -> int:
        tok = self.next()
        if not tok[0].lstrip("+-").isdigit():
            self._err(f"expected an integer, got {tok[0]!r}", tok)
        return int(tok[0])

    def expect(self, lit: str):
        tok = self.next()
        if tok[0] != lit:
            self._err(f"expected {lit!r}, got {tok[0]!r}", tok)

    def expr(self) -> Expr:
        tok = self.next()
        if tok[0] != "(":
            self._err(f"expected '(', got {tok[0]!r}", tok)
        head = self.next()
        name = head[0]
        if name == "const":
            node: Expr = Const(self.number())
        elif name == "var":
            node = Var(self.integer())
        elif name == "affine":
            self.expect("(")
            coeffs = []
            while self.peek() and self.peek()[0] != ")":
                coeffs.append(self.number())
            self.expect(")")
            if not coeffs:
                self._err("affine requires at least one coefficient", head)
            node = Affine(tuple(coeffs), self.number())
        elif name in ("sum", "max", "min"):
            kids = []
            while self.peek() and self.peek()[0] == "(":
                kids.append(self.expr())
            minimum = 1 if name == "sum" else 2
            if len(kids) < minimum:
                self._err(f"{name} requires at least {minimum} child expression(s)", head)
            node = {"sum": Sum, "max": Max, "min": Min}[name](tuple(kids))
        elif name == "scale":
            node = Scale(self.number(), self.expr())
        elif name == "abs":
            node = Abs(self.expr())
        elif name == "sq":
            node = Sq(self.expr())
        elif name == "builtin":
            btok = self.next()
            if btok[0] not in BUILTINS:
                self._err(f"unknown builtin {btok[0]!r}", btok)
            node = Builtin1D(btok[0], self.expr())
        else:
            self._err(f"unknown form {name!r}", head)
        self.expect(")")
        return node


def parse_expr(text: str) -> Expr:
    """Parse the S-expression grammar::

        expr := (const R) | (var N) | (affine (R+) R) | (sum expr+)
              | (scale R expr) | (max expr expr+) | (min expr expr+)
              | (abs expr) | (sq expr) | (builtin NAME expr)

    Raises :class:`ExprSyntaxError` with line/column on malformed input.
    """
    p = _Parser(text)
    node = p.expr()
    tok = p.peek()
    if tok is not None:
        raise ExprSyntaxError(f"trailing input {tok[0]!r}", tok[1], tok[2])
    return node


def _fmt(v: float) -> str:
    v = float(v)  # a numpy float's repr is np.float64(...), which the parser refuses
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def print_expr(e: Expr) -> str:
    """Canonical S-expression text; ``parse_expr(print_expr(e)) == e``."""
    if isinstance(e, Const):
        return f"(const {_fmt(e.c)})"
    if isinstance(e, Var):
        return f"(var {e.i})"
    if isinstance(e, Affine):
        return f"(affine ({' '.join(_fmt(v) for v in e.a)}) {_fmt(e.b)})"
    if isinstance(e, Sum):
        return f"(sum {' '.join(print_expr(t) for t in e.terms)})"
    if isinstance(e, Scale):
        return f"(scale {_fmt(e.c)} {print_expr(e.child)})"
    if isinstance(e, Max):
        return f"(max {' '.join(print_expr(t) for t in e.terms)})"
    if isinstance(e, Min):
        return f"(min {' '.join(print_expr(t) for t in e.terms)})"
    if isinstance(e, Abs):
        return f"(abs {print_expr(e.child)})"
    if isinstance(e, Sq):
        return f"(sq {print_expr(e.child)})"
    if isinstance(e, Builtin1D):
        return f"(builtin {e.name} {print_expr(e.child)})"
    raise ExprError(f"unknown node {e!r}")
