"""Exact subdifferentials for piecewise-affine / linear-quadratic expressions.

The exact engine rests on one construction: the conic cells of the
positively homogeneous PA function d -> f'(x, d).  They are read off the
tape of f itself under the activity pattern at ``x``: a *selection* fixes
one tied branch at every live Max/Min node and a sign at every live Abs
node at a zero, and one gradient sweep linearizes it into one piece g.d,
valid on the cone cut out by the branch-dominance inequalities.  A cell is
*essential* when that cone has interior, which the sum of its generators
shows; the gradients g of the essential cells are the gradients of the
pieces of f essentially active at ``x``.

From that one primitive we obtain, exactly:

* ``bouligand``  -- the gradients of the essential cells of d -> f'(x, d),
* ``clarke``     -- its convex hull,
* ``dir_deriv``  -- one-sided directional derivatives from one forward sweep
  over the tree's tape (max over active children, signed Abs, 2 e e' for
  squares),
* ``clarke_dir_deriv`` -- the support function of the Clarke set,
* ``frechet``    -- the linear minorants of d -> f'(x, d), via the conic
  cells of the derivative function,
* ``limiting``   -- the union of Frechet sets over all activity patterns
  realizable arbitrarily close to ``x``.

The exact calls at one point share what they derive there: one slot holds
the record of the last (tree, point) analysed (:func:`_point`), and each
part of it is computed once, for the first call that needs it.

The convex-analysis catalog (norms, max of smooth functions, eigenvalue,
scaled sums, affine precomposition, normal cones, weak convexity shifts)
lives at the bottom of the module.

Ties, faces and memberships are decided against the constants of
:mod:`nonsmooth.tolerances`; the only tolerance a caller sets here is the
``tol`` of :meth:`SubdiffSet.contains`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple, Optional, Union

import numpy as np

from .expr import (
    _ABS,
    _BUILTIN,
    _MAX,
    _MIN,
    Abs,
    Affine,
    BUILTINS,
    Const,
    DimensionMismatchError,
    Expr,
    FragmentClass,
    Max,
    Min,
    Scale,
    Sq,
    Sum,
    Var,
    _check_point,
    _sweep,
    _tape,
    classify_fragment,
)
from .polyhedra import (
    MAX_POLYTOPE_DIM,
    Ball,
    Box,
    Cone,
    DimensionCapError,
    HPolyhedron,
    SetUnion,
    VPolytope,
    _canon_vertices,
    _dedupe_points,
    cone_from_rays,
    cone_rays_from_halfspaces,
    contains,
    conv_hull,
    minkowski_sum,
    set_to_json,
    support_value,
    vertex_enumeration,
)
from .tolerances import (
    ACTIVE_TOL,
    CELL_KEY_DECIMALS,
    COMPONENT_KEY_DECIMALS,
    EIG_MEMBER_TOL,
    EIG_TIE_RTOL,
    ESSENTIAL_MARGIN,
    MEMBERSHIP_TOL,
    SLOPE_ORDER_TOL,
    SMOOTH_TIE_RTOL,
    SYMMETRY_RTOL,
    TANGENT_TIE_RTOL,
    VACUOUS_ROW_TOL,
    rel_scale,
)

__all__ = [
    "SubdiffError",
    "UnsupportedFragmentError",
    "NotDirectionallyDifferentiableError",
    "EnumerationLimitError",
    "InfeasiblePointError",
    "SubdiffKind",
    "SubdiffSet",
    "DirDerivValue",
    "dir_deriv",
    "clarke_dir_deriv",
    "bouligand",
    "clarke",
    "frechet",
    "limiting",
    "L1Norm",
    "L2Norm",
    "MaxOfSmooth",
    "ScaledSum",
    "AffineCompose",
    "convex_catalog_subdiff",
    "EigmaxSubdiff",
    "eigmax_subdiff",
    "normal_cone",
    "weakly_convex_subdiff",
    "compose_affine",
]

SELECTION_CAP = 4096


class SubdiffError(Exception):
    pass


class UnsupportedFragmentError(SubdiffError):
    """Exact oracle asked for a fragment it does not support (USE_SAMPLED)."""


class NotDirectionallyDifferentiableError(SubdiffError):
    pass


class EnumerationLimitError(SubdiffError):
    pass


class InfeasiblePointError(SubdiffError):
    """INFEASIBLE_POINT: query point outside the constraint set."""


class SubdiffKind(Enum):
    FRECHET = "frechet"
    LIMITING = "limiting"
    CLARKE = "clarke"
    BOULIGAND = "bouligand"
    CONVEX = "convex"


@dataclass(frozen=True)
class SubdiffSet:
    """A subdifferential at a point, as a finite union of convex components.

    Frechet/Clarke/Convex sets have a single convex component (or none);
    Bouligand sets are finite point sets; limiting sets may be non-convex
    unions.  ``exactness`` is "exact" or "sampled"; sampled sets carry the
    tolerance they were resolved to.
    """

    kind: SubdiffKind
    set: SetUnion
    at: np.ndarray
    exactness: str = "exact"
    tolerance: Optional[float] = None
    halfspaces: Optional[HPolyhedron] = None
    notes: tuple = ()

    def __post_init__(self):
        # a copy: the caller may go on to change the array it passed
        object.__setattr__(self, "at", np.array(self.at, dtype=float).ravel())

    @property
    def is_empty(self) -> bool:
        return self.set.is_empty

    def contains(self, z, tol: float = MEMBERSHIP_TOL) -> bool:
        return contains(self.set, z, tol)

    def to_json(self) -> dict:
        d = {
            "kind": self.kind.value,
            "at": self.at.tolist(),
            "exactness": self.exactness,
            "set": set_to_json(self.set),
        }
        if self.tolerance is not None:
            d["tolerance"] = self.tolerance
        if self.notes:
            d["notes"] = list(self.notes)
        return d


@dataclass(frozen=True)
class DirDerivValue:
    """A directional-derivative value with provenance.

    ``kind`` is "ordinary" (f'(x, d)) or "clarke" (f°(x, d)); sampled values
    carry convergence diagnostics (see :mod:`nonsmooth.sampled`).
    """

    value: float
    kind: str
    exactness: str = "exact"
    converged: bool = True
    oscillation: float = 0.0
    amplitude: float = 0.0
    quotients: tuple = ()
    params: Optional[dict] = None

    @property
    def status(self) -> str:
        return "OK" if self.converged else "NON_CONVERGENT"


# ---------------------------------------------------------------------------
# Directional derivatives along one sweep
# ---------------------------------------------------------------------------

def _dir_value(e: Expr, x: np.ndarray, d: np.ndarray, pattern=None) -> tuple:
    """Per-node lists (values at x, one-sided derivatives along d), root
    last; exact ties.

    With a dict ``pattern``, also writes the activity at x + t d for
    infinitesimal t > 0 into it: each Max/Min node's tape position maps to
    its admissible child indices, each Abs node's to its admissible signs.
    """
    tape = _tape(e)

    def along(k, op, V, D):
        ks = tape.kids[k]
        if op == _BUILTIN:
            t0, g = V[ks[0]], D[ks[0]]
            spec = BUILTINS[tape.args[k]]
            val = spec.value(t0)
            if g == 0.0:
                return val, 0.0
            one = spec.one_sided(t0, 1 if g > 0 else -1)
            if one is None:
                raise NotDirectionallyDifferentiableError(
                    f"builtin {tape.args[k]!r} has no one-sided derivative at {t0}"
                )
            return val, abs(g) * one
        if op == _ABS:
            v, g = V[ks[0]], D[ks[0]]
            if v > 0.0:
                out, s = (v, g), (1.0,)
            elif v < 0.0:
                out, s = (-v, -g), (-1.0,)
            else:
                out = (0.0, abs(g))
                tol = TANGENT_TIE_RTOL * max(1.0, abs(g))
                s = (1.0, -1.0) if abs(g) <= tol else (1.0,) if g > 0 else (-1.0,)
            if pattern is not None:
                pattern[k] = s
            return out
        vals = [V[c] for c in ks]
        v = max(vals) if op == _MAX else min(vals)
        tied = [i for i, w in enumerate(vals) if w == v]
        ds = [D[ks[i]] for i in tied]
        g = max(ds) if op == _MAX else min(ds)
        if pattern is not None:
            tol = TANGENT_TIE_RTOL * max(1.0, max(abs(t) for t in ds))
            pattern[k] = tuple(
                i for i, t in zip(tied, ds) if (t >= g - tol if op == _MAX else t <= g + tol)
            )
        return v, g

    return _sweep(tape, x, d=d, hook=along)


def dir_deriv(e: Expr, x, d) -> DirDerivValue:
    """Exact one-sided directional derivative f'(x, d), where
    :data:`_SUPPORT` says.

    Raises :class:`UnsupportedFragmentError` elsewhere (USE_SAMPLED) and
    :class:`NotDirectionallyDifferentiableError` when the one-sided limit
    does not exist.
    """
    p = _supported(e, x, "dir_deriv")
    d = np.asarray(d, dtype=float).ravel()
    return DirDerivValue(value=float(_dir_value(e, p.x, d)[1][-1]), kind="ordinary")


def clarke_dir_deriv(e: Expr, x, d) -> DirDerivValue:
    """Exact Clarke directional derivative as the support of the Clarke set."""
    cs = clarke(e, x)
    val = support_value(cs.set, d)
    return DirDerivValue(value=float(val), kind="clarke")


# ---------------------------------------------------------------------------
# The conic cells of d -> f'(x, d)
# ---------------------------------------------------------------------------


def _pattern(e: Expr, x: np.ndarray, d: np.ndarray) -> tuple:
    """(values at x, live activity pattern at x + t d for infinitesimal
    t > 0), from one sweep.

    The pattern maps the tape position of every live Max/Min/Abs node, in
    tape order, to its admissible choices (see :func:`_dir_value`).  A node
    is live when the root reaches it through admissible children; the
    others do not shape d -> f'(x + t d, d).  First-order only: along a
    ray, values of a PA tree are exactly value + t * derivative for small t.
    """
    tape = _tape(e)
    pattern: dict = {}
    V = _dir_value(e, x, d, pattern)[0]
    live = [False] * len(tape.ops)
    live[-1] = True
    for k in reversed(range(len(tape.ops))):  # parents before children
        if live[k]:
            ks = tape.kids[k]
            if tape.ops[k] in (_MAX, _MIN):
                ks = [ks[i] for i in pattern[k]]
            for c in ks:
                live[c] = True
    return V, {k: ch for k, ch in pattern.items() if live[k]}


def _selections(e: Expr, x: np.ndarray, V: list, pattern: dict):
    """(branch-dominance rows, slope) of every selection of d -> f'(y, d),
    for any y with node values ``V`` realizing the live ``pattern``.

    A selection picks one admissible choice at every node of the pattern.
    One gradient sweep over the tape of ``e`` gives every node's slope
    under it; each Max/Min/Abs node takes its value from ``V``, so Sq
    factors 2 h(y) keep their bits, signed zeros included.  The rows a,
    meaning a.d >= 0, come in pre-order from the nodes with several
    choices, against the admissible siblings.
    """
    tape = _tape(e)
    kids = tape.kids
    slots = [k for k, ch in pattern.items() if len(ch) > 1]
    if math.prod(len(pattern[k]) for k in slots) > SELECTION_CAP:
        raise EnumerationLimitError(
            f"more than {SELECTION_CAP} local selections; perturb the point"
        )
    ranked = [k for k in tape.preorder if len(pattern.get(k, ())) > 1]
    sel = {k: ch[0] for k, ch in pattern.items()}

    def pick(k, op, _, D):
        p = sel.get(k, 0)  # a dead node's slope is never read
        return V[k], p * D[kids[k][0]] if op == _ABS else D[kids[k][p]]

    for combo in itertools.product(*(pattern[k] for k in slots)):
        sel.update(zip(slots, combo))
        A = _sweep(tape, x, grad=True, hook=pick)[1]
        rows = []
        for k in ranked:
            op, p, ks = tape.ops[k], sel[k], kids[k]
            if op == _ABS:
                rows.append(p * A[ks[0]])
                continue
            i = ks[p]
            rows += [A[i] - A[ks[j]] if op == _MAX else A[ks[j]] - A[i] for j in pattern[k] if j != p]
        yield rows, A[-1]


def _clean_rows(rows, n: int) -> np.ndarray:
    """The rows at unit length, vacuous ones dropped, as an (m, n) array."""
    norms = [float(np.linalg.norm(a)) for a in rows]
    out = [a / nrm for a, nrm in zip(rows, norms) if nrm > VACUOUS_ROW_TOL]
    return np.array(out).reshape(len(out), n)


def _cell_is_essential(R: np.ndarray, rays: np.ndarray) -> bool:
    """Does the cone {d : R d >= 0} with generators ``rays`` have interior?

    A cone with no rows is the whole space.  Otherwise the sum d of the
    generators lies in the cone's relative interior, which is the interior
    exactly when the cone has one; it counts as interior when
    min(R d) >= ESSENTIAL_MARGIN * |d|_inf.
    """
    if R.shape[0] == 0:
        return True
    d = rays.sum(axis=0)
    top = float(np.abs(d).max())
    return top > 0.0 and float((R @ d).min()) >= ESSENTIAL_MARGIN * top


class _Cell(NamedTuple):
    """A conic linearity cell {d : rows @ d >= 0} of a PA function, on which
    the function equals g.d; ``rays`` generate the cone."""

    g: np.ndarray
    rows: np.ndarray
    rays: np.ndarray


def _cells(e: Expr, x: np.ndarray, V: list, pattern: dict) -> list:
    """Essential conic cells of d -> f'(y, d) for any y with node values
    ``V`` realizing the live ``pattern``, each with its generators (+-I when
    it has no rows)."""
    n = x.size
    cells = []
    seen = set()
    for rows, g in _selections(e, x, V, pattern):
        R = _clean_rows(rows, n)
        key = (
            tuple(np.round(g, CELL_KEY_DECIMALS)),
            tuple(sorted(tuple(np.round(a, CELL_KEY_DECIMALS)) for a in R)),
        )
        if key in seen:
            continue
        seen.add(key)
        rays = cone_rays_from_halfspaces(R, n)
        if _cell_is_essential(R, rays):
            cells.append(_Cell(g, R, rays))
    return cells


# ---------------------------------------------------------------------------
# What the exact oracles derive at one point
# ---------------------------------------------------------------------------


class _Point:
    """What the exact oracles derive at one point ``x`` of one tree, each
    part computed on first use: the node values and live pattern at x, the
    cells of each live pattern, the Frechet set of each pattern's cells, the
    one-sided slopes (1-D), the Bouligand and Clarke sets, and
    :func:`_limiting`'s result.

    A pattern other than the one at x is keyed by the tuple of its items;
    None stands for the pattern at x.  Each part is filled by one
    assignment of a value that depends on (tape, x) alone, so threads that
    race on a part write equal values; a part whose computation raises stays
    unfilled.  The sets kept here are never handed out: callers get copies.
    """

    def __init__(self, e: Expr, tape, x: np.ndarray):
        self.e, self.tape, self.x, self.key = e, tape, x, x.tobytes()
        self._base = self._slopes = self._bouligand = self._clarke = self._limiting = None
        self._cells: dict = {}
        self._frechet: dict = {}

    def base(self) -> tuple:
        """(node values at x, the live pattern at x as a key)."""
        if self._base is None:
            V, at_x = _pattern(self.e, self.x, np.zeros(self.x.size))
            self._base = V, tuple(at_x.items())
        return self._base

    def cells(self, pattern: Optional[tuple] = None) -> list:
        cells = self._cells.get(pattern)
        if cells is None:
            V, at_x = self.base()
            live = dict(at_x if pattern is None else pattern)
            cells = self._cells[pattern] = _cells(self.e, self.x, V, live)
        return cells

    def slopes(self) -> tuple:
        """(left slope -f'(x, -1), right slope f'(x, 1)) at x in 1-D."""
        if self._slopes is None:
            right, back = (_dir_value(self.e, self.x, np.array([t]))[1][-1] for t in (1.0, -1.0))
            self._slopes = -back, right
        return self._slopes

    def bouligand(self) -> SubdiffSet:
        if self._bouligand is None:
            pts = _canon_vertices(_dedupe_points(np.array([c.g for c in self.cells()])))
            comps = tuple(VPolytope(np.array([g])) for g in pts)
            self._bouligand = SubdiffSet(kind=SubdiffKind.BOULIGAND, set=SetUnion(comps), at=self.x)
        return self._bouligand

    def clarke(self) -> SubdiffSet:
        if self._clarke is None:
            hull = conv_hull(np.vstack([c.vertices for c in self.bouligand().set.components]))
            self._clarke = SubdiffSet(kind=SubdiffKind.CLARKE, set=SetUnion((hull,)), at=self.x)
        return self._clarke

    def frechet(self, pattern: Optional[tuple] = None) -> SubdiffSet:
        """The Frechet set of the cells of ``pattern``; at x in 1-D, of the
        one-sided slopes."""
        fs = self._frechet.get(pattern)
        if fs is None:
            if self.x.size == 1:
                sl, sr = self.slopes()
                comps = () if sl > sr + SLOPE_ORDER_TOL else (conv_hull([[sl], [sr]]),)
                fs = SubdiffSet(kind=SubdiffKind.FRECHET, set=SetUnion(comps), at=self.x)
            else:
                fs = _frechet_from_cells(self.cells(pattern), self.x.size, self.x)
            self._frechet[pattern] = fs
        return fs

    def limiting(self) -> tuple:
        if self._limiting is None:
            self._limiting = _limiting(self)
        return self._limiting


_last: Optional[_Point] = None  # the last point analysed; see _point


def _point(e: Expr, x) -> _Point:
    """The record of the checked point ``x`` on ``e``.

    One slot holds the record of the last (tape, point) analysed: the
    consecutive exact calls at one point share it, and a call at any other
    tape or point bits replaces it by one assignment.
    """
    global _last
    x = _check_point(e, x)
    tape = _tape(e)
    p = _last
    if p is None or p.tape is not tape or p.key != x.tobytes():
        p = _last = _Point(e, tape, x.copy())
    return p


def _handed_out(ss: SubdiffSet) -> SubdiffSet:
    """A copy of a set a record keeps, sharing no array with it."""
    comps = tuple(VPolytope(c.vertices.copy()) for c in ss.set.components)
    H = ss.halfspaces
    if H is not None:
        H = HPolyhedron(H.A.copy(), H.b.copy())
    return replace(ss, set=SetUnion(comps), halfspaces=H)


# ---------------------------------------------------------------------------
# Which trees each exact oracle answers; Bouligand and Clarke subdifferentials
# ---------------------------------------------------------------------------

# The one home of each exact oracle's domain: (fragments at a 1-D point,
# fragments above it, dimension cap or None).  dir_deriv and the 1-D Frechet
# set need only one-sided derivatives along a sweep; the cells need PA/PLQ
# pieces; Frechet and limiting faces above 1-D need PA ones, and the 1-D
# limiting set needs isolated breakpoints.
_SUPPORT = {
    name: (tuple(map(FragmentClass, one.split())), tuple(map(FragmentClass, many.split())), cap)
    for name, one, many, cap in (
        ("dir_deriv", "PA PLQ SMOOTH1D GENERAL", "PA PLQ SMOOTH1D", None),
        ("bouligand", "PA PLQ", "PA PLQ", MAX_POLYTOPE_DIM),
        ("clarke", "PA PLQ", "PA PLQ", MAX_POLYTOPE_DIM),
        ("frechet", "PA PLQ SMOOTH1D GENERAL", "PA", 3),
        ("limiting", "PA PLQ", "PA", 3),
    )
}


def _refusal(e: Expr, n: int, name: str) -> Optional[Exception]:
    """The error the exact oracle ``name`` raises on ``e`` at an ``n``-D
    point, or None when :data:`_SUPPORT` says it answers there."""
    one, many, cap = _SUPPORT[name]
    frags = one if n == 1 else many
    if classify_fragment(e) not in frags:
        need = "/".join(f.value for f in frags) + (" tree" if one == many else f" tree in dimension {n}")
        return UnsupportedFragmentError(f"USE_SAMPLED: {name} needs a {need}")
    if cap is not None and n > cap:
        return DimensionCapError(f"dimension cap exceeded ({name} supports dim <= {cap})")
    return None


def _supported(e: Expr, x, name: str) -> _Point:
    """The record at x for the exact oracle ``name``; raises :func:`_refusal`'s error."""
    x = np.asarray(x, dtype=float).ravel()
    err = _refusal(e, x.size, name)
    if err is not None:
        raise err
    return _point(e, x)


def bouligand(e: Expr, x) -> SubdiffSet:
    """Exact Bouligand subdifferential at x, where :data:`_SUPPORT` says.

    Returns the gradients of the essential cells of d -> f'(x, d), which
    are the gradients of the pieces essentially active at x, one singleton
    component per gradient.
    """
    return _handed_out(_supported(e, x, "bouligand").bouligand())


def clarke(e: Expr, x) -> SubdiffSet:
    """Exact Clarke subdifferential: convex hull of the Bouligand set."""
    return _handed_out(_supported(e, x, "clarke").clarke())


# ---------------------------------------------------------------------------
# Frechet subdifferential via the conic cells of d -> f'(x, d)
# ---------------------------------------------------------------------------


def _grad_scale(cells: list) -> float:
    """s = 2^ceil(log2 max|g|) over the cell gradients, 1 when all vanish:
    a power of two, so dividing by it and multiplying back are exact."""
    top = float(np.abs(np.array([c.g for c in cells])).max())
    frac, exp = math.frexp(top)
    return math.ldexp(1.0, exp - (frac == 0.5)) if top > 0.0 else 1.0


def _frechet_from_cells(cells: list, n: int, at: np.ndarray) -> SubdiffSet:
    """{v : v.r <= g.r for every generator r of every cell}."""
    grads = np.array([c.g for c in cells])
    # coordinate bounds: the Frechet set sits inside conv of the cell gradients
    eye = np.eye(n)
    coords = np.stack([eye, -eye], axis=1).reshape(2 * n, n)
    bounds = np.stack([grads.max(axis=0), -grads.min(axis=0)], axis=1).ravel()
    A = np.vstack([c.rays for c in cells] + [coords])
    b = np.concatenate([c.rays @ c.g for c in cells] + [bounds])
    # a ray shared by adjacent cells repeats its row: keep the first copy
    first: dict = {}
    for i, row in enumerate(np.column_stack([A, b]).tolist()):
        first.setdefault(tuple(row), i)
    keep = list(first.values())
    H = HPolyhedron(A[keep], b[keep])
    # enumerate at unit scale, so that the enumeration's absolute slack does
    # not swallow a tiny set
    s = _grad_scale(cells)
    # H is bounded by its coordinate rows: it is empty iff it has no vertex
    V = vertex_enumeration(HPolyhedron(H.A, H.b / s))
    return SubdiffSet(
        kind=SubdiffKind.FRECHET,
        set=SetUnion(() if V.is_empty else (VPolytope(V.vertices * s),)),
        at=at,
        halfspaces=H,
    )


def frechet(e: Expr, x) -> SubdiffSet:
    """Exact Frechet subdifferential: linear minorants of d -> f'(x, d).

    In 1-D the set is [-f'(x,-1), f'(x,1)], empty when that interval is
    inverted by more than :data:`~nonsmooth.tolerances.SLOPE_ORDER_TOL`.
    Where it answers: :data:`_SUPPORT`.
    """
    return _handed_out(_supported(e, x, "frechet").frechet())


# ---------------------------------------------------------------------------
# Limiting subdifferential
# ---------------------------------------------------------------------------


def _face_directions(cells: list, n: int) -> list:
    """Relative-interior representatives of the faces of the given cells.

    For every seed subset J of fewer than n rows of a cell, the generators
    on the face {d in cell : rows[J] d = 0} sum to a point of its relative
    interior.  A zero sum means the face is a linear subspace; along it the
    pattern is the one at x, so it is skipped.
    """
    reps = []
    for _, R, rays in cells:
        on = np.abs(R @ rays.T) <= TANGENT_TIE_RTOL
        faces = set()
        for k in range(n):
            for J in itertools.combinations(range(R.shape[0]), k):
                mask = on[list(J)].all(axis=0)
                if mask.tobytes() not in faces:
                    faces.add(mask.tobytes())
                    d = rays[mask].sum(axis=0)
                    if np.abs(d).max() > TANGENT_TIE_RTOL:
                        reps.append(d)
    return reps


def limiting(e: Expr, x) -> SubdiffSet:
    """Exact limiting subdifferential (union of nearby Frechet sets).

    In 1-D the set is built from the two one-sided slope limits; in higher
    dimension we enumerate every activity pattern realizable arbitrarily
    close to x and union the pattern Frechet sets with the Frechet set at x
    itself.  Where it answers: :data:`_SUPPORT`.
    """
    return _handed_out(_supported(e, x, "limiting").limiting()[0])


def _limiting(p: _Point) -> tuple:
    """(:func:`limiting`, Frechet set at x) at the record's point."""
    x, n = p.x, p.x.size
    fs = p.frechet()
    if n == 1:  # the Frechet interval, or both one-sided slopes where it is empty
        comps = fs.set.components or tuple(VPolytope([[s]]) for s in p.slopes())
        return SubdiffSet(kind=SubdiffKind.LIMITING, set=SetUnion(comps), at=x), fs
    cells = p.cells()
    pieces: list = []  # (component, the halfspaces it was enumerated from)
    sigs = set()
    # components are compared at unit scale, as _frechet_from_cells
    # enumerates them, so that tiny sets are not merged by the tolerances
    s = _grad_scale(cells)

    def add(ss: SubdiffSet):
        for comp in ss.set.components:
            unit = np.round(comp.vertices / s, COMPONENT_KEY_DECIMALS)
            key = tuple(sorted(map(tuple, unit.tolist())))
            if key not in sigs:
                sigs.add(key)
                pieces.append((comp, ss.halfspaces))

    add(fs)
    # faces whose live pattern is one already handled add nothing new
    patterns = {p.base()[1]}
    for dvec in _face_directions(cells, n):
        pattern = tuple(_pattern(p.e, x, dvec)[1].items())
        if pattern not in patterns:
            patterns.add(pattern)
            add(p.frechet(pattern))
    # drop components swallowed by strictly larger components, testing the
    # vertices of one against the halfspaces of the other as contains()
    # tests an HPolyhedron
    def _subset(pa, pb) -> bool:
        V, H = pa[0].vertices / s, pb[1]
        scale = np.maximum(1.0, np.abs(V).max(axis=1))
        return bool(np.all(V @ H.A.T - H.b / s <= MEMBERSHIP_TOL * scale[:, None]))

    keep = []
    for i, ci in enumerate(pieces):
        swallowed = False
        for j, cj in enumerate(pieces):
            if i == j:
                continue
            if _subset(ci, cj) and (not _subset(cj, ci) or j < i):
                swallowed = True
                break
        if not swallowed:
            keep.append(ci[0])
    keep.sort(key=lambda c: tuple(map(tuple, c.vertices)))
    return SubdiffSet(kind=SubdiffKind.LIMITING, set=SetUnion(tuple(keep)), at=x), fs


# ---------------------------------------------------------------------------
# Convex-analysis catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class L1Norm:
    pass


@dataclass(frozen=True)
class L2Norm:
    pass


@dataclass(frozen=True)
class MaxOfSmooth:
    """max of finitely many smooth convex functions, given as (value, gradient)
    callable pairs."""

    funcs: tuple  # of (f, grad_f)


@dataclass(frozen=True)
class ScaledSum:
    alpha1: float
    item1: object
    alpha2: float
    item2: object


@dataclass(frozen=True)
class AffineCompose:
    """g(A0 x + b0) for a convex g (catalog item or convex PA expression)."""

    A0: np.ndarray
    b0: np.ndarray
    g: object

    def __post_init__(self):
        object.__setattr__(self, "A0", np.atleast_2d(np.asarray(self.A0, dtype=float)))
        object.__setattr__(self, "b0", np.asarray(self.b0, dtype=float).ravel())


CatalogItem = Union[L1Norm, L2Norm, MaxOfSmooth, ScaledSum, AffineCompose, Expr]


def _catalog_set(item: CatalogItem, x: np.ndarray) -> SetUnion:
    if isinstance(item, Expr):
        return clarke(item, x).set
    if isinstance(item, L1Norm):
        axes = []
        for xi in x:
            if xi > 0:
                axes.append([1.0])
            elif xi < 0:
                axes.append([-1.0])
            else:
                axes.append([-1.0, 1.0])
        verts = [list(v) for v in itertools.product(*axes)]
        return SetUnion((conv_hull(verts),))
    if isinstance(item, L2Norm):
        nrm = float(np.linalg.norm(x))
        if nrm > 0:
            return SetUnion((VPolytope([x / nrm]),))
        return SetUnion((Ball(np.zeros(x.size), 1.0),))
    if isinstance(item, MaxOfSmooth):
        vals = [f(x) for f, _ in item.funcs]
        top = max(vals)
        tol = SMOOTH_TIE_RTOL * max(1.0, abs(top))
        grads = [
            np.asarray(g(x), dtype=float).ravel()
            for (f, g), v in zip(item.funcs, vals)
            if v >= top - tol
        ]
        return SetUnion((conv_hull(np.array(grads)),))
    if isinstance(item, ScaledSum):
        if item.alpha1 <= 0 or item.alpha2 <= 0:
            raise SubdiffError("scaled sum rule needs positive weights")
        S1 = _scale_set(_catalog_set(item.item1, x), item.alpha1)
        S2 = _scale_set(_catalog_set(item.item2, x), item.alpha2)
        return _minkowski_sets(S1, S2)
    if isinstance(item, AffineCompose):
        u = item.A0 @ x + item.b0
        inner = _catalog_set(item.g, u)
        comps = []
        for c in inner.components:
            if isinstance(c, VPolytope):
                comps.append(conv_hull(c.vertices @ item.A0))
            elif isinstance(c, Ball) and item.A0.shape == (1, 1):
                a = float(item.A0[0, 0])
                comps.append(Ball(a * c.center, abs(a) * c.radius))
            else:
                raise SubdiffError("unsupported composition in affine chain rule")
        return SetUnion(tuple(comps))
    raise SubdiffError(f"unsupported catalog item {item!r}")


def _scale_set(S: SetUnion, alpha: float) -> SetUnion:
    comps = []
    for c in S.components:
        if isinstance(c, VPolytope):
            comps.append(VPolytope(alpha * c.vertices))
        elif isinstance(c, Ball):
            comps.append(Ball(alpha * c.center, alpha * c.radius))
        else:
            raise SubdiffError("cannot scale this component")
    return SetUnion(tuple(comps))


def _minkowski_sets(S1: SetUnion, S2: SetUnion) -> SetUnion:
    if len(S1.components) != 1 or len(S2.components) != 1:
        raise SubdiffError("sum rule needs convex operands")
    a, b = S1.components[0], S2.components[0]
    if isinstance(a, VPolytope) and isinstance(b, VPolytope):
        return SetUnion((minkowski_sum(a, b),))
    if isinstance(a, Ball) and isinstance(b, VPolytope) and b.vertices.shape[0] == 1:
        return SetUnion((Ball(a.center + b.vertices[0], a.radius),))
    if isinstance(b, Ball) and isinstance(a, VPolytope) and a.vertices.shape[0] == 1:
        return SetUnion((Ball(b.center + a.vertices[0], b.radius),))
    if isinstance(a, Ball) and isinstance(b, Ball):
        return SetUnion((Ball(a.center + b.center, a.radius + b.radius),))
    raise SubdiffError("unsupported composition in sum rule")


def convex_catalog_subdiff(item: CatalogItem, x) -> SubdiffSet:
    """Closed-form convex subdifferential for catalog items.

    ``item`` is one of L1Norm, L2Norm, MaxOfSmooth, ScaledSum, AffineCompose,
    or a convex PA expression (caller-asserted convexity; the Clarke set of a
    convex function is its subdifferential).  Sign is treated set-valued:
    the l1 subdifferential at a zero coordinate is the full interval [-1, 1].
    """
    x = np.asarray(x, dtype=float).ravel()
    return SubdiffSet(kind=SubdiffKind.CONVEX, set=_catalog_set(item, x), at=x)


# ---------------------------------------------------------------------------
# Largest-eigenvalue subdifferential
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigmaxSubdiff:
    """conv{u u^T : u a unit top eigenvector} = {U Z U^T : Z psd, tr Z = 1}.

    ``basis`` is an orthonormal basis of the top eigenspace.  Membership and
    extreme-point tests work in any eigenspace dimension, to
    :data:`~nonsmooth.tolerances.EIG_MEMBER_TOL`; explicit extreme points are
    materialized for eigenspace dimension <= 2 (16 of them, evenly spaced on
    the half circle of unit vectors, in dimension 2).
    """

    basis: np.ndarray
    eigenvalue: float

    @property
    def multiplicity(self) -> int:
        return self.basis.shape[1]

    def contains(self, S) -> bool:
        S = np.asarray(S, dtype=float)
        U = self.basis
        Z = U.T @ S @ U
        if np.linalg.norm(U @ Z @ U.T - S) > EIG_MEMBER_TOL:
            return False
        if abs(np.trace(Z) - 1.0) > EIG_MEMBER_TOL:
            return False
        w = np.linalg.eigvalsh((Z + Z.T) / 2.0)
        return bool(w.min() >= -EIG_MEMBER_TOL)

    def is_extreme_point(self, S) -> bool:
        if not self.contains(S):
            return False
        U = self.basis
        Z = U.T @ np.asarray(S, dtype=float) @ U
        w = np.sort(np.linalg.eigvalsh((Z + Z.T) / 2.0))[::-1]
        return bool(w[0] >= 1.0 - EIG_MEMBER_TOL and (w.size == 1 or abs(w[1]) <= EIG_MEMBER_TOL))

    def vertices(self) -> list:
        if self.multiplicity == 1:
            u = self.basis[:, 0]
            return [np.outer(u, u)]
        if self.multiplicity == 2:
            u1, u2 = self.basis[:, 0], self.basis[:, 1]
            out = []
            for theta in np.linspace(0.0, math.pi, 16, endpoint=False):
                u = math.cos(theta) * u1 + math.sin(theta) * u2
                out.append(np.outer(u, u))
            return out
        raise SubdiffError("explicit vertices need eigenspace dimension <= 2")


def eigmax_subdiff(M) -> EigmaxSubdiff:
    """Subdifferential of the largest-eigenvalue function at a symmetric M.

    The top eigenspace is spanned by the eigenvectors whose eigenvalues lie
    within :data:`~nonsmooth.tolerances.EIG_TIE_RTOL` (relative) of the
    largest.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] != M.shape[1] or M.shape[0] > 4:
        raise SubdiffError("eigmax_subdiff needs a symmetric matrix, n <= 4")
    if np.linalg.norm(M - M.T) > SYMMETRY_RTOL * rel_scale(M):
        raise SubdiffError("matrix is not symmetric")
    w, V = np.linalg.eigh(M)
    lam = float(w[-1])
    keep = w >= lam - EIG_TIE_RTOL * max(1.0, abs(lam))
    return EigmaxSubdiff(basis=V[:, keep], eigenvalue=lam)


# ---------------------------------------------------------------------------
# Normal cones and weak convexity
# ---------------------------------------------------------------------------


def normal_cone(C, x) -> Cone:
    """Normal cone of a convex set at x in C (polyhedra, boxes, l2 balls),
    as its generators (see :func:`~nonsmooth.polyhedra.cone_from_rays`).

    Polyhedral sets: the normals of the active constraints.  Balls: the ray
    through x - center on the boundary, {0} inside, and +-e_i at the center
    of a one-point ball.  Raises :class:`InfeasiblePointError` when x is
    outside C, and :class:`~nonsmooth.expr.DimensionMismatchError` when x is
    not ``C.dim`` finite numbers.  Feasibility and activity are decided to
    :data:`~nonsmooth.tolerances.ACTIVE_TOL`, relative to the largest
    |coordinate| of x for halfspaces.
    """
    x = np.asarray(x, dtype=float).ravel()
    if isinstance(C, Box):
        C = C.to_hpolyhedron()
    if not isinstance(C, (HPolyhedron, Ball)):
        raise SubdiffError(f"no normal cone rule for {type(C).__name__}")
    if x.size != C.dim or not np.isfinite(x).all():
        raise DimensionMismatchError(f"normal_cone needs {C.dim} finite coordinates, got {x.tolist()}")
    n = x.size
    if isinstance(C, HPolyhedron):
        scale = rel_scale(x)
        slack = C.b - C.A @ x
        if np.any(slack < -ACTIVE_TOL * scale):
            raise InfeasiblePointError("INFEASIBLE_POINT: x is not in C")
        return cone_from_rays(C.A[slack <= ACTIVE_TOL * scale], dim=n)
    r = float(np.linalg.norm(x - C.center))
    if r > C.radius + ACTIVE_TOL:
        raise InfeasiblePointError("INFEASIBLE_POINT: x is not in C")
    if r < C.radius - ACTIVE_TOL:
        return Cone(np.zeros((0, n)))
    if r == 0.0:  # the center of a one-point ball: every direction is normal
        return cone_from_rays(np.vstack([np.eye(n), -np.eye(n)]))
    return cone_from_rays([(x - C.center) / r])


def _shift_set(S: SetUnion, v: np.ndarray) -> SetUnion:
    comps = []
    for c in S.components:
        if isinstance(c, VPolytope):
            comps.append(VPolytope(c.vertices + v))
        elif isinstance(c, Ball):
            comps.append(Ball(c.center + v, c.radius))
        elif isinstance(c, HPolyhedron):
            comps.append(HPolyhedron(c.A, c.b + c.A @ v))
        else:
            raise SubdiffError("cannot translate this component")
    return SetUnion(tuple(comps))


def weakly_convex_subdiff(h_subdiff: Union[SubdiffSet, SetUnion], rho: float, x) -> SubdiffSet:
    """Clarke subdifferential of a rho-weakly convex f from its convex shift.

    With h = f + (rho/2)||.||^2 convex, the Clarke set of f at x is the
    translate of the convex subdifferential of h by -rho x.
    """
    if rho < 0:
        raise SubdiffError("weak-convexity modulus must be >= 0")
    x = np.asarray(x, dtype=float).ravel()
    S = h_subdiff.set if isinstance(h_subdiff, SubdiffSet) else h_subdiff
    return SubdiffSet(
        kind=SubdiffKind.CLARKE, set=_shift_set(S, -rho * x), at=x
    )


# ---------------------------------------------------------------------------
# Helpers shared with the test suites
# ---------------------------------------------------------------------------


def compose_affine(g: Expr, A0, b0) -> Expr:
    """The expression x -> g(A0 x + b0), by rewriting leaves of g."""
    A0 = np.atleast_2d(np.asarray(A0, dtype=float))
    b0 = np.asarray(b0, dtype=float).ravel()
    m, n = A0.shape

    def rec(node: Expr) -> Expr:
        if isinstance(node, Const):
            return node
        if isinstance(node, Var):
            return Affine(tuple(A0[node.i]), float(b0[node.i]))
        if isinstance(node, Affine):
            a = np.asarray(node.a)
            return Affine(tuple(A0.T @ a), float(a @ b0 + node.b))
        if isinstance(node, Sum):
            return Sum(tuple(rec(t) for t in node.terms))
        if isinstance(node, Scale):
            return Scale(node.c, rec(node.child))
        if isinstance(node, Max):
            return Max(tuple(rec(t) for t in node.terms))
        if isinstance(node, Min):
            return Min(tuple(rec(t) for t in node.terms))
        if isinstance(node, Abs):
            return Abs(rec(node.child))
        if isinstance(node, Sq):
            return Sq(rec(node.child))
        raise SubdiffError("affine composition supports PA/PLQ trees")

    return rec(g)
