"""Low-dimensional polyhedral geometry and a small dense LP solver.

Everything here is desk scale by design: polytopes live in dimension <= 4,
the LP solver is a dense two-phase simplex with Bland's rule (no cycling),
a cone is its generators, and a cone given by halfspaces gets them in
closed form: a basis of its lineality space with both signs, and the signed
null vectors of row subsets of one less than the rank, stacked with that
basis.  Membership in a V-polytope or a cone, and every distance to one,
comes from one nearest-point search (Wolfe's method on conv(V) + cone(R)),
which returns the weights that certify its point; no set question here
solves an LP.
All values are plain numpy arrays; all functions are pure.  Every tolerance
is a constant of :mod:`nonsmooth.tolerances`, mostly relative to
max(1, largest |entry|) of the data compared; none is a parameter, except
the ``tol`` of :func:`contains`.

Set components:

* :class:`VPolytope`   -- convex hull of a finite vertex list,
* :class:`HPolyhedron` -- intersection of halfspaces ``a^T z <= b``,
* :class:`Ball`        -- Euclidean ball (needed for l2-norm subdifferentials
  and ball constraint sets),
* :class:`Cone`        -- polyhedral cone, the conic hull of its rays,
* :class:`SetUnion`    -- finite, possibly non-convex union of the above.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .tolerances import (
    CONE_SIGN_TOL,
    DEDUPE_GRID,
    HULL_TURN_TOL,
    INTERVAL_MERGE_GAP,
    MEMBERSHIP_TOL,
    NEAREST_STOP,
    NULL_VECTOR_TOL,
    PIVOT_TOL,
    SINGULAR_BASIS_TOL,
    VERTEX_FEAS_TOL,
    ZERO_NORMAL_TOL,
    rel_scale,
)

__all__ = [
    "PolyhedraError",
    "EmptySetError",
    "DimensionCapError",
    "LPResult",
    "lp_solve",
    "VPolytope",
    "HPolyhedron",
    "Ball",
    "Box",
    "Cone",
    "SetUnion",
    "conv_hull",
    "support_value",
    "cone_from_rays",
    "cone_rays_from_halfspaces",
    "contains",
    "set_distance",
    "minkowski_sum",
    "vertex_enumeration",
    "set_to_json",
    "set_from_json",
]

# n-subsets per stacked det/solve: one stack of a cap-sized enumeration
# (C(48, 4) = 194580 bases) raised peak RSS by ~170 MB, while 4096 still
# takes a typical 3-D Frechet set (C(30, 3) = 4060 bases) in one call
BASIS_STACK = 4096
MAX_POLYTOPE_DIM = 4


class PolyhedraError(Exception):
    pass


class EmptySetError(PolyhedraError):
    """Raised for operations that are undefined on the empty set."""


class DimensionCapError(PolyhedraError):
    pass


# ---------------------------------------------------------------------------
# Dense simplex
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray] = None
    value: Optional[float] = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _simplex_phase(T, basis, cost, allowed):
    """Run simplex iterations on canonical tableau ``T`` (rows m, cols N+1).

    ``cost`` is the length-N cost vector, ``allowed`` a boolean mask of
    columns permitted to enter.  Bland's rule on both the entering and the
    leaving choice guarantees finite termination.  Returns "optimal" or
    "unbounded"; ``T`` and ``basis`` are updated in place.
    """
    m = T.shape[0]
    ncols = T.shape[1] - 1
    while True:
        cb = cost[basis]
        # reduced costs: c_j - c_B^T T[:, j]
        red = cost[:ncols] - cb @ T[:, :ncols]
        entering = -1
        for j in range(ncols):
            if allowed[j] and red[j] < -PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal"
        col = T[:, entering]
        best = None
        for i in range(m):
            if col[i] > PIVOT_TOL:
                ratio = T[i, -1] / col[i]
                if best is None or ratio < best[0] - PIVOT_TOL or (
                    abs(ratio - best[0]) <= PIVOT_TOL and basis[i] < basis[best[1]]
                ):
                    best = (ratio, i)
        if best is None:
            return "unbounded"
        i = best[1]
        piv = T[i, entering]
        T[i] /= piv
        for r in range(m):
            if r != i and T[r, entering] != 0.0:
                T[r] -= T[r, entering] * T[i]
        basis[i] = entering


def lp_solve(
    c,
    A_ub=None,
    b_ub=None,
    A_eq=None,
    b_eq=None,
) -> LPResult:
    """Minimize ``c^T x`` over ``A_ub x <= b_ub`` and ``A_eq x = b_eq``.

    Variables are free; dense two-phase simplex with Bland's rule and pivot
    tolerance :data:`~nonsmooth.tolerances.PIVOT_TOL`.  Designed for
    dimensions up to ~8 and a few hundred constraints.  The returned optimum
    satisfies the constraints to that tolerance.  The problem is infeasible
    when the least total violation that phase 1 finds exceeds it times the
    largest |entry| of the data (at least 1).
    """
    c = np.asarray(c, dtype=float).ravel()
    n = c.size
    A_ub = np.zeros((0, n)) if A_ub is None else np.atleast_2d(np.asarray(A_ub, float))
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, float).ravel()
    A_eq = np.zeros((0, n)) if A_eq is None else np.atleast_2d(np.asarray(A_eq, float))
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, float).ravel()
    if A_ub.shape[1] != n or A_eq.shape[1] != n:
        raise PolyhedraError("dimension mismatch between objective and constraints")
    if A_ub.shape[0] != b_ub.size or A_eq.shape[0] != b_eq.size:
        raise PolyhedraError("constraint matrix/rhs size mismatch")

    m_ub, m_eq = A_ub.shape[0], A_eq.shape[0]
    m = m_ub + m_eq
    if m == 0:
        if np.all(np.abs(c) <= PIVOT_TOL):
            return LPResult("optimal", np.zeros(n), 0.0)
        return LPResult("unbounded")

    # columns: u (n), v (n), slack (m_ub), artificial (m)
    nuv = 2 * n
    ncols = nuv + m_ub + m
    M = np.zeros((m, ncols))
    rhs = np.concatenate([b_ub, b_eq])
    M[:m_ub, :n] = A_ub
    M[:m_ub, n:nuv] = -A_ub
    M[m_ub:, :n] = A_eq
    M[m_ub:, n:nuv] = -A_eq
    M[:m_ub, nuv : nuv + m_ub] = np.eye(m_ub)
    flip = rhs < 0
    M[flip] *= -1.0
    rhs = np.abs(rhs)
    M[:, nuv + m_ub :] = np.eye(m)

    T = np.hstack([M, rhs[:, None]])
    basis = list(range(nuv + m_ub, ncols))
    infeasible_above = PIVOT_TOL * rel_scale(T)

    # phase 1: drive artificials to zero
    cost1 = np.zeros(ncols)
    cost1[nuv + m_ub :] = 1.0
    allowed = np.ones(ncols, dtype=bool)
    status = _simplex_phase(T, basis, cost1, allowed)
    phase1 = float(cost1[basis] @ T[:, -1])
    if phase1 > infeasible_above:
        return LPResult("infeasible")
    # pivot remaining artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= nuv + m_ub:
            for j in range(nuv + m_ub):
                if abs(T[i, j]) > PIVOT_TOL:
                    piv = T[i, j]
                    T[i] /= piv
                    for r in range(m):
                        if r != i and T[r, j] != 0.0:
                            T[r] -= T[r, j] * T[i]
                    basis[i] = j
                    break

    # phase 2
    cost2 = np.zeros(ncols)
    cost2[:n] = c
    cost2[n:nuv] = -c
    allowed[nuv + m_ub :] = False
    status = _simplex_phase(T, basis, cost2, allowed)
    if status == "unbounded":
        return LPResult("unbounded")
    z = np.zeros(ncols)
    for i, bi in enumerate(basis):
        z[bi] = T[i, -1]
    x = z[:n] - z[n:nuv]
    return LPResult("optimal", x, float(c @ x))


# ---------------------------------------------------------------------------
# Set components
# ---------------------------------------------------------------------------


def _canon_vertices(points: np.ndarray) -> np.ndarray:
    """Lexicographically sorted rows."""
    if points.shape[0] <= 1:
        return points
    order = np.lexsort(points.T[::-1])
    return points[order]


@dataclass(frozen=True)
class VPolytope:
    """Convex hull of a finite vertex list; empty list denotes the empty set."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if v.size == 0:
            v = v.reshape(0, max(1, v.shape[1] if v.ndim == 2 else 1))
        object.__setattr__(self, "vertices", v)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def is_empty(self) -> bool:
        return self.vertices.shape[0] == 0


@dataclass(frozen=True)
class HPolyhedron:
    """Intersection of halfspaces {z : A z <= b}; may be empty or unbounded."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        if A.shape[0] != b.size:
            raise PolyhedraError("halfspace matrix/offset size mismatch")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class Ball:
    """Euclidean ball {z : ||z - center||_2 <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).ravel())
        if not 0 <= self.radius < math.inf:
            raise PolyhedraError(f"ball radius must be >= 0 and finite, got {self.radius}")
        if not np.isfinite(self.center).all():
            raise PolyhedraError(f"ball center must be finite, got {self.center.tolist()}")

    @property
    def dim(self) -> int:
        return self.center.size


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {z : lo <= z <= hi}."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).ravel()
        hi = np.asarray(self.hi, dtype=float).ravel()
        if lo.size != hi.size or np.any(lo > hi):
            raise PolyhedraError("invalid box bounds")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    def to_hpolyhedron(self) -> HPolyhedron:
        n = self.dim
        eye = np.eye(n)
        return HPolyhedron(np.vstack([eye, -eye]), np.concatenate([self.hi, -self.lo]))


Component = Union[VPolytope, HPolyhedron, Ball]


@dataclass(frozen=True)
class Cone:
    """Polyhedral cone: the conic hull of the rows of ``rays``, a (k, n)
    array.  No rows, with a known dimension, denote the trivial cone {0}.
    The rays need not be irredundant; a line is a ray and its negative.
    """

    rays: np.ndarray

    def __post_init__(self):
        rays = np.atleast_2d(np.asarray(self.rays, dtype=float))
        if rays.size == 0:
            rays = rays.reshape(0, rays.shape[1] if rays.ndim == 2 and rays.shape[1] else 1)
        object.__setattr__(self, "rays", rays)

    @property
    def dim(self) -> int:
        return self.rays.shape[1]

    @property
    def is_trivial(self) -> bool:
        return self.rays.shape[0] == 0


@dataclass(frozen=True)
class SetUnion:
    """Finite union of convex components (possibly non-convex as a whole)."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        for c in comps:
            if isinstance(c, VPolytope) and c.is_empty:
                raise PolyhedraError("SetUnion components must be non-empty")
        object.__setattr__(self, "components", comps)

    @property
    def is_empty(self) -> bool:
        return len(self.components) == 0

    @property
    def dim(self) -> int:
        if self.is_empty:
            return 0
        return self.components[0].dim


# ---------------------------------------------------------------------------
# Hulls, support functions, membership
# ---------------------------------------------------------------------------


# every step drops a corral member or strictly shortens the distance, so
# the search ends in a few times (dim + 1) steps; this many means a fault
NEAREST_MAX_STEPS = 1000


def _nearest_point(V: np.ndarray, R: np.ndarray, p: np.ndarray) -> tuple:
    """(lam, mu, z): the point z of conv(V) + cone(R) nearest to p, with
    lam >= 0 summing to 1, mu >= 0 and z = V.T @ lam + R.T @ mu.

    Wolfe's active-set method (Math. Programming 1976), with rays (V = {0}
    makes it Lawson-Hanson NNLS).  The corral is the points and rays with
    positive weight.  Each step solves the corral's least-squares system
    with ``lstsq``, so affinely dependent points get a least-norm solution.
    If every weight of it is positive, a major step adds the point or ray
    that brings z nearest to p; otherwise the weights move towards it until
    the first one reaches 0, and that member leaves.  The search stops when
    no member would bring z nearer, or when the distance stops falling
    under rounding.
    """
    k = V.shape[0]
    norms = np.sqrt((R * R).sum(axis=1))
    norms[norms == 0] = 1.0
    P = np.concatenate([V - p, R / norms[:, None]])
    scale = rel_scale(P)
    S = np.array([np.argmin((P[:k] * P[:k]).sum(axis=1))])  # the corral, points first
    w = np.zeros(P.shape[0])
    w[S] = 1.0
    last = np.inf
    for _ in range(NEAREST_MAX_STEPS):
        # weights of the nearest point of aff(corral points) + span(corral
        # rays): q_0 + sum t_i (q_i - q_0) + sum t_r r
        rest = S[1:]
        M = P[rest] - (rest < k)[:, None] * P[S[0]]
        t = np.linalg.lstsq(M.T, -P[S[0]], rcond=None)[0]
        y = np.concatenate([[1.0 - t[rest < k].sum()], t])
        if np.all(y > 0):  # the corral's own nearest point: a major step
            w[S] = y
            x = y @ P[S]
            dist = float(np.sqrt(x @ x))
            gap = P @ x  # (q - x).x per point, scale * r.x per ray: < 0 brings x nearer
            gap[:k] -= x @ x
            gap[k:] *= scale
            gap[S] = np.inf
            j = int(np.argmin(gap))
            if gap[j] >= -NEAREST_STOP * scale * dist or dist >= last:
                break
            last = dist
            S = np.sort(np.append(S, j))
            continue
        wS = w[S]
        down = y <= 0
        step = np.min(wS[down] / np.where(wS[down] > y[down], wS[down] - y[down], 1.0))
        wS = wS + step * (y - wS)
        wS[np.flatnonzero(down)[np.argmin(wS[down])]] = 0.0
        w[S] = np.maximum(wS, 0.0)
        S = S[w[S] > 0]
    else:
        raise PolyhedraError("nearest-point search did not settle")
    lam, mu = w[:k], w[k:] / norms
    return lam, mu, lam @ V + mu @ R


def _within(V: np.ndarray, R: np.ndarray, p: np.ndarray, tol: float) -> bool:
    """The membership rule: the point of conv(V) + cone(R) nearest to p lies
    within ``tol * scale`` of p in every coordinate, scale the largest |entry|
    of V and p (at least 1).  Such a point is a combination within that
    bound, so an LP would accept p too."""
    scale = rel_scale(V, p)
    return bool(np.all(np.abs(_nearest_point(V, R, p)[2] - p) <= tol * scale))


def _in_conv_hull(points: np.ndarray, p: np.ndarray, tol: float) -> bool:
    return points.shape[0] > 0 and _within(points, np.zeros((0, p.size)), p, tol)


def _in_cone_rays(rays: np.ndarray, p: np.ndarray, tol: float) -> bool:
    return _within(np.zeros((1, p.size)), rays, p, tol)


def _monotone_chain_2d(pts: np.ndarray) -> np.ndarray:
    """Extreme points of a 2-D point cloud (Andrew's monotone chain)."""
    pts = pts[np.lexsort(pts.T[::-1])]
    scale = rel_scale(pts)
    eps = HULL_TURN_TOL * scale * scale

    def half(points):
        out: list = []
        for p in points:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
                if cross <= eps:  # drop collinear and clockwise turns
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    if not hull:  # all points coincide
        hull = [pts[0]]
    return np.array(hull)


def _dedupe_points(pts: np.ndarray) -> np.ndarray:
    """Rows of ``pts`` minus later ones on the same
    :data:`~nonsmooth.tolerances.DEDUPE_GRID` cell, in their original order."""
    grid = DEDUPE_GRID * rel_scale(pts)
    cells = np.round(pts / grid) * grid
    order = np.lexsort(cells.T[::-1])  # stable: equal cells keep input order
    run = cells[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (run[1:] != run[:-1]).any(axis=1)
    return pts[np.sort(order[first])]


def conv_hull(points) -> VPolytope:
    """Irredundant vertex set of the convex hull of ``points`` (dim <= 4).

    Degenerate inputs (duplicates, collinear points) are fine; the result is
    canonicalized by lexicographic vertex ordering.  Empty input gives the
    empty polytope.  Dimensions 1 and 2 use direct geometric hulls; higher
    dimensions drop, one at a time, each point that lies in the hull of the
    others by the membership rule of :func:`contains` at its default
    tolerance, so keep those point sets at desk scale.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        return VPolytope(np.zeros((0, 1)))
    if pts.shape[1] > MAX_POLYTOPE_DIM:
        raise DimensionCapError(f"conv_hull supports dim <= {MAX_POLYTOPE_DIM}")
    scale = rel_scale(pts)
    n = pts.shape[1]
    if n == 1:
        lo, hi = float(pts.min()), float(pts.max())
        verts = [[lo]] if hi - lo <= DEDUPE_GRID * scale else [[lo], [hi]]
        return VPolytope(np.array(verts))
    kept_arr = _dedupe_points(pts)
    if n == 2:
        return VPolytope(_canon_vertices(_monotone_chain_2d(kept_arr)))
    kept = [p for p in _canon_vertices(kept_arr)]
    # strip points inside the hull of the others
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1 :]
        if others and _in_conv_hull(np.array(others), kept[i], MEMBERSHIP_TOL):
            kept.pop(i)
        else:
            i += 1
    return VPolytope(_canon_vertices(np.array(kept)))


def support_value(S: Union[VPolytope, SetUnion], d) -> float:
    """sigma_S(d) = max over S of s^T d, computed over vertices."""
    d = np.asarray(d, dtype=float).ravel()
    if isinstance(S, SetUnion):
        if S.is_empty:
            raise EmptySetError("EMPTY_SET: support function of the empty set")
        vals = []
        for comp in S.components:
            if isinstance(comp, VPolytope):
                vals.append(support_value(comp, d))
            elif isinstance(comp, Ball):
                vals.append(float(comp.center @ d) + comp.radius * float(np.linalg.norm(d)))
            else:
                raise PolyhedraError("support_value needs V-rep or ball components")
        return max(vals)
    if S.is_empty:
        raise EmptySetError("EMPTY_SET: support function of the empty set")
    return float(np.max(S.vertices @ d))


def contains(S, z, tol: float = MEMBERSHIP_TOL) -> bool:
    """Membership test for any set component or union, to tolerance ``tol``.

    A V-polytope, or a cone, holds z when its point nearest to z lies within
    ``tol * scale`` of z in every coordinate; scale is the largest |entry| of
    z and, for a polytope, of its vertices (at least 1).  Halfspace forms
    check their rows to the same bound.
    """
    z = np.asarray(z, dtype=float).ravel()
    if isinstance(S, SetUnion):
        return any(contains(c, z, tol) for c in S.components)
    if isinstance(S, VPolytope):
        if S.is_empty:
            return False
        return _in_conv_hull(S.vertices, z, tol)
    if isinstance(S, HPolyhedron):
        return bool(np.all(S.A @ z - S.b <= tol * rel_scale(z)))
    if isinstance(S, Ball):
        return float(np.linalg.norm(z - S.center)) <= S.radius + tol
    if isinstance(S, Box):
        return bool(np.all(z >= S.lo - tol) and np.all(z <= S.hi + tol))
    if isinstance(S, Cone):
        return _in_cone_rays(S.rays, z, tol)
    raise PolyhedraError(f"cannot test membership in {type(S).__name__}")


# ---------------------------------------------------------------------------
# Cones: closed-form generators
# ---------------------------------------------------------------------------

def _distinct(V: np.ndarray) -> np.ndarray:
    """Rows of ``V`` minus later ones within NULL_VECTOR_TOL of them."""
    k = V.shape[0]
    if k <= 1:
        return V
    close = np.abs(V[:, None, :] - V[None, :, :]).max(axis=2) <= NULL_VECTOR_TOL
    idx = np.arange(k)
    return V[~(close & (idx[:, None] > idx)).any(axis=1)]


def _signed(C: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Rows +-c of the unit candidates ``C`` that every row holds on, given
    ``D = rows @ C.T``; +c before -c, duplicates dropped."""
    keep = np.concatenate([D.min(axis=0) >= -CONE_SIGN_TOL, D.max(axis=0) <= CONE_SIGN_TOL])
    return _distinct(_pm(C)[keep.reshape(2, -1).T.ravel()])


def _unit(V: np.ndarray) -> np.ndarray:
    return V / np.sqrt((V * V).sum(axis=-1, keepdims=True))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., [1, 2, 0]] * b[..., [2, 0, 1]] - a[..., [2, 0, 1]] * b[..., [1, 2, 0]]


def _pm(B: np.ndarray) -> np.ndarray:
    """Each row of ``B`` followed by its negative (their sum is exactly 0)."""
    return np.concatenate([B, -B], axis=1).reshape(-1, B.shape[-1])


def cone_rays_from_halfspaces(normals, dim: int) -> np.ndarray:
    """Generators of {z : normals @ z >= 0} in closed form (dim <= 4).

    With rho the rank of the rows, the cone is its lineality space
    null(normals) plus a pointed cone whose extreme rays are the null vectors
    of (rho - 1)-subsets of rows stacked with a basis of that space.  The
    result is the basis, each vector followed by its negative, then +-each
    such null vector that every row holds on; all unit length, duplicates
    dropped, ``(0, dim)`` for the cone {0}.  In dims 1-3 a null vector is a
    sign, a perpendicular or a cross product; dim 4 uses stacked SVDs.
    """
    if dim > MAX_POLYTOPE_DIM:
        raise DimensionCapError("cone ray enumeration supports dim <= 4")
    R = np.asarray(normals, dtype=float).reshape(-1, dim)
    R = _unit(R[np.abs(R).max(axis=1) > ZERO_NORMAL_TOL])
    m = R.shape[0]
    if m == 0:
        return _pm(np.eye(dim))
    if dim == 1:
        return _signed(np.ones((1, 1)), R)
    if dim == 2:
        perp = np.stack([-R[:, 1], R[:, 0]], axis=1)
        D = R @ perp.T  # D[j, i] = cross(row i, row j)
        if np.abs(D).max() > NULL_VECTOR_TOL:  # rank 2
            return _signed(perp, D)
        return np.concatenate([_pm(perp[:1]), _signed(R[:1], R @ R[0][:, None])])
    if dim == 3:
        I, J = np.triu_indices(m, 1)
        C = _cross(R[I], R[J])
        norms = np.sqrt((C * C).sum(axis=1))
        C = C[norms > NULL_VECTOR_TOL] / norms[norms > NULL_VECTOR_TOL, None]
        if C.shape[0] == 0:  # rank 1: a plane of lineality
            a = R[0]
            u = _unit(_cross(a, np.eye(3)[np.argmin(np.abs(a))]))
            return np.concatenate([_pm(np.array([u, _cross(a, u)])), _signed(R[:1], R @ a[:, None])])
        D = R @ C.T
        if np.abs(D).max() > NULL_VECTOR_TOL:  # rank 3
            return _signed(C, D)
        line = C[np.argmax(norms[norms > NULL_VECTOR_TOL])]
        Q = _unit(_cross(R, line))
        return np.concatenate([_pm(line[None, :]), _signed(Q, R @ Q.T)])
    _, s, Vt = np.linalg.svd(R)
    rho = int((s > NULL_VECTOR_TOL).sum())
    B = Vt[rho:]
    subsets = np.array(list(itertools.combinations(range(m), rho - 1)), dtype=np.intp)
    subsets = subsets.reshape(math.comb(m, rho - 1), rho - 1)
    M = np.concatenate(
        [R[subsets], np.broadcast_to(B, (subsets.shape[0],) + B.shape)], axis=1
    )
    _, sm, Vm = np.linalg.svd(M)
    C = Vm[sm[:, -1] > NULL_VECTOR_TOL, -1]
    return np.concatenate([_pm(B), _signed(C, R @ C.T)])


def cone_from_rays(rays, dim: Optional[int] = None) -> Cone:
    """Cone generated by ``rays``: its rows of norm above
    :data:`~nonsmooth.tolerances.NULL_VECTOR_TOL` at unit length, duplicates
    dropped.  Redundant rays are kept: the nearest-point search that answers
    membership does not need an irredundant list."""
    rays = np.atleast_2d(np.asarray(rays, dtype=float))
    if rays.size == 0:
        if dim is None:
            raise PolyhedraError("empty ray list needs an explicit dimension")
        rays = rays.reshape(0, dim)
    return Cone(_distinct(_unit(rays[np.linalg.norm(rays, axis=1) > NULL_VECTOR_TOL])))


# ---------------------------------------------------------------------------
# Vertex enumeration and conversions
# ---------------------------------------------------------------------------


def vertex_enumeration(P: HPolyhedron) -> VPolytope:
    """Vertices of a bounded H-polyhedron by basis enumeration (dim <= 4).

    Every n-subset of the halfspaces with a nonsingular matrix is solved, in
    stacks of :data:`BASIS_STACK`, and the solutions feasible to
    :data:`~nonsmooth.tolerances.VERTEX_FEAS_TOL` times the largest |entry|
    of the data (at least 1) are kept.  A basic feasible solution is a
    vertex, so no hull pruning follows: a vertex where more than n facets
    meet comes out of several bases, and those copies are merged on the
    dedupe grid.  The result is in lexicographic order; an empty polyhedron
    gives ``(0, n)``.
    """
    n = P.dim
    if n > MAX_POLYTOPE_DIM:
        raise DimensionCapError("vertex enumeration supports dim <= 4")
    A, b = P.A, P.b
    m = A.shape[0]
    if m < n:
        raise PolyhedraError("polyhedron cannot be bounded: too few halfspaces")
    if math.comb(m, n) > 200000:
        raise PolyhedraError("too many halfspace combinations")
    scale = rel_scale(b, A)
    subsets = itertools.combinations(range(m), n)
    verts = []
    while True:
        stack = itertools.chain.from_iterable(itertools.islice(subsets, BASIS_STACK))
        rows = np.fromiter(stack, dtype=np.intp).reshape(-1, n)
        if rows.shape[0] == 0:
            break
        sub = A[rows]
        nonsingular = np.abs(np.linalg.det(sub)) > SINGULAR_BASIS_TOL
        v = np.linalg.solve(sub[nonsingular], b[rows[nonsingular]][..., None])[..., 0]
        verts.append(v[np.all(v @ A.T - b <= VERTEX_FEAS_TOL * scale, axis=1)])
    verts = np.concatenate(verts)
    if verts.shape[0] == 0:
        return VPolytope(np.zeros((0, n)))
    if n <= 2:
        return conv_hull(verts)  # min/max and monotone chain: no LP
    return VPolytope(_canon_vertices(_dedupe_points(verts)))


def minkowski_sum(P: VPolytope, Q: VPolytope) -> VPolytope:
    """Minkowski sum of two V-polytopes (vertex sums, then hull)."""
    if P.is_empty or Q.is_empty:
        return VPolytope(np.zeros((0, max(P.dim, Q.dim))))
    sums = (P.vertices[:, None, :] + Q.vertices[None, :, :]).reshape(-1, P.dim)
    return conv_hull(sums)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def _point_to_component_dist(p: np.ndarray, comp: Component) -> float:
    if isinstance(comp, HPolyhedron):
        comp = vertex_enumeration(comp)  # bounded by assumption; empty raises below
    if isinstance(comp, VPolytope):
        if comp.is_empty:
            raise EmptySetError("EMPTY_SET")
        return float(np.linalg.norm(_nearest_point(comp.vertices, np.zeros((0, p.size)), p)[2] - p))
    if isinstance(comp, Ball):
        return max(0.0, float(np.linalg.norm(p - comp.center)) - comp.radius)
    raise PolyhedraError(f"no distance rule for {type(comp).__name__}")


def _component_samples(comp: Component, per_edge: int = 7) -> np.ndarray:
    """Vertices plus deterministic boundary/chord samples of a component."""
    if isinstance(comp, VPolytope):
        V = comp.vertices
        pts = [V]
        fracs = np.linspace(0.0, 1.0, per_edge)[1:-1]
        for i in range(V.shape[0]):
            for j in range(i + 1, V.shape[0]):
                seg = V[i][None, :] + fracs[:, None] * (V[j] - V[i])[None, :]
                pts.append(seg)
        return np.vstack(pts)
    if isinstance(comp, Ball):
        n = comp.dim
        if comp.radius == 0.0:
            return comp.center[None, :]
        if n == 1:
            offs = np.array([[-comp.radius], [comp.radius]])
        else:
            rng = np.random.Generator(np.random.Philox(key=12345))
            raw = rng.standard_normal((64 * n, n))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            offs = comp.radius * raw
        return comp.center[None, :] + offs
    if isinstance(comp, HPolyhedron):
        return _component_samples(vertex_enumeration(comp))
    raise PolyhedraError(f"cannot sample {type(comp).__name__}")


def _intervals_1d(U: SetUnion) -> list:
    """Merge a 1-D union into sorted disjoint [lo, hi] intervals."""
    spans = []
    for comp in U.components:
        if isinstance(comp, VPolytope):
            vals = comp.vertices.ravel()
            spans.append((float(vals.min()), float(vals.max())))
        elif isinstance(comp, Ball):
            spans.append((comp.center[0] - comp.radius, comp.center[0] + comp.radius))
        elif isinstance(comp, HPolyhedron):
            v = vertex_enumeration(comp).vertices.ravel()
            if v.size == 0:
                raise EmptySetError("EMPTY_SET")
            spans.append((float(v.min()), float(v.max())))
        else:
            raise PolyhedraError("unsupported 1-D component")
    spans.sort()
    merged = [list(spans[0])]
    for lo, hi in spans[1:]:
        if lo <= merged[-1][1] + INTERVAL_MERGE_GAP:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def _directed_hausdorff_1d(A: list, B: list) -> float:
    """sup_{a in A} d(a, B) for interval unions, exactly."""

    def dist_to_B(t: float) -> float:
        return min(
            0.0 if lo <= t <= hi else min(abs(t - lo), abs(t - hi)) for lo, hi in B
        )

    candidates = []
    for lo, hi in A:
        candidates.extend([lo, hi])
        # interior maxima of d(., B) sit at midpoints of B's gaps
        for (l1, h1), (l2, h2) in zip(B, B[1:]):
            mid = 0.5 * (h1 + l2)
            if lo <= mid <= hi:
                candidates.append(mid)
    return max(dist_to_B(t) for t in candidates)


def set_distance(A: Union[SetUnion, Component], B: Union[SetUnion, Component]) -> float:
    """Symmetric Hausdorff distance between two bounded set unions (dim <= 4).

    Exact for 1-D interval unions and whenever the far side is a single
    convex component (the sup is then attained at a vertex); otherwise the
    sup side is approximated over sampled boundaries and vertices.  A point's
    distance to a polytope is to its nearest point; an H-polyhedron counts
    by its vertices, and an empty one raises :class:`EmptySetError`.
    """
    if not isinstance(A, SetUnion):
        A = SetUnion((A,))
    if not isinstance(B, SetUnion):
        B = SetUnion((B,))
    if A.is_empty or B.is_empty:
        raise EmptySetError("EMPTY_SET: Hausdorff distance needs non-empty operands")
    if A.dim == 1 and B.dim == 1:
        ia, ib = _intervals_1d(A), _intervals_1d(B)
        return max(_directed_hausdorff_1d(ia, ib), _directed_hausdorff_1d(ib, ia))

    def directed(P: SetUnion, Q: SetUnion) -> float:
        single_convex = len(Q.components) == 1
        worst = 0.0
        for comp in P.components:
            pts = (
                _component_samples(comp, per_edge=2)  # vertices suffice
                if single_convex and isinstance(comp, (VPolytope, HPolyhedron))
                else _component_samples(comp)
            )
            for p in pts:
                worst = max(worst, min(_point_to_component_dist(p, c) for c in Q.components))
        return worst

    return max(directed(A, B), directed(B, A))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _component_to_json(comp: Component) -> dict:
    if isinstance(comp, VPolytope):
        return {"vertices": comp.vertices.tolist()}
    if isinstance(comp, HPolyhedron):
        return {
            "halfspaces": [
                {"a": a.tolist(), "b": float(bb)} for a, bb in zip(comp.A, comp.b)
            ]
        }
    if isinstance(comp, Ball):
        return {"ball": {"center": comp.center.tolist(), "radius": comp.radius}}
    raise PolyhedraError(f"cannot serialize {type(comp).__name__}")


def set_to_json(S: Union[SetUnion, Component]) -> dict:
    if isinstance(S, SetUnion):
        if len(S.components) == 1:
            return _component_to_json(S.components[0])
        return {"components": [_component_to_json(c) for c in S.components]}
    return _component_to_json(S)


def _component_from_json(d: dict) -> Component:
    if "vertices" in d:
        return VPolytope(np.array(d["vertices"], dtype=float))
    if "halfspaces" in d:
        A = np.array([h["a"] for h in d["halfspaces"]], dtype=float)
        b = np.array([h["b"] for h in d["halfspaces"]], dtype=float)
        return HPolyhedron(A, b)
    if "ball" in d:
        return Ball(np.array(d["ball"]["center"]), float(d["ball"]["radius"]))
    raise PolyhedraError("unrecognized set JSON")


def set_from_json(d: dict) -> SetUnion:
    if "components" in d:
        return SetUnion(tuple(_component_from_json(c) for c in d["components"]))
    return SetUnion((_component_from_json(d),))
