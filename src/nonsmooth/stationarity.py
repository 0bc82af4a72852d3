"""Stationarity classification along the d- / l- / C- hierarchy.

A point is C-stationary when 0 lies in the Clarke subdifferential,
l-stationary when 0 lies in the limiting subdifferential, and d-stationary
when the Frechet subdifferential is non-empty and contains 0 (equivalently,
f'(x, d) >= 0 for every direction).  The implications d => l => C always
hold; the reverse ones do not, and the classifier surfaces a certified
descent direction whenever d-stationarity fails.

Also here: the convex constrained optimality test (0 in the subdifferential
plus the normal cone) and the composite d-stationarity test for
least-squares piecewise-affine regression.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .expr import Expr
from .polyhedra import (
    Ball,
    Box,
    HPolyhedron,
    VPolytope,
    _nearest_point,
    contains,
    lp_solve,
    vertex_enumeration,
)
from .subdiff import (
    NotDirectionallyDifferentiableError,
    SubdiffError,
    _point,
    _refusal,
    clarke,
    convex_catalog_subdiff,
    dir_deriv,
    normal_cone,
)
from .tolerances import (
    FACE_TOL,
    LSPAR_DSTAT_TOL,
    MIN_TIE_TOL,
    SLOPE_TIE_TOL,
    STATIONARITY_TOL,
    WITNESS_KEY_DECIMALS,
    _check_tol,
    rel_scale,
)

__all__ = [
    "StationarityReport",
    "classify",
    "OptimalityCertificate",
    "convex_optimality_check",
    "TooManyTiesError",
    "DStatCertificate",
    "lspar_d_stationarity_check",
]


class TooManyTiesError(SubdiffError):
    """TOO_MANY_TIES: tie enumeration exceeded its cap; perturb the point."""


@dataclass(frozen=True)
class StationarityReport:
    """d-/l-/C-stationarity flags with certificates.

    A flag is None when the corresponding exact oracle is unsupported for
    the input fragment (it is then unknown at the exact level, not false).
    ``witness_direction`` is present exactly when d-stationarity fails and
    satisfies f'(x, witness) = witness_value, below the d-flag's threshold
    of -tol times a scale (see :func:`classify`).
    """

    is_d: Optional[bool]
    is_l: Optional[bool]
    is_C: Optional[bool]
    tol: float
    witness_direction: Optional[np.ndarray] = None
    witness_value: Optional[float] = None
    certificates: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "is_d": self.is_d,
            "is_l": self.is_l,
            "is_C": self.is_C,
            "tol": self.tol,
            "witness_direction": None
            if self.witness_direction is None
            else self.witness_direction.tolist(),
            "witness_value": self.witness_value,
            "certificates": {
                k: (v if isinstance(v, (bool, float, int, str)) else str(v))
                for k, v in self.certificates.items()
            },
        }


def _lex_smallest(rows: list) -> np.ndarray:
    """The row whose raveled entries, rounded to
    :data:`~nonsmooth.tolerances.WITNESS_KEY_DECIMALS` decimals, are
    lexicographically least."""
    return min(
        rows, key=lambda r: tuple(np.round(np.asarray(r, float).ravel(), WITNESS_KEY_DECIMALS))
    )


def _min_dirderiv_over_box(e: Expr, x: np.ndarray, cells: Optional[list]):
    """(min of f'(x, .) over the unit inf-ball, lex-smallest minimizer).

    In 1-D from the one-sided slopes; otherwise minimizes the cell-linear
    form over each of the ``cells`` of d -> f'(x, d) intersected with the
    box, taking the lexicographically smallest vertex of the minimizing face.
    """
    n = x.size
    if n == 1:
        sl, sr = _point(e, x).slopes()
        cand = [(-sl, (-1.0,)), (sr, (1.0,))]
        best = min(v for v, _ in cand)
        dirs = [d for v, d in cand if v <= best + SLOPE_TIE_TOL]
        return best, np.array(_lex_smallest(dirs))
    best_val = np.inf
    best_dirs = []
    for g, rows, _ in cells:
        H = HPolyhedron(
            np.vstack([np.eye(n), -np.eye(n), -rows]),
            np.concatenate([np.ones(2 * n), np.zeros(rows.shape[0])]),
        )
        verts = vertex_enumeration(H).vertices
        if verts.shape[0] == 0:
            continue
        vals = verts @ g
        vmin = float(vals.min())
        if vmin < best_val - MIN_TIE_TOL:
            best_val = vmin
            best_dirs = [v for v, w in zip(verts, vals) if w <= vmin + FACE_TOL]
        elif vmin <= best_val + MIN_TIE_TOL:
            best_dirs.extend(v for v, w in zip(verts, vals) if w <= vmin + FACE_TOL)
    return best_val, np.array(_lex_smallest(best_dirs))


def classify(e: Expr, x, tol: float = STATIONARITY_TOL) -> StationarityReport:
    """Classify x along the d-/l-/C-stationarity hierarchy, with certificates.

    A flag is None where its oracle (Clarke, limiting, Frechet) does not
    answer (:data:`~nonsmooth.subdiff._SUPPORT`, or a builtin with no
    one-sided derivative at x).  Where the directional
    sweep (min over the unit box of f'(x, .)) is available, the d-flag is
    that minimum being >= -tol * scale, scale the largest |entry| of the cell
    gradients at x (at least 1), as membership scales its tol; Frechet
    membership cross-checks it.  Otherwise the d-flag is Frechet membership.
    ``tol`` must be finite and >= 0.
    """
    _check_tol(tol)
    p = _point(e, x)
    x = p.x
    n = x.size
    certs: dict = {}
    # the sets come from the record at x, which the exact calls at x share
    is_C = is_l = is_d = None
    fs = None
    if _refusal(e, n, "clarke") is None:
        is_C = p.clarke().contains(np.zeros(n), tol)
        certs["clarke_contains_zero"] = is_C
    # the sweep runs where every set is exact: the limiting set's domain
    exact = _refusal(e, n, "limiting") is None
    if exact:
        ls, fs = p.limiting()
        is_l = contains(ls.set, np.zeros(n), tol)
        certs["limiting_contains_zero"] = is_l
    if fs is None and _refusal(e, n, "frechet") is None:
        try:
            fs = p.frechet()
        except NotDirectionallyDifferentiableError:  # a builtin at x
            pass
    if fs is not None:
        is_d = (not fs.is_empty) and fs.contains(np.zeros(n), tol)
        certs["frechet_contains_zero"] = is_d

    witness = None
    wvalue = None
    if exact:
        cells = p.cells()
        mval, mdir = _min_dirderiv_over_box(e, x, cells)
        certs["sweep_min"] = float(mval)
        # only what the math rules out is an error: a Frechet point within
        # tol * scale of 0 (scale: the set's largest entry, at least 1) bounds
        # f'(x, .) below by -n tol scale on the unit box, and f'(x, .) >= 0
        # puts 0 in the Frechet set
        scale = rel_scale(fs.set.components[0].vertices) if is_d else 1.0
        if (is_d and mval < -n * tol * scale) or (is_d is False and mval >= 0.0):
            raise SubdiffError(
                "internal: Frechet membership disagrees with directional sweep"
            )
        # the sweep's rounding grows with the gradients, as membership's does
        is_d = mval >= -tol * rel_scale(*[c.g for c in cells])
        if not is_d:
            witness = mdir
            wvalue = float(mval)
    elif is_d is False:
        # a 1-D tree outside PA/PLQ: certify with the negative one-sided direction
        sl, sr = p.slopes()
        cand = [(-sl, np.array([-1.0])), (sr, np.array([1.0]))]
        wvalue, witness = min(cand, key=lambda t: t[0])
    if witness is not None and not dir_deriv(e, x, witness).value < 0:  # the forward sweep's check
        raise SubdiffError(f"internal: witness {witness.tolist()} does not descend at x")

    return StationarityReport(
        is_d=is_d,
        is_l=is_l,
        is_C=is_C,
        tol=tol,
        witness_direction=witness,
        witness_value=wvalue,
        certificates=certs,
    )


# ---------------------------------------------------------------------------
# Convex constrained optimality (subdifferential + normal cone)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimalityCertificate:
    optimal: bool
    s: Optional[np.ndarray] = None  # subgradient part of 0 = s + nu
    nu: Optional[np.ndarray] = None  # normal-cone part

    def to_json(self) -> dict:
        return {
            "optimal": self.optimal,
            "s": None if self.s is None else self.s.tolist(),
            "nu": None if self.nu is None else self.nu.tolist(),
        }


def convex_optimality_check(
    g: Union[Expr, object],
    C: Optional[Union[HPolyhedron, Box, Ball]],
    x,
    tol: float = STATIONARITY_TOL,
) -> OptimalityCertificate:
    """Test 0 in (subdifferential of g at x) + N_C(x) for convex g, x in C.

    ``g`` is a convex expression (convexity is the caller's assertion; trees
    that are a max of affine pieces are convex by construction) or a catalog
    item.  ``C`` may be None for the unconstrained problem.  The test finds
    the point s + nu of (subdifferential) + N_C(x) nearest to 0 and accepts
    when it is within ``tol`` (finite, >= 0) of 0 in every coordinate; the
    certificate then carries s, a subgradient, and nu, a normal direction,
    read from the weights of that point.
    """
    _check_tol(tol)
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    if isinstance(g, Expr):
        sub = clarke(g, x).set
    else:
        sub = convex_catalog_subdiff(g, x).set
    if len(sub.components) != 1 or not isinstance(sub.components[0], VPolytope):
        raise SubdiffError("optimality check needs a polytopal subdifferential")
    V = sub.components[0].vertices
    if C is None:
        rays = np.zeros((0, n))
    else:
        rays = normal_cone(C, x).rays
    lam, mu, z = _nearest_point(V, rays, np.zeros(n))
    if np.abs(z).max() > tol:
        return OptimalityCertificate(False)
    return OptimalityCertificate(True, s=lam @ V, nu=mu @ rays)


# ---------------------------------------------------------------------------
# LSPAR d-stationarity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DStatCertificate:
    """Outcome of the composite d-stationarity test for LSPAR.

    ``min_value`` is the exact minimum of D -> f'(W; D) over the unit
    inf-ball; the point is d-stationary when that minimum is >= -tol.
    ``witness`` is a minimizing D when the test fails.
    """

    is_d_stationary: bool
    min_value: float
    tol: float
    n_selections: int
    witness: Optional[np.ndarray] = None

    def __bool__(self) -> bool:
        return self.is_d_stationary


# the largest n * k of an LSPAR W that the check and mm_lspar accept
LSPAR_SIZE_CAP = 16


def lspar_d_stationarity_check(
    dataset,
    W,
    tol: float = LSPAR_DSTAT_TOL,
    act_tol: Optional[float] = None,
    selection_cap: int = 4096,
) -> DStatCertificate:
    """Exact d-stationarity test for least-squares piecewise-affine fitting.

    The model is s -> max_i w_i^T x_s with W = [w_1 .. w_k]; the directional
    derivative of the mean square loss along D is
    (1/N) sum_s (g_s(W) - y_s) * max_{i in I_s(W)} d_i^T x_s.  Samples with
    negative residual coefficient turn the max into a min, so their active
    branch must be enumerated; each selection leaves a convex problem whose
    exact box-constrained minimum is found in closed form (linear case) or
    by one LP (when positive-coefficient samples carry ties).

    A branch is active at a sample when it is within ``act_tol`` (default
    ``tol``, must be >= 0) of the max.  Raises :class:`TooManyTiesError`
    above ``selection_cap`` selections; callers perturb W instead.
    """
    X = np.asarray(dataset.X, dtype=float)
    y = np.asarray(dataset.y, dtype=float).ravel()
    W = np.asarray(W, dtype=float)
    n, k = W.shape
    if n * k > LSPAR_SIZE_CAP:
        raise SubdiffError(f"lspar check supports k*n <= {LSPAR_SIZE_CAP}")
    N = X.shape[0]
    act_tol = tol if act_tol is None else act_tol
    if not act_tol >= 0:
        raise ValueError(f"act_tol must be >= 0, got {act_tol}")
    Z = X @ W  # (N, k) branch values
    gvals = Z.max(axis=1)
    resid = gvals - y
    active = Z >= (gvals - act_tol)[:, None]
    tied = active.sum(axis=1) > 1
    neg, pos = tied & (resid < 0), tied & (resid > 0)
    total = 1
    for size in active[neg].sum(axis=1).tolist():
        total *= size
        if total > selection_cap:
            raise TooManyTiesError(
                f"TOO_MANY_TIES: {total}+ branch selections; perturb W"
            )

    # linear part common to all selections: every sample with a non-zero
    # residual and one active branch (its argmax, as act_tol >= 0), added
    # in sample order as the per-sample sum would
    one = (resid != 0.0) & ~neg & ~pos
    base = np.zeros((n, k))
    np.add.at(base.T, Z[one].argmax(axis=1), (resid[one] / N)[:, None] * X[one])

    lp = bool(pos.any())
    if lp:
        # vars: D (n*k, box; row-major (n, k)) and one epigraph var z_j per
        # tied positive sample s_j; rows d_i^T x_s - z_j <= 0 for j, then i
        # ascending, then the box
        nv = n * k + int(pos.sum())
        jj, ii = np.nonzero(active[pos])
        r = np.arange(jj.size)
        ties = np.zeros((jj.size, nv))
        ties[r[:, None], np.arange(n) * k + ii[:, None]] = X[pos][jj]
        ties[r, n * k + jj] = -1.0
        eye = np.eye(n * k, nv)
        A_ub = np.concatenate([ties, eye, -eye])
        b_ub = np.concatenate([np.zeros(jj.size), np.ones(2 * n * k)])
        c_ties = resid[pos] / N

    best_val = np.inf
    best_witnesses: list = []
    n_sel = 0
    neg_terms = (resid[neg] / N)[:, None] * X[neg]
    choice_lists = [np.flatnonzero(row).tolist() for row in active[neg]]
    for combo in itertools.product(*choice_lists):
        n_sel += 1
        G = base.copy()
        for term, i in zip(neg_terms, combo):
            G[:, i] += term
        if not lp:
            val = float(-np.abs(G).sum())
            Dw = np.where(G > 0, -1.0, np.where(G < 0, 1.0, -1.0))
        else:
            res = lp_solve(np.concatenate([G.ravel(), c_ties]), A_ub, b_ub)
            if not res.optimal:
                raise SubdiffError("internal: lspar direction LP failed")
            val = float(res.value)
            Dw = res.x[: n * k].reshape(n, k)
        if val < best_val - MIN_TIE_TOL:
            best_val = val
            best_witnesses = [Dw]
        elif val <= best_val + MIN_TIE_TOL:
            best_witnesses.append(Dw)

    is_d = best_val >= -tol
    witness = None
    if not is_d:
        witness = _lex_smallest(best_witnesses)
    return DStatCertificate(
        is_d_stationary=bool(is_d),
        min_value=float(best_val),
        tol=tol,
        n_selections=n_sel,
        witness=witness,
    )
