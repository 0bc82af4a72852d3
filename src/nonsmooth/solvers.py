"""Iterative methods: subgradient descent variants and the MM solver.

The subgradient method is not a descent method, so every trace records the
best objective and point seen alongside the objective history.  Step
schedules are plain value objects; oracles pair an objective evaluator with
a map returning one member of the subdifferential at each point.

For least-squares piecewise-affine regression (LSPAR) this module provides
the mean-square objective, the pseudo-subgradient that pretends the basic
chain rule holds (back-propagation style, smallest index winning argmax
ties), a diminishing-step subgradient loop that runs many trials in
lockstep, the ridge-regularized least-squares subproblem solver, and a
non-monotone majorization-minimization loop that terminates with an exact
d-stationarity certificate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .expr import _ABS, _BUILTIN, _MAX, BUILTINS, Expr, _check_point, _sweep, _tape, evaluate
from .polyhedra import Ball, Box, HPolyhedron
from .stationarity import DStatCertificate, lspar_d_stationarity_check
from .tolerances import (
    DYKSTRA_FEAS_TOL,
    DYKSTRA_MOVE_TOL,
    MM_EPS_FLOOR,
    NORMAL_EQ_RTOL,
    PROJECTION_TOL,
)

__all__ = [
    "Constant",
    "Diminishing",
    "Geometric",
    "Polyak",
    "StepSchedule",
    "SubgradOracle",
    "oracle_from_expr",
    "SolverTrace",
    "subgradient_method",
    "projected_subgradient",
    "project",
    "ProjectionError",
    "lspar_objective",
    "lspar_pseudo_subgrad",
    "lspar_subgradient_lockstep",
    "lspar_oracle",
    "mm_lspar",
]


class ProjectionError(Exception):
    pass


# ---------------------------------------------------------------------------
# Step schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    alpha: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("constant step must be positive")

    def step(self, k: int, f_val: float, gnorm: float) -> float:
        return self.alpha


@dataclass(frozen=True)
class Diminishing:
    """alpha_k = c / sqrt(k + 1)."""

    c: float

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("diminishing coefficient must be positive")

    def step(self, k: int, f_val: float, gnorm: float) -> float:
        return self.c / math.sqrt(k + 1.0)


@dataclass(frozen=True)
class Geometric:
    """alpha_k = alpha0 * q^k with 0 < q < 1."""

    alpha0: float
    q: float

    def __post_init__(self):
        if self.alpha0 <= 0 or not (0.0 < self.q < 1.0):
            raise ValueError("geometric schedule needs alpha0 > 0 and q in (0,1)")

    def step(self, k: int, f_val: float, gnorm: float) -> float:
        return self.alpha0 * self.q**k


@dataclass(frozen=True)
class Polyak:
    """alpha_k = (f(x_k) - f_star + margin) / ||s_k||^2, clipped at 0."""

    f_star: float
    margin: float = 0.0

    def __post_init__(self):
        if self.margin < 0:
            raise ValueError("polyak margin must be >= 0")

    def step(self, k: int, f_val: float, gnorm: float) -> float:
        gap = f_val - self.f_star + self.margin
        if gap <= 0 or gnorm <= 0:
            return 0.0
        return gap / (gnorm * gnorm)


StepSchedule = Union[Constant, Diminishing, Geometric, Polyak]


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubgradOracle:
    """Objective evaluator plus a map returning one subgradient element.

    ``both``, when given, returns ``(fn(x), subgrad(x))`` from one
    evaluation; the solvers call it in place of the pair.
    """

    fn: Callable[[np.ndarray], float]
    subgrad: Callable[[np.ndarray], np.ndarray]
    both: Optional[Callable[[np.ndarray], tuple]] = None

    def value_and_subgrad(self, x) -> tuple:
        if self.both is not None:
            return self.both(x)
        return self.fn(x), self.subgrad(x)


def oracle_from_expr(e: Expr) -> SubgradOracle:
    """Oracle for an expression with a deterministic subgradient tie rule.

    Argmax/argmin ties resolve to the smallest child index; the Abs node at
    zero contributes 0 (the midpoint of its subdifferential interval), so
    Sign(0) = 0.  Builtins use their registry derivative where it exists.
    The tie rule keeps every node value of :func:`evaluate`, so ``both``
    reads the objective off the subgradient's sweep; ``subgrad`` checks its
    point as ``fn`` does.
    """

    tape = _tape(e)

    def tie_rule(k, op, V, D):
        ks = tape.kids[k]
        if op == _BUILTIN:
            t0, g = V[ks[0]], D[ks[0]]
            spec = BUILTINS[tape.args[k]]
            dv = spec.deriv(t0)
            if dv is None:
                dv = spec.one_sided(t0, 1)
            if dv is None:
                dv = 0.0
            return spec.value(t0), dv * g
        if op == _ABS:
            v, g = V[ks[0]], D[ks[0]]
            if v > 0:
                return v, g
            if v < 0:
                return -v, -g
            return abs(v), np.zeros(g.size)  # Sign(0) -> 0
        vals = [V[c] for c in ks]
        v = max(vals) if op == _MAX else min(vals)
        return v, D[ks[vals.index(v)]]  # smallest index wins ties

    def both(x) -> tuple:
        V, D = _sweep(tape, _check_point(e, x), grad=True, hook=tie_rule)
        return V[-1], D[-1]

    return SubgradOracle(
        fn=lambda x: evaluate(e, np.atleast_1d(x)), subgrad=lambda x: both(x)[1], both=both
    )


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


@dataclass
class SolverTrace:
    """Iterate/objective/step history of one solver run."""

    objectives: np.ndarray
    steps: np.ndarray
    best_f: float
    best_x: np.ndarray
    final_x: np.ndarray
    termination: str
    wall_s: float = 0.0
    walls: Optional[np.ndarray] = None  # elapsed seconds at each iterate
    dists: Optional[np.ndarray] = None
    extras: dict = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return int(self.objectives.size)


def _dist_fn(ref):
    if ref is None:
        return None
    if callable(ref):
        return ref
    ref = np.asarray(ref, dtype=float)
    return lambda x: float(np.linalg.norm(np.asarray(x) - ref))


# ---------------------------------------------------------------------------
# Subgradient methods
# ---------------------------------------------------------------------------


def subgradient_method(
    oracle: SubgradOracle,
    x0,
    schedule: StepSchedule,
    max_iter: int = 1000,
    ref=None,
) -> SolverTrace:
    """x_{k+1} = x_k - alpha_k s_k with s_k from the oracle.

    Not a descent method; the trace records the best objective seen.  Stops
    early when s_k = 0 (termination SMALL_SUBGRADIENT) and otherwise runs
    ``max_iter`` steps.  ``ref`` (point or callable) adds a per-iterate
    distance column.
    """
    return _subgradient_loop(oracle, None, x0, schedule, max_iter, ref)


def _subgradient_loop(oracle, projector, x0, schedule, max_iter, ref):
    """The loop of both subgradient methods; with a ``projector`` the start
    and every step are projected onto it."""
    x = np.array(x0, dtype=float)
    if projector is not None:
        x = project(projector, x)
    dist = _dist_fn(ref)
    fs, steps, dists, walls = [], [], [], []
    best_f, best_x = math.inf, x.copy()
    termination = "MAX_ITER"
    t0 = time.perf_counter()
    for k in range(max_iter):
        f, s = oracle.value_and_subgrad(x)
        f = float(f)
        fs.append(f)
        walls.append(time.perf_counter() - t0)
        if dist is not None:
            dists.append(dist(x))
        if f < best_f:
            best_f, best_x = f, x.copy()
        s = np.asarray(s, dtype=float)
        gnorm = float(np.linalg.norm(s))
        if gnorm == 0.0:
            steps.append(0.0)
            termination = "SMALL_SUBGRADIENT"
            break
        alpha = schedule.step(k, f, gnorm)
        steps.append(alpha)
        x = x - alpha * s
        if projector is not None:
            x = project(projector, x)
    return SolverTrace(
        objectives=np.array(fs),
        steps=np.array(steps),
        best_f=best_f,
        best_x=best_x,
        final_x=x,
        termination=termination,
        wall_s=time.perf_counter() - t0,
        walls=np.array(walls),
        dists=np.array(dists) if dist is not None else None,
    )


# Dykstra's sweep cap; at the cap a point feasible to PROJECTION_TOL is still
# accepted, and any other raises ProjectionError
DYKSTRA_MAX_SWEEPS = 20000


def project(C: Union[Box, Ball, HPolyhedron], x) -> np.ndarray:
    """Euclidean projection onto a box, ball, or halfspace intersection.

    Boxes and balls are closed form; halfspace intersections use Dykstra's
    alternating projections, at most :data:`DYKSTRA_MAX_SWEEPS` sweeps, and
    the result is feasible to :data:`~nonsmooth.tolerances.PROJECTION_TOL`.
    Raises :class:`ProjectionError` when the set's dimension is not the
    point's.
    """
    x = np.asarray(x, dtype=float).copy()
    if not isinstance(C, (Box, Ball, HPolyhedron)):
        raise ProjectionError(f"no projector for {type(C).__name__}")
    if C.dim != x.size:
        raise ProjectionError(f"cannot project a point of dimension {x.size} onto a {C.dim}-D set")
    if isinstance(C, Box):
        return np.clip(x, C.lo, C.hi)
    if isinstance(C, Ball):
        d = x - C.center
        nrm = float(np.linalg.norm(d))
        if nrm <= C.radius:
            return x
        return C.center + (C.radius / nrm) * d
    if isinstance(C, HPolyhedron):
        A, b = C.A, C.b
        norms2 = np.sum(A * A, axis=1)
        y = x.copy()
        incr = np.zeros((A.shape[0], x.size))
        for sweep in range(DYKSTRA_MAX_SWEEPS):
            max_move = 0.0
            for i in range(A.shape[0]):
                z = y + incr[i]
                viol = float(A[i] @ z - b[i])
                if viol > 0:
                    ynew = z - (viol / norms2[i]) * A[i]
                else:
                    ynew = z
                incr[i] = z - ynew
                max_move = max(max_move, float(np.abs(ynew - y).max()))
                y = ynew
            if np.all(A @ y - b <= DYKSTRA_FEAS_TOL) and max_move <= DYKSTRA_MOVE_TOL:
                return y
        resid = float(np.max(A @ y - b))
        if resid <= PROJECTION_TOL:
            return y
        raise ProjectionError(
            f"projection did not converge in {DYKSTRA_MAX_SWEEPS} sweeps; residual {resid:.3e}"
        )


def projected_subgradient(
    oracle: SubgradOracle,
    projector: Union[Box, Ball, HPolyhedron],
    x0,
    schedule: StepSchedule,
    max_iter: int = 1000,
) -> SolverTrace:
    """x_{k+1} = Pi_C(x_k - alpha_k s_k); every iterate is feasible to
    :data:`~nonsmooth.tolerances.PROJECTION_TOL`."""
    return _subgradient_loop(oracle, projector, x0, schedule, max_iter, None)


# ---------------------------------------------------------------------------
# Ridge-regularized least squares (MM subproblem)
# ---------------------------------------------------------------------------


def _sample_products(X, y) -> tuple:
    """Per-sample outer products x xᵀ, flattened to (N, n*n), and x y, (N, n)."""
    N, n = X.shape
    return (X[:, :, None] * X[:, None, :]).reshape(N, n * n), X * y[:, None]


def _normal_products(XX, Xy, masks, scale: float) -> tuple:
    """The c-free parts of the normal equations of :func:`_ridge_solve`.

    ``masks`` (..., N) holds 0/1 sample indicators, one row per block.
    Returns scale Σ_s m_bs x_s x_sᵀ (..., n, n), scale Σ_s m_bs x_s y_s
    (..., n) and which blocks hold a sample (...,).
    """
    n = Xy.shape[1]
    G = scale * (masks @ XX).reshape(masks.shape[:-1] + (n, n))
    return G, scale * (masks @ Xy), masks.any(axis=-1)


def _ridge_solve(products, c: float, anchors) -> np.ndarray:
    """Ridge least-squares minimizers of many sample subsets, solved at once.

    ``products`` comes from :func:`_normal_products` and ``anchors``
    broadcasts to (..., n).  Block b solves
    (scale Σ_s m_bs x_s x_sᵀ + c I) w = scale Σ_s m_bs x_s y_s + c anchor_b;
    every block's residual is verified to
    :data:`~nonsmooth.tolerances.NORMAL_EQ_RTOL`.  A block with no sample
    returns its anchor unchanged.
    """
    G, q, nonempty = products
    H = G + c * np.eye(G.shape[-1])
    rhs = q + c * anchors
    w = np.linalg.solve(H, rhs[..., None])
    resid = np.linalg.norm((H @ w)[..., 0] - rhs, axis=-1)
    bound = NORMAL_EQ_RTOL * np.maximum(1.0, np.linalg.norm(rhs, axis=-1))
    if np.any(resid > bound):
        raise ArithmeticError(f"normal equations residual too large: {resid.max():.3e}")
    return np.where(nonempty[..., None], w[..., 0], anchors)


# ---------------------------------------------------------------------------
# LSPAR: objective, pseudo-subgradient, MM
# ---------------------------------------------------------------------------


def _lspar_batch(X, y, W) -> tuple:
    """Objectives (T,) and pseudo-subgradients (T, n, k) of T LSPAR problems.

    ``X`` (T, N, n), ``y`` (T, N) and ``W`` (T, n, k) are float arrays; one
    ``Z = X @ W`` serves both outputs.  Each branch's gradient is accumulated
    in sample order (``np.add.at`` over flattened (trial, branch) cells), so
    a trial's results do not depend on T or on the other trials and match
    the per-sample formula bit for bit.  A BLAS matmul does not promise that
    order, and 1500 non-smooth steps amplify any rounding difference.
    """
    T, N, n = X.shape
    k = W.shape[-1]
    Z = X @ W
    winners = Z.argmax(axis=-1).reshape(-1)  # numpy argmax returns the first (smallest) index
    r = Z.reshape(-1)[np.arange(0, Z.size, k) + winners].reshape(T, N) - y
    f = 0.5 * ((r * r).sum(axis=-1) / N)  # np.mean's own sum, then divide
    cells = np.repeat(np.arange(0, T * k, k), N) + winners
    q = (r / N).reshape(-1)
    G = np.zeros((n, T * k))
    for j in range(n):
        np.add.at(G[j], cells, q * X[..., j].reshape(-1))
    return f, G.reshape(n, T, k).transpose(1, 0, 2)


def _one_trial(X, y, W) -> tuple:
    return (
        np.asarray(X, dtype=float)[None],
        np.asarray(y, dtype=float).ravel()[None],
        np.asarray(W, dtype=float)[None],
    )


def lspar_objective(X, y, W) -> float:
    """(1/2N) sum_s (y_s - max_i w_i^T x_s)^2."""
    return float(_lspar_batch(*_one_trial(X, y, W))[0][0])


def lspar_pseudo_subgrad(X, y, W) -> np.ndarray:
    """Chain-rule-pretending subgradient of the LSPAR objective.

    grad w.r.t. w_i = (1/N) sum_s (g_s(W) - y_s) x_s [i = argmax_j w_j^T x_s]
    with the smallest index winning argmax ties.
    """
    return _lspar_batch(*_one_trial(X, y, W))[1][0]


def lspar_subgradient_lockstep(X, y, W0, coeffs, max_iter: int = 1000) -> tuple:
    """T pseudo-subgradient runs on LSPAR with diminishing steps, in lockstep.

    Trial t fits ``X[t]`` (N, n) and ``y[t]`` (N,) from ``W0[t]`` (n, k)
    with step ``coeffs[t] / sqrt(i + 1)`` at iteration i.  Its arithmetic is
    that of ``subgradient_method(lspar_oracle(dataset_t), W0[t],
    Diminishing(coeffs[t]), max_iter)``, so its results are bit-identical to
    that run whatever T is.  A trial whose pseudo-subgradient norm reaches 0
    freezes there (SMALL_SUBGRADIENT).  Returns ``(final_f, best_f, iters)``,
    each of shape (T,): the objective at the last evaluated iterate, the
    best objective seen, and the number of objective evaluations.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    W = np.array(W0, dtype=float)
    c = np.asarray(coeffs, dtype=float)
    if (
        X.ndim != 3
        or W.ndim != 3
        or y.shape != X.shape[:2]
        or W.shape[:2] != (X.shape[0], X.shape[2])
        or c.shape != X.shape[:1]
    ):
        raise ValueError(
            "lspar_subgradient_lockstep expects X (T, N, n), y (T, N), W0 (T, n, k) "
            f"and coeffs (T,); got {X.shape}, {y.shape}, {W.shape}, {c.shape}"
        )
    T = X.shape[0]
    if not np.all(c > 0):
        raise ValueError("diminishing coefficients must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    final_f, best_f = np.empty(T), np.empty(T)
    iters = np.full(T, max_iter)
    live = np.arange(T)  # trial ids of the rows still running
    best = np.full(T, math.inf)
    for it in range(max_iter):
        f, G = _lspar_batch(X, y, W)
        best = np.fmin(best, f)  # `f < best_f` of subgradient_method: NaN never wins
        stopped = (G * G).sum(axis=(1, 2)) <= 0.0  # ||G|| = 0
        if stopped.any():
            done = live[stopped]
            final_f[done], best_f[done], iters[done] = f[stopped], best[stopped], it + 1
            keep = ~stopped
            live, X, y, W, c, f, best, G = (
                a[keep] for a in (live, X, y, W, c, f, best, G)
            )
            if live.size == 0:
                break
        W = W - (c / math.sqrt(it + 1.0))[:, None, None] * G
    final_f[live], best_f[live] = f, best
    return final_f, best_f, iters


def lspar_oracle(dataset) -> SubgradOracle:
    X = np.asarray(dataset.X, dtype=float)
    y = np.asarray(dataset.y, dtype=float).ravel()

    def both(W) -> tuple:
        f, G = _lspar_batch(*_one_trial(X, y, W))
        return float(f[0]), G[0]

    return SubgradOracle(
        fn=lambda W: lspar_objective(X, y, W),
        subgrad=lambda W: lspar_pseudo_subgrad(X, y, W),
        both=both,
    )


# MM solves and scores its candidates in stacks of at most this many.  On the
# lspar benchmark (2 vCPUs), one stack of all 256 candidates (MM_SELECTION_CAP)
# raised peak RSS by 7.5% over the per-candidate loop, stacks of 64 by 3.4%;
# their speed was the same within noise.
CANDIDATE_STACK = 64


def _candidate_assignments(base, margins, active, cap: int) -> np.ndarray:
    """Branch assignments (C, N) of the MM candidates, cheapest first.

    Samples with one eps-active branch keep their ``base`` branch; the
    ambiguous ones take the ``cap`` cheapest selections of their active
    branches by total margin (summed in sample order), ties broken
    lexicographically by choice rank (a sample ranks its branches by margin,
    then index), so with no ambiguous sample the one candidate is ``base``.
    The fold over the ambiguous samples keeps the ``cap`` best partial
    selections, which is exact: a top-``cap`` selection has a top-``cap``
    prefix.  Rows carry the rank of their choice tuple, so each step sorts
    on two keys.
    """
    counts = active.sum(axis=1)
    amb = np.flatnonzero(counts > 1)
    M = np.where(active[amb], margins[amb], np.inf)
    order = np.argsort(M, axis=1, kind="stable")  # by (margin, branch)
    costs = np.take_along_axis(M, order, axis=1)
    totals, lex = np.zeros(1), np.zeros(1, dtype=np.intp)
    picks = np.empty((1, 0), dtype=np.intp)
    for j, m in enumerate(counts[amb]):
        tot = (totals[:, None] + costs[j, :m]).ravel()
        key = (lex[:, None] * m + np.arange(m)).ravel()
        keep = np.lexsort((key, tot))[:cap]
        rows, ranks = np.divmod(keep, m)
        totals, picks = tot[keep], np.column_stack([picks[rows], order[j, ranks]])
        lex = np.argsort(np.argsort(key[keep]))
    assign = np.tile(base, (totals.size, 1))
    assign[:, amb] = picks
    return assign


def _candidate_scores(Z, y) -> np.ndarray:
    """LSPAR objectives (C,) of C candidates from their branch values Z
    (C, N, k); a non-finite objective scores inf.

    The max over the k branches is a running ``np.maximum`` over Z's
    columns, bit for bit ``Z.max(axis=-1)`` (max is exact, and NaN
    propagates in both): numpy reduces a short last axis row by row, so at
    C = 64, N = 100, k = 4 the whole score took 390 µs with that reduction
    and 43 µs with the fold (numpy 2.4, one core of a 2-vCPU VM).
    """
    r = Z[..., 0].copy()
    for j in range(1, Z.shape[-1]):
        np.maximum(r, Z[..., j], out=r)
    r -= y
    f = 0.5 * np.mean(r * r, axis=-1)
    f[~np.isfinite(f)] = math.inf
    return f


# The fixed choices of mm_lspar, which its docstring describes; criterion 7's
# frozen pin was measured with these values
MM_C0 = 1.0
MM_C_MIN = 1e-9
MM_ETA = 1e-4
MM_SHRINK = 0.5
MM_MAX_OUTER = 200
MM_SELECTION_CAP = 256


def mm_lspar(dataset, W0) -> tuple:
    """Majorization-minimization for LSPAR with a d-stationarity certificate.

    eps starts at max(0.1 mean|y|, ``MM_EPS_FLOOR``) and c at ``MM_C0``.
    Outer loop, at most ``MM_MAX_OUTER`` times: build eps-active branch
    sets; the candidates are the ``MM_SELECTION_CAP`` cheapest branch
    selections of the ambiguous samples by total margin, ties broken
    lexicographically by choice rank (exactly one when no sample is
    ambiguous); solve and score the ridge-regularized least-squares
    surrogates of all candidates in stacked solves of up to
    ``CANDIDATE_STACK`` candidates each (one stacked solve per outer
    iteration when there are no more), and accept the best candidate (the
    first one on ties) when the true objective decreases by at least
    ``MM_ETA`` * ||delta W||^2; an accepted step halves c down to
    ``MM_C_MIN``.  When no candidate passes, the exact d-stationarity test
    (at its default tol, ``LSPAR_DSTAT_TOL``) either certifies termination
    or eps shrinks by ``MM_SHRINK`` and c doubles.  The test runs once per
    distinct iterate: rejected iterations keep W, so they reuse its
    certificate, and while the shrinking eps leaves the eps-active sets as
    they were, they reuse W's candidates and the c-free products of their
    normal equations.

    Returns (trace, certificate); certificate is the d-stationarity record
    at the final iterate in every termination path.  ``trace.extras`` counts
    the outer iterations and the candidate surrogates solved.
    """
    X = np.asarray(dataset.X, dtype=float)
    y = np.asarray(dataset.y, dtype=float).ravel()
    N, n = X.shape
    W = np.array(W0, dtype=float)
    k = W.shape[1]
    if n * k > 16:
        raise ValueError("mm_lspar supports k*n <= 16")
    eps = max(0.1 * float(np.mean(np.abs(y))), MM_EPS_FLOOR)
    c = MM_C0
    XX, Xy = _sample_products(X, y)
    branches = np.arange(k)[:, None]
    fs = [lspar_objective(X, y, W)]
    steps: list = []
    walls: list = [0.0]
    t0 = time.perf_counter()
    termination = "MAX_ITER"
    cert: Optional[DStatCertificate] = None
    outer_iters = candidates = 0
    active = None  # the eps-active sets the candidate stacks were built for
    for _ in range(MM_MAX_OUTER):
        outer_iters += 1
        f_cur = fs[-1]
        if active is None:  # W moved
            Z = X @ W
            margins = Z.max(axis=1)[:, None] - Z  # >= 0
        if active is None or not np.array_equal(margins <= eps, active):
            active = margins <= eps
            assign = _candidate_assignments(Z.argmax(axis=1), margins, active, MM_SELECTION_CAP)
            stacks = []
            for lo in range(0, assign.shape[0], CANDIDATE_STACK):
                masks = assign[lo : lo + CANDIDATE_STACK, None, :] == branches  # (C, k, N)
                stacks.append(_normal_products(XX, Xy, masks.astype(float), 1.0 / N))
        candidates += assign.shape[0]
        best_candidate, best_f = None, math.inf
        for products in stacks:
            Wtry = _ridge_solve(products, c, W.T).transpose(0, 2, 1)  # (C, n, k)
            ftry = _candidate_scores(X @ Wtry, y)
            best = int(np.argmin(ftry))
            if ftry[best] < best_f:  # strict: the first minimum wins across stacks
                best_candidate, best_f = Wtry[best], float(ftry[best])
        delta = (
            float(np.linalg.norm(best_candidate - W) ** 2)
            if best_candidate is not None
            else 0.0
        )
        if best_candidate is not None and f_cur - best_f >= MM_ETA * delta and best_f < f_cur:
            W = best_candidate
            fs.append(best_f)
            walls.append(time.perf_counter() - t0)
            steps.append(math.sqrt(delta))
            # successful steps relax the proximal damping so a stable branch
            # assignment converges at the rate of its least-squares subproblem
            c = max(MM_C_MIN, 0.5 * c)
            cert = active = None  # W moved
            continue
        if cert is None:  # the check is a function of (dataset, W) alone
            cert = lspar_d_stationarity_check(dataset, W)
        if cert.is_d_stationary:
            termination = "CONVERGED"
            break
        eps *= MM_SHRINK
        c *= 2.0
    if cert is None:
        cert = lspar_d_stationarity_check(dataset, W)
    trace = SolverTrace(
        objectives=np.array(fs),
        steps=np.array(steps),
        best_f=float(np.min(fs)),
        best_x=W.copy(),
        final_x=W.copy(),
        termination=termination,
        wall_s=time.perf_counter() - t0,
        walls=np.array(walls),
        extras={
            "eps_final": eps,
            "c_final": c,
            "certificate": cert.is_d_stationary,
            "candidates": candidates,
            "outer_iters": outer_iters,
        },
    )
    return trace, cert
