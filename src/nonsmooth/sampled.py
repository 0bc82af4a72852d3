"""Numeric sampling oracles for general locally Lipschitz functions.

These accept any evaluator (including registry builtins the exact engine
refuses) and report diagnostics instead of silently returning garbage:
difference-quotient estimates carry a convergence flag, and set estimates
carry their sampling parameters and a per-rung trace.  All sampling is
seeded through :mod:`nonsmooth.rng`, so results are reproducible
bit-for-bit.

Each oracle draws a rung of points at once and asks for all of them in one
call of the callable's ``rows(P)``: :func:`as_evaluator` and
:func:`as_gradient_oracle` answer it with one batched pass over the
expression's tape, bit-equal to their single-point calls, and check the
points as :func:`~nonsmooth.expr.evaluate` does.  A plain callable without
``rows`` is called once per row.

A rung's draws depend only on (seed, rung, samples, dimension, radius),
never on the point or the function, so :func:`_draws` makes them once per
process and keeps them read-only in a memo of at most
:data:`DRAW_MEMO_BYTES`; each call then only adds them to its point.  A
rung larger than the budget is drawn on every call.  The arguments are
checked up front, each with a ``ValueError``, so no bad key is ever stored.
"""

from __future__ import annotations

import math
import sys
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from .expr import Expr, _check_rows, _sweep_rows, _tape, evaluate
from .polyhedra import SetUnion, conv_hull, contains, set_distance
from .rng import make_rng
from .subdiff import DirDerivValue, SubdiffKind, SubdiffSet
from .tolerances import FD_OSC_TOL

__all__ = [
    "fd_dir_deriv",
    "sampled_clarke_dd",
    "gradient_sampling",
    "sampled_c_stationarity",
    "as_evaluator",
    "as_gradient_oracle",
    "default_schedule",
]

DEFAULT_SEED = 42

# Bytes the memo of _draws may hold, counting arrays, their headers, keys
# and tuples.  The default budgets (5 rungs of 2000 points for
# sampled_clarke_dd, 1500 for gradient_sampling) take 1.09 MB in 30 entries
# for dimensions 1, 2 and 3 together, measured with numpy 2.4 on CPython
# 3.11; the budget holds that about 3.8 times.  A full memo drops its oldest
# entries first.
DRAW_MEMO_BYTES = 4 << 20
_CLARKE, _GS = 101, 202  # the oracles' stream ids
_DRAWS: dict = {}  # (stream, seed, k, samples, n, radius) -> (draws, bytes)
_DRAWS_LOCK = threading.Lock()
_draws_held = 0  # the bytes _DRAWS holds


def default_schedule() -> np.ndarray:
    """The default step schedule t_k = 2^-k, k = 8 .. 40."""
    return np.array([2.0 ** -k for k in range(8, 41)])


def as_evaluator(e: Expr) -> Callable[[np.ndarray], float]:
    """Plain float evaluator for an expression.

    ``f.rows(P)`` evaluates the rows of ``P`` (S, n) in one batched pass and
    returns the values (S,), each bit-equal to ``f(P[i])``; it checks the
    points as :func:`~nonsmooth.expr.evaluate` does.
    """

    def f(x) -> float:
        return evaluate(e, x)

    def rows(P) -> np.ndarray:
        return _sweep_rows(_tape(e), _check_rows(e, P))

    f.rows = rows
    return f


def as_gradient_oracle(e: Expr) -> Callable[[np.ndarray], Optional[np.ndarray]]:
    """Almost-everywhere gradient oracle for an expression.

    Returns the gradient where the expression is differentiable and ``None``
    at kinks (a Max/Min tie between children with different gradients, Abs
    of a zero with a non-zero gradient, builtin non-smooth points).  Builtins
    contribute via their registry derivative.  ``grad.rows(P)`` answers for
    the rows of ``P`` (S, n) in one batched pass: the gradients (S, n) and
    a kink mask (S,), where a kink row's gradient is meaningless.  Both
    check the points as :func:`~nonsmooth.expr.evaluate` does.
    """

    def rows(P) -> tuple:
        return _sweep_rows(_tape(e), _check_rows(e, P), grad=True)[1:]

    def grad(x) -> Optional[np.ndarray]:
        G, kink = rows(np.reshape(np.asarray(x, dtype=float), (1, -1)))
        return None if kink[0] else G[0]

    grad.rows = rows
    return grad


def _rows(f: Callable, P: np.ndarray, grad: bool = False):
    """``f`` at the rows of ``P``: ``f.rows(P)`` when ``f`` has it, else one
    call per row.  Values (S,), or with ``grad`` (gradients (S, n), kink
    mask (S,)) from an oracle that answers ``None`` at kinks."""
    if hasattr(f, "rows"):
        return f.rows(P)
    out = [f(p) for p in P]
    if not grad:
        return np.array(out, dtype=float).reshape(len(P))  # a value may be a 1-element array
    kink = np.array([g is None for g in out], dtype=bool)
    G = np.array([np.zeros(P.shape[1]) if g is None else g for g in out], dtype=float)
    return G.reshape(P.shape), kink


def _pow10(exps: np.ndarray) -> np.ndarray:
    """10 ** e for each e, rounded as the scalar power rounds (numpy's
    vectorized power may differ from it in the last place)."""
    return np.array([10.0 ** t for t in exps.tolist()])


def _draws(stream: int, seed: int, k: int, samples: int, n: int, radius: float) -> tuple:
    """Rung k's seeded draws, read-only: ``(r, offs, t)`` for
    :func:`sampled_clarke_dd` (base-point offsets (samples, n) and steps
    (samples,)) and ``(r, disp)`` for :func:`gradient_sampling`
    (displacements (samples, n)), with r = radius * 2^-k.

    Memoized per process within :data:`DRAW_MEMO_BYTES`.  Threads that race
    on a key draw it twice and keep one of two equal results.
    """
    key = (stream, seed, k, samples, n, radius)
    hit = _DRAWS.get(key)
    if hit is not None:
        return hit[0]
    r = radius * 2.0 ** -k
    rng = make_rng(seed, stream, k)
    if stream == _CLARKE:
        offs = rng.uniform(-r, r, size=(samples, n))
        arrays = (offs, r * _pow10(rng.uniform(-8.0, 0.0, size=samples)))
    else:
        dirs = rng.standard_normal(size=(samples, n))
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
        arrays = ((r * _pow10(rng.uniform(-8.0, 0.0, size=samples)))[:, None] * dirs,)
    for a in arrays:
        a.flags.writeable = False
    draws = (r, *arrays)
    size = sum(map(sys.getsizeof, (key, draws, *arrays)))
    if size <= DRAW_MEMO_BYTES:
        _keep(key, draws, size)
    return draws


def _keep(key: tuple, draws: tuple, size: int) -> None:
    """Store ``draws`` under ``key``, dropping the oldest entries until the
    memo fits in :data:`DRAW_MEMO_BYTES`."""
    global _draws_held
    with _DRAWS_LOCK:
        if key in _DRAWS:
            return
        while _DRAWS and _draws_held + size > DRAW_MEMO_BYTES:
            _draws_held -= _DRAWS.pop(next(iter(_DRAWS)))[1]
        _DRAWS[key] = (draws, size)
        _draws_held += size


def _check_radius(radius) -> float:
    """``radius`` as a float, checked to be finite and positive."""
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    return float(radius)


def fd_dir_deriv(
    f: Callable[[np.ndarray], float],
    x,
    d,
    schedule: Optional[Sequence[float]] = None,
) -> DirDerivValue:
    """Finite-difference estimate of f'(x, d) from a decreasing t-schedule.

    Evaluates the one-sided difference quotient (f(x + t d) - f(x)) / t
    along the schedule and reports the last quotient (no extrapolation).
    The estimate is flagged NON_CONVERGENT when the last five quotients
    oscillate by more than :data:`~nonsmooth.tolerances.FD_OSC_TOL`, which
    ``params["osc_tol"]`` reports; ``amplitude`` records the quotient
    oscillation across the whole schedule.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = np.atleast_1d(np.asarray(d, dtype=float))
    ts = default_schedule() if schedule is None else np.asarray(schedule, dtype=float)
    if ts.size == 0:
        raise ValueError("schedule must not be empty")
    if np.any(ts <= 0) or np.any(np.diff(ts) >= 0):
        raise ValueError("schedule must be positive and strictly decreasing")
    vals = _rows(f, np.vstack([x, x + ts[:, None] * d]))
    quotients = (vals[1:] - vals[0]) / ts
    tail = quotients[-5:] if quotients.size >= 5 else quotients
    osc = float(tail.max() - tail.min())
    amp = float(quotients.max() - quotients.min())
    return DirDerivValue(
        value=float(quotients[-1]),
        kind="ordinary",
        exactness="sampled",
        converged=osc <= FD_OSC_TOL,
        oscillation=osc,
        amplitude=amp,
        quotients=tuple(quotients.tolist()),
        params={"schedule": ts.tolist(), "osc_tol": FD_OSC_TOL},
    )


def sampled_clarke_dd(
    f: Callable[[np.ndarray], float],
    x,
    d,
    radius: float = 0.1,
    samples: int = 2000,
    seed: int = DEFAULT_SEED,
    rungs: int = 5,
) -> DirDerivValue:
    """Sampling estimate of the Clarke directional derivative f°(x, d).

    For a shrinking radius ladder r_k = radius * 2^-k we take the max
    difference quotient over sampled base points ||x' - x|| <= r_k and
    steps t <= r_k (log-uniform, so tiny steps that expose the local slope
    are well represented).  The reported value extrapolates the per-rung
    maxima to radius 0 by a linear fit; the rung trace rides along.
    """
    radius = _check_radius(radius)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if rungs < 2:
        raise ValueError("rungs must be at least 2 for the fit to radius 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = np.atleast_1d(np.asarray(d, dtype=float))
    n = x.size
    rung_radii = []
    rung_max = []
    for k in range(rungs):
        r, offs, t = _draws(_CLARKE, seed, k, samples, n, radius)
        xp = x + offs
        q = (_rows(f, xp + t[:, None] * d) - _rows(f, xp)) / t
        q = q[~np.isnan(q)]  # a NaN quotient never raises the max
        # the first largest quotient, as a running `q > best` keeps it
        best = q[np.flatnonzero(q == q.max())[0]] if q.size else -math.inf
        rung_radii.append(r)
        rung_max.append(best)
    rr = np.array(rung_radii)
    mm = np.array(rung_max)
    coef = np.polyfit(rr, mm, 1)  # m ~ a*r + b, report b
    value = float(coef[1])
    return DirDerivValue(
        value=value,
        kind="clarke",
        exactness="sampled",
        converged=True,
        oscillation=float(mm.max() - mm.min()),
        amplitude=float(mm.max() - mm.min()),
        quotients=tuple(mm.tolist()),
        params={
            "radius_ladder": rr.tolist(),
            "rung_max": mm.tolist(),
            "samples": samples,
            "seed": seed,
        },
    )


def gradient_sampling(
    grad: Callable[[np.ndarray], Optional[np.ndarray]],
    x,
    radius: float = 0.1,
    samples: int = 1500,
    seed: int = DEFAULT_SEED,
    rungs: int = 5,
) -> SubdiffSet:
    """Sampled Clarke subdifferential: hull of gradients near x.

    ``grad`` returns the gradient at differentiable points and ``None`` at
    kinks (which are skipped; they carry no measure).  Base points are drawn
    with log-uniform radii inside each rung so behavior at every scale near
    x contributes.  Reported set: convex hull of the final rung's gradient
    cloud; the per-rung Hausdorff trace between consecutive hulls goes into
    the notes.
    """
    radius = _check_radius(radius)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if rungs < 1:
        raise ValueError("rungs must be at least 1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.size
    hulls = []
    for k in range(rungs):
        disp = _draws(_GS, seed, k, samples, n, radius)[1]
        G, kink = _rows(grad, x + disp, grad=True)
        cloud = G[~kink]
        if not len(cloud):
            raise ValueError("no differentiable samples found; enlarge the budget")
        hulls.append(conv_hull(cloud))
    trace = [
        set_distance(SetUnion((a,)), SetUnion((b,))) for a, b in zip(hulls, hulls[1:])
    ]
    final = hulls[-1]
    return SubdiffSet(
        kind=SubdiffKind.CLARKE,
        set=SetUnion((final,)),
        at=x,
        exactness="sampled",
        tolerance=float(trace[-1]) if trace else 0.0,
        notes=(
            "rung_hausdorff=" + ",".join(f"{t:.3e}" for t in trace),
            f"samples={samples}",
            f"seed={seed}",
        ),
    )


def sampled_c_stationarity(
    grad: Callable[[np.ndarray], Optional[np.ndarray]],
    x,
    tol: float = 0.02,
    radius: float = 0.1,
    samples: int = 1500,
    seed: int = DEFAULT_SEED,
) -> bool:
    """C-stationarity from samples: is 0 within ``tol`` of the sampled hull?

    Approximate by construction; pair it with the exact engine whenever the
    fragment supports one.  ``tol`` must be >= 0.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    ss = gradient_sampling(grad, x, radius=radius, samples=samples, seed=seed)
    return contains(ss.set, np.zeros(np.atleast_1d(np.asarray(x)).size), tol)
