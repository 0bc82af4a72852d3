"""Experiment harnesses: data generators, application oracles, trial runners.

Two experiment families:

* piecewise-affine regression (LSPAR): fit y = max_i w_i^T x by the MM
  solver and by the pseudo-subgradient method from shared random starts,
  over many trials, reproducing the qualitative gap between the two;
* robust recovery: sign/amplitude retrieval, blind deconvolution, low-rank
  matrix recovery, and log-sum-penalized least squares, minimized by the
  subgradient method with a geometric step schedule, tracking distance to
  the planted signal modulo the model's symmetry group.

Every trial derives its random streams from (root seed, N, trial id), so
runs are reproducible bit-for-bit, trials can be re-run in isolation, and
the CSV outputs are byte-identical across repeats (wall-clock columns
aside).  Plots are written directly as SVG.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Optional, Sequence

import numpy as np

from .rng import make_rng, stream_key
from .solvers import (
    Geometric,
    SubgradOracle,
    lspar_subgradient_lockstep,
    mm_lspar,
    subgradient_method,
)

__all__ = [
    "LSPAR_TRUE_W",
    "LsparDataset",
    "gen_lspar_data",
    "SignRetrieval",
    "AmplitudeRetrieval",
    "BlindDeconv",
    "MatrixRecovery",
    "LogSumLS",
    "ROBUST_KINDS",
    "gen_robust_instance",
    "robust_objective",
    "robust_subgrad_oracle",
    "orbit_distance",
    "TrialRecord",
    "LsparExperimentConfig",
    "run_lspar_experiment",
    "run_single_lspar_trial",
    "RecoveryConfig",
    "run_recovery_experiment",
    "parse_config",
    "fit_log_linear",
]

# the planted 2-D convex piecewise linear model y = max{x1+x2, x1-x2, -2x1+x2, -2x1-x2}
LSPAR_TRUE_W = np.array([[1.0, 1.0, -2.0, -2.0], [1.0, -1.0, 1.0, -1.0]])


@dataclass(frozen=True)
class LsparDataset:
    X: np.ndarray  # (N, 2)
    y: np.ndarray  # (N,)
    N: int
    seed: int
    noise_sigma: float


def gen_lspar_data(N: int, noise_sigma: float, seed: int) -> LsparDataset:
    """Synthetic regression data: x uniform on [-1,1]^2, Gaussian noise.

    Regenerating with the same arguments is bit-identical.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    rng = make_rng(seed, 1)
    X = rng.uniform(-1.0, 1.0, size=(N, 2))
    noise = noise_sigma * rng.standard_normal(N) if noise_sigma > 0 else np.zeros(N)
    y = (X @ LSPAR_TRUE_W).max(axis=1) + noise
    return LsparDataset(X=X, y=y, N=N, seed=seed, noise_sigma=noise_sigma)


# ---------------------------------------------------------------------------
# Robust recovery instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignRetrieval:
    """b_i = (a_i^T x*)^2 + s_i with sparse outliers s."""

    A: np.ndarray
    b: np.ndarray
    x_star: np.ndarray
    outlier_mask: np.ndarray
    seed: int


@dataclass(frozen=True)
class AmplitudeRetrieval:
    """b_i = |a_i^T x*| + s_i with sparse outliers s."""

    A: np.ndarray
    b: np.ndarray
    x_star: np.ndarray
    outlier_mask: np.ndarray
    seed: int


@dataclass(frozen=True)
class BlindDeconv:
    """b_i = (a_i^T w*)(c_i^T x*) + s_i with sparse outliers s."""

    A: np.ndarray
    C: np.ndarray
    b: np.ndarray
    w_star: np.ndarray
    x_star: np.ndarray
    outlier_mask: np.ndarray
    seed: int


@dataclass(frozen=True)
class MatrixRecovery:
    """b_i = <A_i, U* U*^T> + s_i, U* of rank r, with sparse outliers s."""

    mats: np.ndarray  # (m, n, n)
    b: np.ndarray
    U_star: np.ndarray  # (n, r)
    outlier_mask: np.ndarray
    seed: int


@dataclass(frozen=True)
class LogSumLS:
    """Least squares b ~ A x* plus the log-sum sparsity penalty
    ``LOGSUM_LAM`` * sum_i log(|x_i| + ``LOGSUM_THETA``)."""

    A: np.ndarray
    b: np.ndarray
    x_star: np.ndarray
    outlier_mask: np.ndarray
    seed: int


ROBUST_KINDS = ("sign", "amplitude", "blinddeconv", "matrix", "logsum")
LOGSUM_LAM = 0.1  # the log-sum penalty's weight
LOGSUM_THETA = 0.1  # the log-sum penalty's offset inside the log
OUTLIER_SCALE = 10.0  # the standard deviation of an outlier's corruption


def _corrupt(rng: np.random.Generator, b: np.ndarray, frac: float) -> tuple:
    """``b`` with Gaussian corruption of scale ``OUTLIER_SCALE`` added on a
    random ``frac`` of its entries, and the mask of those entries."""
    m = b.size
    mask = np.zeros(m, dtype=bool)
    count = int(round(frac * m))
    if count:
        mask[rng.choice(m, size=count, replace=False)] = True
    return b + mask * (OUTLIER_SCALE * rng.standard_normal(m)), mask


def gen_robust_instance(
    kind: str,
    n: int,
    m: int,
    outlier_frac: float,
    seed: int,
    r: int = 2,
):
    """Planted instance of a robust recovery problem.

    Measurement vectors are iid standard Gaussian, the planted signal is
    unit norm, and non-outlier measurements satisfy the model exactly.
    Outlier entries receive additive Gaussian corruption of scale
    ``OUTLIER_SCALE``.  ``kind`` is one of :data:`ROBUST_KINDS`.
    """
    rng = make_rng(seed, 7)
    if kind == "sign":
        A = rng.standard_normal((m, n))
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        b = (A @ x) ** 2
        b, mask = _corrupt(rng, b, outlier_frac)
        return SignRetrieval(A=A, b=b, x_star=x, outlier_mask=mask, seed=seed)
    if kind == "amplitude":
        A = rng.standard_normal((m, n))
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        b = np.abs(A @ x)
        b, mask = _corrupt(rng, b, outlier_frac)
        return AmplitudeRetrieval(A=A, b=b, x_star=x, outlier_mask=mask, seed=seed)
    if kind == "blinddeconv":
        A = rng.standard_normal((m, n))
        C = rng.standard_normal((m, n))
        w = rng.standard_normal(n)
        w /= np.linalg.norm(w)
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        b = (A @ w) * (C @ x)
        b, mask = _corrupt(rng, b, outlier_frac)
        return BlindDeconv(A=A, C=C, b=b, w_star=w, x_star=x, outlier_mask=mask, seed=seed)
    if kind == "matrix":
        mats = rng.standard_normal((m, n, n))
        U = rng.standard_normal((n, r))
        U /= np.linalg.norm(U)
        Xs = U @ U.T
        b = np.tensordot(mats, Xs, axes=([1, 2], [0, 1]))
        b, mask = _corrupt(rng, b, outlier_frac)
        return MatrixRecovery(mats=mats, b=b, U_star=U, outlier_mask=mask, seed=seed)
    if kind == "logsum":
        A = rng.standard_normal((m, n))
        x = np.zeros(n)
        support = rng.choice(n, size=max(1, n // 4), replace=False)
        x[support] = rng.standard_normal(support.size)
        x /= max(np.linalg.norm(x), 1e-12)
        b = A @ x
        b, mask = _corrupt(rng, b, outlier_frac)
        return LogSumLS(A=A, b=b, x_star=x, outlier_mask=mask, seed=seed)
    raise ValueError(f"unknown instance kind {kind!r} (kinds: {', '.join(ROBUST_KINDS)})")


def _sign0(v: np.ndarray) -> np.ndarray:
    return np.sign(v)  # numpy sign(0) = 0, matching the Sign(0) -> 0 rule


def robust_objective(inst, point) -> float:
    """Objective value of the robust formulation for the given instance."""
    if isinstance(inst, SignRetrieval):
        x = np.asarray(point, dtype=float).ravel()
        return float(np.mean(np.abs((inst.A @ x) ** 2 - inst.b)))
    if isinstance(inst, AmplitudeRetrieval):
        x = np.asarray(point, dtype=float).ravel()
        return float(np.mean(np.abs(np.abs(inst.A @ x) - inst.b)))
    if isinstance(inst, BlindDeconv):
        n = inst.A.shape[1]
        p = np.asarray(point, dtype=float).ravel()
        w, x = p[:n], p[n:]
        return float(np.mean(np.abs((inst.A @ w) * (inst.C @ x) - inst.b)))
    if isinstance(inst, MatrixRecovery):
        U = np.asarray(point, dtype=float).reshape(inst.U_star.shape)
        resid = np.tensordot(inst.mats, U @ U.T, axes=([1, 2], [0, 1])) - inst.b
        return float(np.mean(np.abs(resid)))
    if isinstance(inst, LogSumLS):
        x = np.asarray(point, dtype=float).ravel()
        ls = 0.5 * float(np.mean((inst.b - inst.A @ x) ** 2))
        return ls + LOGSUM_LAM * float(np.sum(np.log(np.abs(x) + LOGSUM_THETA)))
    raise TypeError(f"unknown instance {type(inst).__name__}")


def robust_subgrad_oracle(inst, point) -> np.ndarray:
    """One subgradient of the robust objective, with Sign(0) resolved to 0.

    Shapes: retrieval kinds take/return an n-vector, blind deconvolution a
    stacked (w, x) vector, matrix recovery an (n, r) factor (flat input
    accepted), log-sum the coefficient vector (least-squares gradient plus
    the penalty subgradient via the sum rule).
    """
    if isinstance(inst, SignRetrieval):
        x = np.asarray(point, dtype=float).ravel()
        m = inst.b.size
        ax = inst.A @ x
        sgn = _sign0(ax**2 - inst.b)
        return (2.0 / m) * (inst.A.T @ (ax * sgn))
    if isinstance(inst, AmplitudeRetrieval):
        x = np.asarray(point, dtype=float).ravel()
        m = inst.b.size
        ax = inst.A @ x
        sgn = _sign0(np.abs(ax) - inst.b)
        return (1.0 / m) * (inst.A.T @ (sgn * _sign0(ax)))
    if isinstance(inst, BlindDeconv):
        n = inst.A.shape[1]
        p = np.asarray(point, dtype=float).ravel()
        w, x = p[:n], p[n:]
        m = inst.b.size
        aw = inst.A @ w
        cx = inst.C @ x
        sgn = _sign0(aw * cx - inst.b)
        gw = (1.0 / m) * (inst.A.T @ (sgn * cx))
        gx = (1.0 / m) * (inst.C.T @ (sgn * aw))
        return np.concatenate([gw, gx])
    if isinstance(inst, MatrixRecovery):
        U = np.asarray(point, dtype=float).reshape(inst.U_star.shape)
        m = inst.b.size
        resid = np.tensordot(inst.mats, U @ U.T, axes=([1, 2], [0, 1])) - inst.b
        sgn = _sign0(resid)
        G = np.tensordot(sgn, inst.mats, axes=(0, 0))  # adjoint applied to signs
        return (1.0 / m) * ((G.T @ U) + (G @ U))
    if isinstance(inst, LogSumLS):
        x = np.asarray(point, dtype=float).ravel()
        m = inst.b.size
        grad_ls = (1.0 / m) * (inst.A.T @ (inst.A @ x - inst.b))
        pen = _sign0(x) / (np.abs(x) + LOGSUM_THETA)
        return grad_ls + LOGSUM_LAM * pen
    raise TypeError(f"unknown instance {type(inst).__name__}")


def orbit_distance(inst, point) -> float:
    """Distance to the planted signal modulo the model's symmetry group.

    Retrieval kinds quotient the global sign (min over +-x*); blind
    deconvolution and matrix recovery compare the scale-invariant products
    w x^T and U U^T; log-sum least squares has no symmetry.
    """
    if isinstance(inst, (SignRetrieval, AmplitudeRetrieval)):
        x = np.asarray(point, dtype=float).ravel()
        return float(
            min(np.linalg.norm(x - inst.x_star), np.linalg.norm(x + inst.x_star))
        )
    if isinstance(inst, BlindDeconv):
        n = inst.A.shape[1]
        p = np.asarray(point, dtype=float).ravel()
        w, x = p[:n], p[n:]
        return float(np.linalg.norm(np.outer(w, x) - np.outer(inst.w_star, inst.x_star)))
    if isinstance(inst, MatrixRecovery):
        U = np.asarray(point, dtype=float).reshape(inst.U_star.shape)
        return float(np.linalg.norm(U @ U.T - inst.U_star @ inst.U_star.T))
    if isinstance(inst, LogSumLS):
        return float(np.linalg.norm(np.asarray(point, float).ravel() - inst.x_star))
    raise TypeError(f"unknown instance {type(inst).__name__}")


# ---------------------------------------------------------------------------
# LSPAR experiment (MM vs pseudo-subgradient)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    N: int
    method: str
    final_f: float
    best_f: float
    iters: int
    cert: Optional[bool]
    wall_ms: float

    def row(self) -> list:
        return [
            self.trial,
            self.seed,
            self.N,
            self.method,
            repr(self.final_f),
            repr(self.best_f),
            self.iters,
            "" if self.cert is None else str(self.cert).lower(),
            f"{self.wall_ms:.3f}",
        ]


CSV_HEADER = ["trial", "seed", "N", "method", "final_f", "best_f", "iters", "cert", "wall_ms"]


# The step-size tuning's fixed choices: the diminishing-step coefficients it
# tries, the root seed of its held-out problems (never an experiment seed) and
# how many problems score each coefficient
SUBGRAD_GRID = (0.1, 1.0, 10.0)
HELDOUT_SEED = 987654321
TUNING_PROBES = 5


@dataclass(frozen=True)
class LsparExperimentConfig:
    """The LSPAR experiment's settings, each a CLI config key.  MM runs with
    the fixed choices of :func:`~nonsmooth.solvers.mm_lspar`, and the
    subgradient step is tuned per N by :func:`tune_subgrad_coefficient`."""

    N_list: tuple = (10, 50, 100)
    trials: int = 500
    root_seed: int = 0
    noise_sigma: float = 0.1
    subgrad_iters: int = 1500
    out_dir: Optional[str] = None
    jobs: int = 1

    def __post_init__(self):
        rules = {
            "trials >= 1": self.trials >= 1,
            "a non-empty N_list with every N >= 1": len(self.N_list) > 0
            and all(N >= 1 for N in self.N_list),
            "subgrad_iters >= 1": self.subgrad_iters >= 1,
            "jobs >= 1": self.jobs >= 1,
        }
        broken = [rule for rule, ok in rules.items() if not ok]
        if broken:
            raise ValueError("LsparExperimentConfig needs " + ", ".join(broken))


def tune_subgrad_coefficient(N: int, noise_sigma: float, iters: int) -> float:
    """Pick the diminishing-step coefficient of ``SUBGRAD_GRID`` by mean
    final objective on ``TUNING_PROBES`` held-out problems (seeded from
    ``HELDOUT_SEED``, so the experiment seeds never overlap them).

    All grid x probes runs go through one lockstep subgradient call."""
    probes = TUNING_PROBES
    data = [gen_lspar_data(N, noise_sigma, stream_key(HELDOUT_SEED, N, p)) for p in range(probes)]
    W0 = [make_rng(HELDOUT_SEED, N, p, 5).standard_normal(LSPAR_TRUE_W.shape) for p in range(probes)]
    final_f, _, _ = lspar_subgradient_lockstep(
        np.stack([ds.X for ds in data] * len(SUBGRAD_GRID)),
        np.stack([ds.y for ds in data] * len(SUBGRAD_GRID)),
        np.stack(W0 * len(SUBGRAD_GRID)),
        np.repeat(np.asarray(SUBGRAD_GRID, dtype=float), probes),
        max_iter=iters,
    )
    scores = []
    for i, c in enumerate(SUBGRAD_GRID):
        tot = 0.0
        for f in final_f[i * probes : (i + 1) * probes]:
            tot += float(f)
        scores.append((tot / probes, c))
    return min(scores)[1]


def _lspar_trial_block(args) -> list:
    """MM trial by trial, then the block's subgradient arm in one lockstep run.

    ``args`` is (N, trials, root_seed, noise_sigma, subgrad_c, subgrad_iters)
    with ``trials`` a sequence of trial ids.  A subgradient row's ``wall_ms``
    is the lockstep run's wall time divided by the block's trials.
    """
    (N, trials, root_seed, noise_sigma, subgrad_c, subgrad_iters) = args
    mm_rows, data, starts = [], [], []
    for trial in trials:
        data_seed = stream_key(root_seed, N, trial, 11)
        ds = gen_lspar_data(N, noise_sigma, data_seed)
        W0 = make_rng(root_seed, N, trial, 22).standard_normal(LSPAR_TRUE_W.shape)
        t0 = time.perf_counter()
        mm_trace, cert = mm_lspar(ds, W0)
        mm_rows.append(
            TrialRecord(
                trial=trial,
                seed=data_seed,
                N=N,
                method="mm",
                final_f=float(mm_trace.objectives[-1]),
                best_f=float(mm_trace.best_f),
                iters=mm_trace.iterations,
                cert=bool(cert.is_d_stationary),
                wall_ms=1e3 * (time.perf_counter() - t0),
            )
        )
        data.append(ds)
        starts.append(W0)
    t0 = time.perf_counter()
    final_f, best_f, iters = lspar_subgradient_lockstep(
        np.stack([ds.X for ds in data]),
        np.stack([ds.y for ds in data]),
        np.stack(starts),
        np.full(len(starts), subgrad_c),
        max_iter=subgrad_iters,
    )
    sg_ms = 1e3 * (time.perf_counter() - t0) / len(starts)
    sg_rows = [
        TrialRecord(
            trial=mm.trial,
            seed=mm.seed,
            N=N,
            method="subgrad",
            final_f=float(final_f[i]),
            best_f=float(best_f[i]),
            iters=int(iters[i]),
            cert=None,
            wall_ms=sg_ms,
        )
        for i, mm in enumerate(mm_rows)
    ]
    return mm_rows + sg_rows


def run_single_lspar_trial(args) -> list:
    """One (N, trial) cell: shared start, MM then pseudo-subgradient.

    ``args`` is (N, trial, root_seed, noise_sigma, subgrad_c, subgrad_iters);
    the cell is a block of one trial, so it reproduces the rows the trial
    gets inside any batch."""
    N, trial, *rest = args
    return _lspar_trial_block((N, range(trial, trial + 1), *rest))


def run_lspar_experiment(config: LsparExperimentConfig) -> dict:
    """MM vs pseudo-subgradient over shared initializations.

    For each N, MM runs trial by trial and the subgradient arm runs all
    trials in lockstep.  With ``jobs > 1`` each N's trials are split into
    ``jobs`` contiguous blocks mapped over a process pool.

    Writes ``trials.csv``, ``summary.csv``, ``fig5.svg`` (final-objective
    box plots) and ``fig6.svg`` (per-trial-minimum counts) when ``out_dir``
    is set.  Per-trial-minimum attribution: the strictly smaller final
    objective wins; exact ties go to the first method in (mm, subgrad), so
    the counts always sum to the number of trials.
    """
    records: list = []
    tuned = {}
    for N in config.N_list:
        tuned[N] = tune_subgrad_coefficient(N, config.noise_sigma, config.subgrad_iters)
    trials = range(config.trials)
    size = max(1, -(-config.trials // max(1, config.jobs)))  # ceil: one block per job
    blocks = [
        (
            N,
            trials[lo : lo + size],
            config.root_seed,
            config.noise_sigma,
            tuned[N],
            config.subgrad_iters,
        )
        for N in config.N_list
        for lo in range(0, config.trials, size)
    ]
    if config.jobs > 1:
        with Pool(config.jobs) as pool:
            chunks = pool.map(_lspar_trial_block, blocks, chunksize=1)
    else:
        chunks = [_lspar_trial_block(b) for b in blocks]
    for chunk in chunks:
        records.extend(chunk)
    records.sort(key=lambda r: (r.N, r.trial, r.method))

    summary = _summarize_lspar(records, config)
    summary["tuned_subgrad_c"] = {str(k): v for k, v in tuned.items()}
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        with open(os.path.join(config.out_dir, "trials.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_HEADER)
            for r in records:
                w.writerow(r.row())
        with open(os.path.join(config.out_dir, "summary.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["N", "method", "wins", "mean_final", "median_final", "frac_mm_not_worse"])
            for N in config.N_list:
                for method in ("mm", "subgrad"):
                    s = summary["per_N"][N]
                    w.writerow(
                        [
                            N,
                            method,
                            s["wins"][method],
                            repr(s["mean_final"][method]),
                            repr(s["median_final"][method]),
                            repr(s["frac_mm_not_worse"]),
                        ]
                    )
        _write_fig5_svg(os.path.join(config.out_dir, "fig5.svg"), records, config.N_list)
        _write_fig6_svg(os.path.join(config.out_dir, "fig6.svg"), summary, config.N_list)
    summary["records"] = records
    return summary


def _summarize_lspar(records: list, config: LsparExperimentConfig) -> dict:
    per_N = {}
    for N in config.N_list:
        mm = {r.trial: r for r in records if r.N == N and r.method == "mm"}
        sg = {r.trial: r for r in records if r.N == N and r.method == "subgrad"}
        wins = {"mm": 0, "subgrad": 0}
        not_worse = 0
        for t in mm:
            fm, fs = mm[t].final_f, sg[t].final_f
            if fm <= fs:
                not_worse += 1
            if fm < fs:
                wins["mm"] += 1
            elif fs < fm:
                wins["subgrad"] += 1
            else:
                wins["mm"] += 1  # exact tie: first method in the fixed order
        per_N[N] = {
            "wins": wins,
            "mean_final": {
                "mm": float(np.mean([r.final_f for r in mm.values()])),
                "subgrad": float(np.mean([r.final_f for r in sg.values()])),
            },
            "median_final": {
                "mm": float(np.median([r.final_f for r in mm.values()])),
                "subgrad": float(np.median([r.final_f for r in sg.values()])),
            },
            "frac_mm_not_worse": not_worse / max(1, len(mm)),
        }
    return {"per_N": per_N, "trials": config.trials, "N_list": list(config.N_list)}


# ---------------------------------------------------------------------------
# Recovery experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryConfig:
    kind: str = "sign"
    n: int = 10
    m: int = 80
    outlier_frac: float = 0.1
    alpha0: float = 0.1
    q: float = 0.98
    iters: int = 2000
    seed: int = 42
    warm_start: float = 0.1
    r: int = 2
    out_dir: Optional[str] = None

    def __post_init__(self):
        rules = {
            f"kind in {ROBUST_KINDS}": self.kind in ROBUST_KINDS,
            "n >= 1": self.n >= 1,
            "m >= 1": self.m >= 1,
            "m >= 4 n for the retrieval kinds": self.kind not in ("sign", "amplitude")
            or self.m >= 4 * self.n,
            "0 <= outlier_frac <= 1": 0.0 <= self.outlier_frac <= 1.0,
            "alpha0 > 0": self.alpha0 > 0,
            "0 < q < 1": 0.0 < self.q < 1.0,
            "iters >= 1": self.iters >= 1,
            "r >= 1": self.r >= 1,
        }
        broken = [rule for rule, ok in rules.items() if not ok]
        if broken:
            raise ValueError("RecoveryConfig needs " + ", ".join(broken))


def fit_log_linear(values: np.ndarray) -> tuple:
    """(slope, r_squared) of a least-squares line through log10(values)."""
    v = np.asarray(values, dtype=float)
    v = np.maximum(v, 1e-300)
    ylog = np.log10(v)
    k = np.arange(v.size, dtype=float)
    A = np.vstack([k, np.ones_like(k)]).T
    coef, *_ = np.linalg.lstsq(A, ylog, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((ylog - pred) ** 2))
    ss_tot = float(np.sum((ylog - ylog.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2


def run_recovery_experiment(config: RecoveryConfig) -> dict:
    """Subgradient method with a geometric schedule on a planted instance.

    Tracks the orbit distance (signal distance modulo model symmetry) per
    iterate and fits a log-linear trend to the best-so-far distances.
    Writes ``recovery.csv`` when ``out_dir`` is set.
    """
    inst = gen_robust_instance(
        config.kind, config.n, config.m, config.outlier_frac, config.seed, r=config.r
    )
    rng = make_rng(config.seed, 33)
    if isinstance(inst, BlindDeconv):
        truth = np.concatenate([inst.w_star, inst.x_star])
    elif isinstance(inst, MatrixRecovery):
        truth = inst.U_star.ravel()
    else:
        truth = inst.x_star
    x0 = truth + config.warm_start * rng.standard_normal(truth.size)
    oracle = SubgradOracle(
        fn=lambda z: robust_objective(inst, z),
        subgrad=lambda z: robust_subgrad_oracle(inst, z).ravel(),
    )
    trace = subgradient_method(
        oracle,
        x0,
        Geometric(config.alpha0, config.q),
        max_iter=config.iters,
        ref=lambda z: orbit_distance(inst, z),
    )
    dists = trace.dists
    best_so_far = np.minimum.accumulate(dists)
    slope, r2 = fit_log_linear(best_so_far)
    out = {
        "kind": config.kind,
        "final_distance": float(dists[-1]),
        "best_distance": float(best_so_far[-1]),
        "final_objective": float(trace.objectives[-1]),
        "slope": slope,
        "r_squared": r2,
        "distances": dists,
        "objectives": trace.objectives,
        "seed": config.seed,
    }
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        with open(os.path.join(config.out_dir, "recovery.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iter", "objective", "distance", "best_distance"])
            for i, (f, d, bd) in enumerate(zip(trace.objectives, dists, best_so_far)):
                w.writerow([i, repr(float(f)), repr(float(d)), repr(float(bd))])
    return out


# ---------------------------------------------------------------------------
# Flat key=value config files
# ---------------------------------------------------------------------------


def parse_config(text: str) -> dict:
    """Parse flat ``key = value`` lines ('#' comments, commas make lists)."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))

        def coerce(tok: str):
            low = tok.lower()
            if low in ("true", "false"):
                return low == "true"
            try:
                return int(tok)
            except ValueError:
                pass
            try:
                return float(tok)
            except ValueError:
                return tok

        if "," in val:
            out[key] = [coerce(t.strip()) for t in val.split(",") if t.strip()]
        else:
            out[key] = coerce(val)
    return out


# ---------------------------------------------------------------------------
# SVG output (no plotting dependency)
# ---------------------------------------------------------------------------


def _svg_header(width: int, height: int) -> list:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]


def _write_fig5_svg(path: str, records: list, N_list: Sequence[int]) -> None:
    """Box plots of log10 final objective per (N, method)."""
    W, H, pad = 640, 400, 50
    parts = _svg_header(W, H)
    groups = []
    for N in N_list:
        for method in ("mm", "subgrad"):
            vals = np.array(
                [max(r.final_f, 1e-16) for r in records if r.N == N and r.method == method]
            )
            groups.append((f"{method} N={N}", np.log10(vals)))
    all_vals = np.concatenate([g[1] for g in groups])
    lo, hi = float(all_vals.min()) - 0.3, float(all_vals.max()) + 0.3

    def ycoord(v: float) -> float:
        return H - pad - (v - lo) / (hi - lo) * (H - 2 * pad)

    slot = (W - 2 * pad) / len(groups)
    for gi, (label, vals) in enumerate(groups):
        cx = pad + slot * (gi + 0.5)
        q1, q2, q3 = np.percentile(vals, [25, 50, 75])
        vmin, vmax = float(vals.min()), float(vals.max())
        bw = slot * 0.35
        color = "#4878cf" if label.startswith("mm") else "#d65f5f"
        parts.append(
            f'<line x1="{cx:.1f}" y1="{ycoord(vmin):.1f}" x2="{cx:.1f}" '
            f'y2="{ycoord(vmax):.1f}" stroke="{color}"/>'
        )
        parts.append(
            f'<rect x="{cx - bw / 2:.1f}" y="{ycoord(q3):.1f}" width="{bw:.1f}" '
            f'height="{max(1.0, ycoord(q1) - ycoord(q3)):.1f}" fill="{color}" '
            f'fill-opacity="0.45" stroke="{color}"/>'
        )
        parts.append(
            f'<line x1="{cx - bw / 2:.1f}" y1="{ycoord(q2):.1f}" x2="{cx + bw / 2:.1f}" '
            f'y2="{ycoord(q2):.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{cx:.1f}" y="{H - pad + 16}" font-size="11" '
            f'text-anchor="middle">{label}</text>'
        )
    parts.append(
        f'<text x="{pad - 36}" y="{pad - 14}" font-size="12">log10 final objective</text>'
    )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def _write_fig6_svg(path: str, summary: dict, N_list: Sequence[int]) -> None:
    """Bar chart: number of trials on which each method attains the minimum."""
    W, H, pad = 560, 360, 50
    parts = _svg_header(W, H)
    total = max(
        max(summary["per_N"][N]["wins"][m] for m in ("mm", "subgrad")) for N in N_list
    )
    slot = (W - 2 * pad) / (len(N_list) * 2)
    for gi, N in enumerate(N_list):
        for mi, method in enumerate(("mm", "subgrad")):
            wins = summary["per_N"][N]["wins"][method]
            x = pad + slot * (2 * gi + mi) + slot * 0.1
            h = (H - 2 * pad) * (wins / max(1, total))
            color = "#4878cf" if method == "mm" else "#d65f5f"
            parts.append(
                f'<rect x="{x:.1f}" y="{H - pad - h:.1f}" width="{slot * 0.8:.1f}" '
                f'height="{h:.1f}" fill="{color}"/>'
            )
            parts.append(
                f'<text x="{x + slot * 0.4:.1f}" y="{H - pad - h - 4:.1f}" font-size="11" '
                f'text-anchor="middle">{wins}</text>'
            )
            parts.append(
                f'<text x="{x + slot * 0.4:.1f}" y="{H - pad + 14}" font-size="10" '
                f'text-anchor="middle">{method} N={N}</text>'
            )
    parts.append(
        f'<text x="{pad - 30}" y="{pad - 14}" font-size="12">trials attaining the per-trial minimum</text>'
    )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
