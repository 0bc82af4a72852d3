"""Experiment harnesses: data generators, application oracles, trial runners.

Two experiment families:

* piecewise-affine regression (LSPAR): fit y = max_i w_i^T x by the MM
  solver and by the pseudo-subgradient method from shared random starts,
  over many trials, reproducing the qualitative gap between the two; the
  subgradient step is tuned per N on held-out problems in one lockstep run
  over every N, and each block of trials runs its subgradient arm, at every
  N, in one more;
* robust recovery: sign/amplitude retrieval, blind deconvolution, low-rank
  matrix recovery, and log-sum-penalized least squares, minimized by the
  subgradient method with a geometric step schedule, tracking distance to
  the planted signal modulo the model's symmetry group.  Each kind is a
  dataclass that owns its ``objective``, its ``subgrad`` (flat, with
  Sign(0) = 0), its ``distance`` and its flat planted point ``truth``;
  :func:`gen_robust_instance` maps a kind name to its instance.

Every trial derives its random streams from (root seed, N, trial id), so
runs are reproducible bit-for-bit, trials can be re-run in isolation, and
the CSV outputs are byte-identical across repeats (wall-clock columns
aside).  Plots are written directly as SVG.
"""

from __future__ import annotations

import csv
import math
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
    """Synthetic regression data: x uniform on [-1,1]^2, Gaussian noise of
    standard deviation ``noise_sigma`` (finite and >= 0; 0 draws no noise).

    Regenerating with the same arguments is bit-identical.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    rng = make_rng(seed, 1)
    X = rng.uniform(-1.0, 1.0, size=(N, 2))
    noise = noise_sigma * rng.standard_normal(N) if noise_sigma > 0 else np.zeros(N)
    y = (X @ LSPAR_TRUE_W).max(axis=1) + noise
    return LsparDataset(X=X, y=y, N=N, seed=seed, noise_sigma=noise_sigma)


# ---------------------------------------------------------------------------
# Robust recovery instances
# ---------------------------------------------------------------------------


def _flat(point) -> np.ndarray:
    return np.asarray(point, dtype=float).ravel()


@dataclass(frozen=True)
class SignRetrieval:
    """b_i = (a_i^T x*)^2 + s_i with sparse outliers s.  Objective
    mean_i |(a_i^T x)^2 - b_i| over x; distance min over +-x*."""

    A: np.ndarray
    b: np.ndarray
    x_star: np.ndarray
    outlier_mask: np.ndarray
    seed: int

    @property
    def truth(self) -> np.ndarray:
        return self.x_star

    def objective(self, point) -> float:
        return float(np.mean(np.abs((self.A @ _flat(point)) ** 2 - self.b)))

    def subgrad(self, point) -> np.ndarray:
        ax = self.A @ _flat(point)
        sgn = np.sign(ax**2 - self.b)  # numpy sign(0) = 0, the Sign(0) -> 0 rule
        return (2.0 / self.b.size) * (self.A.T @ (ax * sgn))

    def distance(self, point) -> float:
        x = _flat(point)
        return float(min(np.linalg.norm(x - self.x_star), np.linalg.norm(x + self.x_star)))


@dataclass(frozen=True)
class AmplitudeRetrieval(SignRetrieval):
    """b_i = |a_i^T x*| + s_i with sparse outliers s.  Objective
    mean_i ||a_i^T x| - b_i| over x; truth and distance as sign retrieval."""

    def objective(self, point) -> float:
        return float(np.mean(np.abs(np.abs(self.A @ _flat(point)) - self.b)))

    def subgrad(self, point) -> np.ndarray:
        ax = self.A @ _flat(point)
        sgn = np.sign(np.abs(ax) - self.b)
        return (1.0 / self.b.size) * (self.A.T @ (sgn * np.sign(ax)))


@dataclass(frozen=True)
class BlindDeconv:
    """b_i = (a_i^T w*)(c_i^T x*) + s_i with sparse outliers s.  Objective
    mean_i |(a_i^T w)(c_i^T x) - b_i| over the stacked (w, x); distance
    ||w x^T - w* x*^T||, blind to the scaling (c w, x / c)."""

    A: np.ndarray
    C: np.ndarray
    b: np.ndarray
    w_star: np.ndarray
    x_star: np.ndarray
    outlier_mask: np.ndarray
    seed: int

    @property
    def truth(self) -> np.ndarray:
        return np.concatenate([self.w_star, self.x_star])

    def _split(self, point) -> tuple:
        p = _flat(point)
        return p[: self.A.shape[1]], p[self.A.shape[1] :]

    def objective(self, point) -> float:
        w, x = self._split(point)
        return float(np.mean(np.abs((self.A @ w) * (self.C @ x) - self.b)))

    def subgrad(self, point) -> np.ndarray:
        w, x = self._split(point)
        aw, cx = self.A @ w, self.C @ x
        sgn = np.sign(aw * cx - self.b)
        gw = (1.0 / self.b.size) * (self.A.T @ (sgn * cx))
        gx = (1.0 / self.b.size) * (self.C.T @ (sgn * aw))
        return np.concatenate([gw, gx])

    def distance(self, point) -> float:
        w, x = self._split(point)
        return float(np.linalg.norm(np.outer(w, x) - np.outer(self.w_star, self.x_star)))


@dataclass(frozen=True)
class MatrixRecovery:
    """b_i = <A_i, U* U*^T> + s_i, U* of rank r, with sparse outliers s.
    Objective mean_i |<A_i, U U^T> - b_i| over U flattened to n r entries;
    distance ||U U^T - U* U*^T||, blind to U -> U Q for orthogonal Q."""

    mats: np.ndarray  # (m, n, n)
    b: np.ndarray
    U_star: np.ndarray  # (n, r)
    outlier_mask: np.ndarray
    seed: int

    @property
    def truth(self) -> np.ndarray:
        return self.U_star.ravel()

    def _factor(self, point) -> np.ndarray:
        return _flat(point).reshape(self.U_star.shape)

    def _residual(self, U: np.ndarray) -> np.ndarray:
        return np.tensordot(self.mats, U @ U.T, axes=([1, 2], [0, 1])) - self.b

    def objective(self, point) -> float:
        return float(np.mean(np.abs(self._residual(self._factor(point)))))

    def subgrad(self, point) -> np.ndarray:
        U = self._factor(point)
        G = np.tensordot(np.sign(self._residual(U)), self.mats, axes=(0, 0))  # adjoint of signs
        return ((1.0 / self.b.size) * ((G.T @ U) + (G @ U))).ravel()

    def distance(self, point) -> float:
        U = self._factor(point)
        return float(np.linalg.norm(U @ U.T - self.U_star @ self.U_star.T))


@dataclass(frozen=True)
class LogSumLS:
    """Least squares b ~ A x* plus the log-sum sparsity penalty
    ``LOGSUM_LAM`` * sum_i log(|x_i| + ``LOGSUM_THETA``).  Objective
    (1/2) mean_i (b_i - a_i^T x)^2 plus the penalty over x, subgradient by
    the sum rule; no symmetry, so the distance is ||x - x*||."""

    A: np.ndarray
    b: np.ndarray
    x_star: np.ndarray
    outlier_mask: np.ndarray
    seed: int

    @property
    def truth(self) -> np.ndarray:
        return self.x_star

    def objective(self, point) -> float:
        x = _flat(point)
        ls = 0.5 * float(np.mean((self.b - self.A @ x) ** 2))
        return ls + LOGSUM_LAM * float(np.sum(np.log(np.abs(x) + LOGSUM_THETA)))

    def subgrad(self, point) -> np.ndarray:
        x = _flat(point)
        grad_ls = (1.0 / self.b.size) * (self.A.T @ (self.A @ x - self.b))
        return grad_ls + LOGSUM_LAM * (np.sign(x) / (np.abs(x) + LOGSUM_THETA))

    def distance(self, point) -> float:
        return float(np.linalg.norm(_flat(point) - self.x_star))


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
    if kind in ("sign", "amplitude"):
        A = rng.standard_normal((m, n))
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        b = (A @ x) ** 2 if kind == "sign" else np.abs(A @ x)
        b, mask = _corrupt(rng, b, outlier_frac)
        cls = SignRetrieval if kind == "sign" else AmplitudeRetrieval
        return cls(A=A, b=b, x_star=x, outlier_mask=mask, seed=seed)
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
        b = np.tensordot(mats, U @ U.T, axes=([1, 2], [0, 1]))
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
            "a finite noise_sigma >= 0": math.isfinite(self.noise_sigma) and self.noise_sigma >= 0,
            "a non-empty N_list with every N >= 1": len(self.N_list) > 0
            and all(N >= 1 for N in self.N_list),
            "distinct N in N_list": len(set(self.N_list)) == len(self.N_list),
            "subgrad_iters >= 1": self.subgrad_iters >= 1,
            "jobs >= 1": self.jobs >= 1,
        }
        broken = [rule for rule, ok in rules.items() if not ok]
        if broken:
            raise ValueError("LsparExperimentConfig needs " + ", ".join(broken))


def tune_subgrad_coefficient(N_list, noise_sigma: float, iters: int) -> dict:
    """Pick each N's diminishing-step coefficient of ``SUBGRAD_GRID`` by mean
    final objective on ``TUNING_PROBES`` held-out problems (seeded from
    ``HELDOUT_SEED``, so the experiment seeds never overlap them).

    The grid x probes runs of every N, the N of ``N_list`` being distinct,
    go through one lockstep subgradient call.  Returns ``{N: (c, scores)}``: the pick, and the mean final
    objective of each grid value in grid order.  The smallest mean wins,
    ties going to the smaller coefficient.
    """
    probes = {
        (N, p): (
            gen_lspar_data(N, noise_sigma, stream_key(HELDOUT_SEED, N, p)),
            make_rng(HELDOUT_SEED, N, p, 5).standard_normal(LSPAR_TRUE_W.shape),
        )
        for N in N_list
        for p in range(TUNING_PROBES)
    }
    runs = [(N, c, p) for N in N_list for c in SUBGRAD_GRID for p in range(TUNING_PROBES)]
    final_f, _, _ = lspar_subgradient_lockstep(
        [probes[N, p][0].X for N, _, p in runs],
        [probes[N, p][0].y for N, _, p in runs],
        [probes[N, p][1] for N, _, p in runs],
        [c for _, c, _ in runs],
        max_iter=iters,
    )
    picks = {}
    for N, fs in zip(N_list, final_f.reshape(len(N_list), len(SUBGRAD_GRID), TUNING_PROBES)):
        scores = []
        for probe_f in fs:
            tot = 0.0
            for f in probe_f:
                tot += float(f)
            scores.append(tot / TUNING_PROBES)
        picks[N] = (min(zip(scores, SUBGRAD_GRID))[1], tuple(scores))
    return picks


def _lspar_trial_block(args) -> list:
    """MM trial by trial, then the block's subgradient arm in one lockstep run.

    ``args`` is (N_list, trials, root_seed, noise_sigma, coeffs,
    subgrad_iters) with ``trials`` a sequence of trial ids, run at every N
    of ``N_list``, and ``coeffs`` each N's step coefficient.  A subgradient
    row's ``wall_ms`` is the lockstep run's wall time divided by the
    block's trials across all N.
    """
    (N_list, trials, root_seed, noise_sigma, coeffs, subgrad_iters) = args
    mm_rows, data, starts, sg_coeffs = [], [], [], []
    for N, coeff in zip(N_list, coeffs):
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
            sg_coeffs.append(coeff)
    t0 = time.perf_counter()
    final_f, best_f, iters = lspar_subgradient_lockstep(
        [ds.X for ds in data],
        [ds.y for ds in data],
        starts,
        sg_coeffs,
        max_iter=subgrad_iters,
    )
    sg_ms = 1e3 * (time.perf_counter() - t0) / len(starts)
    sg_rows = [
        TrialRecord(
            trial=mm.trial,
            seed=mm.seed,
            N=mm.N,
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
    the cell is a block of one trial at one N, so it reproduces the rows the
    trial gets inside any batch."""
    N, trial, root_seed, noise_sigma, subgrad_c, subgrad_iters = args
    return _lspar_trial_block(
        ((N,), range(trial, trial + 1), root_seed, noise_sigma, (subgrad_c,), subgrad_iters)
    )


def run_lspar_experiment(config: LsparExperimentConfig) -> dict:
    """MM vs pseudo-subgradient over shared initializations.

    The step-size tuning of every N is one lockstep subgradient run.  The
    trials are then split into ``jobs`` contiguous blocks of trial ids, each
    covering every N: a block runs MM trial by trial and its subgradient
    arm as one more lockstep run, and with ``jobs > 1`` the blocks are
    mapped over a process pool.

    Writes ``trials.csv``, ``summary.csv``, ``fig5.svg`` (final-objective
    box plots) and ``fig6.svg`` (per-trial-minimum counts) when ``out_dir``
    is set.  Per-trial-minimum attribution: the strictly smaller final
    objective wins; exact ties go to the first method in (mm, subgrad), so
    the counts always sum to the number of trials.  The summary's
    ``tuning`` maps each N to the mean final objective of every
    ``SUBGRAD_GRID`` value and whether the pick is an end of the grid.
    """
    if config.out_dir:  # a bad out_dir fails before the first trial
        os.makedirs(config.out_dir, exist_ok=True)
    records: list = []
    tuning = tune_subgrad_coefficient(config.N_list, config.noise_sigma, config.subgrad_iters)
    trials = range(config.trials)
    size = max(1, -(-config.trials // max(1, config.jobs)))  # ceil: one block per job
    blocks = [
        (
            config.N_list,
            trials[lo : lo + size],
            config.root_seed,
            config.noise_sigma,
            tuple(tuning[N][0] for N in config.N_list),
            config.subgrad_iters,
        )
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
    summary["tuned_subgrad_c"] = {str(N): c for N, (c, _) in tuning.items()}
    summary["tuning"] = {
        str(N): {
            "scores": dict(zip(SUBGRAD_GRID, scores)),
            "at_grid_edge": c in (SUBGRAD_GRID[0], SUBGRAD_GRID[-1]),
        }
        for N, (c, scores) in tuning.items()
    }
    if config.out_dir:
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
            "a finite alpha0 > 0": math.isfinite(self.alpha0) and self.alpha0 > 0,
            "0 < q < 1": 0.0 < self.q < 1.0,
            "iters >= 1": self.iters >= 1,
            "r >= 1": self.r >= 1,
            "a finite warm_start >= 0": math.isfinite(self.warm_start) and self.warm_start >= 0,
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
    if config.out_dir:  # a bad out_dir fails before the first iteration
        os.makedirs(config.out_dir, exist_ok=True)
    inst = gen_robust_instance(
        config.kind, config.n, config.m, config.outlier_frac, config.seed, r=config.r
    )
    rng = make_rng(config.seed, 33)
    x0 = inst.truth + config.warm_start * rng.standard_normal(inst.truth.size)
    trace = subgradient_method(
        SubgradOracle(fn=inst.objective, subgrad=inst.subgrad),
        x0,
        Geometric(config.alpha0, config.q),
        max_iter=config.iters,
        ref=inst.distance,
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
    """Parse flat ``key = value`` lines ('#' comments) into each value's text:
    a string, or a list of strings where commas make a list."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        out[key] = [t.strip() for t in val.split(",") if t.strip()] if "," in val else val
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
