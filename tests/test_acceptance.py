"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line per
criterion.  Criterion 7 runs the full 500-trial experiment over
N in {10, 50, 100} and is by far the slowest item (a few minutes); all
other criteria complete in seconds.
"""

import time

import numpy as np
import pytest

from nonsmooth.expr import dim_required
from nonsmooth.gallery import (
    GALLERY,
    f1_expr,
    f2_expr,
    neg_abs,
    relu_loss_expr,
    sum_rule_expr,
    xsinlog_expr,
    xsqsin_expr,
)
from nonsmooth.polyhedra import (
    Ball,
    SetUnion,
    VPolytope,
    contains,
    conv_hull,
    minkowski_sum,
    set_distance,
    support_value,
    vertex_enumeration,
)
from nonsmooth.rng import make_rng
from nonsmooth.sampled import (
    as_evaluator,
    as_gradient_oracle,
    fd_dir_deriv,
    gradient_sampling,
    sampled_c_stationarity,
)
from nonsmooth.stationarity import classify, convex_optimality_check, lspar_d_stationarity_check
from nonsmooth.subdiff import (
    L1Norm,
    L2Norm,
    clarke,
    clarke_dir_deriv,
    compose_affine,
    convex_catalog_subdiff,
    dir_deriv,
    frechet,
    limiting,
)

from conftest import random_convex_pa, random_pa_instance, sample_set_points

# Frozen on the first calibrated run of the default configuration
# (root_seed=0, 500 trials, sigma=0.1, subgradient step tuned on the
# held-out seed).  The binding >= 0.60 requirement is on the non-strict
# comparison (MM final <= subgradient final), which calibrates to 0.762;
# the strict-win-by-1e-6 fraction below is a pure regression pin -- many
# trials end with both methods at the same optimum, so it sits lower.
FROZEN_STRICT_WIN_FRACTION_N10 = 273 / 500  # = 0.546


def report(criterion: str, detail: str):
    print(f"\n[acceptance] {criterion}: PASS -- {detail}")


def interval(lo, hi):
    return SetUnion((conv_hull([[lo], [hi]]),))


def points(*vals):
    return SetUnion(tuple(VPolytope([[v]]) for v in sorted(vals)))


def eq_sets(A, B, tol=1e-9):
    if A.is_empty or B.is_empty:
        return A.is_empty and B.is_empty
    return set_distance(A, B) <= tol


# ---------------------------------------------------------------------------
# criterion 1: gallery exactness
# ---------------------------------------------------------------------------


def test_criterion_1_gallery_exactness():
    t0 = time.perf_counter()
    e = neg_abs()
    assert frechet(e, [0.0]).is_empty
    assert eq_sets(limiting(e, [0.0]).set, points(-1.0, 1.0))
    assert eq_sets(clarke(e, [0.0]).set, interval(-1.0, 1.0))

    f1 = f1_expr()
    assert eq_sets(clarke(f1, [0.0]).set, interval(-1.0, 1.0))
    assert eq_sets(limiting(f1, [0.0]).set, points(-1.0, 1.0))
    rep = classify(f1, [0.0])
    assert (rep.is_C, rep.is_l, rep.is_d) == (True, False, False)
    assert classify(f1, [0.5]).is_d is True

    f2 = f2_expr()
    assert eq_sets(limiting(f2, [0.0]).set, points(-1.0, 0.0))
    assert frechet(f2, [0.0]).is_empty
    assert classify(f2, [-1.0]).is_d is True

    _, _, s = sum_rule_expr()
    assert eq_sets(clarke(s, [0.0]).set, points(1.0))
    p1c = clarke(sum_rule_expr()[0], [0.0]).set.components[0]
    p2c = clarke(sum_rule_expr()[1], [0.0]).set.components[0]
    assert eq_sets(SetUnion((minkowski_sum(p1c, p2c),)), interval(0.0, 2.0))

    l1 = convex_catalog_subdiff(L1Norm(), [1.0, 0.0]).set
    assert eq_sets(l1, SetUnion((conv_hull([[1.0, -1.0], [1.0, 1.0]]),)))
    l2 = convex_catalog_subdiff(L2Norm(), [0.0, 0.0]).set
    ball = l2.components[0]
    assert isinstance(ball, Ball) and ball.radius == 1.0 and np.all(ball.center == 0)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("criterion 1", f"gallery sets exact to 1e-9; runtime {elapsed:.2f}s < 1s")


# ---------------------------------------------------------------------------
# criterion 2: sampled-oracle fidelity
# ---------------------------------------------------------------------------


def test_criterion_2_sampled_oracle_fidelity():
    t0 = time.perf_counter()
    e = xsqsin_expr()
    ss = gradient_sampling(as_gradient_oracle(e), [0.0])
    d = set_distance(ss.set, interval(0.0, 2.0))
    assert d <= 0.05

    r_pos = fd_dir_deriv(as_evaluator(e), [0.0], [1.0])
    assert r_pos.converged and abs(r_pos.value - 1.0) <= 1e-6
    r_neg = fd_dir_deriv(as_evaluator(e), [0.0], [-1.0])
    # the defining quotient (f(0 - t) - f(0)) / t equals -1 identically for
    # this function; see test_criterion_2_negative_direction_literal_wording
    # for the criterion's literal "+1" phrasing
    assert r_neg.converged and abs(r_neg.value - (-1.0)) <= 1e-12

    assert sampled_c_stationarity(as_gradient_oracle(e), [0.0])
    assert classify(e, [0.0]).is_d is False

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(
        "criterion 2",
        f"sampled Clarke set within {d:.3f} of [0,2]; fd(0,+1)=1, fd(0,-1)=-1 "
        f"(quotient definition; the '+1 for d=-1' wording is a sign slip, see "
        f"the strict-xfail companion test); sampled-C vs exact-not-d agrees; "
        f"runtime {elapsed:.2f}s < 5s",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the acceptance wording asks fd_dir_deriv to return 1 for d = -1 on "
        "x + x^2 sin(1/x) at 0, but the defining one-sided quotient "
        "(f(x + t d) - f(x))/t equals -1 identically for d = -1 (the function "
        "is differentiable at 0 with slope 1, so the one-sided value flips "
        "sign with the direction); the faithful value is asserted in "
        "test_criterion_2_sampled_oracle_fidelity and the gallery note"
    ),
)
def test_criterion_2_negative_direction_literal_wording():
    r = fd_dir_deriv(as_evaluator(xsqsin_expr()), [0.0], [-1.0])
    assert abs(r.value - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# criterion 3: non-directional-differentiability demo
# ---------------------------------------------------------------------------


def test_criterion_3_oscillating_quotients():
    t0 = time.perf_counter()
    r = fd_dir_deriv(as_evaluator(xsinlog_expr()), [0.0], [1.0])
    assert not r.converged
    assert r.status == "NON_CONVERGENT"
    assert r.amplitude >= 1.8
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(
        "criterion 3",
        f"NON_CONVERGENT with quotient amplitude {r.amplitude:.3f} >= 1.8; "
        f"runtime {elapsed:.2f}s < 1s",
    )


# ---------------------------------------------------------------------------
# criterion 4: ReLU-loss irregularity
# ---------------------------------------------------------------------------


def test_criterion_4_relu_loss_irregularity():
    e = relu_loss_expr()
    fp = dir_deriv(e, [0.0], [1.0]).value
    fo = clarke_dir_deriv(e, [0.0], [1.0]).value
    assert fp == -1.0
    assert fo == 0.0
    assert fp < fo  # f' != f deg certifies irregularity
    # the gallery notes record the deviation from the strictly-positive claim
    entry = next(g for g in GALLERY if g.name == "relu-loss-irregular")
    assert entry.note is not None and "0" in entry.note
    report(
        "criterion 4",
        "exact engine gives f'(0,1) = -1 and f°(0,1) = 0 (irregular); "
        "strict-positivity caveat recorded in the gallery notes",
    )


# ---------------------------------------------------------------------------
# criterion 5: inclusion-chain property suite (200 instances)
# ---------------------------------------------------------------------------


def test_criterion_5_inclusion_chain_suite():
    t0 = time.perf_counter()
    rng = make_rng(41)
    srng = make_rng(43)
    checked = 0
    while checked < 200:
        dim = int(rng.integers(1, 4))
        e, x_star = random_pa_instance(rng, dim)
        d = dim_required(e)
        if d == 0 or d > 3:
            continue
        x = (x_star[:d] if x_star.size >= d else np.zeros(d)) if checked % 2 == 0 else (
            rng.integers(-8, 9, size=d) / 8.0
        )
        x = np.asarray(x, dtype=float)
        fs = frechet(e, x)
        ls = limiting(e, x)
        cs = clarke(e, x)
        if not fs.is_empty:
            for p in sample_set_points(fs.set, srng):
                assert contains(ls.set, p, 1e-8)
        for p in sample_set_points(ls.set, srng):
            assert contains(cs.set, p, 1e-8)
        pts = np.vstack([c.vertices for c in ls.set.components])
        assert set_distance(SetUnion((conv_hull(pts),)), cs.set) <= 1e-8

        dvec = srng.integers(-3, 4, size=d).astype(float)
        if not dvec.any():
            dvec[0] = 1.0
        fo = clarke_dir_deriv(e, x, dvec).value
        assert fo == pytest.approx(support_value(cs.set, dvec), abs=1e-10)
        assert dir_deriv(e, x, dvec).value <= fo + 1e-8

        # affine chain rule: equality under the rule's hypothesis (surjective
        # inner map; for irregular g with a rank-deficient map only the
        # inclusion holds, and strictly so on explicit instances)
        if d <= 2 and checked % 4 == 0:
            nouter = int(srng.integers(d, d + 2))
            A0 = srng.integers(-2, 3, size=(d, nouter)).astype(float)
            while np.linalg.matrix_rank(A0) < d:
                A0 = srng.integers(-2, 3, size=(d, nouter)).astype(float)
            z = srng.integers(-4, 5, size=nouter) / 4.0
            b0 = x - A0 @ z
            comp = compose_affine(e, A0, b0)
            cg = cs.set.components[0]
            mapped = SetUnion((conv_hull(cg.vertices @ A0),))
            assert set_distance(clarke(comp, z).set, mapped) <= 1e-8
        # chain rule inclusion for arbitrary (possibly rank-deficient) maps
        if d == 2 and checked % 8 == 2:
            A0 = srng.integers(-2, 3, size=(d, 1)).astype(float)
            if not A0.any():
                A0[0, 0] = 1.0
            z = srng.integers(-4, 5, size=1) / 4.0
            comp = compose_affine(e, A0, x - A0 @ z)
            cg = cs.set.components[0]
            mapped = SetUnion((conv_hull(cg.vertices @ A0),))
            for p in sample_set_points(clarke(comp, z).set, srng):
                assert contains(mapped, p, 1e-8)

        # weak sum rule on a random partner
        if d <= 2 and checked % 4 == 1:
            e2, _ = random_pa_instance(rng, d)
            if 0 < dim_required(e2) <= d:
                from nonsmooth.expr import Sum

                csum = clarke(Sum((e, e2)), x)
                c2 = clarke(e2, x).set.components[0]
                msum = SetUnion((minkowski_sum(cs.set.components[0], c2),))
                for p in sample_set_points(csum.set, srng):
                    assert contains(msum, p, 1e-8)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(
        "criterion 5",
        f"200 randomized PA instances: chain, conv identity, support identity, "
        f"f' <= f°, chain/sum rules all hold at 1e-8; runtime {elapsed:.1f}s < 30s",
    )


# ---------------------------------------------------------------------------
# criterion 6: convex optimality equivalence (Fact-2-style)
# ---------------------------------------------------------------------------


def test_criterion_6_convex_optimality_equivalence():
    t0 = time.perf_counter()
    rng = make_rng(61)
    from nonsmooth.polyhedra import HPolyhedron, lp_solve
    from nonsmooth.expr import active_pattern

    done = 0
    while done < 50:
        dim = int(rng.integers(1, 3))
        g, x_star = random_convex_pa(rng, dim)
        if dim_required(g) != dim:
            continue
        k = int(rng.integers(dim, dim + 3))
        A = rng.integers(-2, 3, size=(k, dim)).astype(float)
        A = A[np.any(A != 0, axis=1)]
        if A.shape[0] == 0:
            continue
        slack = rng.choice([0.0, 0.5, 1.0], size=A.shape[0])
        b = A @ x_star + slack
        A = np.vstack([A, np.eye(dim), -np.eye(dim)])
        b = np.concatenate([b, x_star + 2.0, 2.0 - x_star])
        C = HPolyhedron(A, b)
        cert = convex_optimality_check(g, C, x_star, tol=1e-8)

        # independent directional test: exact epigraph LP for
        # min over y in C of g'(x, y - x), confirmed on 200 sampled y
        pat = active_pattern(g, x_star, tol=0.0)
        act = pat.branch_active[()]
        rows, rhs = [], []
        for i in act:
            a = np.asarray(g.terms[i].a)
            row = np.zeros(dim + 1)
            row[:dim] = a
            row[dim] = -1.0
            rows.append(row)
            rhs.append(float(a @ x_star))
        for arow, bb in zip(A, b):
            row = np.zeros(dim + 1)
            row[:dim] = arow
            rows.append(row)
            rhs.append(float(bb))
        obj = np.zeros(dim + 1)
        obj[dim] = 1.0
        res = lp_solve(obj, np.array(rows), np.array(rhs))
        assert res.optimal
        dmin = float(res.value)
        assert cert.optimal == (dmin >= -1e-8)
        verts = vertex_enumeration(C).vertices
        w = rng.dirichlet(np.ones(verts.shape[0]), size=200)
        for y in w @ verts:
            val = dir_deriv(g, x_star, y - x_star).value
            assert val >= dmin - 1e-9
            if cert.optimal:
                assert val >= -1e-7
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(
        "criterion 6",
        f"50 convex instances: optimality flag matches the directional test "
        f"(200 sampled feasible directions each); runtime {elapsed:.1f}s < 10s",
    )


# ---------------------------------------------------------------------------
# criterion 7: LSPAR qualitative reproduction (full experiment)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lspar_full_run(tmp_path_factory):
    from nonsmooth.experiments import LsparExperimentConfig, run_lspar_experiment

    out = tmp_path_factory.mktemp("lspar_full")
    t0 = time.perf_counter()
    cfg = LsparExperimentConfig(
        N_list=(10, 50, 100), trials=500, root_seed=0, out_dir=str(out)
    )
    summary = run_lspar_experiment(cfg)
    summary["elapsed"] = time.perf_counter() - t0
    summary["config"] = cfg
    summary["out_dir"] = str(out)
    return summary


def test_criterion_7_lspar_qualitative_gap(lspar_full_run):
    s = lspar_full_run
    elapsed = s["elapsed"]
    # (a) MM final not worse than pseudo-subgradient in >= 60% at N = 10
    frac = s["per_N"][10]["frac_mm_not_worse"]
    assert frac >= 0.60
    # (b) every certified MM run passes the independent d-stationarity check
    from nonsmooth.experiments import LSPAR_TRUE_W, gen_lspar_data
    from nonsmooth.rng import make_rng as mk
    from nonsmooth.solvers import mm_lspar

    recs = s["records"]
    recheck = 0
    for N in (10, 50, 100):
        certified = [r for r in recs if r.N == N and r.method == "mm" and r.cert]
        rng = mk(7117, N)
        for r in (certified[i] for i in rng.choice(len(certified), size=min(10, len(certified)), replace=False)):
            ds = gen_lspar_data(N, 0.1, r.seed)
            W0 = mk(0, N, r.trial, 22).standard_normal(LSPAR_TRUE_W.shape)
            tr, cert = mm_lspar(ds, W0)
            assert cert.is_d_stationary
            assert lspar_d_stationarity_check(ds, tr.final_x).is_d_stationary
            recheck += 1
    # (c) MM attains the per-trial minimum more often at every N
    for N in (10, 50, 100):
        wins = s["per_N"][N]["wins"]
        assert wins["mm"] > wins["subgrad"]
    assert elapsed < 1800.0
    report(
        "criterion 7",
        f"N=10 frac(MM <= subgrad) = {frac:.3f} >= 0.60; {recheck} certified "
        f"runs re-verified d-stationary; MM wins the per-trial-minimum count "
        f"at every N {dict((N, s['per_N'][N]['wins']['mm']) for N in (10, 50, 100))}; "
        f"runtime {elapsed:.0f}s < 1800s",
    )


def test_criterion_7_frozen_strict_win_regression(lspar_full_run):
    # regression pin from the first calibrated run: fraction of N=10 trials
    # where MM is strictly better than the subgradient arm by at least 1e-6
    recs = lspar_full_run["records"]
    mm = {r.trial: r for r in recs if r.N == 10 and r.method == "mm"}
    sg = {r.trial: r for r in recs if r.N == 10 and r.method == "subgrad"}
    strict = sum(1 for t in mm if mm[t].final_f <= sg[t].final_f - 1e-6)
    frac = strict / len(mm)
    assert frac == pytest.approx(FROZEN_STRICT_WIN_FRACTION_N10, abs=1e-12)
    report(
        "criterion 7 (regression)",
        f"strict-win fraction at N=10 is {frac:.4f}, matching the frozen "
        f"calibration value {FROZEN_STRICT_WIN_FRACTION_N10}",
    )


# ---------------------------------------------------------------------------
# criterion 8: sharpness convergence
# ---------------------------------------------------------------------------


def test_criterion_8_sharp_recovery_convergence(tmp_path):
    from nonsmooth.experiments import RecoveryConfig, run_recovery_experiment

    t0 = time.perf_counter()
    out = run_recovery_experiment(
        RecoveryConfig(
            kind="sign",
            n=10,
            m=80,
            outlier_frac=0.1,
            alpha0=0.1,
            q=0.98,
            iters=2000,
            seed=42,
            warm_start=0.1,
            out_dir=str(tmp_path),
        )
    )
    assert out["best_distance"] <= 1e-3
    best = np.minimum.accumulate(out["distances"])
    from nonsmooth.experiments import fit_log_linear

    slope, r2 = fit_log_linear(best)
    assert slope < 0
    assert r2 >= 0.8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(
        "criterion 8",
        f"orbit distance {out['best_distance']:.2e} <= 1e-3 within 2000 "
        f"iterations; log-distance slope {slope:.4f} < 0 with R^2 {r2:.3f} "
        f">= 0.8; runtime {elapsed:.1f}s < 30s",
    )


# ---------------------------------------------------------------------------
# criterion 9: determinism
# ---------------------------------------------------------------------------


def test_criterion_9_determinism(lspar_full_run, tmp_path):
    # criterion 2 payloads: bit-identical sampled results
    e = xsqsin_expr()
    a = gradient_sampling(as_gradient_oracle(e), [0.0])
    b = gradient_sampling(as_gradient_oracle(e), [0.0])
    assert a.set.components[0].vertices.tobytes() == b.set.components[0].vertices.tobytes()
    fa = fd_dir_deriv(as_evaluator(e), [0.0], [1.0])
    fb = fd_dir_deriv(as_evaluator(e), [0.0], [1.0])
    assert fa.quotients == fb.quotients

    # criterion 8: byte-identical CSV across two runs
    from nonsmooth.experiments import RecoveryConfig, run_recovery_experiment

    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        run_recovery_experiment(
            RecoveryConfig(kind="sign", n=10, m=80, outlier_frac=0.1, iters=300, out_dir=str(d))
        )
    assert (d1 / "recovery.csv").read_bytes() == (d2 / "recovery.csv").read_bytes()

    # criterion 7: per-trial rows reproduce exactly when re-run in isolation
    # (wall-clock column aside), for a random sample of 25 trials
    from nonsmooth.experiments import run_single_lspar_trial

    s = lspar_full_run
    cfg = s["config"]
    recs = {(r.N, r.trial, r.method): r for r in s["records"]}
    rng = make_rng(9009)
    for _ in range(25):
        N = int(rng.choice(np.array(cfg.N_list)))
        trial = int(rng.integers(cfg.trials))
        redo = run_single_lspar_trial(
            (
                N,
                trial,
                cfg.root_seed,
                cfg.noise_sigma,
                s["tuned_subgrad_c"][str(N)],
                cfg.subgrad_iters,
            )
        )
        for r in redo:
            ref = recs[(r.N, r.trial, r.method)]
            assert r.final_f == ref.final_f
            assert r.best_f == ref.best_f
            assert r.iters == ref.iters
            assert r.cert == ref.cert
            assert r.seed == ref.seed
    report(
        "criterion 9",
        "criteria 2/7/8 payloads reproduce bit-for-bit under fixed seeds "
        "(wall-clock columns excluded)",
    )
