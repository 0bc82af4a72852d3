import heapq
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonsmooth import solvers
from nonsmooth.expr import Abs, Affine, Sq, Var, evaluate, vmax, vsum
from nonsmooth.gallery import fig2_expr
from nonsmooth.polyhedra import Ball, Box, HPolyhedron
from nonsmooth.rng import make_rng
from nonsmooth.solvers import (
    _candidate_assignments,
    _candidate_scores,
    _normal_products,
    _ridge_solve,
    _sample_products,
    Constant,
    Diminishing,
    Geometric,
    Polyak,
    ProjectionError,
    SubgradOracle,
    lspar_objective,
    lspar_oracle,
    lspar_pseudo_subgrad,
    lspar_subgradient_lockstep,
    mm_lspar,
    oracle_from_expr,
    project,
    projected_subgradient,
    subgradient_method,
)
from nonsmooth.stationarity import lspar_d_stationarity_check

from conftest import checked_mm_iterates, criterion7_trial, random_pa_instance

W_TRUE = np.array([[1.0, 1.0, -2.0, -2.0], [1.0, -1.0, 1.0, -1.0]])


class DS:
    def __init__(self, X, y):
        self.X = X
        self.y = y


def make_dataset(N=10, seed=0, sigma=0.0):
    rng = make_rng(seed)
    X = rng.uniform(-1, 1, (N, 2))
    y = (X @ W_TRUE).max(axis=1) + sigma * rng.standard_normal(N)
    return DS(X, y)


class TestSchedules:
    def test_values(self):
        assert Constant(0.5).step(3, 0.0, 1.0) == 0.5
        assert Diminishing(2.0).step(3, 0.0, 1.0) == 1.0
        assert Geometric(1.0, 0.5).step(3, 0.0, 1.0) == 0.125
        assert Polyak(1.0).step(0, 3.0, 2.0) == 0.5
        assert Polyak(1.0).step(0, 0.5, 2.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Constant(0.0)
        with pytest.raises(ValueError):
            Geometric(1.0, 1.0)
        with pytest.raises(ValueError):
            Diminishing(-1.0)


class TestSubgradientMethod:
    def test_one_forced_step_raises_objective(self):
        # from (1,0) with the subgradient (1,2) and step 0.1 the next
        # iterate is (0.9, -0.2) and the objective rises from 1 to 1.3
        e = fig2_expr()
        oracle = SubgradOracle(
            fn=lambda x: evaluate(e, x), subgrad=lambda x: np.array([1.0, 2.0])
        )
        tr, iterates = run_recorded(oracle, [1.0, 0.0], Constant(0.1), max_iter=2)
        assert np.allclose(iterates[1], [0.9, -0.2], atol=1e-15)
        assert tr.objectives[0] == 1.0
        assert tr.objectives[1] == pytest.approx(1.3, abs=1e-12)

    def test_abs_diminishing_reaches_small_best(self):
        tr = subgradient_method(
            oracle_from_expr(Abs(Var(0))), [1.0], Diminishing(1.0), max_iter=10**4
        )
        assert tr.best_f <= 1e-2

    def test_smooth_square_constant_step_contracts(self):
        tr = subgradient_method(
            oracle_from_expr(Sq(Var(0))), [1.0], Constant(0.25), max_iter=60
        )
        assert abs(tr.final_x[0]) <= 1e-6

    def test_best_so_far_recorded(self):
        tr = subgradient_method(
            oracle_from_expr(Abs(Var(0))), [1.0], Diminishing(1.0), max_iter=200
        )
        assert tr.best_f == min(tr.objectives)

    def test_sign_zero_rule_stops_at_kink(self):
        # the oracle resolves Sign(0) to 0, so the method halts exactly at 0
        tr = subgradient_method(
            oracle_from_expr(Abs(Var(0))), [1.0], Constant(1.0), max_iter=50
        )
        assert tr.termination == "SMALL_SUBGRADIENT"
        assert tr.final_x[0] == 0.0


def run_recorded(oracle, x0, schedule, max_iter):
    """``subgradient_method``'s trace and the iterates it queried the oracle
    at, recorded by a wrapper that passes every call on unchanged."""
    iterates = []

    def both(x):
        iterates.append(np.array(x, copy=True))
        return oracle.value_and_subgrad(x)

    recording = SubgradOracle(fn=oracle.fn, subgrad=oracle.subgrad, both=both)
    return subgradient_method(recording, x0, schedule, max_iter=max_iter), iterates


def assert_same_run(a, b):
    """Two recorded runs with bit-identical objectives and iterates."""
    (a, a_iterates), (b, b_iterates) = a, b
    assert a.objectives.tobytes() == b.objectives.tobytes()
    assert a.steps.tobytes() == b.steps.tobytes()
    assert a.termination == b.termination
    assert len(a_iterates) == len(b_iterates) == a.iterations
    for u, v in zip(a_iterates, b_iterates):
        assert u.tobytes() == v.tobytes()
    assert a.final_x.tobytes() == b.final_x.tobytes()


class TestOneSweepOracle:
    """``both`` against the two-sweep pair ``fn`` then ``subgrad``."""

    def test_matches_two_sweeps_on_random_pa_trees(self):
        rng = make_rng(2024, 9)
        for case in range(60):
            dim = 1 + case % 3
            e, anchor = random_pa_instance(rng, dim)
            oracle = oracle_from_expr(e)
            two = SubgradOracle(fn=oracle.fn, subgrad=oracle.subgrad)
            # the anchor is a kink; the others are generic points
            for x in [anchor] + list(anchor + rng.uniform(-1, 1, (3, dim))):
                f, g = oracle.both(x)
                assert np.float64(f).tobytes() == np.float64(oracle.fn(x)).tobytes()
                assert g.tobytes() == oracle.subgrad(x).tobytes()
            runs = [run_recorded(o, anchor + 0.25, Diminishing(0.1), max_iter=40) for o in (oracle, two)]
            assert_same_run(*runs)

    def test_lspar_oracle_runs_one_batch_per_step(self, monkeypatch):
        import nonsmooth.solvers as solvers

        ds = make_dataset(N=20, seed=3, sigma=0.1)
        W0 = make_rng(3, 22).standard_normal(W_TRUE.shape)
        oracle = lspar_oracle(ds)
        two = SubgradOracle(fn=oracle.fn, subgrad=oracle.subgrad)
        calls = []
        real = solvers._lspar_batch
        monkeypatch.setattr(solvers, "_lspar_batch", lambda *a: calls.append(1) or real(*a))
        runs = [run_recorded(o, W0, Diminishing(1.0), max_iter=50) for o in (oracle, two)]
        assert len(calls) == 50 + 2 * 50
        assert_same_run(*runs)

    def test_points_are_checked(self):
        from nonsmooth.expr import DimensionMismatchError

        oracle = oracle_from_expr(Abs(Var(1)))
        for x in ([float("nan"), 0.0], [0.0]):
            for call in (oracle.fn, oracle.subgrad, oracle.both):
                with pytest.raises(DimensionMismatchError):
                    call(x)


class TestProjectedSubgradient:
    def test_linear_on_interval(self):
        e = vmax(Affine((1.0,), 0.0), Affine((1.0,), -9.0))
        tr = projected_subgradient(
            oracle_from_expr(e), Box([0.0], [1.0]), [0.7], Diminishing(1.0), max_iter=3000
        )
        assert tr.best_f <= 1e-3
        assert np.all(tr.final_x >= -1e-9) and np.all(tr.final_x <= 1 + 1e-9)

    def test_l1_on_unit_ball(self):
        e = vsum(Abs(Var(0)), Abs(Var(1)))
        tr = projected_subgradient(
            oracle_from_expr(e), Ball(np.zeros(2), 1.0), [1.0, 0.0], Diminishing(0.5),
            max_iter=5000,
        )
        assert tr.best_f <= 1e-2

    def test_box_projection(self):
        assert np.allclose(project(Box([0, 0], [1, 1]), [2.0, -3.0]), [1.0, 0.0])

    @pytest.mark.parametrize(
        "C, x",
        [
            (Box([0.0], [1.0]), [2.0, -3.0]),  # numpy would broadcast the box
            (Ball([0.0], 1.0), [3.0, 4.0]),
            (Box([0.0, 0.0], [1.0, 1.0]), [0.5]),
            (HPolyhedron(np.eye(2), np.ones(2)), [0.5, 0.5, 0.5]),
        ],
    )
    def test_projection_refuses_a_point_of_another_dimension(self, C, x):
        with pytest.raises(ProjectionError, match="dimension"):
            project(C, x)

    def test_halfspace_projection_feasible(self):
        H = HPolyhedron(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), np.array([1.0, 0.0, 0.0]))
        p = project(H, [2.0, 2.0])
        assert np.all(H.A @ p - H.b <= 1e-9)
        assert np.allclose(p, [0.5, 0.5], atol=1e-6)

    def test_iterates_always_feasible(self):
        e = vsum(Abs(Var(0)), Abs(Var(1)))
        H = HPolyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.array([1.0, 1.0, 0.0, 0.0]))
        tr = projected_subgradient(
            oracle_from_expr(e), H, [0.9, 0.9], Diminishing(1.0), max_iter=100
        )
        assert np.all(H.A @ tr.final_x - H.b <= 1e-9)


def ridge_one_block(X, y, c, anchor, N=None):
    """Minimizer of (1/2N)||y - X w||^2 + (c/2)||w - anchor||^2 over the rows
    given, N their number unless given, by the one-block normal equations."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    N = X.shape[0] if N is None else N
    products = _normal_products(*_sample_products(X, y), np.ones(X.shape[0]), 1.0 / max(N, 1))
    return _ridge_solve(products, c, np.asarray(anchor, dtype=float))


class TestRidge:
    def test_identity_design_tiny_ridge(self):
        w = ridge_one_block(np.eye(2), [1.0, 1.0], 1e-9, np.zeros(2))
        assert np.allclose(w, [1.0, 1.0], atol=1e-6)

    def test_zero_design_returns_anchor(self):
        w = ridge_one_block(np.zeros((3, 2)), [1.0, 2.0, 3.0], 1.0, [5.0, 6.0])
        assert np.allclose(w, [5.0, 6.0])

    def test_matches_grid_oracle_on_2x2(self):
        rng = make_rng(12)
        X = rng.standard_normal((2, 2))
        y = rng.standard_normal(2)
        anchor = rng.standard_normal(2)
        c = 0.7
        w = ridge_one_block(X, y, c, anchor)

        def objective(v):
            r = y - X @ v
            return 0.5 * float(r @ r) / 2 + 0.5 * c * float((v - anchor) @ (v - anchor))

        # brute-force grid oracle around the solution
        span = np.linspace(-0.02, 0.02, 41)
        best = min(
            objective(w + np.array([a, b])) for a in span for b in span
        )
        assert objective(w) <= best + 1e-4
        grid_min = min(
            (objective(np.array([a, b])), (a, b))
            for a in np.linspace(w[0] - 1, w[0] + 1, 81)
            for b in np.linspace(w[1] - 1, w[1] + 1, 81)
        )
        assert np.allclose(w, grid_min[1], atol=1e-1)

    def test_stacked_solve_matches_per_block_solve(self):
        rng = make_rng(31)
        N, n, k, C, c = 12, 2, 4, 20, 0.3
        X = rng.uniform(-1, 1, (N, n))
        y = rng.standard_normal(N)
        anchors = rng.standard_normal((k, n))
        # branches 0..2 only in half of the rows, so branch 3 is often empty
        assign = rng.integers(0, k, (C, N))
        assign[::2] %= 3
        assign[1, :] = 0
        masks = (assign[:, None, :] == np.arange(k)[:, None]).astype(float)
        XX, Xy = _sample_products(X, y)
        out = _ridge_solve(_normal_products(XX, Xy, masks, 1.0 / N), c, anchors)
        n_empty = 0
        for b in range(C):
            for i in range(k):
                rows = assign[b] == i
                ref = ridge_one_block(X[rows], y[rows], c, anchors[i], N)
                assert np.allclose(out[b, i], ref, rtol=0.0, atol=1e-12)
                if not rows.any():
                    n_empty += 1
                    assert np.array_equal(out[b, i], anchors[i])
        assert n_empty >= 3

    def test_blocks_are_products_then_solve(self):
        rng = make_rng(32)
        N, n, k, C = 30, 2, 4, 16
        X = rng.uniform(-1, 1, (N, n))
        XX, Xy = _sample_products(X, rng.standard_normal(N))
        masks = (rng.integers(0, k, (C, 1, N)) == np.arange(k)[:, None]).astype(float)
        masks[0, 3] = 0.0  # an empty block
        anchors = rng.standard_normal((k, n))
        # MM reuses one set of products across ridge weights: a solve must
        # leave them as they were
        products = _normal_products(XX, Xy, masks, 1.0 / N)
        for c in (1e-9, 0.3, 2.0**40):
            want = _ridge_solve(_normal_products(XX, Xy, masks, 1.0 / N), c, anchors)
            got = _ridge_solve(products, c, anchors)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(got[0, 3], anchors[3])

    def test_stacked_solve_checks_every_block(self):
        # the second block's Gram matrix is nearly singular: its solve leaves
        # a normal-equations residual ~3e-9 relative, past the bound
        X = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0 + 1e-7]])
        XX, Xy = _sample_products(X, np.array([1.0, 0.0, -1.0]))
        masks = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        _ridge_solve(_normal_products(XX, Xy, masks[:1], 1.0), 1e-30, np.zeros(2))
        with pytest.raises(ArithmeticError):
            _ridge_solve(_normal_products(XX, Xy, masks, 1.0), 1e-30, np.zeros(2))


class TestPseudoSubgrad:
    def test_matches_fd_at_smooth_points(self):
        ds = make_dataset(N=20, seed=4, sigma=0.1)
        rng = make_rng(9)
        for _ in range(10):
            W = rng.standard_normal((2, 4))
            G = lspar_pseudo_subgrad(ds.X, ds.y, W)
            # finite differences of the objective at a no-tie point
            h = 1e-7
            for idx in [(0, 0), (1, 2)]:
                E = np.zeros((2, 4))
                E[idx] = h
                fd = (lspar_objective(ds.X, ds.y, W + E) - lspar_objective(ds.X, ds.y, W - E)) / (2 * h)
                assert fd == pytest.approx(G[idx], abs=1e-5)

    def test_matches_per_sample_reference(self):
        # the one-trial views of the batched kernel against the direct
        # per-sample formulas, bit for bit, ties included
        N = 30
        ds = make_dataset(N=N, seed=12, sigma=0.1)
        rng = make_rng(13)
        for trial in range(5):
            W = rng.standard_normal((2, 4))
            if trial == 0:
                W[:, 1] = W[:, 0]  # every sample ties branches 0 and 1
            Z = ds.X @ W
            winners = Z.argmax(axis=1)
            r = Z.max(axis=1) - ds.y
            G = np.zeros_like(W)
            np.add.at(G.T, winners, (r / N)[:, None] * ds.X)
            assert lspar_objective(ds.X, ds.y, W) == float(0.5 * np.mean(r * r))
            assert np.array_equal(lspar_pseudo_subgrad(ds.X, ds.y, W), G)


def lockstep_batch(datasets, W0s, coeffs, max_iter):
    return lspar_subgradient_lockstep(
        np.stack([ds.X for ds in datasets]),
        np.stack([ds.y for ds in datasets]),
        np.stack(W0s),
        np.asarray(coeffs, dtype=float),
        max_iter=max_iter,
    )


class TestLockstepSubgradient:
    COEFFS = (0.1, 1.0, 10.0, 0.3, 3.0, 1.0, 0.1)

    def batch(self, N):
        datasets = [make_dataset(N=N, seed=60 + t, sigma=0.1) for t in range(7)]
        W0s = [make_rng(N, t, 61).standard_normal((2, 4)) for t in range(7)]
        return datasets, W0s

    @pytest.mark.parametrize("N", [10, 50])
    def test_matches_per_trial_subgradient_method(self, N):
        datasets, W0s = self.batch(N)
        final_f, best_f, iters = lockstep_batch(datasets, W0s, self.COEFFS, 1500)
        for t, (ds, W0, c) in enumerate(zip(datasets, W0s, self.COEFFS)):
            tr = subgradient_method(lspar_oracle(ds), W0, Diminishing(c), max_iter=1500)
            assert final_f[t] == tr.objectives[-1]
            assert best_f[t] == tr.best_f
            assert iters[t] == tr.iterations
            alone = lockstep_batch([ds], [W0], [c], 1500)
            assert [a[0] for a in alone] == [final_f[t], best_f[t], iters[t]]

    def test_vanishing_subgradient_freezes_one_trial(self):
        # noiseless data started at the planted model: G = 0 at iteration 0
        datasets, W0s = self.batch(10)
        live = lockstep_batch(datasets, W0s, self.COEFFS, 300)
        datasets.insert(3, make_dataset(N=10, seed=5))
        W0s.insert(3, W_TRUE)
        coeffs = self.COEFFS[:3] + (2.0,) + self.COEFFS[3:]
        final_f, best_f, iters = lockstep_batch(datasets, W0s, coeffs, 300)
        assert (final_f[3], best_f[3], iters[3]) == (0.0, 0.0, 1)
        tr = subgradient_method(lspar_oracle(datasets[3]), W_TRUE, Diminishing(2.0), max_iter=300)
        assert (tr.termination, tr.iterations) == ("SMALL_SUBGRADIENT", 1)
        others = [0, 1, 2, 4, 5, 6, 7]
        for got, want in zip((final_f, best_f, iters), live):
            assert np.array_equal(got[others], want)
        assert np.all(iters[others] == 300)

    def test_rejects_mismatched_shapes(self):
        datasets, W0s = self.batch(10)
        X = np.stack([ds.X for ds in datasets])
        y = np.stack([ds.y for ds in datasets])
        W0 = np.stack(W0s)
        c = np.ones(7)
        bad = [
            (X[:6], y, W0, c),  # T differs
            (X, y[:, :9], W0, c),  # N differs
            (X, y, W0[:, :1], c),  # n differs
            (X, y, W0, c[:6]),  # one coefficient short
            (X[0], y[0], W0[0], c[:1]),  # a single trial without its T axis
        ]
        for args in bad:
            with pytest.raises(ValueError, match="lspar_subgradient_lockstep"):
                lspar_subgradient_lockstep(*args, max_iter=5)
        with pytest.raises(ValueError, match="positive"):
            lspar_subgradient_lockstep(X, y, W0, np.r_[c[:6], 0.0], max_iter=5)


class TestMM:
    def test_noiseless_from_truth_terminates_immediately(self):
        ds = make_dataset(N=10, seed=1)
        tr, cert = mm_lspar(ds, W_TRUE)
        assert tr.termination == "CONVERGED"
        assert cert.is_d_stationary
        assert tr.objectives[-1] <= 1e-12

    def test_certificate_matches_independent_check(self):
        ds = make_dataset(N=10, seed=2, sigma=0.1)
        rng = make_rng(3)
        tr, cert = mm_lspar(ds, rng.standard_normal((2, 4)))
        if cert.is_d_stationary:
            assert lspar_d_stationarity_check(ds, tr.final_x).is_d_stationary

    def test_accepted_steps_satisfy_sufficient_decrease(self):
        ds = make_dataset(N=10, seed=5, sigma=0.1)
        rng = make_rng(6)
        tr, _ = mm_lspar(ds, rng.standard_normal((2, 4)))
        fs = tr.objectives
        for k, step in enumerate(tr.steps):
            assert fs[k] - fs[k + 1] >= solvers.MM_ETA * step**2 - 1e-15

    def test_k1_reduces_to_proximal_least_squares(self):
        rng = make_rng(8)
        X = rng.uniform(-1, 1, (20, 2))
        w1 = np.array([0.7, -0.3])
        ds = DS(X, X @ w1)
        tr, cert = mm_lspar(ds, np.zeros((2, 1)))
        ols = np.linalg.lstsq(X, ds.y, rcond=None)[0]
        assert np.allclose(tr.final_x.ravel(), ols, atol=1e-6)
        assert cert.is_d_stationary

    def test_beats_pseudo_subgradient_on_noiseless_seeded(self):
        # shared start; MM certificate + objective not worse
        ds = make_dataset(N=10, seed=123)
        rng = make_rng(321)
        W0 = rng.standard_normal((2, 4))
        tr_mm, cert = mm_lspar(ds, W0)
        tr_sg = subgradient_method(lspar_oracle(ds), W0, Diminishing(1.0), max_iter=1500)
        assert tr_mm.objectives[-1] <= tr_sg.objectives[-1] + 1e-12


def reference_kbest_selections(costs: list, cap: int):
    """Index tuples over the choice lists, in increasing total cost.

    ``costs`` is a list of (cost, choice) lists, each sorted ascending.
    Best-first enumeration over the product lattice; ties pop in
    lexicographic order of the rank tuples.
    """
    if not costs:
        yield ()
        return
    start = tuple(0 for _ in costs)
    total0 = sum(c[0][0] for c in costs)
    heap = [(total0, start)]
    seen = {start}
    emitted = 0
    while heap and emitted < cap:
        total, idx = heapq.heappop(heap)
        yield tuple(costs[j][i][1] for j, i in enumerate(idx))
        emitted += 1
        for j in range(len(costs)):
            if idx[j] + 1 < len(costs[j]):
                nxt = idx[:j] + (idx[j] + 1,) + idx[j + 1 :]
                if nxt not in seen:
                    seen.add(nxt)
                    delta = costs[j][idx[j] + 1][0] - costs[j][idx[j]][0]
                    heapq.heappush(heap, (total + delta, nxt))


def reference_candidate_assignments(base, margins, active, cap):
    """The MM candidates from the best-first heap: (C, N) branch assignments."""
    ambiguous = np.flatnonzero(active.sum(axis=1) > 1)
    cost_lists = [
        sorted((float(margins[s, i]), int(i)) for i in np.flatnonzero(active[s]))
        for s in ambiguous
    ]
    combos = list(reference_kbest_selections(cost_lists, cap))
    assign = np.tile(base, (len(combos), 1))
    assign[:, ambiguous] = np.array(combos, dtype=np.intp).reshape(len(combos), len(ambiguous))
    return assign


K_BRANCHES = 4
EPS = 0.5
# dyadic margins, so every total is exact and the heap's order is the defined
# one; few distinct values, so totals tie often
ACTIVE_MARGINS = (0.0, 0.125, 0.25, 0.5)
INACTIVE_MARGINS = (0.625, 1.0, 2.0)


@st.composite
def margin_tables(draw):
    """(base, margins, active): 0-12 ambiguous samples with 2-4 eps-active
    branches each, among samples with one."""
    n_amb = draw(st.integers(0, 12))
    kinds = draw(st.permutations([2] * n_amb + [1] * draw(st.integers(0, 4))))
    base = np.zeros(len(kinds), dtype=np.intp)
    margins = np.zeros((len(kinds), K_BRANCHES))
    for s, kind in enumerate(kinds):
        perm = draw(st.permutations(range(K_BRANCHES)))
        m = draw(st.integers(2, K_BRANCHES)) if kind == 2 else 1
        base[s] = perm[0]
        for rank, i in enumerate(perm[1:], 1):
            pool = ACTIVE_MARGINS if rank < m else INACTIVE_MARGINS
            margins[s, i] = draw(st.sampled_from(pool))
    return base, margins, margins <= EPS


class TestCandidateFold:
    """The fold against the best-first heap it replaced."""

    @given(margin_tables(), st.sampled_from([1, 2, 4, 256]))
    @settings(max_examples=400, deadline=None)
    # equal totals whose choice ranks and branch indices order differently
    @example(
        (
            np.array([1, 0]),
            np.array([[0.25, 0.0, 1.0, 1.0], [0.0, 1.0, 0.25, 1.0]]),
            np.array([[True, True, False, False], [True, False, True, False]]),
        ),
        2,
    )
    def test_matches_the_heap(self, table, cap):
        base, margins, active = table
        got = _candidate_assignments(base, margins, active, cap)
        want = reference_candidate_assignments(base, margins, active, cap)
        assert got.dtype.kind == "i"
        assert np.array_equal(got, want)
        single = active.sum(axis=1) == 1
        assert np.all(got[:, single] == base[single])
        assert np.all(np.take_along_axis(active, got.T, axis=1))
        n_sel = math.prod(int(m) for m in active.sum(axis=1))
        assert got.shape == (min(cap, n_sel), base.size)

    def test_truncation_keeps_the_cheapest_totals(self):
        # the cheapest prefix is not the prefix of the cheapest selection
        margins = np.array([[0.0, 0.125], [0.0, 0.5], [0.0, 0.25]])
        active = margins <= EPS
        got = _candidate_assignments(np.zeros(3, dtype=np.intp), margins, active, 2)
        assert got.tolist() == [[0, 0, 0], [1, 0, 0]]
        got = _candidate_assignments(np.zeros(3, dtype=np.intp), margins, active, 3)
        assert got.tolist() == [[0, 0, 0], [1, 0, 0], [0, 0, 1]]

    def test_no_ambiguous_sample_gives_the_base(self):
        base = np.array([2, 0, 1])
        margins = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        for cap in (1, 256):
            got = _candidate_assignments(base, margins, margins <= EPS, cap)
            assert got.tolist() == [base.tolist()]

    # (candidates solved, outer iterations) of each run, as counted when
    # every outer iteration rebuilt its candidates
    MM_COUNTS = {(50, 0): (3344, 200), (10, 7): (273, 15), (100, 2): (4736, 19)}

    @pytest.mark.parametrize("N, trial", list(MM_COUNTS))
    def test_every_mm_call_matches_the_heap(self, monkeypatch, N, trial):
        # N = 50 trial 0 stalls at MAX_ITER; the others hit the cap of 256
        fold = solvers._candidate_assignments
        sizes = []

        def compared(base, margins, active, cap):
            got = fold(base, margins, active, cap)
            assert np.array_equal(got, reference_candidate_assignments(base, margins, active, cap))
            sizes.append(got.shape[0])
            return got

        monkeypatch.setattr(solvers, "_candidate_assignments", compared)
        ds, W0 = criterion7_trial(N, trial)
        tr, _ = solvers.mm_lspar(ds, W0)
        assert (tr.extras["candidates"], tr.extras["outer_iters"]) == self.MM_COUNTS[N, trial]
        # rejected iterations whose eps-active sets did not change reuse them
        assert len(sizes) <= tr.extras["outer_iters"]
        assert max(sizes) == solvers.MM_SELECTION_CAP
        if (N, trial) == (50, 0):
            assert tr.termination == "MAX_ITER"
            assert len(sizes) < tr.extras["outer_iters"]


def reference_mm_lspar(dataset, W0):
    """The per-candidate MM loop: one ridge solve per branch per candidate,
    with the ``MM_*`` constants ``solvers`` holds at the call."""
    X = np.asarray(dataset.X, dtype=float)
    y = np.asarray(dataset.y, dtype=float).ravel()
    N = X.shape[0]
    W = np.array(W0, dtype=float)
    k = W.shape[1]
    eps = max(0.1 * float(np.mean(np.abs(y))), 1e-12)
    c = solvers.MM_C0
    f_cur = lspar_objective(X, y, W)
    termination = "MAX_ITER"
    for _ in range(solvers.MM_MAX_OUTER):
        Z = X @ W
        margins = Z.max(axis=1)[:, None] - Z
        active = margins <= eps
        best_candidate, best_f = None, math.inf
        base = Z.argmax(axis=1)
        for assign in reference_candidate_assignments(base, margins, active, solvers.MM_SELECTION_CAP):
            Wtry = np.empty_like(W)
            for i in range(k):
                rows = assign == i
                Wtry[:, i] = ridge_one_block(X[rows], y[rows], c, W[:, i], N)
            ftry = lspar_objective(X, y, Wtry)
            if ftry < best_f:
                best_f, best_candidate = ftry, Wtry
        if best_candidate is not None:
            delta = float(np.linalg.norm(best_candidate - W) ** 2)
            if f_cur - best_f >= solvers.MM_ETA * delta and best_f < f_cur:
                W, f_cur = best_candidate, best_f
                c = max(solvers.MM_C_MIN, 0.5 * c)
                continue
        if lspar_d_stationarity_check(dataset, W).is_d_stationary:
            termination = "CONVERGED"
            break
        eps *= solvers.MM_SHRINK
        c *= 2.0
    cert = lspar_d_stationarity_check(dataset, W)
    return f_cur, termination, cert.is_d_stationary


class TestStackedMM:
    @pytest.mark.parametrize("N", [10, 50])
    @pytest.mark.parametrize("k", [4, 1])
    @pytest.mark.parametrize("cap", [1, 4, 256])
    def test_matches_per_candidate_reference(self, monkeypatch, N, k, cap):
        ds = make_dataset(N=N, seed=40 + N, sigma=0.1)
        W0 = make_rng(N, k, cap).standard_normal((2, k))
        monkeypatch.setattr(solvers, "MM_SELECTION_CAP", cap)
        tr, cert = mm_lspar(ds, W0)
        f_ref, term_ref, cert_ref = reference_mm_lspar(ds, W0)
        assert tr.objectives[-1] == pytest.approx(f_ref, rel=1e-9, abs=0.0)
        assert tr.termination == term_ref
        assert cert.is_d_stationary == cert_ref == tr.extras["certificate"]

    def test_counters(self):
        ds = make_dataset(N=20, seed=7, sigma=0.1)
        tr, _ = mm_lspar(ds, make_rng(7).standard_normal((2, 4)))
        assert tr.extras["outer_iters"] >= max(1, tr.steps.size)
        assert tr.extras["candidates"] >= tr.extras["outer_iters"]


class TestCandidateScores:
    @pytest.mark.parametrize("seed", range(4))
    def test_column_fold_matches_the_axis_max(self, seed):
        rng = make_rng(seed, 33)
        C, N, k = 24, 10, rng.integers(1, 6)
        Z = rng.standard_normal((C, N, k))
        y = rng.standard_normal(N)
        # NaN and +-inf in some rows, alone or beside finite branch values
        specials = np.array([np.nan, np.inf, -np.inf])
        cells = rng.integers(0, Z.size, 20)
        Z.reshape(-1)[cells] = rng.choice(specials, cells.size)
        Z[0] = -np.inf
        r = Z.max(axis=-1) - y
        want = 0.5 * np.mean(r * r, axis=-1)
        want[~np.isfinite(want)] = math.inf
        got = _candidate_scores(Z, y)
        assert got.tobytes() == want.tobytes()
        assert np.isinf(got).sum() >= 2 and np.isfinite(got).any()


# Final objective, `iterations` (iterates recorded), eps and c of the
# criterion-7 N = 50 trials that stop at max_outer without a certificate,
# floats as float.hex
STALLED_N50 = {
    0: ("0x1.52d5cb6770423p-8", 37, "0x1.12b8dbb1e950bp-167", "0x1.0000000000000p+128"),
    1: ("0x1.00fffe89dad12p-8", 50, "0x1.fa4dbe5c174d8p-155", "0x1.0000000000000p+102"),
    2: ("0x1.f8c86766f1443p-9", 45, "0x1.f46d5b3191ecfp-160", "0x1.0000000000000p+112"),
    4: ("0x1.0ecafb774d285p-5", 50, "0x1.ed352b8ebd23ap-155", "0x1.0000000000000p+102"),
}


class TestStalledTrials:
    @pytest.mark.parametrize("trial", list(STALLED_N50))
    def test_pinned_bit_for_bit(self, trial):
        tr, cert = mm_lspar(*criterion7_trial(50, trial))
        f, iters, eps, c = STALLED_N50[trial]
        assert tr.termination == "MAX_ITER" and not cert.is_d_stationary
        assert float(tr.objectives[-1]).hex() == f
        assert tr.iterations == iters
        assert float(tr.extras["eps_final"]).hex() == eps
        assert float(tr.extras["c_final"]).hex() == c


class TestOneCheckPerIterate:
    @pytest.mark.parametrize(
        "N, trial, params",
        [
            (50, 0, {}),  # stalls: every late iteration is rejected
            (50, 3, {}),  # converges
            (10, 0, {"MM_MAX_OUTER": 1}),  # stops right after an accepted step
            (50, 0, {"MM_MAX_OUTER": 0}),
        ],
    )
    def test_no_two_checks_at_an_equal_iterate(self, monkeypatch, N, trial, params):
        # params: the MM constants this case overrides
        ds, W0 = criterion7_trial(N, trial)
        for name, value in params.items():
            monkeypatch.setattr(solvers, name, value)
        max_outer = solvers.MM_MAX_OUTER
        tr, cert, seen = checked_mm_iterates(monkeypatch, ds, W0)
        assert seen
        for a in range(len(seen)):
            for b in range(a):
                assert not np.array_equal(seen[a], seen[b])
        assert np.array_equal(seen[-1], tr.final_x)
        fresh = lspar_d_stationarity_check(ds, tr.final_x)
        assert cert.is_d_stationary == fresh.is_d_stationary == tr.extras["certificate"]
        assert cert.min_value == fresh.min_value
        # one check per outer iteration at most, and never one per rejection
        # of an unchanged iterate
        assert len(seen) <= tr.steps.size + 1
        if tr.termination == "MAX_ITER" and max_outer > tr.steps.size:
            assert tr.extras["outer_iters"] > len(seen)


class TestSharpGeometricConvergence:
    def test_l2_norm_linear_rate(self):
        # f(x) = ||x||_2 is sharp; geometric steps give linear convergence
        from nonsmooth.experiments import fit_log_linear

        def fn(x):
            return float(np.linalg.norm(x))

        def sg(x):
            n = float(np.linalg.norm(x))
            return x / n if n > 0 else np.zeros_like(x)

        rng = make_rng(10)
        x0 = rng.standard_normal(5)
        x0 /= np.linalg.norm(x0)
        tr = subgradient_method(
            SubgradOracle(fn, sg), x0, Geometric(1.0, 0.9), max_iter=200, ref=np.zeros(5)
        )
        d = np.minimum.accumulate(tr.dists)
        slope, r2 = fit_log_linear(d)
        # log-distance slope at least log10(0.95) per iteration
        assert slope <= np.log10(0.95)
        assert tr.dists[-1] <= 1e-6
