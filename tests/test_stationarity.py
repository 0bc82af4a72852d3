import itertools

import numpy as np
import pytest

from nonsmooth.expr import Abs, Affine, Builtin1D, Const, Max, Min, Scale, Sq, Sum, Var, evaluate, vmax
from nonsmooth.gallery import f1_expr, f2_expr, xsqsin_expr
from nonsmooth.polyhedra import Box, HPolyhedron, contains, lp_solve, vertex_enumeration
from nonsmooth.rng import make_rng
from nonsmooth.stationarity import (
    DStatCertificate,
    TooManyTiesError,
    classify,
    convex_optimality_check,
    lspar_d_stationarity_check,
)
from nonsmooth.subdiff import DirDerivValue, SubdiffError, clarke, dir_deriv, normal_cone

from conftest import checked_mm_iterates, criterion7_trial, random_convex_pa, random_pa_instance


class TestClassify:
    def test_f1_at_zero_is_c_only(self):
        rep = classify(f1_expr(), [0.0])
        assert (rep.is_C, rep.is_l, rep.is_d) == (True, False, False)
        assert rep.witness_value == pytest.approx(-1.0, abs=1e-12)
        # the witness certifies descent when re-evaluated independently
        assert dir_deriv(f1_expr(), [0.0], rep.witness_direction).value < -rep.tol / 2

    def test_f2_at_zero_is_l_not_d(self):
        rep = classify(f2_expr(), [0.0])
        assert (rep.is_C, rep.is_l, rep.is_d) == (True, True, False)

    def test_f2_at_minus_one_is_d(self):
        rep = classify(f2_expr(), [-1.0])
        assert (rep.is_C, rep.is_l, rep.is_d) == (True, True, True)
        assert rep.witness_direction is None

    @pytest.mark.parametrize("n", [1, 2])
    def test_near_tie_with_a_constant(self, n):
        # max(1e-12, x0, -x0) at 0: only the constant is active, so f is
        # constant near 0
        e = vmax(Affine((0.0,) * n, 1e-12), Var(0), Scale(-1.0, Var(0)))
        rep = classify(e, np.zeros(n))
        assert (rep.is_C, rep.is_l, rep.is_d) == (True, True, True)

    @pytest.mark.parametrize("bad", [-1.0, -1e-12, float("nan"), float("inf")])
    def test_rejects_negative_tol(self, bad):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            classify(Abs(Var(0)), [0.0], tol=bad)

    def test_f1_at_half_is_d(self):
        rep = classify(f1_expr(), [0.5])
        assert rep.is_d is True

    def test_smooth1d_partial_report(self):
        rep = classify(xsqsin_expr(), [0.0])
        assert rep.is_d is False
        assert rep.is_l is None and rep.is_C is None
        assert rep.witness_direction is not None

    @pytest.mark.parametrize(
        "e",
        [Scale(-1e-10, Abs(Var(0))), Min((Affine((1e-10,), 0.0), Const(0.0)))],
        ids=["scaled_neg_abs", "min_of_tiny_slope"],
    )
    def test_tiny_concave_1d_kink_is_d_at_tol(self, e):
        # f'(0, .) >= -1e-10 > -tol on the unit box although the Frechet set
        # is empty; the d-flag at tol is the sweep's, as in higher dimension
        rep = classify(e, [0.0])
        assert rep.is_d is True and rep.witness_direction is None
        assert rep.certificates["frechet_contains_zero"] is False
        assert rep.certificates["sweep_min"] == pytest.approx(-1e-10, rel=1e-12)
        assert (rep.is_l, rep.is_C) == (True, True)
        e2 = Scale(-1e-10, Sum((Abs(Var(0)), Abs(Var(1)))))
        assert classify(e2, [0.0, 0.0]).is_d is True

    @pytest.mark.parametrize(
        "e, x",
        [
            (Abs(Var(0)), [0.0]),
            (Scale(-1.0, Abs(Var(0))), [0.0]),
            (Scale(-1.0, Sum((Abs(Var(0)), Abs(Var(1))))), [0.0, 0.0]),
        ],
        ids=["abs", "neg_abs", "neg_l1_2d"],
    )
    def test_sweep_sign_flip_trips_the_cross_check(self, monkeypatch, e, x):
        import nonsmooth.stationarity as stat

        real = stat._min_dirderiv_over_box

        def flipped(e, x, cells):
            val, d = real(e, x, cells)
            return -val, d

        monkeypatch.setattr(stat, "_min_dirderiv_over_box", flipped)
        with pytest.raises(SubdiffError, match="disagrees with directional sweep"):
            classify(e, x)

    @pytest.mark.parametrize(
        "e, x",
        [
            (Scale(-1.0, Abs(Var(0))), [0.0]),  # the exact branch
            (Scale(-1.0, Sum((Abs(Var(0)), Abs(Var(1))))), [0.0, 0.0]),
            (Builtin1D("xsinlog", Var(0)), [0.5]),  # the 1-D builtin branch
        ],
        ids=["neg_abs", "neg_l1_2d", "builtin"],
    )
    def test_witness_that_does_not_descend_trips_the_guard(self, monkeypatch, e, x):
        import nonsmooth.stationarity as stat

        assert classify(e, x).witness_direction is not None
        monkeypatch.setattr(stat, "dir_deriv", lambda e, x, d: DirDerivValue(value=0.0, kind="ordinary"))
        with pytest.raises(SubdiffError, match="internal: witness"):
            classify(e, x)

    # make_rng(2209, dim, i) at dim 2, i = 110 and 126, and at dim 3, i = 68
    # and 92, lost the d-flag at s >= 1e9 while its tol was absolute: the
    # sweep's rounding grows with the gradients
    @pytest.mark.parametrize("s", [1e3, 1e6, 1e9, 1e12])
    def test_flags_do_not_depend_on_units(self, s):
        from nonsmooth.expr import dim_required

        cases = [(2, i) for i in (*range(30), 110, 126)] + [(3, i) for i in (*range(30), 68, 92)]
        checked = 0
        for dim, i in cases:
            e, x = random_pa_instance(make_rng(2209, dim, i), dim)
            if dim_required(e) != dim:
                continue
            want, got = classify(e, x), classify(Scale(s, e), x)
            assert (got.is_d, got.is_l, got.is_C) == (want.is_d, want.is_l, want.is_C), (dim, i)
            if got.is_d is False:
                assert dir_deriv(Scale(s, e), x, got.witness_direction).value < 0
            checked += 1
        assert checked >= 40

    def test_hierarchy_on_random_corpus(self, rng):
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            e, x_star = random_pa_instance(rng, dim)
            from nonsmooth.expr import dim_required

            d = dim_required(e)
            if d == 0 or d > 3:
                continue
            x = x_star[:d] if x_star.size >= d else np.zeros(d)
            rep = classify(e, x)
            # the forward chain d => l => C must never be violated
            assert not (rep.is_d and not rep.is_l)
            assert not (rep.is_l and not rep.is_C)
            if rep.is_d is False:
                val = dir_deriv(e, x, rep.witness_direction).value
                assert val < -rep.tol / 2
                assert val == pytest.approx(rep.witness_value, abs=1e-9)

    def test_pa_d_stationary_iff_local_min(self, rng):
        # for piecewise affine functions first-order exactness makes
        # d-stationarity equivalent to local minimality along rays
        from nonsmooth.expr import dim_required

        checked = 0
        for _ in range(60):
            dim = int(rng.integers(1, 3))
            e, x_star = random_pa_instance(rng, dim)
            d = dim_required(e)
            if d == 0 or d > 2:
                continue
            x = x_star[:d] if x_star.size >= d else np.zeros(d)
            rep = classify(e, x)
            f0 = evaluate(e, x)
            if rep.is_d:
                for _ in range(40):
                    u = rng.standard_normal(d)
                    u /= np.linalg.norm(u)
                    assert evaluate(e, x + 1e-7 * u) >= f0 - 1e-12
            else:
                u = rep.witness_direction
                assert evaluate(e, x + 1e-7 * u) < f0
            checked += 1
        assert checked >= 30

    def test_grid_local_minima_are_d_stationary(self, rng):
        # separable sums of 1-D kinks with dyadic breakpoints: kinks sit on
        # the dyadic grid, so brute-force grid local minima coincide with
        # exact kink points and must classify as d-stationary
        step = 2.0**-10  # ~1e-3 grid, dyadic so kinks land exactly
        found = 0
        for _ in range(12):
            pieces_1d = []
            for coord in range(2):
                ks = sorted(set(rng.integers(-4, 5, size=2) / 8.0))
                terms = [
                    Scale(float(rng.choice((0.5, 1.0, 2.0))), Abs(Affine((1.0,), -k)))
                    for k in ks
                ]
                g1 = Sum(tuple(terms)) if len(terms) > 1 else terms[0]
                pieces_1d.append(g1)
            e = Sum(tuple(compose_coord(g, c) for c, g in enumerate(pieces_1d)))
            lo, hi = -0.75, 0.75
            n_steps = int(round((hi - lo) / step))
            grid = lo + step * np.arange(n_steps + 1)
            # separable sum: the 2-D grid values are an outer sum, so grid
            # local minima are exactly pairs of 1-D grid local minima
            v0 = np.array([evaluate(pieces_1d[0], [t]) for t in grid])
            v1 = np.array([evaluate(pieces_1d[1], [t]) for t in grid])
            i0 = np.flatnonzero((v0 <= np.roll(v0, 1)) & (v0 <= np.roll(v0, -1)))
            j0 = np.flatnonzero((v1 <= np.roll(v1, 1)) & (v1 <= np.roll(v1, -1)))
            i0 = i0[(i0 > 0) & (i0 < len(grid) - 1)]
            j0 = j0[(j0 > 0) & (j0 < len(grid) - 1)]
            for i in i0[:3]:
                for j in j0[:3]:
                    rep = classify(e, [grid[i], grid[j]])
                    assert rep.is_d is True
                    found += 1
        assert found >= 5


def compose_coord(g1d, coord: int):
    """Lift a 1-D expression to act on coordinate ``coord`` of a 2-D point."""
    from nonsmooth.subdiff import compose_affine

    A0 = np.zeros((1, 2))
    A0[0, coord] = 1.0
    return compose_affine(g1d, A0, np.zeros(1))


class TestConvexOptimality:
    def test_abs_at_zero_unconstrained(self):
        cert = convex_optimality_check(Abs(Var(0)), None, [0.0])
        assert cert.optimal
        assert abs(cert.s[0]) <= 1e-7 and abs(cert.nu[0]) <= 1e-7

    def test_linear_on_interval_at_left_end(self):
        g = vmax(Affine((1.0,), 0.0), Affine((1.0,), -9.0))  # equals x near 0
        cert = convex_optimality_check(g, Box([0.0], [1.0]), [0.0])
        assert cert.optimal
        assert cert.s[0] == pytest.approx(1.0, abs=1e-7)
        assert cert.nu[0] == pytest.approx(-1.0, abs=1e-7)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_rejects_negative_tol(self, bad):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            convex_optimality_check(Abs(Var(0)), None, [0.0], tol=bad)

    def test_abs_at_half_not_optimal(self):
        cert = convex_optimality_check(Abs(Var(0)), None, [0.5])
        assert not cert.optimal

    def test_infeasible_point_raises(self):
        from nonsmooth.subdiff import InfeasiblePointError

        with pytest.raises(InfeasiblePointError):
            convex_optimality_check(Abs(Var(0)), Box([0.0], [1.0]), [2.0])

    def test_point_of_the_wrong_length_raises(self):
        from nonsmooth.expr import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            convex_optimality_check(Abs(Var(0)), Box([0.0, 0.0], [1.0, 1.0]), [0.0])

    def _exact_directional_min(self, g, C_h, x):
        """min over y in C of g'(x, y - x) via one epigraph LP (independent
        of the optimality-check path)."""
        verts = vertex_enumeration(C_h).vertices
        from nonsmooth.expr import active_pattern

        pat = active_pattern(g, x, tol=0.0)
        act = pat.branch_active[()]
        rows = []
        rhs = []
        n = x.size
        # vars: (y, t); minimize t s.t. t >= a_i . (y - x), y in C
        for i in act:
            a = np.asarray(g.terms[i].a)
            row = np.zeros(n + 1)
            row[:n] = a
            row[n] = -1.0
            rows.append(row)
            rhs.append(float(a @ x))
        for arow, bb in zip(C_h.A, C_h.b):
            row = np.zeros(n + 1)
            row[:n] = arow
            rows.append(row)
            rhs.append(float(bb))
        obj = np.zeros(n + 1)
        obj[n] = 1.0
        res = lp_solve(obj, np.array(rows), np.array(rhs))
        assert res.optimal
        return float(res.value)

    def test_fact2_equivalence_suite(self, rng):
        # optimality flag == non-negativity of the exact directional minimum,
        # validated against 200 sampled feasible directions per instance
        done = optimal = 0
        while done < 50:
            dim = int(rng.integers(1, 3))
            g, x_star = random_convex_pa(rng, dim)
            from nonsmooth.expr import dim_required

            if dim_required(g) != dim:
                continue
            # a polyhedral C containing x_star, sometimes with active rows
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
            dmin = self._exact_directional_min(g, C, x_star)
            assert cert.optimal == (dmin >= -1e-8)
            if cert.optimal:  # 0 = s + nu, s a subgradient, nu a normal
                assert contains(clarke(g, x_star).set, cert.s)
                assert contains(normal_cone(C, x_star), cert.nu)
                assert np.abs(cert.s + cert.nu).max() <= 1e-8
                optimal += 1
            verts = vertex_enumeration(C).vertices
            if verts.shape[0] == 0:
                continue
            w = rng.dirichlet(np.ones(verts.shape[0]), size=200)
            for y in w @ verts:
                val = dir_deriv(g, x_star, y - x_star).value
                assert val >= dmin - 1e-9
                if cert.optimal:
                    assert val >= -1e-7
            done += 1
        assert optimal >= 10


class TestLsparDStationarity:
    W_TRUE = np.array([[1.0, 1.0, -2.0, -2.0], [1.0, -1.0, 1.0, -1.0]])

    def _dataset(self, N=10, seed=0, sigma=0.0):
        class DS:
            pass

        rng = make_rng(seed)
        ds = DS()
        ds.X = rng.uniform(-1, 1, (N, 2))
        ds.y = (ds.X @ self.W_TRUE).max(axis=1) + sigma * rng.standard_normal(N)
        return ds

    def test_true_weights_on_noiseless_data(self):
        ds = self._dataset()
        cert = lspar_d_stationarity_check(ds, self.W_TRUE)
        assert cert.is_d_stationary
        assert cert.min_value == pytest.approx(0.0, abs=1e-12)

    def test_single_sample_descent_witness(self):
        class DS:
            pass

        ds = DS()
        ds.X = np.array([[1.0, 0.5]])
        ds.y = np.array([5.0])
        cert = lspar_d_stationarity_check(ds, self.W_TRUE)
        assert not cert.is_d_stationary
        # f'(W; D) is linear here, so the witness is a box vertex pushing
        # the active branch toward the sample
        assert cert.witness is not None
        assert np.all(np.abs(cert.witness) == 1.0)
        assert np.allclose(cert.witness[:, 0], [1.0, 1.0])

    def test_converged_mm_passes_check(self):
        from nonsmooth.solvers import mm_lspar

        ds = self._dataset(N=10, seed=3, sigma=0.1)
        rng = make_rng(5)
        W0 = rng.standard_normal((2, 4))
        trace, cert = mm_lspar(ds, W0)
        if cert.is_d_stationary:
            again = lspar_d_stationarity_check(ds, trace.final_x)
            assert again.is_d_stationary

    def test_too_many_ties(self):
        class DS:
            pass

        ds = DS()
        ds.X = np.zeros((13, 2))  # every branch ties at every sample
        ds.y = np.ones(13)
        with pytest.raises(TooManyTiesError):
            lspar_d_stationarity_check(ds, self.W_TRUE, selection_cap=2**12)

    def test_dimension_cap(self):
        class DS:
            pass

        ds = DS()
        ds.X = np.zeros((1, 5))
        ds.y = np.zeros(1)
        with pytest.raises(Exception):
            lspar_d_stationarity_check(ds, np.zeros((5, 4)))


class _Data:
    def __init__(self, X, y):
        self.X = X
        self.y = y


def dyadic_tie_dataset(seed: int, N: int = 8):
    """(dataset, W) with n = 2, k = 4 and halves for X and W, so branch ties
    are exact and every residual (a multiple of 1/2) has a known sign."""
    rng = make_rng(seed, 5)
    X = rng.integers(-2, 3, (N, 2)) / 2.0
    W = rng.integers(-1, 2, (2, 4)) / 2.0
    y = (X @ W).max(axis=1) - rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], N)
    return _Data(X, y), W


def tie_counts(ds, W):
    """(positive-residual samples with a tie, negative-residual samples with a tie)."""
    Z = ds.X @ W
    g = Z.max(axis=1)
    tied = (Z == g[:, None]).sum(axis=1) > 1
    r = g - ds.y
    return int((tied & (r > 0)).sum()), int((tied & (r < 0)).sum())


def lspar_tree(X, y, k: int):
    """The LSPAR objective (1/2N) sum_s (max_i w_i^T x_s - y_s)^2 as a PLQ
    tree in the variables W.ravel() (W stored row-major as (n, k))."""
    N, n = X.shape
    terms = []
    for s in range(N):
        leaves = []
        for i in range(k):
            a = np.zeros(n * k)
            a[i::k] = X[s]
            leaves.append(Affine(tuple(a), -float(y[s])))
        terms.append(Sq(Max(tuple(leaves))))
    return Scale(0.5 / N, Sum(tuple(terms)))


class TestLsparCheckSecondRoute:
    """The check's exact minimum of D -> f'(W; D) against ``dir_deriv`` of the
    objective written as an expression tree, at dyadic points with exact ties."""

    @pytest.mark.parametrize("seed", range(8))
    def test_min_value_bounds_dir_deriv(self, seed):
        ds, W = dyadic_tie_dataset(seed)
        pos, neg = tie_counts(ds, W)
        assert pos + neg > 0
        cert = lspar_d_stationarity_check(ds, W)
        e = lspar_tree(ds.X, ds.y, W.shape[1])
        rng = make_rng(seed, 6)
        for D in rng.uniform(-1.0, 1.0, (40, W.size)):
            assert cert.min_value <= dir_deriv(e, W.ravel(), D).value + 1e-12
        assert cert.witness is not None  # these points all have a descent direction
        assert np.abs(cert.witness).max() <= 1.0 + 1e-12
        at_witness = dir_deriv(e, W.ravel(), cert.witness.ravel()).value
        assert at_witness == pytest.approx(cert.min_value, abs=1e-12)

    def test_cases_cover_both_tie_kinds(self):
        counts = [tie_counts(*dyadic_tie_dataset(seed)) for seed in range(8)]
        assert any(pos > 0 and neg > 0 for pos, neg in counts)
        assert any(pos > 0 and neg == 0 for pos, neg in counts)
        assert any(neg >= 3 for _, neg in counts)

    def test_stationary_point_with_ties(self):
        ds, W = dyadic_tie_dataset(0)
        ds.y = (ds.X @ W).max(axis=1)  # every residual 0
        cert = lspar_d_stationarity_check(ds, W)
        assert cert.is_d_stationary and cert.witness is None
        e = lspar_tree(ds.X, ds.y, W.shape[1])
        for D in make_rng(0, 7).uniform(-1.0, 1.0, (10, W.size)):
            assert cert.min_value <= dir_deriv(e, W.ravel(), D).value + 1e-12


def reference_lspar_d_stationarity_check(dataset, W, tol=1e-6, act_tol=None, selection_cap=4096):
    """The row-by-row check: per-sample loops for the active sets and the
    common linear part, and the direction LP built one row at a time."""
    X = np.asarray(dataset.X, dtype=float)
    y = np.asarray(dataset.y, dtype=float).ravel()
    W = np.asarray(W, dtype=float)
    n, k = W.shape
    N = X.shape[0]
    act_tol = tol if act_tol is None else act_tol
    Z = X @ W
    gvals = Z.max(axis=1)
    resid = gvals - y
    actives = [np.flatnonzero(Z[s] >= gvals[s] - act_tol) for s in range(N)]
    neg_tied = [s for s in range(N) if resid[s] < 0 and actives[s].size > 1]
    total = 1
    for s in neg_tied:
        total *= actives[s].size
        if total > selection_cap:
            raise TooManyTiesError(f"TOO_MANY_TIES: {total}+ branch selections; perturb W")
    pos_tied = [s for s in range(N) if resid[s] > 0 and actives[s].size > 1]
    base = np.zeros((n, k))
    for s in range(N):
        if resid[s] == 0.0 or s in pos_tied or (resid[s] < 0 and actives[s].size > 1):
            continue
        i = int(actives[s][0]) if resid[s] < 0 else int(np.argmax(Z[s]))
        base[:, i] += (resid[s] / N) * X[s]
    best_val = np.inf
    best_witnesses: list = []
    n_sel = 0
    choice_lists = [list(map(int, actives[s])) for s in neg_tied]
    for combo in itertools.product(*choice_lists) if choice_lists else [()]:
        n_sel += 1
        G = base.copy()
        for s, i in zip(neg_tied, combo):
            G[:, i] += (resid[s] / N) * X[s]
        if not pos_tied:
            val = float(-np.abs(G).sum())
            Dw = np.where(G > 0, -1.0, np.where(G < 0, 1.0, -1.0))
        else:
            t = len(pos_tied)
            nv = n * k + t
            c = np.zeros(nv)
            c[: n * k] = G.ravel()
            for j, s in enumerate(pos_tied):
                c[n * k + j] = resid[s] / N
            A_ub = []
            b_ub = []
            for j, s in enumerate(pos_tied):
                for i in actives[s]:
                    row = np.zeros(nv)
                    for a in range(n):
                        row[a * k + i] = X[s, a]
                    row[n * k + j] = -1.0
                    A_ub.append(row)
                    b_ub.append(0.0)
            eye = np.eye(n * k, nv)
            A_ub.extend(eye)
            b_ub.extend(np.ones(n * k))
            A_ub.extend(-eye)
            b_ub.extend(np.ones(n * k))
            res = lp_solve(c, np.array(A_ub), np.array(b_ub))
            assert res.optimal
            val = float(res.value)
            Dw = res.x[: n * k].reshape(n, k)
        if val < best_val - 1e-12:
            best_val = val
            best_witnesses = [Dw]
        elif val <= best_val + 1e-12:
            best_witnesses.append(Dw)
    is_d = best_val >= -tol
    witness = None
    if not is_d:
        witness = min(best_witnesses, key=lambda D: tuple(np.round(D.ravel(), 12)))
    return DStatCertificate(bool(is_d), float(best_val), tol, n_sel, witness)


def assert_same_certificate(got, ref):
    """Every field equal, the floats bit for bit."""
    assert got.is_d_stationary is ref.is_d_stationary
    assert np.float64(got.min_value).tobytes() == np.float64(ref.min_value).tobytes()
    assert got.tol == ref.tol
    assert got.n_selections == ref.n_selections
    if ref.witness is None:
        assert got.witness is None
    else:
        assert got.witness.shape == ref.witness.shape
        assert got.witness.dtype == ref.witness.dtype
        assert got.witness.tobytes() == ref.witness.tobytes()


class TestUncertifiedWitnessDescends:
    """A second route to the failed certificates of MM's stalled runs: the
    check's witness D lowers the objective itself, at the rate min_value."""

    @pytest.mark.parametrize("trial", [0, 1, 2, 4])
    def test_stalled_mm_runs(self, trial):
        from nonsmooth.solvers import lspar_oracle, mm_lspar

        ds, W0 = criterion7_trial(50, trial)
        tr, cert = mm_lspar(ds, W0)
        assert tr.termination == "MAX_ITER" and not cert.is_d_stationary
        W, D = tr.final_x, cert.witness
        objective = lspar_oracle(ds).fn
        f0 = objective(W)
        for t in (1e-8, 1e-6):
            assert objective(W + t * D) < f0
        t = 1e-8
        slope = (objective(W + t * D) - f0) / t
        assert slope == pytest.approx(cert.min_value, rel=5e-3)


class TestLsparCheckMatchesRowByRow:
    @pytest.mark.parametrize("seed", range(8))
    def test_dyadic_ties(self, seed):
        ds, W = dyadic_tie_dataset(seed)
        for act_tol in (None, 0.0, 0.6):
            assert_same_certificate(
                lspar_d_stationarity_check(ds, W, act_tol=act_tol),
                reference_lspar_d_stationarity_check(ds, W, act_tol=act_tol),
            )

    @pytest.mark.parametrize("N", [10, 50])
    def test_seeded_datasets_and_wide_tolerances(self, N):
        from nonsmooth.experiments import LSPAR_TRUE_W, gen_lspar_data

        for seed in range(6):
            ds = gen_lspar_data(N, 0.1, seed)
            rng = make_rng(seed, N, 8)
            for W in (LSPAR_TRUE_W, LSPAR_TRUE_W + 0.01 * rng.standard_normal(LSPAR_TRUE_W.shape)):
                # a wide act_tol turns near-ties into ties of both signs
                for act_tol in (None, 0.05, 0.2):
                    assert_same_certificate(
                        lspar_d_stationarity_check(ds, W, act_tol=act_tol, selection_cap=2**16),
                        reference_lspar_d_stationarity_check(ds, W, act_tol=act_tol, selection_cap=2**16),
                    )

    @pytest.mark.parametrize("N, trial", [(10, 0), (50, 0), (50, 3)])
    def test_mm_iterates(self, monkeypatch, N, trial):
        # N = 50 trial 0 stops at max_outer with a positive-residual sample
        # tied within act_tol; trial 3 is certified
        ds, W0 = criterion7_trial(N, trial)
        _, _, seen = checked_mm_iterates(monkeypatch, ds, W0)
        assert seen
        for W in seen:
            assert_same_certificate(
                lspar_d_stationarity_check(ds, W), reference_lspar_d_stationarity_check(ds, W)
            )

    def test_rejects_negative_act_tol(self):
        ds, W = dyadic_tie_dataset(0)
        for bad in (-1e-9, float("nan")):
            with pytest.raises(ValueError, match="act_tol"):
                lspar_d_stationarity_check(ds, W, act_tol=bad)

    def test_tie_cap_message(self):
        ds = _Data(np.zeros((13, 2)), np.ones(13))
        W = TestLsparDStationarity.W_TRUE
        with pytest.raises(TooManyTiesError) as got:
            lspar_d_stationarity_check(ds, W)
        with pytest.raises(TooManyTiesError) as ref:
            reference_lspar_d_stationarity_check(ds, W)
        assert str(got.value) == str(ref.value)
