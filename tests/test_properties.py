"""Randomized structural invariants of the exact subdifferential engine.

Instances come from conftest's dyadic generator, so kinks hold exactly in
double precision and tolerance-zero activity analysis is exercised for
real.  Each instance is checked both at its engineered kink anchor and at a
generic random point.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonsmooth.expr import Scale, Sum, dim_required, evaluate, parse_expr
from nonsmooth.polyhedra import (
    SetUnion,
    cone_rays_from_halfspaces,
    conv_hull,
    contains,
    lp_solve,
    minkowski_sum,
    set_distance,
)
from nonsmooth.rng import make_rng
from nonsmooth.sampled import as_gradient_oracle
from nonsmooth.stationarity import classify
from nonsmooth.subdiff import (
    ESSENTIAL_MARGIN,
    _cell_is_essential,
    _clean_rows,
    _pattern,
    _selections,
    bouligand,
    clarke,
    clarke_dir_deriv,
    compose_affine,
    dir_deriv,
    frechet,
    limiting,
)

from conftest import random_convex_pa, random_pa_instance, sample_set_points


def corpus(n_instances: int, seed: int = 505, max_dim: int = 3):
    rng = make_rng(seed)
    out = []
    while len(out) < n_instances:
        dim = int(rng.integers(1, max_dim + 1))
        e, x_star = random_pa_instance(rng, dim)
        d = dim_required(e)
        if d == 0 or d > max_dim:
            continue
        x_star = x_star[:d] if x_star.size >= d else np.zeros(d)
        if len(out) % 2 == 0:
            x = x_star  # engineered kink anchor
        else:
            x = rng.integers(-8, 9, size=d) / 8.0  # generic dyadic point
        out.append((e, np.asarray(x, dtype=float), rng))
    return out


class TestInclusionChain:
    def test_chain_and_conv_identity(self):
        rng = make_rng(99)
        violations = 0
        for e, x, _ in corpus(120, seed=1001):
            fs = frechet(e, x)
            ls = limiting(e, x)
            cs = clarke(e, x)
            # frechet subset limiting subset clarke (sampled membership)
            if not fs.is_empty:
                for p in sample_set_points(fs.set, rng):
                    assert contains(ls.set, p, 1e-8)
            assert not ls.is_empty
            for p in sample_set_points(ls.set, rng):
                assert contains(cs.set, p, 1e-8)
            # clarke = conv(limiting vertices)
            pts = np.vstack([c.vertices for c in ls.set.components])
            hull = SetUnion((conv_hull(pts),))
            assert set_distance(hull, cs.set) <= 1e-8

    def test_support_identity_and_ordering(self):
        rng = make_rng(77)
        from nonsmooth.polyhedra import support_value

        for e, x, _ in corpus(100, seed=1002):
            n = x.size
            cs = clarke(e, x)
            for _ in range(4):
                d = rng.integers(-3, 4, size=n).astype(float)
                if not d.any():
                    d[0] = 1.0
                fo = clarke_dir_deriv(e, x, d).value
                assert fo == pytest.approx(support_value(cs.set, d), abs=1e-10)
                fp = dir_deriv(e, x, d).value
                assert fp <= fo + 1e-8

    def test_sublinearity_of_clarke_dd(self):
        rng = make_rng(78)
        for e, x, _ in corpus(60, seed=1003):
            n = x.size
            d1 = rng.integers(-3, 4, size=n).astype(float)
            d2 = rng.integers(-3, 4, size=n).astype(float)
            f1 = clarke_dir_deriv(e, x, d1).value
            f2 = clarke_dir_deriv(e, x, d2).value
            f12 = clarke_dir_deriv(e, x, d1 + d2).value
            assert f12 <= f1 + f2 + 1e-8
            # exact positive homogeneity
            assert clarke_dir_deriv(e, x, 2.0 * d1).value == pytest.approx(
                2.0 * f1, abs=1e-12
            )
            assert dir_deriv(e, x, 2.0 * d1).value == pytest.approx(
                2.0 * dir_deriv(e, x, d1).value, abs=1e-12
            )

    def test_regular_collapse_for_convex(self):
        rng = make_rng(79)
        for _ in range(40):
            dim = int(rng.integers(1, 3))
            g, x_star = random_convex_pa(rng, dim)
            fs = frechet(g, x_star)
            ls = limiting(g, x_star)
            cs = clarke(g, x_star)
            assert not fs.is_empty
            assert set_distance(fs.set, cs.set) <= 1e-8
            assert set_distance(ls.set, cs.set) <= 1e-8


def sorted_components(ss) -> list:
    """The vertex arrays of a subdifferential's components, each with its
    rows in lexicographic order; [] for the empty set."""
    if ss.is_empty:
        return []
    return [c.vertices[np.lexsort(c.vertices.T[::-1])] for c in ss.set.components]


class TestScaleRule:
    """The sets of Scale(s, e) are s times those of e, for s > 0, up to the
    order of components and of vertices, at rtol 1e-6 of the set's size."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_sets_scale_with_the_function(self, dim):
        checked = nonempty = 0
        for i in range(50):
            e, x = random_pa_instance(make_rng(2310, dim, i), dim)
            if dim_required(e) != dim:
                continue
            for oracle in (bouligand, frechet, limiting):
                want = sorted_components(oracle(e, x))
                nonempty += bool(want)
                for s in (1e-12, 1e-6, 1e6, 1e12):
                    got = sorted_components(oracle(Scale(s, e), x))
                    left = [s * V for V in want]
                    assert len(got) == len(left), (dim, i, oracle.__name__, s)
                    for G in got:
                        hits = [
                            k
                            for k, V in enumerate(left)
                            if V.shape == G.shape
                            and np.all(np.abs(G - V) <= 1e-6 * max(s, np.abs(V).max()))
                        ]
                        assert hits, (dim, i, oracle.__name__, s)
                        left.pop(hits[0])
                    checked += 1
        assert checked >= 3 * 4 * 30 and nonempty >= 2 * 30


class TestFrechetVertices:
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]))
    @settings(max_examples=100, deadline=None)
    def test_vertices_are_basic_feasible_points_of_halfspaces(self, seed, dim):
        self.check(seed, dim)

    def test_rays_shared_by_cells_enter_once(self):
        # 30 essential cells give 112 generator rows, 66 of them distinct;
        # with every copy the enumeration would need C(118, 3) bases, over
        # its cap
        self.check(1795337225, 3)

    @staticmethod
    def check(seed, dim):
        # re-check each vertex against the H-description it was enumerated
        # from: feasible for every row and tight on n independent rows
        e, x = random_pa_instance(make_rng(seed), dim)
        n = dim_required(e)
        if n != dim:
            return
        fs = frechet(e, x)
        H = fs.halfspaces
        scale = max(1.0, float(np.abs(H.A).max()), float(np.abs(H.b).max()))
        for comp in fs.set.components:
            for v in comp.vertices:
                slack = H.A @ v - H.b
                assert np.all(slack <= 1e-9 * scale)
                tight = H.A[np.abs(slack) <= 1e-9 * scale]
                assert np.linalg.matrix_rank(tight) == n
        _check_cells(e, x)


def _essential_by_lp(R, n):
    # the reference for the essential-cell test: a direction d in the unit
    # box with R d >= m for some margin m >= ESSENTIAL_MARGIN (the problem
    # is scale free).  Variables (d, m): maximize m s.t. R d >= m,
    # |d|_inf <= 1, m <= 1.
    k = R.shape[0]
    A_ub = np.zeros((k + 2 * n + 1, n + 1))
    b_ub = np.zeros(k + 2 * n + 1)
    A_ub[:k, :n] = -R
    A_ub[:k, n] = 1.0
    A_ub[k : k + n, :n] = np.eye(n)
    A_ub[k + n : k + 2 * n, :n] = -np.eye(n)
    b_ub[k : k + 2 * n] = 1.0
    A_ub[-1, n] = 1.0
    b_ub[-1] = 1.0
    c_obj = np.zeros(n + 1)
    c_obj[n] = -1.0
    res = lp_solve(c_obj, A_ub, b_ub)
    return res.optimal and -res.value >= ESSENTIAL_MARGIN


def _check_cells(e, x):
    # every cell of d -> f'(x, d), essential or not: its generators hold
    # every row, and the essential test (the generators' sum alone) decides
    # as the strict-feasibility LP
    n = x.size
    for rows, _ in _selections(e, x, *_pattern(e, x, np.zeros(n))):
        R = _clean_rows(rows, n)
        if not R.shape[0]:
            continue
        rays = cone_rays_from_halfspaces(R, n)
        assert np.all(R @ rays.T >= -1e-10)
        lp = _essential_by_lp(R, n)
        assert _cell_is_essential(R, rays) == lp
        d = rays.sum(axis=0)
        if d.any() and (R @ d).min() >= ESSENTIAL_MARGIN * np.abs(d).max():
            assert lp


def _nearby_frechet_in_limiting(e, x):
    # every Frechet set at a point y = x + 2^-30 d near x is part of the
    # limiting set at x; with dyadic data the activity at y is exact.  The
    # 1/3 points on each pair of vertices catch a segment that the limiting
    # set covers only at its ends.
    ls = limiting(e, x)
    for d in itertools.product((-1.0, 0.0, 1.0), repeat=x.size):
        if not any(d):
            continue
        V = frechet(e, x + 2.0**-30 * np.array(d)).set
        for comp in V.components:
            pts = list(comp.vertices)
            pts += [(2 * p + q) / 3 for p, q in itertools.permutations(comp.vertices, 2)]
            for p in pts:
                assert contains(ls.set, p, 1e-8), (d, p)


class TestNoLP:
    def test_exact_sets_solve_no_lp(self, monkeypatch):
        # the cells' generators answer every question these sets ask; the
        # 3-D Clarke hull and classify's membership tests use nearest points
        import sys

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return lp_solve(*args, **kwargs)

        for name, mod in list(sys.modules.items()):  # every module holding the name
            if name.startswith("nonsmooth") and getattr(mod, "lp_solve", None) is lp_solve:
                monkeypatch.setattr(mod, "lp_solve", counting)
        rng = make_rng(4242)
        checked = {1: 0, 2: 0, 3: 0}
        for i in range(90):
            dim = 1 + i % 3
            e, x = random_pa_instance(rng, dim)
            if dim_required(e) != dim:
                continue
            for f in (bouligand, clarke, frechet, limiting, classify):
                f(e, x)
            checked[dim] += 1
        assert calls == []
        assert min(checked.values()) >= 20


class TestLimitingCoversNearbyFrechet:
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]))
    @settings(max_examples=100, deadline=None)
    def test_nearby_frechet_sets_lie_in_limiting(self, seed, dim):
        e, x = random_pa_instance(make_rng(seed), dim)
        if dim_required(e) != dim:
            return
        _nearby_frechet_in_limiting(e, x)

    def test_face_with_rows_repeated_by_nested_abs(self):
        # nested abs repeats a row of a cell; the face where it vanishes
        # carries the segment from (-1, 0) to (-1, 2)
        e = parse_expr(
            "(sum (affine (-1 1) -1.75) (abs (scale 1 (min (abs (sum (affine (3 -2) 1.25)"
            " (affine (-3 3) -3.25))) (affine (3 2) -6.25)))))"
        )
        x = np.array([0.75, 2.0])
        near = frechet(e, x + 2.0**-30 * np.array([1.0, 0.0])).set
        assert set_distance(near, SetUnion((conv_hull([[-1.0, 0.0], [-1.0, 2.0]]),))) <= 1e-12
        _nearby_frechet_in_limiting(e, x)


class TestCalculusRules:
    def test_weak_sum_rule_inclusion(self):
        rng = make_rng(81)
        for _ in range(50):
            dim = int(rng.integers(1, 3))
            f1, x1 = random_pa_instance(rng, dim)
            f2, _ = random_pa_instance(rng, dim)
            d1 = max(dim_required(f1), dim_required(f2), 1)
            if d1 > dim:
                continue
            x = x1[:d1] if x1.size >= d1 else np.zeros(d1)
            s = Sum((f1, f2))
            cs = clarke(s, x)
            c1 = clarke(f1, x).set.components[0]
            c2 = clarke(f2, x).set.components[0]
            msum = SetUnion((minkowski_sum(c1, c2),))
            for p in sample_set_points(cs.set, rng):
                assert contains(msum, p, 1e-8)

    def test_sum_rule_equality_on_convex(self):
        rng = make_rng(82)
        for _ in range(30):
            dim = int(rng.integers(1, 3))
            g1, x_star = random_convex_pa(rng, dim)
            # second convex function tied at the same anchor
            g2, _ = random_convex_pa(rng, dim)
            s = Sum((g1, g2))
            cs = clarke(s, x_star).set
            c1 = clarke(g1, x_star).set.components[0]
            c2 = clarke(g2, x_star).set.components[0]
            msum = SetUnion((minkowski_sum(c1, c2),))
            assert set_distance(cs, msum) <= 1e-8

    def test_affine_chain_rule_equality(self):
        # equality needs the chain rule's hypothesis: a surjective affine
        # inner map (for irregular g and a rank-deficient map only the
        # inclusion holds, see test_affine_chain_rule_inclusion)
        rng = make_rng(83)
        for _ in range(40):
            m = int(rng.integers(1, 3))  # inner dimension
            g, u_star = random_pa_instance(rng, m)
            dm = dim_required(g)
            if dm == 0 or dm > m:
                continue
            u_star = u_star[:dm]
            n = int(rng.integers(dm, dm + 2))  # outer dimension >= inner
            A0 = rng.integers(-2, 3, size=(dm, n)).astype(float)
            while np.linalg.matrix_rank(A0) < dm:
                A0 = rng.integers(-2, 3, size=(dm, n)).astype(float)
            x = rng.integers(-4, 5, size=n) / 4.0
            b0 = u_star - A0 @ x  # dyadic: composition hits the kink anchor
            f = compose_affine(g, A0, b0)
            cf = clarke(f, x).set
            cg = clarke(g, u_star).set.components[0]
            mapped = SetUnion((conv_hull(cg.vertices @ A0),))
            assert set_distance(cf, mapped) <= 1e-8

    def test_affine_chain_rule_inclusion(self):
        # arbitrary affine maps only guarantee clarke(g o A) inside A^T clarke(g)
        rng = make_rng(93)
        for _ in range(40):
            g, u_star = random_pa_instance(rng, 2)
            dm = dim_required(g)
            if dm != 2:
                continue
            A0 = rng.integers(-2, 3, size=(2, 1)).astype(float)
            if not A0.any():
                A0[0, 0] = 1.0
            x = rng.integers(-4, 5, size=1) / 4.0
            b0 = u_star - A0 @ x
            f = compose_affine(g, A0, b0)
            cf = clarke(f, x).set
            cg = clarke(g, u_star).set.components[0]
            mapped = SetUnion((conv_hull(cg.vertices @ A0),))
            for p in sample_set_points(cf, rng):
                assert contains(mapped, p, 1e-8)


class TestSampledAgreement:
    def test_gradient_sampling_matches_exact_on_1d(self):
        # exact-vs-sampled agreement on 1-D instances with kinks
        from nonsmooth.sampled import gradient_sampling

        # trees with identical leaves included: a tie between children with
        # equal gradients is no kink, so every instance has samples
        checked = 0
        for e, x, _ in corpus(40, seed=1004, max_dim=1):
            cs = clarke(e, x)
            ss = gradient_sampling(as_gradient_oracle(e), x, samples=800)
            assert set_distance(ss.set, cs.set) <= 0.05 * max(
                1.0, float(np.abs(np.vstack([c.vertices for c in cs.set.components])).max())
            )
            checked += 1
        assert checked == 40

    def test_gradient_sampling_on_identical_leaves(self):
        from nonsmooth.expr import Max, Scale, Var
        from nonsmooth.sampled import gradient_sampling

        e = Max((Var(0), Var(0), Scale(-1.0, Var(0))))
        ss = gradient_sampling(as_gradient_oracle(e), [0.5])
        cs = clarke(e, [0.5])
        assert np.array_equal(ss.set.components[0].vertices, cs.set.components[0].vertices)
        assert as_gradient_oracle(e)([0.0]) is None  # a real kink stays one

    def test_smooth_point_singleton_matches_fd(self):
        rng = make_rng(85)
        from nonsmooth.expr import active_pattern

        checked = 0
        for e, x, _ in corpus(80, seed=1005):
            pat = active_pattern(e, x, tol=0.0)
            if not pat.is_smooth_point:
                continue
            cs = clarke(e, x)
            assert len(cs.set.components) == 1
            v = cs.set.components[0].vertices
            assert v.shape[0] == 1
            g = v[0]
            h = 1e-6
            for i in range(x.size):
                ei = np.zeros(x.size)
                ei[i] = h
                fd = (evaluate(e, x + ei) - evaluate(e, x - ei)) / (2 * h)
                assert abs(fd - g[i]) <= 1e-6 * max(1.0, abs(g[i]))
            checked += 1
        assert checked >= 25


class TestSecondRoute:
    """Exact answers re-checked by a route that shares no code with them."""

    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3]))
    @settings(max_examples=300, deadline=None)
    def test_dir_deriv_is_the_exact_difference_quotient(self, seed, dim):
        # along a ray, a PA tree is affine on [0, t] for small t; with dyadic
        # data and t = 2^-20 the quotient (f(x + t d) - f(x)) / t is exact
        rng = make_rng(seed)
        e, x = random_pa_instance(rng, dim)
        if dim_required(e) != dim:
            return
        t = 2.0**-20
        for _ in range(5):
            d = rng.integers(-4, 5, size=dim) / 4.0
            quotient = (evaluate(e, x + t * d) - evaluate(e, x)) / t
            assert dir_deriv(e, x, d).value == quotient

    def test_classify_witness_descends(self):
        descents = 0
        for e, x, _ in corpus(120, seed=1006):
            rep = classify(e, x)
            if rep.is_d is False:
                w = rep.witness_direction
                assert evaluate(e, x + 1e-6 * w) < evaluate(e, x)
                descents += 1
        assert descents >= 100
