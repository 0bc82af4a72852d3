import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from numpy import inf, nan
from hypothesis import strategies as st

from nonsmooth import polyhedra
from nonsmooth.polyhedra import (
    Ball,
    Box,
    Cone,
    EmptySetError,
    HPolyhedron,
    PolyhedraError,
    SetUnion,
    VPolytope,
    cone_from_rays,
    cone_rays_from_halfspaces,
    contains,
    conv_hull,
    lp_solve,
    minkowski_sum,
    set_distance,
    set_from_json,
    set_to_json,
    support_value,
    vertex_enumeration,
)
from nonsmooth.rng import make_rng


def brute_force_lp(c, A, b, tol=1e-9):
    """Vertex-enumeration oracle for bounded feasible LPs (independent of
    the simplex path): try every n-subset of constraints."""
    c = np.asarray(c, float)
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    n = c.size
    best = None
    for rows in itertools.combinations(range(A.shape[0]), n):
        sub = A[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        v = np.linalg.solve(sub, b[list(rows)])
        if np.all(A @ v - b <= 1e-8):
            val = float(c @ v)
            if best is None or val < best:
                best = val
    return best


class TestLP:
    def test_min_x1_on_unit_interval(self):
        r = lp_solve([1.0], [[1.0], [-1.0]], [1.0, 0.0])
        assert r.optimal and r.value == pytest.approx(0.0, abs=1e-12)

    def test_infeasible(self):
        r = lp_solve([-1.0], [[1.0], [-1.0]], [0.0, -1.0])
        assert r.status == "infeasible"

    def test_box_support_example(self):
        # min s.d over the inf-ball with s = (-1,-2): the four box vertices
        # give candidate values {3, 1, -1, -3}; the optimum is -3 at (1, 1)
        A = np.vstack([np.eye(2), -np.eye(2)])
        b = np.ones(4)
        verts = [np.array(v) for v in itertools.product([-1, 1], repeat=2)]
        oracle = min(float(np.array([-1.0, -2.0]) @ v) for v in verts)
        assert oracle == -3.0
        r = lp_solve([-1.0, -2.0], A, b)
        assert r.optimal
        assert r.value == pytest.approx(-3.0, abs=1e-12)
        assert np.allclose(r.x, [1.0, 1.0], atol=1e-9)

    def test_unbounded(self):
        r = lp_solve([1.0, 0.0], [[1.0, 0.0]], [1.0])
        assert r.status == "unbounded"

    def test_equality_constraints(self):
        r = lp_solve(
            [1.0, 2.0],
            A_ub=-np.eye(2),
            b_ub=np.zeros(2),
            A_eq=[[1.0, 1.0]],
            b_eq=[3.0],
        )
        assert r.optimal and r.value == pytest.approx(3.0, abs=1e-9)

    def test_phase_one_threshold_follows_tol_and_scale(self):
        # x <= 0 and x >= 5e-8 is empty: the gap is small, but far above
        # the pivot tolerance at unit scale; at scale 1e6 so is a gap of 1e-2
        A = [[1.0], [-1.0]]
        assert not lp_solve(np.zeros(1), A, [0.0, -5e-8]).optimal
        assert lp_solve(np.zeros(1), A, [0.0, 0.0]).optimal
        assert not lp_solve(np.zeros(1), A, [1e6, -1e6 - 1e-2]).optimal
        # the LP membership reference: (2 + 9e-8, 1) lies 9e-8 outside
        # [0, 2]^2, beyond tol * scale = 2e-9
        square = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        assert not reference_in_conv_hull(square, np.array([2.0 + 9e-8, 1.0]), 1e-9)
        assert reference_in_conv_hull(square, np.array([2.0 + 1e-9, 1.0]), 1e-9)

    def test_duality_against_vertex_enumeration(self, rng):
        # random bounded feasible instances, dim <= 4, <= 12 constraints
        done = 0
        while done < 60:
            n = int(rng.integers(1, 5))
            m = int(rng.integers(n + 1, 9))
            A = rng.integers(-3, 4, size=(m, n)).astype(float)
            A = np.vstack([A, np.eye(n), -np.eye(n)])  # boundedness
            b = rng.integers(1, 6, size=A.shape[0]).astype(float)  # 0 feasible
            c = rng.integers(-3, 4, size=n).astype(float)
            oracle = brute_force_lp(c, A, b)
            if oracle is None:
                continue
            r = lp_solve(c, A, b)
            assert r.optimal
            assert abs(r.value - oracle) <= 1e-8 * max(1.0, abs(oracle))
            assert np.all(A @ r.x - b <= 1e-9 * max(1.0, float(np.abs(b).max())))
            done += 1


class TestHulls:
    def test_interval_hull(self):
        h = conv_hull([[-1.0], [1.0]])
        assert h.vertices.tolist() == [[-1.0], [1.0]]

    def test_singleton(self):
        h = conv_hull([[0.0, 0.0]])
        assert h.vertices.tolist() == [[0.0, 0.0]]

    def test_collinear_middle_removed(self):
        h = conv_hull([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
        assert h.vertices.tolist() == [[0.0, 0.0], [1.0, 0.0]]

    def test_idempotent(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            pts = rng.integers(-4, 5, size=(int(rng.integers(2, 9)), n)) / 2.0
            h1 = conv_hull(pts)
            h2 = conv_hull(h1.vertices)
            assert h1.vertices.shape == h2.vertices.shape
            assert np.allclose(h1.vertices, h2.vertices)

    def test_empty_input(self):
        assert conv_hull(np.zeros((0, 2))).is_empty


class TestSupport:
    def test_interval_support(self):
        assert support_value(conv_hull([[-1.0], [1.0]]), [1.0]) == 1.0

    def test_singleton_support(self):
        assert support_value(VPolytope([[3.0, 4.0]]), [1.0, 0.0]) == 3.0

    def test_two_vertex_support(self):
        # max over {(0,0), (1,2)} of s.(1,1) = 3
        assert support_value(conv_hull([[0.0, 0.0], [1.0, 2.0]]), [1.0, 1.0]) == 3.0

    def test_empty_raises(self):
        with pytest.raises(EmptySetError):
            support_value(VPolytope(np.zeros((0, 1))), [1.0])

    @given(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
            min_size=1,
            max_size=6,
        ),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    )
    @settings(max_examples=150, deadline=None)
    def test_subadditive(self, pts, d1, d2):
        S = conv_hull(np.array(pts, dtype=float))
        d1 = np.array(d1, dtype=float)
        d2 = np.array(d2, dtype=float)
        lhs = support_value(S, d1 + d2)
        rhs = support_value(S, d1) + support_value(S, d2)
        assert lhs <= rhs + 1e-12


def unique_dedupe_points(pts):
    """The ``np.unique(axis=0)`` form of ``_dedupe_points``."""
    grid = polyhedra.DEDUPE_GRID * max(1.0, float(np.abs(pts).max()))
    _, idx = np.unique(np.round(pts / grid) * grid, axis=0, return_index=True)
    return pts[np.sort(idx)]


class TestDedupePoints:
    def check(self, pts):
        pts = np.asarray(pts, dtype=float)
        got, ref = polyhedra._dedupe_points(pts), unique_dedupe_points(pts)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    def test_fixed_sets(self):
        rng = make_rng(31)
        line = np.outer(rng.integers(-3, 4, 12), [1.0, -2.0, 0.5])
        self.check(line)  # collinear, with repeats
        self.check(np.repeat(rng.standard_normal((5, 2)), 3, axis=0)[rng.permutation(15)])
        self.check(rng.standard_normal((40, 4)))
        self.check([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 0.0]])  # signed zeros
        self.check([[1.0, 2.0], [1.0 + 1e-14, 2.0], [1.0, 2.0 - 1e-14], [3.0, 3.0]])  # one grid cell
        self.check([[5.0]])
        self.check(np.zeros((6, 3)))

    @given(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.sampled_from([0.0, -0.0, 1e-13, 0.25])),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_np_unique(self, rows):
        pts = np.array(rows, dtype=float)
        self.check(pts)
        self.check(np.outer(pts[:, 0] + pts[:, 2], [1.0, -0.5]))  # collinear


def dual(C: Cone) -> Cone:
    """{v : v^T r >= 0 for every ray r of C}, by its closed-form generators."""
    return Cone(cone_rays_from_halfspaces(C.rays, C.dim))


def same_cone(C: Cone, D: Cone) -> bool:
    return all(contains(D, r, 1e-8) for r in C.rays) and all(contains(C, r, 1e-8) for r in D.rays)


class TestCones:
    # the dual cone is the halfspace cone of the rays, so these check the
    # closed-form generators against cones known by hand and by round trip
    def test_dual_of_positive_ray(self):
        d = dual(cone_from_rays([[1.0]]))
        assert d.rays.tolist() == [[1.0]]

    def test_dual_of_origin_is_everything(self):
        d = dual(cone_from_rays(np.zeros((0, 2)), dim=2))
        assert contains(d, [3.0, -7.0], 1e-9)
        assert contains(d, [-3.0, 7.0], 1e-9)

    def test_dual_of_orthant(self):
        d = dual(cone_from_rays([[1.0, 0.0], [0.0, 1.0]]))
        got = sorted(map(tuple, np.round(d.rays, 9).tolist()))
        assert got == [(0.0, 1.0), (1.0, 0.0)]

    def test_double_dual_identity(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            rays = rng.integers(-3, 4, size=(k, n)).astype(float)
            rays = rays[np.any(rays != 0, axis=1)]
            if rays.size == 0:
                continue
            C = cone_from_rays(rays)
            DD = dual(dual(C))
            assert same_cone(C, DD)
            # cap-with-unit-ball comparison: sampled cap points of each cone
            # must lie in the other at zero distance
            for src_cone, dst in ((C, DD), (DD, C)):
                if src_cone.rays.shape[0] == 0:
                    continue
                w = rng.dirichlet(np.ones(src_cone.rays.shape[0]), size=8)
                pts = w @ src_cone.rays
                for p in pts:
                    nrm = np.linalg.norm(p)
                    if nrm > 1e-9:
                        assert contains(dst, p / nrm, 1e-8)


def reference_in_conv_hull(points, p, tol):
    """LP certificate for p in conv(points), to absolute tolerance tol."""
    if points.shape[0] == 0:
        return False
    k = points.shape[0]
    scale = max(1.0, float(np.abs(points).max()), float(np.abs(p).max()))
    # variables: weights lambda (k,)
    A_ub = np.vstack([-np.eye(k), points.T, -points.T])
    b_ub = np.concatenate([np.zeros(k), p + tol * scale, -(p - tol * scale)])
    return lp_solve(np.zeros(k), A_ub, b_ub, A_eq=np.ones((1, k)), b_eq=np.array([1.0])).optimal


def reference_in_cone_rays(rays, p, tol):
    """LP certificate for p in cone(rays) (conic combination), tolerance tol."""
    scale = max(1.0, float(np.abs(p).max()))
    if np.all(np.abs(p) <= tol * scale):
        return True
    if rays.shape[0] == 0:
        return False
    k = rays.shape[0]
    A_ub = np.vstack([-np.eye(k), rays.T, -rays.T])
    b_ub = np.concatenate([np.zeros(k), p + tol * scale, -(p - tol * scale)])
    return lp_solve(np.zeros(k), A_ub, b_ub).optimal


def reference_point_to_vertices_dist(p, verts, tol=1e-9):
    """Exact distance from p to conv(verts) via projections onto vertex-subset
    affine hulls (Caratheodory: the projection lives on some face)."""
    if reference_in_conv_hull(verts, p, tol):
        return 0.0
    n = verts.shape[1]
    best = float("inf")
    for k in range(1, min(verts.shape[0], n + 1) + 1):
        for idx in itertools.combinations(range(verts.shape[0]), k):
            S = verts[list(idx)]
            q0 = S[0]
            if k == 1:
                q = q0
            else:
                W = (S[1:] - q0).T  # (n, k-1)
                t, *_ = np.linalg.lstsq(W, p - q0, rcond=None)
                q = q0 + W @ t
            if k > 1 and not reference_in_conv_hull(S, q, 1e-8):
                continue
            best = min(best, float(np.linalg.norm(p - q)))
    return best


def reference_prune_rays(rays, tol=1e-9):
    """Drop zero, duplicate and conically redundant rays (one LP each)."""
    cleaned = []
    for r in rays:
        nrm = float(np.linalg.norm(r))
        if nrm <= tol:
            continue
        r = r / nrm
        if not any(np.linalg.norm(r - q) <= 1e-9 for q in cleaned):
            cleaned.append(r)
    i = 0
    while i < len(cleaned):
        others = cleaned[:i] + cleaned[i + 1 :]
        if others and reference_in_cone_rays(np.array(others), cleaned[i], 1e-9):
            cleaned.pop(i)
        else:
            i += 1
    return cleaned


def reference_cone_rays(normals, dim):
    """Double description with LP pruning: the reference the closed-form
    generators match as cones."""
    normals = np.asarray(normals, dtype=float).reshape(-1, dim)
    rays = [v for v in np.vstack([np.eye(dim), -np.eye(dim)])]
    for a in normals:
        if np.all(np.abs(a) <= 1e-14):
            continue
        a = a / np.linalg.norm(a)
        dots = [float(a @ r) for r in rays]
        new = [r for r, d in zip(rays, dots) if d >= -1e-10]
        for rp, dp in zip(rays, dots):
            if dp > 1e-10:
                new.extend(dp * rn - dn * rp for rn, dn in zip(rays, dots) if dn < -1e-10)
        rays = reference_prune_rays(new)
        if not rays:
            break
    return np.array(rays).reshape(len(rays), dim)


@st.composite
def cone_rows(draw):
    """Integer or dyadic (k/4) rows in dims 1-4, some repeated as they are,
    doubled or negated; zero rows and no rows at all included."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-2, 2), st.integers(-8, 8).map(lambda k: k / 4.0))
    R = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=5))
    R = np.array(R, dtype=float).reshape(-1, n)
    if R.shape[0]:
        picks = draw(st.lists(st.tuples(st.integers(0, R.shape[0] - 1), st.sampled_from([1.0, 2.0, -1.0])), max_size=3))
        R = np.vstack([R] + [c * R[i][None, :] for i, c in picks])
    return R, n


def in_cone(rays, p):
    return reference_in_cone_rays(rays, p, 1e-8)


class TestConeGenerators:
    def check(self, R, n):
        G = cone_rays_from_halfspaces(R, n)
        assert G.shape[1] == n
        np.testing.assert_allclose(np.linalg.norm(G, axis=1), 1.0, atol=1e-12)
        if R.size:
            assert np.all(G @ R.T >= -1e-10)
        ref = reference_cone_rays(R, n)
        assert all(in_cone(ref, g) for g in G)
        assert all(in_cone(G, r) for r in ref)
        # outside the lineality space every generator is extreme
        for i, g in enumerate(G):
            if R.size and np.abs(R @ g).max() > 1e-9:
                assert not in_cone(np.delete(G, i, axis=0), g)
        return G

    @given(cone_rows())
    @settings(max_examples=300, deadline=None)
    def test_matches_double_description(self, case):
        self.check(*case)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_whole_space_and_origin(self, n):
        for R in (np.zeros((0, n)), np.zeros((2, n))):
            G = self.check(R, n)
            assert G.shape == (2 * n, n) and not G.sum(axis=0).any()
        eye = np.eye(n)
        assert self.check(np.vstack([eye, -eye]), n).shape == (0, n)
        assert self.check(np.vstack([eye, -eye.sum(axis=0)]), n).shape == (0, n)

    @pytest.mark.parametrize(
        "R, lineality",
        [
            ([[1.0, 0.0]], 1),
            ([[1.0, 1.0], [-1.0, -1.0]], 1),
            ([[1.0, 0.0, 0.0]], 2),
            ([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0]], 1),
            ([[1.0, -1.0, 0.0], [2.0, -2.0, 0.0], [0.0, 0.0, 1.0]], 1),
            ([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]], 2),
            ([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]], 1),
        ],
    )
    def test_lineality_basis_with_both_signs(self, R, lineality):
        R = np.array(R)
        G = self.check(R, R.shape[1])
        L = G[: 2 * lineality]
        np.testing.assert_array_equal(L[::2], -L[1::2])
        assert np.abs(R @ L.T).max() <= 1e-12
        assert np.linalg.matrix_rank(L) == lineality
        assert np.all(np.abs(R @ G[2 * lineality :].T).max(axis=0) > 1e-9)

    def test_cone_from_rays_drops_zero_and_duplicate_rows(self):
        # zero rows and copies of a direction go; a redundant ray stays
        for n in (2, 5):
            rays = np.zeros((6, n))
            rays[:5, :2] = [[1.0, 0.0], [1.0, 1.0], [0.0, 2.0], [0.0, 1.0], [3.0, 0.0]]
            C = cone_from_rays(rays)
            want = np.zeros((3, n))
            want[:, :2] = [[1.0, 0.0], [2**-0.5, 2**-0.5], [0.0, 1.0]]
            assert np.allclose(C.rays, want, rtol=0.0, atol=1e-15)
            assert np.allclose(np.linalg.norm(C.rays, axis=1), 1.0, rtol=0.0, atol=1e-15)
            R = Cone(rays)
            for z in make_rng(n).integers(-3, 4, size=(40, n)).astype(float):
                assert contains(C, z) == contains(R, z)
            z = np.zeros(n)
            z[:2] = [2.0, 3.0]
            assert contains(C, z)
            z[0] = -1.0
            assert not contains(C, z)

    def test_cone_from_rays_keeps_a_line(self):
        C = cone_from_rays([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        D = Cone(rays=np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 1.0]]))
        assert same_cone(C, D)
        assert C.rays.shape == (3, 3)


class TestContains:
    def test_zero_in_interval(self):
        assert contains(conv_hull([[-1.0], [1.0]]), [0.0])

    def test_zero_in_two_point_union(self):
        u = SetUnion((VPolytope([[-1.0]]), VPolytope([[0.0]])))
        assert contains(u, [0.0])

    def test_zero_not_in_empty(self):
        assert not contains(SetUnion(()), [0.0])

    def test_hpolyhedron_and_ball(self):
        H = HPolyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
        assert contains(H, [0.5, -0.5])
        assert not contains(H, [1.5, 0.0])
        assert contains(Ball(np.zeros(2), 1.0), [0.6, 0.8], 1e-9)
        assert not contains(Ball(np.zeros(2), 1.0), [0.8, 0.8], 1e-9)

    @pytest.mark.parametrize(
        "center, r", [([0.0, 0.0], float("nan")), ([0.0, 0.0], float("inf")), ([float("nan"), 0.0], 1.0)]
    )
    def test_ball_needs_a_finite_center_and_radius(self, center, r):
        with pytest.raises(PolyhedraError, match="ball"):
            Ball(np.array(center), r)

    @pytest.mark.parametrize(
        "A, b",
        [
            ([[1.0, 0.0]], [nan]),
            ([[nan, 0.0]], [1.0]),
            ([[inf, 0.0]], [1.0]),
            ([[1.0, -inf]], [1.0]),
        ],
    )
    def test_halfspaces_need_a_finite_matrix_and_no_nan_offset(self, A, b):
        with pytest.raises(PolyhedraError, match="halfspace"):
            HPolyhedron(A, b)

    def test_an_infinite_offset_holds_everywhere(self):
        H = HPolyhedron([[1.0, 0.0], [0.0, 1.0]], [inf, 1.0])
        assert contains(H, [1e300, 1.0]) and not contains(H, [0.0, 2.0])

    @pytest.mark.parametrize("lo, hi", [([0.0, nan], [1.0, 1.0]), ([0.0, 0.0], [nan, 1.0]), ([nan], [nan])])
    def test_box_bounds_must_not_be_nan(self, lo, hi):
        with pytest.raises(PolyhedraError, match="NaN"):
            Box(lo, hi)

    def test_box_bounds_may_be_infinite(self):
        B = Box([0.0, -inf], [inf, 1.0])
        assert contains(B, [1e300, -1e300]) and not contains(B, [-1.0, 0.0])


@st.composite
def nearest_cases(draw):
    """(V, R, p) in dims 1-4: points general, collinear or coplanar, some
    duplicated; rays (possibly none) with zero, repeated and negated rows; p a
    vertex, a midpoint of two points, a point of the set or anywhere."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-3, 3), st.integers(-8, 8).map(lambda k: k / 4.0))
    vec = st.lists(entry, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=float))

    def rows(lo, hi):
        return st.lists(vec, min_size=lo, max_size=hi).map(np.array)

    flat = draw(st.sampled_from([None, 1, 2]))  # general, collinear, coplanar
    if flat is None:
        V = draw(rows(1, 6))
    else:  # half-integer combinations of one point and `flat` directions
        gens = draw(rows(flat + 1, flat + 1))
        coefs = draw(st.lists(st.lists(st.integers(-4, 4), min_size=flat, max_size=flat), min_size=1, max_size=6))
        V = gens[0] + (np.array(coefs) / 2.0) @ (gens[1:] - gens[0])
    V = np.vstack([V, V[draw(st.lists(st.integers(0, V.shape[0] - 1), max_size=3))]])
    R = draw(rows(0, 3)).reshape(-1, n)
    if R.shape[0]:
        scaled = st.tuples(st.integers(0, R.shape[0] - 1), st.sampled_from([0.0, 1.0, 2.0, -1.0]))
        R = np.vstack([R] + [c * R[i][None, :] for i, c in draw(st.lists(scaled, max_size=3))])
    i, j = draw(st.integers(0, V.shape[0] - 1)), draw(st.integers(0, V.shape[0] - 1))
    p = draw(st.sampled_from([V[i], (V[i] + V[j]) / 2, V.mean(axis=0)]) | vec)
    return V, R, p


def gradient_cloud(seed):
    """1,500 gradients of a 2-D PA function near a kink: a few distinct
    dyadic vectors, each repeated as often as samples land on its piece."""
    rng = make_rng(seed)
    G = rng.integers(-12, 13, size=(int(rng.integers(1, 7)), 2)) / 4.0
    return G[rng.choice(G.shape[0], size=1500, p=rng.dirichlet(np.ones(G.shape[0])))]


class TestNearestPoint:
    TOL = 1e-9

    def check(self, V, R, p, ref_V=None):
        lam, mu, z = polyhedra._nearest_point(V, R, p)
        # the weights certify z: a convex combination plus a conic one
        assert np.all(lam >= 0) and np.all(mu >= 0)
        assert abs(lam.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(lam @ V + mu @ R, z, rtol=0, atol=1e-12)
        # z is the nearest point: no point or ray of the set is nearer to p
        # along its line from z
        scale = max(1.0, float(np.abs(V - p).max()))
        assert np.all((V - z) @ (z - p) >= -1e-12 * scale * scale)
        assert np.all(R @ (z - p) >= -1e-12 * scale * np.linalg.norm(R, axis=1))
        ref_V = V if ref_V is None else ref_V
        if R.shape[0] == 0:
            got = polyhedra._in_conv_hull(V, p, self.TOL)
            want = reference_in_conv_hull(ref_V, p, self.TOL)
            want_dist = reference_point_to_vertices_dist(p, ref_V)
            assert np.linalg.norm(z - p) == pytest.approx(want_dist, rel=0, abs=1e-12)
        elif not V.any():
            got = polyhedra._in_cone_rays(R, p, self.TOL)
            want = reference_in_cone_rays(R, p, self.TOL)
        else:
            return
        gap = float(np.abs(z - p).max())
        t = self.TOL * max(1.0, float(np.abs(V).max()), float(np.abs(p).max()))
        assert got == (gap <= t)
        if not t < gap <= np.sqrt(p.size) * t:  # inside this band the LP may read either way
            assert got == want

    @given(nearest_cases())
    @settings(max_examples=250, deadline=None)
    def test_matches_the_lp_and_the_subset_loop(self, case):
        V, R, p = case
        self.check(V, np.zeros((0, p.size)), p)
        self.check(np.zeros((1, p.size)), R, p)
        self.check(V, R, p)

    @given(seed=st.integers(0, 2**32 - 1), where=st.sampled_from(["zero", "anywhere"]))
    @settings(max_examples=40, deadline=None)
    def test_gradient_clouds(self, seed, where):
        cloud = gradient_cloud(seed)
        p = np.zeros(2) if where == "zero" else make_rng(seed, 1).integers(-8, 9, size=2) / 4.0
        self.check(cloud, np.zeros((0, 2)), p, ref_V=np.unique(cloud, axis=0))
        assert contains(VPolytope(cloud), p) == contains(conv_hull(cloud), p)

    def test_membership_rule_at_its_bound(self):
        # within tol * scale of the set in every coordinate, and no further;
        # scale is the largest |entry| (2 here, 3 for the cone's point)
        square = VPolytope([[0.0, 0.0], [0.0, 2.0], [2.0, 0.0], [2.0, 2.0]])
        assert contains(square, [2.0 + 1.8e-9, 1.0], 1e-9)
        assert not contains(square, [2.0 + 2.2e-9, 1.0], 1e-9)
        quadrant = Cone(rays=np.eye(2))
        assert contains(quadrant, [-2.7e-9, 3.0], 1e-9)
        assert not contains(quadrant, [-3.3e-9, 3.0], 1e-9)

    def test_nearly_flat_segment(self):
        # the first vertex is nearest to 0, and the other one brings the
        # nearest point only h^2 / 2 closer: the search must still take it
        h = 1e-4
        V = np.array([[0.0, 1.0], [1.0, 1.0 - h]])
        d = V[1] - V[0]
        exact = np.linalg.norm(V[0] - (V[0] @ d) / (d @ d) * d)
        assert exact < 1.0 - h * h / 3
        _, _, z = polyhedra._nearest_point(V, np.zeros((0, 2)), np.zeros(2))
        assert np.linalg.norm(z) == pytest.approx(exact, rel=0, abs=1e-15)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(polyhedra, "NEAREST_MAX_STEPS", 1)
        with pytest.raises(PolyhedraError, match="did not settle"):
            polyhedra._nearest_point(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros((0, 2)), np.zeros(2))


class TestSetDistance:
    def test_identical_intervals(self):
        A = SetUnion((conv_hull([[0.0], [2.0]]),))
        assert set_distance(A, A) == 0.0

    def test_endpoint_arithmetic(self):
        A = SetUnion((conv_hull([[0.0], [2.0]]),))
        B = SetUnion((conv_hull([[0.05], [1.9]]),))
        assert set_distance(A, B) == pytest.approx(0.1, abs=1e-12)

    def test_points_vs_interval(self):
        A = SetUnion((VPolytope([[-1.0]]), VPolytope([[1.0]])))
        B = SetUnion((conv_hull([[-1.0], [1.0]]),))
        assert set_distance(A, B) == pytest.approx(1.0, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptySetError):
            set_distance(SetUnion(()), SetUnion((VPolytope([[0.0]]),)))

    def test_2d_polytopes(self):
        A = conv_hull([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        B = conv_hull([[2.0, 0.0], [3.0, 0.0], [2.0, 1.0]])
        assert set_distance(SetUnion((A,)), SetUnion((B,))) == pytest.approx(2.0, abs=1e-9)

    def test_point_to_box(self):
        # {(3, 0)} is 2 from the box [-1, 1]^2, whose corners (-1, +-1) are sqrt(17) from it
        box = HPolyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
        assert set_distance(VPolytope([[3.0, 0.0]]), box) == pytest.approx(np.sqrt(17.0), abs=1e-12)
        assert set_distance(box, VPolytope([[3.0, 0.0]])) == pytest.approx(np.sqrt(17.0), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_empty_hpolyhedron_raises(self, n):
        # x1 <= -1 and x1 >= 1, with a box around the other coordinates
        A = np.vstack([np.eye(n)[:1], -np.eye(n)[:1], np.eye(n)[1:], -np.eye(n)[1:]])
        empty = HPolyhedron(A, np.array([-1.0, -1.0] + [1.0] * (2 * n - 2)))
        with pytest.raises(EmptySetError):
            set_distance(VPolytope([[0.0] * n]), empty)
        with pytest.raises(EmptySetError):
            set_distance(empty, VPolytope([[0.0] * n]))


def reference_vertex_enumeration(P, tol=1e-8):
    """Per-basis loop with one det and one solve per n-subset, then
    conv_hull's LP pruning: the reference the stacked enumeration matches."""
    n = P.dim
    A, b = P.A, P.b
    scale = max(1.0, float(np.abs(b).max()), float(np.abs(A).max()))
    verts = []
    for rows in itertools.combinations(range(A.shape[0]), n):
        sub = A[list(rows)]
        if abs(np.linalg.det(sub)) <= 1e-12:
            continue
        v = np.linalg.solve(sub, b[list(rows)])
        if np.all(A @ v - b <= tol * scale):
            verts.append(v)
    if not verts:
        return VPolytope(np.zeros((0, n)))
    return conv_hull(np.array(verts))


def random_hpolyhedron(rng, n, kind):
    """Random rows plus a box, so the polyhedron is bounded; about one in
    six also gets a contradictory pair of rows and is empty.

    ``kind`` is "integer", "dyadic" (entries k/4) or "duplicated" (integer
    rows, some repeated as they are or doubled)."""
    k = int(rng.integers(1, 6))
    if kind == "dyadic":
        A = rng.integers(-8, 9, size=(k, n)) / 4.0
        b = rng.integers(-4, 21, size=k) / 4.0
    else:
        A = rng.integers(-3, 4, size=(k, n)).astype(float)
        b = rng.integers(-1, 6, size=k).astype(float)
    hi = rng.integers(1, 4, size=n).astype(float)
    lo = -rng.integers(1, 4, size=n).astype(float)
    A = np.vstack([A, np.eye(n), -np.eye(n)])
    b = np.concatenate([b, hi, -lo])
    if rng.random() < 1 / 6:
        A = np.vstack([A, A[:1], -A[:1]])
        b = np.concatenate([b, [0.0, -0.5]])
    if kind == "duplicated":
        dup = rng.integers(0, b.size, size=int(rng.integers(1, 5)))
        c = rng.choice((1.0, 2.0), size=dup.size)
        A = np.vstack([A, c[:, None] * A[dup]])
        b = np.concatenate([b, c * b[dup]])
    perm = rng.permutation(b.size)
    return HPolyhedron(A[perm], b[perm])


def lex_rows(rows):
    return np.array(sorted(rows), dtype=float)


class TestVertexEnumeration:
    def test_unit_box(self):
        H = HPolyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
        V = vertex_enumeration(H)
        assert V.vertices.shape == (4, 2)

    @pytest.mark.parametrize("kind", ["integer", "dyadic", "duplicated"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_per_basis_reference(self, kind, n):
        rng = np.random.default_rng([n, ("integer", "dyadic", "duplicated").index(kind)])
        empty = 0
        for _ in range(34):
            H = random_hpolyhedron(rng, n, kind)
            V = vertex_enumeration(H).vertices
            assert np.array_equal(V, reference_vertex_enumeration(H).vertices)
            empty += V.shape[0] == 0
        assert 0 < empty < 34

    def test_cross_polytope(self):
        # |x| + |y| + |z| <= 1: four facets meet at each of the six vertices
        A = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
        H = HPolyhedron(A, np.ones(8))
        eye = np.eye(3)
        expect = lex_rows([tuple(r) for r in np.vstack([eye, -eye])])
        assert np.array_equal(vertex_enumeration(H).vertices, expect)
        assert np.array_equal(reference_vertex_enumeration(H).vertices, expect)

    def test_square_pyramid(self):
        # base [-1, 1]^2 at z = 0, apex (0, 0, 1) where four facets meet
        A = np.array(
            [[0, 0, -1], [1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]], dtype=float
        )
        H = HPolyhedron(A, np.array([0.0, 1.0, 1.0, 1.0, 1.0]))
        base = [(sx, sy, 0.0) for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)]
        expect = lex_rows(base + [(0.0, 0.0, 1.0)])
        assert np.array_equal(vertex_enumeration(H).vertices, expect)
        assert np.array_equal(reference_vertex_enumeration(H).vertices, expect)

    def test_flat_polytope(self):
        # x3 = 0 from two opposite rows: a square lying in 3-D
        A = np.vstack([np.eye(3), -np.eye(3)])
        H = HPolyhedron(A, np.array([1.0, 1.0, 0.0, 1.0, 1.0, 0.0]))
        expect = lex_rows([(sx, sy, 0.0) for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)])
        assert np.array_equal(vertex_enumeration(H).vertices, expect)
        assert np.array_equal(reference_vertex_enumeration(H).vertices, expect)

    def test_empty_polyhedron(self):
        # the box [-1, 1]^3 cut by x1 <= -2
        A = np.vstack([np.eye(3), -np.eye(3), [[1.0, 0.0, 0.0]]])
        H = HPolyhedron(A, np.concatenate([np.ones(6), [-2.0]]))
        V = vertex_enumeration(H)
        assert isinstance(V, VPolytope) and V.vertices.shape == (0, 3)

    def test_several_stacks_match_one_stack(self, monkeypatch):
        # cube [-1, 1]^3 with its corners cut by |x| + |y| + |z| <= 2: a
        # cuboctahedron, 12 vertices where four facets meet, C(14, 3) = 364 bases
        A = np.vstack([np.eye(3), -np.eye(3), list(itertools.product((-1.0, 1.0), repeat=3))])
        H = HPolyhedron(A, np.concatenate([np.ones(6), 2.0 * np.ones(8)]))
        one = vertex_enumeration(H).vertices
        assert one.shape == (12, 3)
        monkeypatch.setattr(polyhedra, "BASIS_STACK", 7)
        assert np.array_equal(vertex_enumeration(H).vertices, one)

    def test_too_few_halfspaces_raises(self):
        with pytest.raises(PolyhedraError, match="too few halfspaces"):
            vertex_enumeration(HPolyhedron(np.array([[1.0, 0.0]]), np.array([1.0])))

    def test_combination_cap_raises(self):
        # C(60, 4) = 487635 subsets, over the 200000 cap
        A = np.random.default_rng(0).integers(-3, 4, size=(60, 4)).astype(float)
        with pytest.raises(PolyhedraError, match="too many halfspace combinations"):
            vertex_enumeration(HPolyhedron(A, np.ones(60)))

    def test_empty_detection(self):
        H = HPolyhedron(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))
        assert not lp_solve(np.zeros(1), H.A, H.b).optimal


class TestMinkowski:
    def test_intervals(self):
        a = conv_hull([[0.0], [1.0]])
        b = conv_hull([[0.0], [1.0]])
        s = minkowski_sum(a, b)
        assert s.vertices.tolist() == [[0.0], [2.0]]


class TestJson:
    def test_round_trip(self):
        u = SetUnion(
            (
                VPolytope([[0.0, 1.0], [1.0, 0.0]]),
                Ball(np.zeros(2), 0.5),
                HPolyhedron(np.eye(2), np.ones(2)),
            )
        )
        d = set_to_json(u)
        text = json.dumps(d)
        u2 = set_from_json(json.loads(text))
        assert len(u2.components) == 3
        assert isinstance(u2.components[0], VPolytope)
        assert isinstance(u2.components[1], Ball)
        assert isinstance(u2.components[2], HPolyhedron)

    def test_single_component_shape(self):
        d = set_to_json(SetUnion((VPolytope([[1.0]]),)))
        assert "vertices" in d and "components" not in d


def _lp_callers(tree) -> list:
    """(owner, line) of every call of ``lp_solve``; the owner is the
    enclosing top-level function or ``Class.method``."""
    import ast

    owned = []
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            owned += [(f"{top.name}.{getattr(m, 'name', '')}", m) for m in top.body]
        else:
            owned.append((getattr(top, "name", "<module>"), top))
    return [
        (owner, n.lineno)
        for owner, root in owned
        for n in ast.walk(root)
        if isinstance(n, ast.Call) and "lp_solve" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
    ]


def test_lp_solve_only_in_the_lspar_check():
    # set membership and distances go through the nearest-point search
    import ast
    import pathlib

    import nonsmooth

    callers = set()
    for path in sorted(pathlib.Path(nonsmooth.__file__).parent.glob("*.py")):
        callers |= {owner for owner, _ in _lp_callers(ast.parse(path.read_text()))}
    assert callers == {"lspar_d_stationarity_check"}


def test_lp_guard_catches_a_caller():
    import ast

    tree = ast.parse(
        "def member(V, p):\n"
        "    return lp_solve(c, A, b).optimal\n"
        "class Cone:\n"
        "    def check(self):\n"
        "        return [polyhedra.lp_solve(c) for c in cs]\n"
    )
    assert [owner for owner, _ in _lp_callers(tree)] == ["member", "Cone.check"]
