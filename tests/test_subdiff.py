import gc
import itertools
import math
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest

import nonsmooth.subdiff as sd
from nonsmooth.expr import (
    DimensionMismatchError,
    _ABS,
    _MAX,
    _MIN,
    Abs,
    Affine,
    Const,
    Max,
    Min,
    Scale,
    Sq,
    Sum,
    Var,
    _sweep,
    _tape,
    evaluate,
    parse_expr,
    vsum,
)
from nonsmooth.gallery import (
    abs_x,
    f1_expr,
    f2_expr,
    fig2_expr,
    neg_abs,
    relu_loss_expr,
    sum_rule_expr,
    xsqsin_expr,
)
from nonsmooth.polyhedra import (
    Ball,
    DimensionCapError,
    Box,
    HPolyhedron,
    SetUnion,
    VPolytope,
    cone_rays_from_halfspaces,
    contains,
    conv_hull,
    lp_solve,
    set_distance,
)
from nonsmooth.rng import make_rng
from nonsmooth.stationarity import classify
from nonsmooth.subdiff import (
    SELECTION_CAP,
    AffineCompose,
    EnumerationLimitError,
    L1Norm,
    L2Norm,
    MaxOfSmooth,
    ScaledSum,
    InfeasiblePointError,
    NotDirectionallyDifferentiableError,
    SubdiffKind,
    SubdiffSet,
    UnsupportedFragmentError,
    bouligand,
    clarke,
    clarke_dir_deriv,
    compose_affine,
    convex_catalog_subdiff,
    dir_deriv,
    eigmax_subdiff,
    frechet,
    limiting,
    normal_cone,
    weakly_convex_subdiff,
    _Cell,
    _cell_is_essential,
    _cells,
    _clean_rows,
    _face_directions,
    _frechet_from_cells,
    _pattern,
)

from conftest import random_pa_instance


def interval(lo, hi):
    return SetUnion((conv_hull([[lo], [hi]]),))


def points(*vals):
    return SetUnion(tuple(VPolytope([[v]]) for v in sorted(vals)))


def assert_sets_equal(A, B, tol=1e-9):
    if A.is_empty or B.is_empty:
        assert A.is_empty and B.is_empty
    else:
        assert set_distance(A, B) <= tol


# ---------------------------------------------------------------------------
# Reference: the cells of d -> f'(x, d) read off a derivative tree
# ---------------------------------------------------------------------------


def _reference_derivative_tree(e, pattern, values):
    """The tree of d -> f'(y, d) for any y realizing ``pattern`` (admissible
    choices by tape position) with node values ``values``, rebuilt node by
    node: Sq(h) becomes 2 h(y) h'(y; d), each Max/Min keeps its admissible
    children, each Abs its admissible signs."""
    tape = _tape(e)
    choices = {tape.paths[k]: ch for k, ch in pattern.items()}
    at = dict(zip(tape.paths, values))

    def rec(node, path):
        if isinstance(node, Const):
            return Const(0.0)
        if isinstance(node, Var):
            return Var(node.i)
        if isinstance(node, Affine):
            return Affine(node.a, 0.0)
        if isinstance(node, Sum):
            return Sum(tuple(rec(t, path + (i,)) for i, t in enumerate(node.terms)))
        if isinstance(node, Scale):
            return Scale(node.c, rec(node.child, path + (0,)))
        if isinstance(node, Sq):
            return Scale(2.0 * at[path + (0,)], rec(node.child, path + (0,)))
        if isinstance(node, (Max, Min)):
            kids = tuple(rec(node.terms[i], path + (i,)) for i in choices[path])
            if len(kids) == 1:
                return kids[0]
            return Max(kids) if isinstance(node, Max) else Min(kids)
        inner = rec(node.child, path + (0,))  # Abs
        signs = choices[path]
        if len(signs) == 2:
            return Abs(inner)
        return inner if signs == (1.0,) else Scale(-1.0, inner)

    return rec(e, ())


def _reference_selections(phi, n):
    """(rows, slope) of every selection of the positively homogeneous tree
    ``phi``: every branch and both signs are admissible at the origin."""
    tape = _tape(phi)
    slots = [k for k, op in enumerate(tape.ops) if op in (_MAX, _MIN, _ABS)]
    choices = [(1.0, -1.0) if tape.ops[k] == _ABS else range(len(tape.kids[k])) for k in slots]
    if math.prod(len(c) for c in choices) > SELECTION_CAP:
        raise EnumerationLimitError("selection cap")
    for combo in itertools.product(*choices):
        sel = dict(zip(slots, combo))

        def pick(k, op, V, D):
            p = sel[k]
            if op == _ABS:
                c = tape.kids[k][0]
                return p * V[c], p * D[c]
            c = tape.kids[k][p]
            return V[c], D[c]

        A = _sweep(tape, np.zeros(n), grad=True, hook=pick)[1]
        rows = []
        for k in tape.preorder:
            op, ks = tape.ops[k], tape.kids[k]
            if op == _MAX or op == _MIN:
                i = ks[sel[k]]
                rows += [A[i] - A[j] if op == _MAX else A[j] - A[i] for j in ks if j != i]
            elif op == _ABS:
                rows.append(sel[k] * A[ks[0]])
        yield rows, A[-1]


def reference_cells_at(e, x, pattern):
    """The essential cells of d -> f'(y, d) for y at ``x`` realizing
    ``pattern``, enumerated on a second tree built for the derivative."""
    n = x.size
    phi = _reference_derivative_tree(e, pattern, _sweep(_tape(e), x)[0])
    cells, seen = [], set()
    for rows, g in _reference_selections(phi, n):
        R = _clean_rows(rows, n)
        key = (tuple(np.round(g, 12)), tuple(sorted(tuple(np.round(a, 12)) for a in R)))
        if key not in seen:
            seen.add(key)
            rays = cone_rays_from_halfspaces(R, n)
            if _cell_is_essential(R, rays):
                cells.append(_Cell(g, R, rays))
    return cells


class TestDirDeriv:
    def test_neg_abs_both_directions(self):
        e = neg_abs()
        assert dir_deriv(e, [0.0], [1.0]).value == -1.0
        assert dir_deriv(e, [0.0], [-1.0]).value == -1.0

    def test_fig2_not_a_descent_direction(self):
        # -1 + 2|-2| per the signed-Abs and scaled rules
        v = dir_deriv(fig2_expr(), [1.0, 0.0], [-1.0, -2.0]).value
        assert v == 3.0

    def test_f2_left_derivative_matches_quotient_oracle(self):
        # oracle first: the one-sided difference quotient of f2 along -1
        e = f2_expr()
        f0 = evaluate(e, [0.0])
        quotients = [(evaluate(e, [-t]) - f0) / t for t in (1e-2, 1e-4, 1e-6)]
        assert all(q == 0.0 for q in quotients)  # f2 is 0 left of the origin
        assert dir_deriv(e, [0.0], [-1.0]).value == 0.0

    def test_general_fragment_refused(self):
        e = vsum(Abs(Var(0)), Sq(Sq(Var(1))))
        with pytest.raises(UnsupportedFragmentError):
            dir_deriv(e, [0.0, 0.0], [1.0, 0.0])

    def test_xsinlog_has_no_one_sided_limit(self):
        from nonsmooth.gallery import xsinlog_expr

        with pytest.raises(NotDirectionallyDifferentiableError):
            dir_deriv(xsinlog_expr(), [0.0], [1.0])

    def test_plq_chain_rule(self):
        # d/dt (x+t)^2 at x=3 is 2*3*1
        assert dir_deriv(Sq(Var(0)), [3.0], [1.0]).value == 6.0


class TestClarkeDirDeriv:
    def test_neg_abs(self):
        assert clarke_dir_deriv(neg_abs(), [0.0], [1.0]).value == 1.0
        assert clarke_dir_deriv(neg_abs(), [0.0], [-1.0]).value == 1.0

    def test_abs_convex_coincides(self):
        assert clarke_dir_deriv(abs_x(), [0.0], [1.0]).value == 1.0
        assert dir_deriv(abs_x(), [0.0], [1.0]).value == 1.0

    def test_relu_loss_support_oracle(self):
        # oracle: the one-sided piece gradients at 0 are {0, -1} (left piece
        # constant, right piece (w-1) at 0); support at d=1 is max(0, -1) = 0
        oracle = max(s * 1.0 for s in (0.0, -1.0))
        assert oracle == 0.0
        e = relu_loss_expr()
        assert clarke_dir_deriv(e, [0.0], [1.0]).value == 0.0
        # the ordinary derivative is f'(0,1) = -1 < 0 = f°(0,1)
        assert dir_deriv(e, [0.0], [1.0]).value == -1.0


class TestBouligand:
    def test_neg_abs(self):
        assert_sets_equal(bouligand(neg_abs(), [0.0]).set, points(-1.0, 1.0))

    def test_sum_rule_function_is_single_gradient(self):
        _, _, s = sum_rule_expr()
        assert_sets_equal(bouligand(s, [0.0]).set, points(1.0))

    def test_smooth_point(self):
        assert_sets_equal(bouligand(abs_x(), [3.0]).set, points(1.0))

    def test_relu_loss(self):
        assert_sets_equal(bouligand(relu_loss_expr(), [0.0]).set, points(-1.0, 0.0))

    @pytest.mark.parametrize(
        "text,x",
        [
            ("(max (affine (0) 1e-12) (var 0) (scale -1 (var 0)))", [0.0]),
            ("(max (affine (0 0) 1e-12) (var 0) (scale -1 (var 0)))", [0.0, 0.0]),
        ],
    )
    def test_near_tie_with_a_constant(self, text, x):
        # x0 and -x0 come within 1e-12 of the constant, but only the
        # constant is active: f is constant near 0, and both sets are {0}
        e = parse_expr(text)
        for ss in (bouligand(e, x), clarke(e, x)):
            (comp,) = ss.set.components
            np.testing.assert_array_equal(comp.vertices, [np.zeros(len(x))])

    def test_kinks_in_an_inactive_branch_are_not_enumerated(self):
        # 13 abs kinks would be 2^13 selections, over the cap, but their
        # branch is inactive at 0, so d -> f'(0, d) is 0
        e = parse_expr("(max (const 1) (sum" + " (abs (var 0))" * 13 + "))")
        (comp,) = bouligand(e, [0.0]).set.components
        np.testing.assert_array_equal(comp.vertices, [[0.0]])


class TestClarke:
    def test_neg_abs(self):
        assert_sets_equal(clarke(neg_abs(), [0.0]).set, interval(-1.0, 1.0))

    def test_f1(self):
        assert_sets_equal(clarke(f1_expr(), [0.0]).set, interval(-1.0, 1.0))

    def test_identity_written_as_max_plus_min(self):
        _, _, s = sum_rule_expr()
        assert_sets_equal(clarke(s, [0.0]).set, points(1.0))

    def test_equals_hull_of_bouligand(self):
        for e, x in ((neg_abs(), [0.0]), (fig2_expr(), [0.0, 0.0]), (f1_expr(), [0.0])):
            b = bouligand(e, x)
            pts = np.vstack([c.vertices for c in b.set.components])
            assert_sets_equal(clarke(e, x).set, SetUnion((conv_hull(pts),)))

    @pytest.mark.parametrize("run", [bouligand, clarke], ids=lambda run: run.__name__)
    def test_errors_name_the_function_called(self, run):
        name = run.__name__
        with pytest.raises(DimensionCapError, match=rf"^dimension cap exceeded \({name} supports dim <= 4\)$"):
            run(Abs(Var(0)), np.zeros(5))
        with pytest.raises(UnsupportedFragmentError, match=f"^USE_SAMPLED: {name} needs a PA/PLQ tree$"):
            run(xsqsin_expr(), [0.0])


class TestFrechet:
    def test_neg_abs_empty(self):
        assert frechet(neg_abs(), [0.0]).is_empty

    def test_f2_empty(self):
        assert frechet(f2_expr(), [0.0]).is_empty

    def test_abs_full_interval(self):
        assert_sets_equal(frechet(abs_x(), [0.0]).set, interval(-1.0, 1.0))

    def test_2d_convex_box(self):
        s = frechet(fig2_expr(), [0.0, 0.0]).set
        expect = SetUnion((conv_hull([[-1, -2], [-1, 2], [1, -2], [1, 2]]),))
        assert_sets_equal(s, expect)

    def test_xsqsin_singleton(self):
        assert_sets_equal(frechet(xsqsin_expr(), [0.0]).set, points(1.0))

    def test_2d_concave_kink_empty_with_halfspaces(self):
        # -(|x1| + |x2|) at 0: the cell gradients (+-1, +-1) admit no common
        # Frechet subgradient; the set is empty and keeps its H-description
        e = Scale(-1.0, vsum(Abs(Var(0)), Abs(Var(1))))
        fs = frechet(e, [0.0, 0.0])
        assert fs.is_empty and fs.set.components == ()
        assert isinstance(fs.halfspaces, HPolyhedron) and fs.halfspaces.dim == 2
        assert not lp_solve(np.zeros(2), fs.halfspaces.A, fs.halfspaces.b).optimal

    @pytest.mark.parametrize("c", [1e-6, 1e-8, 1e-9, 1e-10, 1e-12])
    def test_tiny_slopes_keep_their_shape(self, c):
        # the enumeration runs at unit scale, so its absolute slack does not
        # swallow a small set: -c (|x1| + |x2|) has no Frechet subgradient
        # for any c > 0, and c (|x1| + |x2|) has the square [-c, c]^2
        l1 = vsum(Abs(Var(0)), Abs(Var(1)))
        fs = frechet(Scale(-c, l1), [0.0, 0.0])
        assert fs.is_empty
        assert np.abs(fs.halfspaces.b).max() <= 2 * c  # kept unscaled
        (square,) = frechet(Scale(c, l1), [0.0, 0.0]).set.components
        np.testing.assert_allclose(
            square.vertices, [[-c, -c], [-c, c], [c, -c], [c, c]], rtol=1e-12, atol=0
        )


class TestLimiting:
    def test_neg_abs(self):
        assert_sets_equal(limiting(neg_abs(), [0.0]).set, points(-1.0, 1.0))

    def test_f2(self):
        assert_sets_equal(limiting(f2_expr(), [0.0]).set, points(-1.0, 0.0))

    def test_abs_regular(self):
        assert_sets_equal(limiting(abs_x(), [0.0]).set, interval(-1.0, 1.0))

    def test_relu_loss_two_points(self):
        assert_sets_equal(limiting(relu_loss_expr(), [0.0]).set, points(-1.0, 0.0))

    @pytest.mark.parametrize("c", [1e-6, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12])
    def test_tiny_slopes_keep_their_pieces(self, c):
        # pieces are merged at unit scale, so tiny limiting sets keep their
        # shape: -c (|x1| + |x2|) has the 4 points (+-c, +-c), and
        # c (|x1| + |x2|) the square [-c, c]^2
        l1 = vsum(Abs(Var(0)), Abs(Var(1)))
        corners = [[-c, -c], [-c, c], [c, -c], [c, c]]
        comps = limiting(Scale(-c, l1), [0.0, 0.0]).set.components
        assert sorted(comp.vertices.tolist() for comp in comps) == [[v] for v in corners]
        (square,) = limiting(Scale(c, l1), [0.0, 0.0]).set.components
        np.testing.assert_allclose(square.vertices, corners, rtol=1e-12, atol=0)

    def test_1d_slope_path_matches_face_path(self):
        # dimension-1 PA trees can run both the slope specialization and the
        # generic face enumeration; they must agree
        for e, x in ((neg_abs(), 0.0), (f1_expr(), 0.0), (f2_expr(), 0.0), (abs_x(), 0.0)):
            xa = np.array([x])
            slope = limiting(e, xa)
            V, at_x = _pattern(e, xa, np.zeros(1))
            comps = []
            fr = frechet(e, xa)
            if not fr.is_empty:
                comps.extend(fr.set.components)
            for d in _face_directions(_cells(e, xa, V, at_x), 1):
                ss = _frechet_from_cells(_cells(e, xa, V, _pattern(e, xa, d)[1]), 1, xa)
                if not ss.is_empty:
                    comps.extend(ss.set.components)
            got = SetUnion(tuple(comps))
            assert set_distance(got, slope.set) <= 1e-9

    def test_cells_enumerated_once_per_pattern(self, monkeypatch):
        # the five exact calls at one point share its record: across all of
        # them, in either order, each distinct live pattern's cells (the one
        # at x and every face pattern limiting visits) are enumerated once
        from nonsmooth.expr import vmax

        seen = []
        real = sd._cells

        def counting(e, x, V, pattern):
            seen.append(tuple(pattern.items()))
            return real(e, x, V, pattern)

        monkeypatch.setattr(sd, "_cells", counting)
        cases = (
            (vsum(Abs(Var(0)), Scale(-1.0, Abs(Var(1)))), np.zeros(2)),
            (vsum(vmax(Var(0), Var(1), Var(2)), Scale(-1.0, Abs(Var(0)))), np.zeros(3)),
        )
        for e, x in cases:
            at_x = tuple(sd._pattern(e, x, np.zeros(x.size))[1].items())
            for calls in (FIVE, FIVE[::-1]):
                monkeypatch.setattr(sd, "_last", None)
                seen.clear()
                for run in calls:
                    run(e, x)
                assert seen.count(at_x) == 1
                assert len(seen) == len(set(seen)) > 1

    def test_2d_concave_corner(self):
        # -|x1| - |x2| at 0: Frechet empty everywhere near 0 except smooth
        # cells, so the limiting set is the four piece gradients
        e = vsum(Scale(-1.0, Abs(Var(0))), Scale(-1.0, Abs(Var(1))))
        s = limiting(e, [0.0, 0.0]).set
        expect = SetUnion(
            tuple(VPolytope([[sx, sy]]) for sx in (-1.0, 1.0) for sy in (-1.0, 1.0))
        )
        assert_sets_equal(s, expect)

    def test_2d_mixed_kink(self):
        # |x1| - |x2| at 0: limiting = {(s1, s2): s1 in [-1,1], s2 = +-1}
        e = vsum(Abs(Var(0)), Scale(-1.0, Abs(Var(1))))
        s = limiting(e, [0.0, 0.0]).set
        expect = SetUnion(
            (
                VPolytope([[-1.0, -1.0], [1.0, -1.0]]),
                VPolytope([[-1.0, 1.0], [1.0, 1.0]]),
            )
        )
        assert_sets_equal(s, expect)


# the five exact calls at one (expr, point)
FIVE = (bouligand, clarke, frechet, limiting, classify)


def _five_json(e, x) -> list:
    return [run(e, x).to_json() for run in FIVE]


def _five_json_cleared(monkeypatch, e, x) -> list:
    """:func:`_five_json` with the record slot emptied before every call."""
    out = []
    for run in FIVE:
        monkeypatch.setattr(sd, "_last", None)
        out.append(run(e, x).to_json())
    return out


class TestPointRecord:
    """The exact calls at one point share one record, held in one slot."""

    e = vsum(Abs(Var(0)), Scale(-1.0, Abs(Var(1))), Max((Var(0), Var(1))))

    def test_answers_do_not_depend_on_the_slot(self, monkeypatch):
        e2 = vsum(Scale(-1.0, Abs(Var(0))), Abs(Var(1)))
        x, x2 = np.zeros(2), np.array([0.0, 0.5])
        for e, at in ((self.e, x), (self.e, x2), (e2, x), (self.e, x)):
            got = _five_json(e, at)
            assert sd._last.tape is _tape(e) and sd._last.key == at.tobytes()
            assert got == _five_json_cleared(monkeypatch, e, at)

    def test_returned_sets_share_no_array_with_the_record(self, monkeypatch):
        x = np.zeros(2)
        want = _five_json_cleared(monkeypatch, self.e, x)
        for run in FIVE[:4]:
            ss = run(self.e, x)
            ss.at[:] = 7.0
            for comp in ss.set.components:
                comp.vertices[:] = 99.0
            if ss.halfspaces is not None:
                ss.halfspaces.A[:] = 0.0
                ss.halfspaces.b[:] = -1.0
        assert _five_json(self.e, x) == want

    def test_typed_errors_raise_on_every_call(self):
        # 13 live kinks: 8192 selections, over the cap
        kinks = vsum(*(Abs(Var(i % 2)) for i in range(13)))
        for _ in range(2):
            for run in FIVE:
                with pytest.raises(EnumerationLimitError):
                    run(kinks, np.zeros(2))
                assert sd._last._cells == {}
        # dim 5: past the Bouligand/Clarke cap; classify reads the record
        e5 = vsum(*(Abs(Var(i)) for i in range(5)))
        for _ in range(2):
            assert classify(e5, np.zeros(5)).is_C is None
            for run in (bouligand, clarke):
                with pytest.raises(DimensionCapError):
                    run(e5, np.zeros(5))

    def test_the_slot_holds_one_record(self):
        refs = []
        for i in range(50):
            e = vsum(Abs(Var(0)), Abs(vsum(Var(1), Const(i / 8.0))))
            bouligand(e, [0.0, -i / 8.0])
            refs.append(weakref.ref(sd._last))
        gc.collect()
        assert [r() for r in refs if r() is not None] == [sd._last]
        assert sum(isinstance(o, sd._Point) for o in gc.get_objects()) == 1

    def test_threads_sharing_the_slot_get_their_own_answers(self):
        # threads interleave calls at different points through the one slot;
        # each answer must still be the one for its own (expr, point)
        cases = [
            (self.e, np.zeros(2)),
            (self.e, np.array([0.0, 0.5])),
            (vsum(Scale(-1.0, Abs(Var(0))), Abs(Var(1))), np.zeros(2)),
            (vsum(Abs(Var(0)), Scale(-1.0, Abs(Var(1))), Abs(Var(2))), np.zeros(3)),
            (Abs(Var(0)), np.zeros(1)),
        ]
        want = [_five_json(e, x) for e, x in cases]
        good, bad = [], []

        def work(k):
            for i in range(10):
                j = (k + i) % len(cases)
                try:
                    (good if _five_json(*cases[j]) == want[j] else bad).append(j)
                except Exception as exc:  # reported by the assertion below
                    bad.append((j, exc))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(5)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert bad == [] and len(good) == 50


@pytest.mark.parametrize("run", FIVE, ids=lambda run: run.__name__)
@pytest.mark.parametrize(
    "e, x",
    [
        (Abs(Var(0)), [math.nan]),
        (Abs(Var(0)), [math.inf]),
        (vsum(Abs(Var(0)), Abs(Var(1))), [0.0]),
        (Abs(Var(0)), []),
    ],
    ids=["nan", "inf", "wrong_length", "empty"],
)
def test_bad_points_raise(run, e, x):
    with pytest.raises(DimensionMismatchError):
        run(e, x)


def test_subdiff_set_keeps_its_own_point():
    x = np.zeros(2)
    B = bouligand(vsum(Abs(Var(0)), Abs(Var(1))), x)
    S = SubdiffSet(kind=SubdiffKind.CLARKE, set=SetUnion(()), at=x)
    x[0] = 5.0
    assert B.at.tolist() == [0.0, 0.0] and S.at.tolist() == [0.0, 0.0]


def _cells_or_cap(fn, *args):
    try:
        return fn(*args)
    except EnumerationLimitError:
        return "cap"


def _bits(cells):
    if cells == "cap":
        return cells
    return [tuple((a.dtype.str, a.shape, a.tobytes()) for a in c) for c in cells]


def assert_cells_match_reference(e, x) -> int:
    """The cells enumerated on the tape of ``e`` equal the reference bit
    for bit (or both hit the cap), at x and at every face pattern; returns
    the number of patterns compared."""
    n = x.size
    V, at_x = _pattern(e, x, np.zeros(n))
    at_cells = _cells_or_cap(_cells, e, x, V, at_x)
    patterns = [at_x]
    if at_cells != "cap":
        patterns += [_pattern(e, x, d)[1] for d in _face_directions(at_cells, n)]
    for pattern in patterns:
        got = _bits(_cells_or_cap(_cells, e, x, V, pattern))
        assert got == _bits(_cells_or_cap(reference_cells_at, e, x, pattern)), (e, x, pattern)
    return len(patterns)


def _perfbench_module(name):
    import importlib
    import pathlib
    import sys

    root = str(pathlib.Path(__file__).resolve().parents[1] / "perfbench")
    if root not in sys.path:
        sys.path.insert(0, root)
    return importlib.import_module(name)


def _zero_pieces(rng, x, k):
    """k affine pieces valued in {-1/2, 0, 1/2} at x, half of them as
    Scale(-1, .) so that a zero among them reads -0.0."""
    out = []
    for _ in range(k):
        a = rng.integers(-3, 4, size=x.size).astype(float)
        v = float(rng.choice((-0.5, 0.0, 0.0, 0.5)))
        if rng.integers(2):
            out.append(Scale(-1.0, Affine(tuple(-a), float(a @ x) - v)))
        else:
            out.append(Affine(tuple(a), v - float(a @ x)))
    return out


def _multidim_plq_trees():
    """2-D to 4-D PLQ trees: random PA trees plus c (max or min of tied
    pieces)^2, and by hand, in every dimension, a square over a Max tied at
    -0.0 and 0.0 and a tied Min under an inactive Max branch."""
    out = []
    for i in range(90):
        rng = make_rng(1313, i)
        dim = 2 + i % 3
        pa, x = random_pa_instance(rng, dim, max_pieces=4)
        op = Max if rng.integers(2) else Min
        sq = Sq(op(tuple(_zero_pieces(rng, x, int(rng.integers(2, 4))))))
        out.append((Sum((pa, Scale(float(rng.choice((0.5, 1.0, 2.0))), sq))), x))
    for dim in (2, 3, 4):
        x = np.arange(1, dim + 1) / 4.0
        a = [np.roll(np.arange(1.0, dim + 1), j) for j in range(4)]

        def piece(j, v):
            return Affine(tuple(a[j]), v - float(a[j] @ x))

        signed_zeros = Max((Scale(-1.0, piece(0, 0.0)), piece(1, 0.0)))
        assert [signed_zeros.terms[0](x), signed_zeros.terms[1](x)] == [0.0, 0.0]
        assert np.signbit(signed_zeros(x))
        dead_tie = Max((piece(2, 1.0), Min((piece(0, 0.0), piece(3, 0.0)))))
        out.append((Sq(signed_zeros), x))
        out.append((Sum((Abs(piece(2, 0.0)), Sq(signed_zeros))), x))
        out.append((Sum((dead_tie, Scale(0.5, Sq(signed_zeros)))), x))
        out.append((Sum((Abs(dead_tie), Sq(Max((piece(3, 0.0), Scale(-1.0, piece(1, 0.0))))))), x))
    return out


class TestCellsOnTheTape:
    """The cells of d -> f'(x, d) enumerated on the expression's own tape
    against the derivative-tree reference."""

    def test_exact_corpus(self):
        corpus = _perfbench_module("workloads").Exact(0).corpus
        assert len(corpus) == 200
        assert sum(assert_cells_match_reference(e, x) for e, x in corpus) > len(corpus)

    def test_seeded_instances(self):
        gen = _perfbench_module("gen")
        count = 0
        for i in range(600):
            e, x = gen.random_pa_instance(gen.stream(77, 5, i), 2 + i % 2)
            count += assert_cells_match_reference(e, x)
        assert count > 1200  # face patterns as well as the points

    def test_multidim_plq_trees(self):
        for e, x in _multidim_plq_trees():
            assert_cells_match_reference(e, x)

    def test_signed_zero_factor_keeps_its_bits(self):
        # (max(-p0, p1))^2 with p0 = p1 = 0 at x: the factor 2 h(x) is
        # -0.0 on both cells, so the p1 cell's slope -0.0 * p1' is -0.0,
        # where the value of the p1 branch alone would give +0.0
        e, x = _multidim_plq_trees()[90]
        slopes = np.array([c.g for c in sd._point(e, x).cells()])
        assert slopes.shape == (2, 2) and not slopes.any()
        assert np.signbit(slopes).tolist() == [[False, False], [True, True]]

    def test_cap_only_on_live_ties(self):
        # 13 kinks give 8192 selections: over the cap when they are live,
        # no selection at all under an inactive branch
        kinks = vsum(*(Abs(Var(i % 2)) for i in range(13)))
        x = np.zeros(2)
        for e, capped in ((kinks, True), (Max((Const(0.0), kinks)), True), (Max((Const(1.0), kinks)), False)):
            assert_cells_match_reference(e, x)
            if capped:
                with pytest.raises(EnumerationLimitError):
                    sd._point(e, x).cells()
            else:
                assert [c.g.tolist() for c in sd._point(e, x).cells()] == [[0.0, 0.0]]


class TestCatalog:
    def test_l1_at_partially_zero_point(self):
        s = convex_catalog_subdiff(L1Norm(), [1.0, 0.0]).set
        assert_sets_equal(s, SetUnion((conv_hull([[1.0, -1.0], [1.0, 1.0]]),)))

    def test_l2_at_origin_is_ball(self):
        s = convex_catalog_subdiff(L2Norm(), [0.0, 0.0]).set
        comp = s.components[0]
        assert isinstance(comp, Ball) and comp.radius == 1.0

    def test_l2_away_from_origin(self):
        s = convex_catalog_subdiff(L2Norm(), [3.0, 4.0]).set
        assert_sets_equal(s, SetUnion((VPolytope([[0.6, 0.8]]),)))

    def test_affine_compose_scalar(self):
        # f(x) = |2x|: subdiff at 0 is 2 * [-1, 1] = [-2, 2]
        item = AffineCompose(np.array([[2.0]]), np.array([0.0]), abs_x())
        s = convex_catalog_subdiff(item, [0.0]).set
        assert_sets_equal(s, interval(-2.0, 2.0))

    def test_scaled_sum(self):
        item = ScaledSum(1.0, abs_x(), 2.0, abs_x())
        s = convex_catalog_subdiff(item, [0.0]).set
        assert_sets_equal(s, interval(-3.0, 3.0))

    def test_max_of_smooth(self):
        # max(x^2, 1 - x) at the crossing x = (sqrt(5)-1)/2... use x where
        # both active: x^2 = 1 - x at x = 0.6180339887498949
        x0 = (np.sqrt(5.0) - 1.0) / 2.0
        item = MaxOfSmooth(
            (
                (lambda z: float(z[0] ** 2), lambda z: np.array([2 * z[0]])),
                (lambda z: float(1 - z[0]), lambda z: np.array([-1.0])),
            )
        )
        s = convex_catalog_subdiff(item, [x0]).set
        assert_sets_equal(s, interval(-1.0, 2 * x0), tol=1e-8)


class TestEigmax:
    def test_unique_top_eigenvector(self):
        E = eigmax_subdiff(np.diag([2.0, 1.0]))
        assert E.multiplicity == 1
        V = E.vertices()
        assert np.allclose(V[0], np.outer([1, 0], [1, 0]))
        assert E.contains(V[0]) and E.is_extreme_point(V[0])

    def test_identity_full_eigenspace(self):
        E = eigmax_subdiff(np.eye(2))
        assert E.multiplicity == 2
        assert E.contains(np.diag([0.5, 0.5]))
        assert not E.is_extreme_point(np.diag([0.5, 0.5]))
        assert E.is_extreme_point(np.outer([1, 0], [1, 0]))
        assert not E.contains(np.diag([0.7, 0.5]))  # trace 1.2

    def test_scalar_case(self):
        E = eigmax_subdiff(np.array([[0.0]]))
        assert E.contains(np.array([[1.0]]))  # gradient of the identity map

    def test_rejects_asymmetric(self):
        with pytest.raises(Exception):
            eigmax_subdiff(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestNormalCone:
    def test_box_corner(self):
        C = Box([0.0, 0.0], [1.0, 1.0])
        cone = normal_cone(C, [0.0, 0.0])
        # generated by the active constraint normals (-1,0), (0,-1)
        assert contains(cone, [-1.0, 0.0], 1e-9)
        assert contains(cone, [0.0, -1.0], 1e-9)
        assert contains(cone, [-2.0, -3.0], 1e-9)
        assert not contains(cone, [1.0, 0.0], 1e-9)
        # defining inequality on sampled points of C
        rng = np.random.default_rng(3)
        ys = rng.uniform(0, 1, size=(200, 2))
        for r in cone.rays:
            assert np.all(ys @ r - np.array([0.0, 0.0]) @ r <= 1e-12)

    def test_ball_boundary_ray(self):
        cone = normal_cone(Ball(np.zeros(2), 1.0), [1.0, 0.0])
        assert cone.rays.shape[0] == 1
        assert np.allclose(cone.rays[0], [1.0, 0.0])
        rng = np.random.default_rng(4)
        ys = rng.standard_normal((200, 2))
        ys = ys / np.maximum(np.linalg.norm(ys, axis=1, keepdims=True), 1.0)
        s = cone.rays[0]
        assert np.all((ys - np.array([1.0, 0.0])) @ s <= 1e-12)

    def test_interior_gives_trivial_cone(self):
        cone = normal_cone(Box([0.0, 0.0], [1.0, 1.0]), [0.5, 0.5])
        assert cone.is_trivial

    def test_half_infinite_box_and_halfspaces(self):
        # the infinite bounds are never active; the finite ones are
        cone = normal_cone(Box([0.0, 0.0], [math.inf, math.inf]), [0.0, 1.0])
        assert cone.rays.tolist() == [[-1.0, 0.0]]
        H = HPolyhedron([[1.0, 0.0], [0.0, 1.0]], [math.inf, 1.0])
        assert normal_cone(H, [5.0, 1.0]).rays.tolist() == [[0.0, 1.0]]

    def test_infeasible_point(self):
        with pytest.raises(InfeasiblePointError):
            normal_cone(Box([0.0], [1.0]), [2.0])

    def test_center_of_a_one_point_ball_is_normal_everywhere(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cone = normal_cone(Ball(np.zeros(2), 0.0), [0.0, 0.0])
        for z in ([1.0, 0.0], [-3.0, 2.0], [0.0, -1.0]):
            assert contains(cone, z)

    @pytest.mark.parametrize("C", [Box([0.0, 0.0], [1.0, 1.0]), Ball(np.zeros(2), 1.0)], ids=["box", "ball"])
    @pytest.mark.parametrize(
        "x", [[math.nan, 0.0], [0.0, math.inf], [0.0], [0.0, 0.0, 0.0]], ids=["nan", "inf", "short", "long"]
    )
    def test_bad_points_raise(self, C, x):
        with pytest.raises(DimensionMismatchError):
            normal_cone(C, x)


class TestWeaklyConvex:
    def test_smooth_concave_quadratic(self):
        # f(x) = -x^2 is 2-weakly convex with h = 0; at x=3 the Clarke set
        # is {0} - 2*3 = {-6} = {f'(3)}
        h_sub = SetUnion((VPolytope([[0.0]]),))
        s = weakly_convex_subdiff(h_sub, 2.0, [3.0])
        assert_sets_equal(s.set, points(-6.0))

    def test_abs_minus_square_at_zero(self):
        # f = |x| - x^2, rho = 2, h = |x| + ... convex; at 0 translate is 0
        h_sub = interval(-1.0, 1.0)
        s = weakly_convex_subdiff(h_sub, 2.0, [0.0])
        assert_sets_equal(s.set, interval(-1.0, 1.0))
        # cross-check against the exact PLQ engine
        e = vsum(Abs(Var(0)), Scale(-1.0, Sq(Var(0))))
        assert_sets_equal(clarke(e, [0.0]).set, interval(-1.0, 1.0))

    def test_mcp_style_spot_value(self):
        # phi(t) = |t| - t^2/2 on |t| <= 1 is 1-weakly convex with h = |t|;
        # at t = 0.5: d phi = 1 - 0.5 = 0.5
        h_sub = points(1.0)  # subdiff of |t| at 0.5
        s = weakly_convex_subdiff(h_sub, 1.0, [0.5])
        assert_sets_equal(s.set, points(0.5))
        e = vsum(Abs(Var(0)), Scale(-0.5, Sq(Var(0))))
        assert_sets_equal(clarke(e, [0.5]).set, points(0.5))

    def test_negative_rho_rejected(self):
        with pytest.raises(Exception):
            weakly_convex_subdiff(points(0.0), -1.0, [0.0])


class TestComposeAffine:
    def test_matches_direct_construction(self):
        # g(u) = |u1| + |u2|, A0 = [[1, 1], [1, -1]]: f(x) = |x1+x2| + |x1-x2|
        g = vsum(Abs(Var(0)), Abs(Var(1)))
        A0 = np.array([[1.0, 1.0], [1.0, -1.0]])
        f = compose_affine(g, A0, np.zeros(2))
        for x in ([0.3, -0.7], [1.0, 1.0], [0.0, 0.0]):
            assert evaluate(f, x) == pytest.approx(
                abs(x[0] + x[1]) + abs(x[0] - x[1]), abs=1e-14
            )
