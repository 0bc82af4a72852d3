import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonsmooth.expr import (
    Abs,
    Affine,
    Builtin1D,
    Const,
    DimensionMismatchError,
    ExprSyntaxError,
    FragmentClass,
    Max,
    Min,
    Scale,
    Sq,
    Sum,
    Var,
    active_pattern,
    classify_fragment,
    evaluate,
    parse_expr,
    print_expr,
    vmax,
    vsum,
)
from nonsmooth.gallery import (
    f1_expr,
    f2_expr,
    fig2_expr,
    lspar_model_expr,
    neg_abs,
    relu_loss_expr,
    xsinlog_expr,
    xsqsin_expr,
)
from nonsmooth.rng import make_rng

from conftest import random_pa_instance


class TestEvaluate:
    def test_abs_at_minus_three(self):
        assert evaluate(Abs(Var(0)), [-3.0]) == 3.0

    def test_four_piece_model_at_ones(self):
        # max{2, 0, -1, -3} forced by the four affine pieces
        assert evaluate(lspar_model_expr(), [1.0, 1.0]) == 2.0

    def test_xsqsin_at_zero(self):
        assert evaluate(xsqsin_expr(), [0.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evaluate(fig2_expr(), [1.0])
        with pytest.raises(DimensionMismatchError):
            evaluate(Affine((1.0, 2.0), 0.0), [1.0, 2.0, 3.0])

    def test_abs_equals_max_of_signs(self):
        # |e| must agree with max(e, -e) exactly, everywhere
        rng = make_rng(11)
        for trial in range(50):
            e, _ = random_pa_instance(rng, dim=int(rng.integers(1, 4)))
            dim = max(1, int(rng.integers(1, 4)))
            ea = Abs(e)
            em = vmax(e, Scale(-1.0, e))
            from nonsmooth.expr import dim_required

            d = max(1, dim_required(e))
            for _ in range(20):  # 50 exprs x 20 points = 1000 comparisons
                x = rng.uniform(-3, 3, size=d)
                assert evaluate(ea, x) == evaluate(em, x)


class TestClassifyFragment:
    def test_max_of_affine_is_pa(self):
        assert classify_fragment(vmax(Affine((1.0,), 0.0), Affine((2.0,), 1.0))) is FragmentClass.PA

    def test_sq_over_pa_is_plq(self):
        e = vsum(Sq(vmax(Affine((1.0,), 0.0), Const(0.0))), Const(3.0))
        assert classify_fragment(e) is FragmentClass.PLQ

    def test_builtin_dim1_is_smooth1d(self):
        assert classify_fragment(xsinlog_expr()) is FragmentClass.SMOOTH1D

    def test_monotone_never_back_to_pa(self):
        pa = vmax(Affine((1.0,), 0.0), Const(0.0))
        assert classify_fragment(pa) is FragmentClass.PA
        assert classify_fragment(Sq(pa)) is FragmentClass.PLQ
        assert classify_fragment(vmax(Sq(pa), Const(0.0))) is FragmentClass.GENERAL

    def test_builtin_multidim_is_general(self):
        e = vsum(Builtin1D("xsqsin", Var(0)), Var(1))
        assert classify_fragment(e) is FragmentClass.GENERAL


class TestActivePattern:
    def test_f2_at_zero(self):
        # children at 0: (-x-1) -> -1, min(-x, 0) -> 0; outer max picks child 1
        pat = active_pattern(f2_expr(), [0.0], tol=0.0)
        assert pat.branch_active[()] == (1,)
        assert pat.branch_active[(1,)] == (0, 1)  # inner min ties: -0 = 0

    def test_abs_sign_positive(self):
        pat = active_pattern(Abs(Var(0)), [5.0], tol=0.0)
        assert pat.abs_sign[()] == "+"
        assert pat.is_smooth_point

    def test_f1_at_half_both_active(self):
        # -|0.5| = 0.5 - 1 = -0.5: both outer children active
        pat = active_pattern(f1_expr(), [0.5], tol=0.0)
        assert pat.branch_active[()] == (0, 1)
        assert not pat.is_smooth_point

    def test_singleton_pattern_matches_fd_gradient(self, rng):
        # at smooth points the selected piece gradient matches central FD
        from nonsmooth.sampled import as_gradient_oracle

        checked = 0
        for _ in range(200):
            e, _ = random_pa_instance(rng, dim=2)
            x = rng.uniform(-2, 2, size=2) + rng.standard_normal(2) * 1e-3
            pat = active_pattern(e, x, tol=0.0)
            if not pat.is_smooth_point:
                continue
            g = as_gradient_oracle(e)(x)
            h = 1e-6
            for i in range(2):
                ei = np.zeros(2)
                ei[i] = h
                fd = (evaluate(e, x + ei) - evaluate(e, x - ei)) / (2 * h)
                assert abs(fd - g[i]) <= 1e-6 * max(1.0, abs(g[i]))
            checked += 1
        assert checked >= 50

    def test_negative_tol_rejected(self):
        with pytest.raises(Exception):
            active_pattern(Abs(Var(0)), [0.0], tol=-1.0)


PARSE_CORPUS = [
    "(abs (var 0))",
    "(max (affine (1 1) 0) (affine (1 -1) 0) (affine (-2 1) 0) (affine (-2 -1) 0))",
    "(scale 2 (abs (var 1)))",
    "(const 3.5)",
    "(var 2)",
    "(affine (0.5 -1.25) 2)",
    "(sum (abs (var 0)) (scale 2 (abs (var 1))))",
    "(min (affine (-1) 0) (const 0))",
    "(max (scale -1 (abs (var 0))) (affine (1) -1))",
    "(max (affine (-1) -1) (min (affine (-1) 0) (const 0)))",
    "(sq (var 0))",
    "(scale 0.5 (sq (sum (max (var 0) (const 0)) (const -1))))",
    "(builtin xsinlog (var 0))",
    "(builtin xsqsin (var 0))",
    "(sum (max (var 0) (const 0)) (min (var 0) (const 0)))",
    "(max (var 0) (var 1) (var 2))",
    "(min (abs (var 0)) (abs (var 1)) (const 1))",
    "(scale -0.25 (max (affine (1 2 3) -4) (affine (-1 0 1) 0.5)))",
    "(sum (const 1) (const -1) (var 0))",
    "(abs (sum (var 0) (scale -1 (var 1))))",
    "(max (sq (var 0)) (const 1))",
    "(sum (sq (affine (1 -1) 0)) (sq (affine (1 1) -1)))",
]


class TestParser:
    def test_abs_example(self):
        assert parse_expr("(abs (var 0))") == Abs(Var(0))

    def test_model_example(self):
        assert parse_expr(PARSE_CORPUS[1]) == lspar_model_expr()

    def test_scale_example(self):
        assert parse_expr("(scale 2 (abs (var 1)))") == Scale(2.0, Abs(Var(1)))

    @pytest.mark.parametrize("text", PARSE_CORPUS)
    def test_round_trip_corpus(self, text):
        e = parse_expr(text)
        assert parse_expr(print_expr(e)) == e

    def test_gallery_exprs_round_trip(self):
        for e in (
            neg_abs(),
            f1_expr(),
            f2_expr(),
            fig2_expr(),
            relu_loss_expr(),
            lspar_model_expr(),
            xsinlog_expr(),
            xsqsin_expr(),
        ):
            assert parse_expr(print_expr(e)) == e

    @pytest.mark.parametrize(
        "e, text",
        [
            (Const(np.float64(1.5)), "(const 1.5)"),
            (Scale(np.float64(0.5), Var(0)), "(scale 0.5 (var 0))"),
            (Affine((1.0,), np.float64(0.25)), "(affine (1) 0.25)"),
            (Const(np.float64(2.0)), "(const 2)"),
        ],
    )
    def test_numpy_floats_round_trip(self, e, text):
        assert print_expr(e) == text
        assert parse_expr(print_expr(e)) == e

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse_expr("(max (var 0)\n  (oops 1))")
        assert ei.value.line == 2

    def test_unknown_builtin(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("(builtin nosuch (var 0))")

    def test_arity_violation(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("(max (var 0))")

    def test_trailing_input(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("(var 0) (var 1)")


def _expr_strategy():
    leaf = st.one_of(
        st.integers(-3, 3).map(lambda c: Const(float(c))),
        st.integers(0, 2).map(Var),
        st.tuples(
            st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=3),
            st.integers(-3, 3).map(float),
        ).map(lambda t: Affine(tuple(t[0]), t[1])),
    )

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=1, max_size=3).map(lambda l: Sum(tuple(l))),
            st.lists(children, min_size=2, max_size=3).map(lambda l: Max(tuple(l))),
            st.lists(children, min_size=2, max_size=3).map(lambda l: Min(tuple(l))),
            children.map(Abs),
            children.map(Sq),
            st.tuples(st.integers(-2, 2).filter(bool).map(float), children).map(
                lambda t: Scale(t[0], t[1])
            ),
        )

    return st.recursive(leaf, extend, max_leaves=8)


@given(_expr_strategy())
@settings(max_examples=200, deadline=None)
def test_parser_round_trip_property(e):
    assert parse_expr(print_expr(e)) == e


class TestBuiltins:
    def test_xsinlog_values(self):
        f = xsinlog_expr()
        assert evaluate(f, [0.0]) == 0.0
        assert evaluate(f, [-1.0]) == 0.0
        t = 0.1
        assert evaluate(f, [t]) == pytest.approx(t * math.sin(math.log(1 / t)))

    def test_xsqsin_values(self):
        f = xsqsin_expr()
        assert evaluate(f, [-2.0]) == -2.0
        t = 0.25
        assert evaluate(f, [t]) == pytest.approx(t + t * t * math.sin(1 / t))


class TestTape:
    """Each tree is compiled once into a tape kept on its root node."""

    @staticmethod
    def _count_compiles(monkeypatch) -> list:
        import nonsmooth.expr as ex

        seen = []
        real = ex._compile

        def counting(e):
            seen.append(e)
            return real(e)

        monkeypatch.setattr(ex, "_compile", counting)
        return seen

    def test_compiled_once_per_instance(self, monkeypatch):
        from nonsmooth.expr import dim_required
        from nonsmooth.sampled import as_evaluator, as_gradient_oracle
        from nonsmooth.solvers import oracle_from_expr
        from nonsmooth.subdiff import bouligand, dir_deriv, frechet

        seen = self._count_compiles(monkeypatch)
        e = parse_expr("(max (affine (1 2) 0) (abs (var 1)) (scale -1 (var 0)))")
        twin = parse_expr(print_expr(e))
        for x in ([0.0, 0.0], [1.0, -2.0], [0.5, 0.25]):
            evaluate(e, x)
            active_pattern(e, x, tol=1e-8)
            dir_deriv(e, x, [1.0, -1.0])
            oracle_from_expr(e).subgrad(x)
            as_gradient_oracle(e)(x)
            as_gradient_oracle(e).rows(np.array([x, x]))
            as_evaluator(e).rows(np.array([x, [0.5, 0.5], x]))
            bouligand(e, x)
        assert dim_required(e) == 2 and classify_fragment(e) is FragmentClass.PA
        frechet(e, [0.0, 0.0])  # compiles the derivative trees it builds, not e
        assert [s for s in seen if s is e] == [e]
        # the cache is invisible to equality, hashing and repr
        assert e == twin and hash(e) == hash(twin) and repr(e) == repr(twin)
        assert not any(s is twin for s in seen)
        evaluate(twin, [1.0, 1.0])
        assert sum(s is twin for s in seen) == 1

    def test_pickled_tree_keeps_working(self):
        import pickle

        e = f1_expr()
        evaluate(e, [0.25])
        copy = pickle.loads(pickle.dumps(e))
        assert copy == e and hash(copy) == hash(e)
        assert evaluate(copy, [0.25]) == evaluate(e, [0.25])

    @pytest.mark.parametrize(
        "e, good, bad",
        [
            (vsum(Var(0), Var(2)), [0.5, 0.5, 0.5], [1.0, 2.0]),  # Var out of range
            (vmax(Affine((1.0, 2.0), 0.0), Var(0)), [0.5, 0.5], [1.0, 2.0, 3.0]),  # Affine length
            (vmax(Affine((1.0, 2.0), 0.0), Var(0)), [0.5, 0.5], []),  # empty point
            (vmax(Affine((1.0, 2.0), 0.0), Var(0)), [0.5, 0.5], [1.0, math.inf]),  # non-finite
            (Abs(Var(0)), [0.5], [math.nan]),
        ],
    )
    def test_bad_points_still_raise_with_a_cached_tape(self, e, good, bad):
        from nonsmooth.subdiff import dir_deriv

        evaluate(e, good)
        for call in (evaluate, active_pattern, lambda e, p: dir_deriv(e, p, p)):
            with pytest.raises(DimensionMismatchError):
                call(e, bad)

    def test_mismatch_messages_name_the_first_bad_leaf(self):
        e = vsum(Affine((1.0, 1.0, 1.0), 0.0), Var(5), Affine((1.0,), 0.0))
        with pytest.raises(DimensionMismatchError, match="affine coefficient length 3 != dimension 2"):
            evaluate(e, [1.0, 2.0])
        with pytest.raises(DimensionMismatchError, match="var 5 out of range for dimension 3"):
            evaluate(e, [1.0, 2.0, 3.0])


class _Kink(Exception):
    pass


def _reference_gradient(e, x):
    """The a.e. gradient by the scalar sweep, with the kink rules written out
    node by node: the reference for the batched pass."""
    from nonsmooth.expr import _ABS, _BUILTIN, _MAX, BUILTINS, _sweep, _tape

    tape = _tape(e)

    def smooth(k, op, V, D):
        ks = tape.kids[k]
        if op == _BUILTIN:
            t0, g = V[ks[0]], D[ks[0]]
            spec = BUILTINS[tape.args[k]]
            dv = None if t0 in spec.nondiff_points else spec.deriv(t0)
            if dv is None:
                raise _Kink()
            return spec.value(t0), dv * g
        if op == _ABS:
            v, g = V[ks[0]], D[ks[0]]
            if v == 0.0 and g.any():
                raise _Kink()
            return abs(v), (g if v >= 0 else -g)
        vals = [V[c] for c in ks]
        v = max(vals) if op == _MAX else min(vals)
        tied = [c for c, w in zip(ks, vals) if w == v]
        if any(not np.array_equal(D[c], D[tied[0]]) for c in tied[1:]):
            raise _Kink()
        return v, D[tied[0]]

    try:
        return _sweep(tape, np.asarray(x, dtype=float), grad=True, hook=smooth)[1][-1]
    except _Kink:
        return None


# dyadic points and small integer coefficients: ties hold exactly, and -0.0
# checks that signed zeros come out as the scalar sweep gives them
_GRID = (-1.0, -0.75, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0)


@st.composite
def _tree_and_rows(draw):
    dim = draw(st.integers(1, 4))
    num = st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0))
    leaf = st.one_of(
        num.map(Const),
        st.integers(0, dim - 1).map(Var),
        st.tuples(st.lists(st.integers(-2, 2).map(float), min_size=dim, max_size=dim), num).map(
            lambda t: Affine(tuple(t[0]), t[1])
        ),
    )

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=1, max_size=3).map(lambda l: Sum(tuple(l))),
            st.lists(children, min_size=2, max_size=3).map(lambda l: Max(tuple(l))),
            st.lists(children, min_size=2, max_size=3).map(lambda l: Min(tuple(l))),
            children.map(Abs),
            children.map(Sq),
            children.map(lambda c: Abs(Sum((c, Scale(-1.0, c))))),  # abs of a zero function
            st.tuples(st.sampled_from(("xsinlog", "xsqsin")), children).map(lambda t: Builtin1D(*t)),
            st.tuples(st.sampled_from((-2.0, -1.0, 0.5, 2.0)), children).map(lambda t: Scale(*t)),
        )

    # a few leaves drawn from a small pool repeat often: identical leaves
    e = draw(st.recursive(leaf, extend, max_leaves=8))
    rows = draw(st.lists(st.lists(st.sampled_from(_GRID), min_size=dim, max_size=dim), min_size=1, max_size=6))
    return e, np.array(rows)


def _hex(a) -> list:
    return [float(v).hex() for v in np.asarray(a, dtype=float).ravel().tolist()]


class TestSweepRows:
    """The batched pass gives every row the bits of the scalar sweep."""

    @given(_tree_and_rows())
    @settings(max_examples=400, deadline=None)
    def test_rows_match_the_scalar_sweep(self, case):
        from nonsmooth.expr import _sweep_rows, _tape
        from nonsmooth.sampled import as_evaluator, as_gradient_oracle

        e, X = case
        tape = _tape(e)
        values = _sweep_rows(tape, X)
        assert values.shape == (X.shape[0],)
        assert _hex(values) == [float(evaluate(e, x)).hex() for x in X]
        assert _hex(as_evaluator(e).rows(X)) == _hex(values)
        again, G, kink = _sweep_rows(tape, X, grad=True)
        assert _hex(again) == _hex(values) and G.shape == X.shape
        oracle = as_gradient_oracle(e)
        for x, g, at_kink in zip(X, G, kink):
            want = _reference_gradient(e, x)
            single = oracle(x)
            assert at_kink == (want is None) == (single is None)
            if want is not None:
                assert _hex(g) == _hex(want) == _hex(single)

    @pytest.mark.parametrize(
        "text",
        [
            "(sum (var 0))",  # sum() adds from 0: -0.0 reads 0.0
            "(sum (var 0) (var 1))",
            "(max (var 0) (var 1))",  # the first of tied zeros wins
            "(min (var 1) (var 0))",
            "(scale -1 (var 0))",
            "(scale 2 (max (var 0) (const 0)))",
            "(abs (var 0))",
            "(sq (var 0))",
            "(affine (1 1) 0)",
            "(builtin xsqsin (var 0))",
        ],
    )
    def test_signed_zeros(self, text):
        from nonsmooth.expr import _sweep_rows, _tape

        e = parse_expr(text)
        X = np.array([[-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [0.0, 0.0]])
        assert _hex(_sweep_rows(_tape(e), X)) == [float(evaluate(e, x)).hex() for x in X]

    def test_kink_rules(self):
        from nonsmooth.expr import _sweep_rows, _tape

        X = np.array([[0.0], [0.5], [-0.5]])
        cases = [
            (Abs(Var(0)), [True, False, False]),
            (Abs(Sum((Var(0), Scale(-1.0, Var(0))))), [False, False, False]),  # |0| is smooth
            (vmax(Var(0), Affine((1.0,), 0.0)), [False, False, False]),  # equal gradients tie
            (vmax(Var(0), Const(0.0)), [True, False, False]),
            (Builtin1D("xsinlog", Var(0)), [True, False, False]),  # nondiff_points
            (Max((Const(0.0), Abs(Var(0)), Const(1.0))), [True, False, False]),  # inactive kink
        ]
        for e, want in cases:
            assert _sweep_rows(_tape(e), X, grad=True)[2].tolist() == want

    @pytest.mark.parametrize("n", range(1, 9))
    def test_affine_product_rounds_like_dot(self, n):
        from nonsmooth.expr import _sweep_rows, _tape

        rng = make_rng(11, n)
        a, b = rng.standard_normal(n), float(rng.standard_normal())
        X = rng.standard_normal((4000, n)) * rng.uniform(0.0, 100.0, size=(4000, 1))
        got = _sweep_rows(_tape(Affine(tuple(a), b)), X)
        assert _hex(got) == [float(np.dot(a, x) + b).hex() for x in X]

    def test_rows_are_the_callers_to_keep(self):
        from nonsmooth.expr import _sweep_rows, _tape

        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        for e in (Var(1), Affine((1.0, 1.0), 0.0), Const(2.0)):
            v, G, _ = _sweep_rows(_tape(e), X, grad=True)
            v[:] = 7.0
            G[:] = 7.0
            assert X.tolist() == [[1.0, 2.0], [3.0, 4.0]]
            assert _sweep_rows(_tape(e), X, grad=True)[1].tolist() != G.tolist()


# Functions allowed to dispatch on the leaf and linear node types: the tape
# compiler and the tree rewriters.  Every numeric walk goes through the tape.
_DISPATCH_ALLOWED = {
    "expr.py": {"_compile", "print_expr"},
    "subdiff.py": {"compose_affine"},
}
_LINEAR_NODES = {"Const", "Var", "Affine", "Sum", "Scale"}


def _dispatch_sites(tree) -> list:
    """(owner, line) of every isinstance/issubclass or ``type(x) is`` test,
    class-keyed dict or match pattern naming a linear node type.  The owner
    is the enclosing top-level function or ``Class.method``; nested
    functions count for their owner."""
    import ast

    def names(node) -> set:
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} & _LINEAR_NODES

    def is_dispatch(node) -> bool:
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") in ("isinstance", "issubclass"):
            return len(node.args) == 2 and bool(names(node.args[1]))
        if isinstance(node, ast.Compare):
            calls = [s for s in (node.left, *node.comparators) if isinstance(s, ast.Call)]
            return any(getattr(c.func, "id", "") == "type" for c in calls) and bool(names(node))
        if isinstance(node, ast.Dict):
            return any(isinstance(k, ast.Name) and k.id in _LINEAR_NODES for k in node.keys)
        return isinstance(node, ast.MatchClass) and bool(names(node.cls))

    owned = []
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            owned += [(f"{top.name}.{getattr(m, 'name', '')}", m) for m in top.body]
        else:
            owned.append((getattr(top, "name", "<module>"), top))
    return [(owner, n.lineno) for owner, root in owned for n in ast.walk(root) if is_dispatch(n)]


def test_no_tree_walker_outside_the_tape_compiler_and_rewriters():
    import ast
    import pathlib

    import nonsmooth

    offenders = []
    for path in sorted(pathlib.Path(nonsmooth.__file__).parent.glob("*.py")):
        allowed = _DISPATCH_ALLOWED.get(path.name, set())
        for owner, line in _dispatch_sites(ast.parse(path.read_text())):
            if owner not in allowed:
                offenders.append(f"{path.name}:{line} in {owner}")
    assert offenders == [], "dispatch on Const/Var/Affine/Sum/Scale: " + ", ".join(offenders)


def test_dispatch_guard_catches_a_walker():
    import ast

    walker = ast.parse(
        "def evaluate(e, x):\n"
        "    if isinstance(e, (Max, Var)):\n"
        "        return x[e.i]\n"
        "def helper(e):\n"
        "    return {Const: 0}.get(type(e))\n"
        "def other(e):\n"
        "    return type(e) is Sum\n"
    )
    assert [owner for owner, _ in _dispatch_sites(walker)] == ["evaluate", "helper", "other"]


def test_tape_cache_shared_across_threads():
    # many threads race to compile and use the same fresh trees; the cache
    # write is idempotent, so every answer matches a single-threaded one
    import sys
    import threading

    from nonsmooth.expr import _compile, _tape

    rng = make_rng(31)
    cases = [random_pa_instance(rng, dim=int(rng.integers(1, 4))) for _ in range(40)]
    want = [evaluate(parse_expr(print_expr(e)), x) for e, x in cases]
    trees = [parse_expr(print_expr(e)) for e, _ in cases]  # no tape yet
    errors = []

    def work():
        try:
            for _ in range(20):
                for e, (_, x), w in zip(trees, cases, want):
                    assert evaluate(e, x) == w
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(repr(_tape(e)) == repr(_compile(e)) for e in trees)
