import numpy as np
import pytest

from nonsmooth.expr import Abs, Scale, Sq, Sum, Var
from nonsmooth.gallery import neg_abs, xsinlog_expr, xsqsin_expr
from nonsmooth.polyhedra import SetUnion, conv_hull, set_distance
from nonsmooth.subdiff import clarke
from nonsmooth.sampled import (
    as_evaluator,
    as_gradient_oracle,
    default_schedule,
    fd_dir_deriv,
    gradient_sampling,
    sampled_c_stationarity,
    sampled_clarke_dd,
)


class TestFdDirDeriv:
    def test_abs_converges_to_one(self):
        r = fd_dir_deriv(as_evaluator(Abs(Var(0))), [0.0], [1.0])
        assert r.converged
        assert r.value == pytest.approx(1.0, abs=1e-9)

    def test_xsinlog_non_convergent_with_large_amplitude(self):
        r = fd_dir_deriv(as_evaluator(xsinlog_expr()), [0.0], [1.0])
        assert not r.converged
        assert r.status == "NON_CONVERGENT"
        # quotients are sin(log(1/t)): they sweep essentially all of [-1, 1]
        assert r.amplitude >= 1.8

    def test_xsqsin_one_sided_values(self):
        ev = as_evaluator(xsqsin_expr())
        r = fd_dir_deriv(ev, [0.0], [1.0])
        assert r.converged and r.value == pytest.approx(1.0, abs=1e-6)
        r = fd_dir_deriv(ev, [0.0], [-1.0])
        # the quotient (f(-t) - f(0))/t is exactly -1: the one-sided
        # directional value flips sign even though the two-sided slope is 1
        assert r.converged and r.value == pytest.approx(-1.0, abs=1e-12)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            fd_dir_deriv(as_evaluator(Abs(Var(0))), [0.0], [1.0], schedule=[1e-3, 1e-2])

    def test_default_schedule_shape(self):
        ts = default_schedule()
        assert ts[0] == 2.0**-8 and ts[-1] == 2.0**-40 and ts.size == 33


class TestSampledClarkeDD:
    def test_neg_abs(self):
        r = sampled_clarke_dd(as_evaluator(neg_abs()), [0.0], [1.0])
        assert r.value == pytest.approx(1.0, abs=0.02)

    def test_xsqsin(self):
        r = sampled_clarke_dd(as_evaluator(xsqsin_expr()), [0.0], [1.0])
        assert r.value == pytest.approx(2.0, abs=0.05)

    def test_smooth_square(self):
        r = sampled_clarke_dd(as_evaluator(Sq(Var(0))), [1.0], [1.0])
        assert r.value == pytest.approx(2.0, abs=0.01)

    def test_deterministic_given_seed(self):
        a = sampled_clarke_dd(as_evaluator(neg_abs()), [0.0], [1.0], seed=7)
        b = sampled_clarke_dd(as_evaluator(neg_abs()), [0.0], [1.0], seed=7)
        assert a.value == b.value and a.quotients == b.quotients


class TestGradientSampling:
    def test_xsqsin_interval(self):
        ss = gradient_sampling(as_gradient_oracle(xsqsin_expr()), [0.0])
        target = SetUnion((conv_hull([[0.0], [2.0]]),))
        assert set_distance(ss.set, target) <= 0.05

    def test_neg_abs(self):
        ss = gradient_sampling(as_gradient_oracle(neg_abs()), [0.0])
        target = SetUnion((conv_hull([[-1.0], [1.0]]),))
        assert set_distance(ss.set, target) <= 0.02

    def test_smooth_square_near_zero(self):
        ss = gradient_sampling(as_gradient_oracle(Sq(Var(0))), [0.0])
        target = SetUnion((conv_hull([[0.0]]),))
        assert set_distance(ss.set, target) <= 0.02

    def test_abs_of_a_zero_function(self):
        # |x - x| vanishes with a zero gradient: smooth, with gradient 0
        e = Abs(Sum((Var(0), Scale(-1.0, Var(0)))))
        ss = gradient_sampling(as_gradient_oracle(e), [0.5])
        assert np.array_equal(ss.set.components[0].vertices, [[0.0]])
        assert np.array_equal(clarke(e, [0.5]).set.components[0].vertices, [[0.0]])
        assert as_gradient_oracle(Abs(Var(0)))([0.0]) is None  # a real kink stays one

    def test_deterministic_given_seed(self):
        a = gradient_sampling(as_gradient_oracle(neg_abs()), [0.0], seed=5)
        b = gradient_sampling(as_gradient_oracle(neg_abs()), [0.0], seed=5)
        assert np.array_equal(a.set.components[0].vertices, b.set.components[0].vertices)

    def test_rung_trace_in_notes(self):
        ss = gradient_sampling(as_gradient_oracle(neg_abs()), [0.0])
        assert ss.exactness == "sampled"
        assert any(n.startswith("rung_hausdorff=") for n in ss.notes)


class TestSampledStationarity:
    def test_xsqsin_zero_is_sampled_c_stationary(self):
        assert sampled_c_stationarity(as_gradient_oracle(xsqsin_expr()), [0.0])

    def test_linear_slope_is_not(self):
        from nonsmooth.expr import Affine

        e = Scale(1.0, Affine((1.0,), 0.0))
        assert not sampled_c_stationarity(as_gradient_oracle(e), [0.0])


class TestBatchedRows:
    """The oracles evaluate each rung in one batched pass over the rows."""

    def test_point_checks(self):
        from nonsmooth.expr import Affine, DimensionMismatchError, vsum

        with pytest.raises(DimensionMismatchError, match="non-finite"):
            gradient_sampling(as_gradient_oracle(Abs(Var(0))), [np.nan])
        with pytest.raises(DimensionMismatchError, match="non-finite"):
            sampled_clarke_dd(as_evaluator(Abs(Var(0))), [np.inf], [1.0])
        with pytest.raises(DimensionMismatchError, match="var 1 out of range for dimension 1"):
            fd_dir_deriv(as_evaluator(Var(1)), [0.0], [1.0])
        e = vsum(Affine((1.0, 1.0, 1.0), 0.0), Var(5), Affine((1.0,), 0.0))
        for rows in (as_evaluator(e).rows, as_gradient_oracle(e).rows):
            with pytest.raises(DimensionMismatchError, match="affine coefficient length 3 != dimension 2"):
                rows(np.zeros((3, 2)))
            with pytest.raises(DimensionMismatchError, match="var 5 out of range for dimension 3"):
                rows(np.zeros((3, 3)))
            with pytest.raises(DimensionMismatchError, match="point 1 has non-finite"):
                rows(np.array([[0.0, 0.0, 0.0], [0.0, np.nan, 0.0]]))
            with pytest.raises(DimensionMismatchError, match="rows of an"):
                rows(np.zeros(3))
        with pytest.raises(DimensionMismatchError):
            as_gradient_oracle(Abs(Var(0)))([np.nan])

    @pytest.mark.parametrize(
        "call",
        [
            lambda: sampled_clarke_dd(as_evaluator(Abs(Var(0))), [0.0], [1.0], samples=0),
            lambda: sampled_clarke_dd(as_evaluator(Abs(Var(0))), [0.0], [1.0], rungs=0),
            lambda: sampled_clarke_dd(as_evaluator(Abs(Var(0))), [0.0], [1.0], rungs=1),
            lambda: gradient_sampling(as_gradient_oracle(Abs(Var(0))), [0.0], samples=0),
            lambda: gradient_sampling(as_gradient_oracle(Abs(Var(0))), [0.0], rungs=0),
            lambda: fd_dir_deriv(as_evaluator(Abs(Var(0))), [0.0], [1.0], schedule=[]),
        ],
    )
    def test_budgets_are_validated(self, call):
        with pytest.raises(ValueError):
            call()

    def test_smallest_budgets_run(self):
        assert np.isfinite(sampled_clarke_dd(as_evaluator(Abs(Var(0))), [0.0], [1.0], samples=1, rungs=2).value)
        ss = gradient_sampling(as_gradient_oracle(Var(0)), [0.0], samples=1, rungs=1)
        assert np.array_equal(ss.set.components[0].vertices, [[1.0]])
        assert fd_dir_deriv(as_evaluator(Abs(Var(0))), [0.0], [1.0], schedule=[0.5]).value == 1.0

    def test_plain_oracle_with_only_kinks_is_refused(self):
        with pytest.raises(ValueError, match="no differentiable samples"):
            gradient_sampling(lambda p: None, [0.0], samples=10)

    def test_nan_quotients_are_skipped(self):
        # NaN left of 0 spoils the quotients of every sample that touches it;
        # the rest see the slope 1 of x, so every rung's max is 1
        r = sampled_clarke_dd(lambda p: np.nan if p[0] < 0 else p[0], [0.0], [1.0], samples=200)
        assert r.quotients == pytest.approx([1.0] * 5, abs=1e-6)

    def test_plain_callables_give_the_same_bits(self):
        from nonsmooth.expr import parse_expr

        def hexes(a):
            return [float(v).hex() for v in np.asarray(a, dtype=float).ravel().tolist()]

        for e, x, d in (
            (parse_expr("(max (affine (1 -1) 0) (abs (var 1)) (scale -1 (var 0)))"), [0.0, 0.0], [1.0, -0.5]),
            (xsinlog_expr(), [0.0], [1.0]),
        ):
            ev, oracle = as_evaluator(e), as_gradient_oracle(e)
            plain_ev, plain_grad = (lambda p: ev(p)), (lambda p: oracle(p))
            for fn in (
                lambda f: fd_dir_deriv(f, x, d).quotients,
                lambda f: sampled_clarke_dd(f, x, d, samples=300).quotients,
            ):
                assert hexes(fn(plain_ev)) == hexes(fn(ev))
            a = gradient_sampling(plain_grad, x, samples=300)
            b = gradient_sampling(oracle, x, samples=300)
            assert hexes(a.set.components[0].vertices) == hexes(b.set.components[0].vertices)
            assert a.notes == b.notes
        # a plain evaluator may answer with 1-element arrays
        r = fd_dir_deriv(lambda p: np.array([abs(p[0])]), [0.0], [1.0])
        assert r.value == 1.0 and len(r.quotients) == default_schedule().size

    def test_rows_survive_functools_wraps(self):
        import functools

        calls = []
        for make, run in (
            (as_evaluator, lambda f: sampled_clarke_dd(f, [0.0], [1.0], samples=100).quotients),
            (as_gradient_oracle, lambda f: gradient_sampling(f, [0.0], samples=100).set.components[0].vertices.tolist()),
        ):
            f = make(neg_abs())

            @functools.wraps(f)
            def traced(x, f=f):
                calls.append(x)
                return f(x)

            assert traced.rows is f.rows
            assert run(traced) == run(f)
        assert calls == []  # the batch went through rows, not the wrapper


# ---------------------------------------------------------------------------
# The per-process memo of each rung's seeded draws
# ---------------------------------------------------------------------------


def _pow10(exps):
    return np.array([10.0 ** t for t in exps.tolist()])


def _fresh_clarke_dd(f, x, d, radius, samples, seed, rungs):
    """``sampled_clarke_dd``'s (value, quotients, params) with every rung
    drawn afresh, as before the memo."""
    from nonsmooth.rng import make_rng
    from nonsmooth.sampled import _rows

    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = np.atleast_1d(np.asarray(d, dtype=float))
    n = x.size
    rung_radii, rung_max = [], []
    for k in range(rungs):
        r = radius * 2.0 ** -k
        rng = make_rng(seed, 101, k)
        offs = rng.uniform(-r, r, size=(samples, n))
        texp = rng.uniform(-8.0, 0.0, size=samples)
        xp = x + offs
        t = r * _pow10(texp)
        q = (_rows(f, xp + t[:, None] * d) - _rows(f, xp)) / t
        q = q[~np.isnan(q)]
        best = q[np.flatnonzero(q == q.max())[0]] if q.size else -np.inf
        rung_radii.append(r)
        rung_max.append(best)
    rr, mm = np.array(rung_radii), np.array(rung_max)
    value = float(np.polyfit(rr, mm, 1)[1])
    params = {"radius_ladder": rr.tolist(), "rung_max": mm.tolist(), "samples": samples, "seed": seed}
    return value, tuple(mm.tolist()), params


def _fresh_gradient_sampling(grad, x, radius, samples, seed, rungs):
    """``gradient_sampling``'s (vertices, notes, tolerance) with every rung
    drawn afresh, as before the memo."""
    from nonsmooth.rng import make_rng
    from nonsmooth.sampled import _rows

    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.size
    hulls = []
    for k in range(rungs):
        r = radius * 2.0 ** -k
        rng = make_rng(seed, 202, k)
        dirs = rng.standard_normal(size=(samples, n))
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
        rexp = rng.uniform(-8.0, 0.0, size=samples)
        G, kink = _rows(grad, x + (r * _pow10(rexp))[:, None] * dirs, grad=True)
        hulls.append(conv_hull(G[~kink]))
    trace = [set_distance(SetUnion((a,)), SetUnion((b,))) for a, b in zip(hulls, hulls[1:])]
    notes = ("rung_hausdorff=" + ",".join(f"{t:.3e}" for t in trace), f"samples={samples}", f"seed={seed}")
    return hulls[-1].vertices, notes, float(trace[-1]) if trace else 0.0


def _hexes(a):
    return [float(v).hex() for v in np.asarray(a, dtype=float).ravel().tolist()]


MEMO_CASES = {
    1: ("(builtin xsqsin (var 0))", [0.0], [1.0]),
    2: ("(max (affine (1 -1) 0) (abs (var 1)) (scale -1 (var 0)))", [0.0, 0.0], [1.0, -0.5]),
    3: ("(max (var 0) (abs (var 1)) (affine (1 1 -1) 0) (sq (var 2)))", [0.0, 0.0, 0.0], [0.5, -1.0, 1.0]),
}


@pytest.fixture
def memo(monkeypatch):
    """An empty memo for the test; the process's memo comes back after it."""
    from nonsmooth import sampled

    monkeypatch.setattr(sampled, "_DRAWS", {})
    monkeypatch.setattr(sampled, "_draws_held", 0)
    return sampled


def _held(sampled):
    return sum(size for _, size in sampled._DRAWS.values())


class TestDrawMemo:
    @pytest.mark.parametrize("rungs", [2, 5])
    @pytest.mark.parametrize("radius", [0.1, 0.37])
    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_same_bits_as_fresh_draws(self, memo, n, seed, radius, rungs):
        from nonsmooth.expr import parse_expr

        text, x, d = MEMO_CASES[n]
        e = parse_expr(text)
        kw = dict(radius=radius, samples=40, seed=seed, rungs=rungs)
        want_dd = _fresh_clarke_dd(as_evaluator(e), x, d, **kw)
        want_gs = _fresh_gradient_sampling(as_gradient_oracle(e), x, **kw)
        for state in ("cold", "warm"):
            assert (len(memo._DRAWS) == 0) == (state == "cold")
            got = sampled_clarke_dd(as_evaluator(e), x, d, **kw)
            assert _hexes([got.value]) == _hexes([want_dd[0]]), state
            assert _hexes(got.quotients) == _hexes(want_dd[1]), state
            assert got.params == want_dd[2], state
            ss = gradient_sampling(as_gradient_oracle(e), x, **kw)
            assert _hexes(ss.set.components[0].vertices) == _hexes(want_gs[0]), state
            assert ss.notes == want_gs[1] and ss.tolerance == want_gs[2], state
        assert len(memo._DRAWS) == 2 * rungs

    @pytest.mark.parametrize("n", [1, 3])
    def test_draws_are_the_fresh_draws(self, memo, n):
        # every draw, not only those that reach a hull vertex or a rung max
        from nonsmooth.rng import make_rng

        for k in range(3):
            r = 0.1 * 2.0 ** -k
            rng = make_rng(7, 101, k)
            offs = rng.uniform(-r, r, size=(500, n))
            t = r * _pow10(rng.uniform(-8.0, 0.0, size=500))
            rng = make_rng(7, 202, k)
            dirs = rng.standard_normal(size=(500, n))
            dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
            disp = (r * _pow10(rng.uniform(-8.0, 0.0, size=500)))[:, None] * dirs
            for _ in ("cold", "warm"):
                got = memo._draws(memo._CLARKE, 7, k, 500, n, 0.1)
                assert got[0] == r and _hexes(got[1]) == _hexes(offs) and _hexes(got[2]) == _hexes(t)
                got = memo._draws(memo._GS, 7, k, 500, n, 0.1)
                assert got[0] == r and _hexes(got[1]) == _hexes(disp)

    def test_draws_are_read_only(self, memo):
        for stream in (memo._CLARKE, memo._GS):
            for cold in (True, False):
                r, *arrays = memo._draws(stream, 42, 1, 10, 2, 0.1)
                assert r == 0.05 and len(memo._DRAWS) == 1 + (stream == memo._GS)
                for a in arrays:
                    with pytest.raises(ValueError, match="read-only"):
                        a[0] = 1.0

    def test_keys_never_share_an_entry(self, memo):
        base = dict(stream=memo._CLARKE, seed=42, k=0, samples=30, n=2, radius=0.1)
        variants = [base] + [
            dict(base, **change)
            for change in ({"seed": 43}, {"radius": 0.2}, {"samples": 31}, {"k": 1}, {"n": 3}, {"stream": memo._GS})
        ]
        got = [memo._draws(**v) for v in variants]
        assert len(memo._DRAWS) == len(variants)
        for i, a in enumerate(got):
            for b in got[i + 1 :]:
                assert a[1] is not b[1]
                assert a[1].shape != b[1].shape or not np.array_equal(a[1], b[1])
        # the same arguments find their entry again
        assert memo._draws(**base)[1] is got[0][1]

    def test_stays_within_budget(self, memo):
        for seed in range(200):
            for k in range(5):
                memo._draws(memo._CLARKE, seed, k, 2000, 1, 0.1)
            assert _held(memo) == memo._draws_held <= memo.DRAW_MEMO_BYTES
        # full, and the latest seed's rungs are the ones kept
        assert _held(memo) > memo.DRAW_MEMO_BYTES - 5 * 20000
        assert all((memo._CLARKE, 199, k, 2000, 1, 0.1) in memo._DRAWS for k in range(5))
        assert (memo._CLARKE, 0, 0, 2000, 1, 0.1) not in memo._DRAWS

    def test_over_budget_rungs_are_drawn_every_call(self, memo, monkeypatch):
        monkeypatch.setattr(memo, "DRAW_MEMO_BYTES", 1000)
        e, x, d = Abs(Var(0)), [0.0], [1.0]
        want_dd = _fresh_clarke_dd(as_evaluator(e), x, d, 0.1, 200, 42, 5)
        want_gs = _fresh_gradient_sampling(as_gradient_oracle(e), x, 0.1, 200, 42, 5)
        for _ in range(2):
            got = sampled_clarke_dd(as_evaluator(e), x, d, samples=200)
            assert _hexes(got.quotients) == _hexes(want_dd[1]) and got.value == want_dd[0]
            ss = gradient_sampling(as_gradient_oracle(e), x, samples=200)
            assert _hexes(ss.set.components[0].vertices) == _hexes(want_gs[0])
            assert memo._DRAWS == {} and memo._draws_held == 0

    def test_threads_get_the_same_answers(self, memo):
        import sys
        import threading

        from nonsmooth.expr import parse_expr

        text, x, d = MEMO_CASES[2]
        e = parse_expr(text)

        def answers():
            out = []
            for seed in range(6):
                dd = sampled_clarke_dd(as_evaluator(e), x, d, samples=300, seed=seed)
                ss = gradient_sampling(as_gradient_oracle(e), x, samples=300, seed=seed)
                out.append((_hexes(dd.quotients), _hexes(ss.set.components[0].vertices), ss.notes))
            return out

        results = [None] * 4
        start = threading.Barrier(4)

        def run(i):
            start.wait()
            results[i] = answers()

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch often, so that misses on one key race
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert results[0] is not None and all(r == results[0] for r in results)
        assert _held(memo) == memo._draws_held and len(memo._DRAWS) == 6 * 2 * 5
        assert answers() == results[0]  # warm, in this thread

    def test_only_the_helper_makes_rngs(self):
        import ast
        import inspect

        from nonsmooth import sampled

        tree = ast.parse(inspect.getsource(sampled))
        owners = [
            top.name
            for top in tree.body
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "make_rng"
        ]
        assert owners == ["_draws"]


class TestArgumentChecks:
    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_bad_radius(self, memo, radius):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            sampled_clarke_dd(as_evaluator(Abs(Var(0))), [0.0], [1.0], radius=radius)
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            gradient_sampling(as_gradient_oracle(Abs(Var(0))), [0.0], radius=radius)
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            sampled_c_stationarity(as_gradient_oracle(Abs(Var(0))), [0.0], radius=radius)
        assert memo._DRAWS == {}

    @pytest.mark.parametrize("tol", [-1.0, -1e-12, np.nan, np.inf])
    def test_bad_tol(self, memo, tol):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            sampled_c_stationarity(as_gradient_oracle(Abs(Var(0))), [0.0], tol=tol)
        assert memo._DRAWS == {}
