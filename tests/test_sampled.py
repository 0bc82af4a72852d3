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
