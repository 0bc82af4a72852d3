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
