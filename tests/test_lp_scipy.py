"""Differential test of the dense simplex against scipy's HiGHS.

``lp_solve`` stays the core of ``lspar_d_stationarity_check`` and the
tests' reference for the essential-cell test; here its status and optimal value are
compared with ``scipy.optimize.linprog`` on random feasible, infeasible and
unbounded LPs, degenerate vertices and Beale's cycling example.  Test-only:
the module is skipped where scipy is missing.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonsmooth.polyhedra import lp_solve

linprog = pytest.importorskip("scipy.optimize").linprog

STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def compare(c, A_ub, b_ub, A_eq=None, b_eq=None):
    """Both solvers agree on the status and, when optimal, on the value."""
    ours = lp_solve(c, A_ub, b_ub, A_eq, b_eq)
    # HiGHS's presolve reports some feasible unbounded LPs as infeasible
    # (see test_unbounded_along_a_tied_pair), so the reference runs without
    # it; without it, HiGHS leaves some LPs with an all-zero row at model
    # status Unknown (scipy status 4), and there presolve decides them
    for presolve in (False, True):
        ref = linprog(
            c, A_ub, b_ub, A_eq, b_eq, bounds=(None, None), method="highs", options={"presolve": presolve}
        )
        if ref.status in STATUS:
            break
    assert ref.status in STATUS, ref.message
    assert ours.status == STATUS[ref.status]
    if ours.optimal:
        assert ours.value == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)
        A = np.atleast_2d(np.asarray(A_ub, float))
        assert np.all(A @ ours.x - np.asarray(b_ub, float) <= 1e-9)
    return ours


@st.composite
def integer_lps(draw):
    """Integer LPs in 1-4 free variables.  ``kind`` "feasible" puts a known
    point inside every row, "infeasible" adds a contradictory pair of rows,
    "boxed" adds a box so the LP is bounded, "open" adds nothing, so many
    are unbounded."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 7))
    ints = st.integers(-3, 3)
    A = np.array(draw(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=m, max_size=m)), float)
    c = np.array(draw(st.lists(ints, min_size=n, max_size=n)), float)
    kind = draw(st.sampled_from(["feasible", "infeasible", "boxed", "open"]))
    x0 = np.array(draw(st.lists(ints, min_size=n, max_size=n)), float)
    slack = np.array(draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)), float)
    b = A @ x0 + slack  # x0 is feasible; a zero slack makes its row tight
    if kind == "infeasible":
        A = np.vstack([A, A[:1], -A[:1]])
        b = np.concatenate([b, [0.0, -1.0]])  # a.x <= 0 and a.x >= 1
    if kind in ("feasible", "boxed"):
        eye = np.eye(n)
        A = np.vstack([A, eye, -eye])
        b = np.concatenate([b, x0 + 4, 4 - x0])
    return c, A, b


class TestAgainstLinprog:
    @given(integer_lps())
    @settings(max_examples=300, deadline=None)
    # unbounded, with zero rows: HiGHS without presolve stops at status Unknown
    @example(
        (
            np.array([0.0, -2.0, 3.0]),
            np.array(
                [
                    [0.0, 1.0, -2.0],
                    [0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0],
                    [0.0, 0.0, -3.0],
                    [0.0, -1.0, -2.0],
                    [0.0, -2.0, 2.0],
                    [0.0, 0.0, 0.0],
                ]
            ),
            np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
        )
    )
    def test_random_lps(self, lp):
        compare(*lp)

    def test_infeasible(self):
        assert compare([1.0, 1.0], [[1.0, 0.0], [-1.0, 0.0]], [0.0, -1.0]).status == "infeasible"

    def test_unbounded(self):
        assert compare([-1.0, 0.0], [[0.0, 1.0], [-1.0, 1.0]], [1.0, 1.0]).status == "unbounded"

    def test_unbounded_along_a_tied_pair(self):
        # x = 0 is feasible and x = t (1, 0, 0, 1) is feasible for every t,
        # so the LP is unbounded; HiGHS with presolve calls it infeasible
        A = np.zeros((7, 4))
        A[4] = [1.0, -1.0, 0.0, -1.0]
        A[6] = [-1.0, 1.0, 0.0, 1.0]
        b = np.zeros(7)
        b[6] = 1.0
        assert compare([0.0, 0.0, 0.0, -1.0], A, b).status == "unbounded"

    def test_equality_rows(self):
        A = [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]
        assert compare([1.0, 2.0, 1.0], A, [0.0, 0.0], [[1.0, 1.0, 1.0]], [3.0]).value == pytest.approx(3.0)
        assert compare([-1.0, 0.0, 0.0], A, [0.0, 0.0], [[1.0, 1.0, 1.0]], [3.0]).status == "unbounded"
        r = compare([1.0, 2.0, -1.0], -np.eye(3), np.zeros(3), [[1.0, 1.0, 1.0]], [3.0])
        assert r.value == pytest.approx(-3.0)

    @pytest.mark.parametrize("k", [4, 6, 8])
    def test_degenerate_apex(self, k):
        # a pyramid whose apex lies on k facets, minimized at the apex
        t = 2 * np.pi * np.arange(k) / k
        A = np.column_stack([np.cos(t), np.sin(t), np.ones(k)])
        A = np.vstack([A, [0.0, 0.0, -1.0]])
        b = np.concatenate([np.ones(k), [5.0]])
        r = compare([0.0, 0.0, -1.0], A, b)
        assert r.value == pytest.approx(-1.0)
        np.testing.assert_allclose(r.x, [0.0, 0.0, 1.0], atol=1e-9)

    def test_degenerate_with_redundant_copies(self):
        # the optimal vertex (1, 1) is cut out by five rows, three repeated
        A = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 2.0], [1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]
        b = [1.0, 1.0, 2.0, 4.0, 1.0, 0.0, 0.0]
        assert compare([-1.0, -1.0], A, b).value == pytest.approx(-2.0)

    def test_beale_cycling_example(self):
        # Beale (1955): the textbook rule cycles on it; Bland's rule does not.
        # min -3/4 x4 + 20 x5 - 1/2 x6 + 6 x7 over the nonnegative orthant
        c = [-0.75, 20.0, -0.5, 6.0]
        A = [
            [0.25, -8.0, -1.0, 9.0],
            [0.5, -12.0, -0.5, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
        A_ub = np.vstack([A, -np.eye(4)])
        b_ub = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        r = compare(c, A_ub, b_ub)
        assert r.value == pytest.approx(-1.25)
