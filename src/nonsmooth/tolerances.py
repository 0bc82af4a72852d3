"""Every numeric tolerance of the package, each named once with its reason.

A relative tolerance is multiplied by :func:`rel_scale` of the data it
compares, max(1, largest |entry|): it acts as an absolute tolerance on data
of unit size and below, and as a relative one above.  A comment says
"absolute" where the bound is not scaled.  Caps on sizes (stacks, steps,
selections) are not tolerances; they stay beside the code they bound.
"""

from __future__ import annotations

import numpy as np


def rel_scale(*arrays) -> float:
    """max(1, largest |entry| of ``arrays``).  1.0 comes first, so an array
    whose largest entry is NaN does not raise the scale."""
    return max(1.0, *[float(np.abs(a).max()) for a in arrays])


def _check_tol(tol) -> None:
    """Refuse a caller's stationarity tolerance that is not a finite number >= 0."""
    if not (tol >= 0 and np.isfinite(tol)):
        raise ValueError(f"tol must be >= 0 and finite, got {tol}")


# --- polyhedra: the dense simplex ------------------------------------------
# absolute on tableau entries and reduced costs, which are zero below it;
# phase 1 calls an LP infeasible when its least total violation exceeds
# PIVOT_TOL * rel_scale(tableau)
PIVOT_TOL = 1e-9

# --- polyhedra: vertex enumeration and hulls --------------------------------
# absolute on |det| of an n-subset of halfspaces: at or below it the subset
# fixes no unique point, and a solve of it would return rounding noise
SINGULAR_BASIS_TOL = 1e-12
# relative to rel_scale(b, A): a basic solution is a vertex when every row
# holds to this; a near-singular basis solve loses digits, so it sits above
# PIVOT_TOL
VERTEX_FEAS_TOL = 1e-8
# relative to the largest |coordinate|: points on one cell of this grid are
# one point, far below every feasibility tolerance, far above solve rounding
DEDUPE_GRID = 1e-12
# relative to rel_scale(points) squared (a cross product is quadratic in
# coordinates): a turn of the 2-D monotone chain at or below it is collinear
HULL_TURN_TOL = 1e-12
# absolute: 1-D intervals whose gap is at most this merge, so two ends equal
# up to one rounding of a bound touch
INTERVAL_MERGE_GAP = 1e-15

# --- polyhedra: the nearest-point search and membership ---------------------
# relative: Wolfe's search stops when no point or ray would bring the nearest
# point closer to p by more than NEAREST_STOP * scale (the gap bounds the
# distance from below): far below MEMBERSHIP_TOL, far above the rounding of a
# product of two rows
NEAREST_STOP = 1e-12
# relative to rel_scale of the point (and a polytope's vertices): the default
# of contains(), which conv_hull's pruning and the limiting set's subset test
# also apply; the bound of the LP membership test that the nearest-point rule
# replaced, kept so that no answer moved
MEMBERSHIP_TOL = 1e-9

# --- polyhedra: closed-form cone generators (rows at unit length) -----------
# absolute: a normal whose largest |entry| is at most this is the zero row,
# dropped before scaling to unit length
ZERO_NORMAL_TOL = 1e-14
# absolute on unit rows: a cross product, triple product or singular value at
# or below this is zero (rows of lower rank), and two generators within it
# are one
NULL_VECTOR_TOL = 1e-9
# absolute on unit rows: a candidate generator is kept when every row is at
# least -CONE_SIGN_TOL on it
CONE_SIGN_TOL = 1e-10

# --- subdiff: cells of d -> f'(x, d) ----------------------------------------
# relative to the tangents compared: tangents along d count as tied when the
# pattern at x + t d is read off, and a unit cell generator lies on a face
# when a unit row is this small on it.  The directions are sums of computed
# generators, so tangents equal in exact arithmetic differ by rounding
TANGENT_TIE_RTOL = 1e-9
# absolute: a branch-dominance row of norm at most this is vacuous (two
# branches with equal gradients), not a face of the cell
VACUOUS_ROW_TOL = 1e-13
# relative to the sum d of a cell's generators: the cell has interior when
# min(R d) >= ESSENTIAL_MARGIN * |d|_inf, well above the rounding of unit rows
ESSENTIAL_MARGIN = 1e-7
# decimals: two selections whose gradient and unit rows agree to this many
# decimals are one cell: the later one is skipped
CELL_KEY_DECIMALS = 12
# decimals: two limiting components whose unit-scale vertices agree to this
# many decimals are one (a key; coarser than the cells' own)
COMPONENT_KEY_DECIMALS = 10
# absolute on 1-D one-sided slopes: the Frechet interval [left, right] is
# inverted (empty) only when left exceeds right by more than this
SLOPE_ORDER_TOL = 1e-12

# --- subdiff: convex-analysis catalog ----------------------------------------
# relative to max(1, |max value|): a smooth function this close to the max of
# MaxOfSmooth is active
SMOOTH_TIE_RTOL = 1e-12
# relative to rel_scale(M): eigmax_subdiff takes M as symmetric when
# ||M - M^T|| is at most this
SYMMETRY_RTOL = 1e-10
# relative to max(1, |largest eigenvalue|): eigenvalues this close to it span
# the top eigenspace (eigh's rounding is far below)
EIG_TIE_RTOL = 1e-9
# absolute on projection residual, trace and eigenvalues: the membership and
# extreme-point tests of EigmaxSubdiff
EIG_MEMBER_TOL = 1e-8
# normal_cone: a halfspace with slack at least -ACTIVE_TOL * rel_scale(x)
# holds and one with slack at most that is active; a ball's boundary is
# within ACTIVE_TOL, absolute
ACTIVE_TOL = 1e-9

# --- stationarity ------------------------------------------------------------
# the default stationarity tolerance of classify (and the CLI's --tol) and of
# convex_optimality_check: f'(x, .) >= -tol on the unit box, 0 within tol of
# the sets
STATIONARITY_TOL = 1e-8
# the LSPAR d-stationarity check and MM's stopping test: min over the unit box
# of f'(W; .) >= -LSPAR_DSTAT_TOL, and by default the branch-activity
# tolerance; MM's iterates come from ridge solves, not exact arithmetic
LSPAR_DSTAT_TOL = 1e-6
# absolute: two 1-D one-sided slopes within this are a tie for the sweep's
# minimizer
SLOPE_TIE_TOL = 1e-15
# absolute: minima of f'(x, .) over two cells, or of two LSPAR selections,
# within this are one minimum, and their minimizers are pooled
MIN_TIE_TOL = 1e-12
# absolute: a box vertex within this of a cell's minimum lies on the
# minimizing face
FACE_TOL = 1e-10
# decimals: witnesses are ordered lexicographically on entries rounded to
# this many, so that rounding does not pick among equal witnesses
WITNESS_KEY_DECIMALS = 12

# --- solvers -----------------------------------------------------------------
# absolute: Dykstra's projection ends when every row holds to DYKSTRA_FEAS_TOL
# and no coordinate moved more than DYKSTRA_MOVE_TOL in a sweep
DYKSTRA_FEAS_TOL = 1e-12
DYKSTRA_MOVE_TOL = 1e-13
# absolute: at its sweep cap Dykstra's projection is still accepted when every
# row holds to this; so every projected iterate is feasible to it
PROJECTION_TOL = 1e-9
# relative to max(1, ||rhs||): an LU solve is backward stable, so a larger
# normal-equations residual means a numerically singular block (a
# rank-deficient Gram matrix with a vanishing ridge c), not rounding
NORMAL_EQ_RTOL = 1e-10
# absolute: MM's activity radius eps starts no lower than this, so a target
# of mean |y| = 0 still has a positive radius
MM_EPS_FLOOR = 1e-12

# --- sampled -----------------------------------------------------------------
# absolute: fd_dir_deriv flags NON_CONVERGENT when its last five difference
# quotients spread by more than this
FD_OSC_TOL = 1e-7
