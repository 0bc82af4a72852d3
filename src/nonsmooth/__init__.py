"""Non-smooth analysis toolkit.

Exact directional derivatives and Bouligand/Clarke/Frechet/limiting
subdifferentials for piecewise-affine and piecewise linear-quadratic
expressions, numeric sampling oracles for general locally Lipschitz
functions, d-/l-/C-stationarity classification with certificates, and
subgradient/majorization-minimization solvers with experiment harnesses.
"""

from .expr import (
    Abs,
    ActivePattern,
    Affine,
    Builtin1D,
    Const,
    Expr,
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
    vmin,
    vsum,
)
from .polyhedra import (
    Ball,
    Box,
    Cone,
    HPolyhedron,
    SetUnion,
    VPolytope,
    conv_hull,
    contains,
    lp_solve,
    set_distance,
    support_value,
)
from .sampled import as_evaluator, as_gradient_oracle, fd_dir_deriv, gradient_sampling, sampled_clarke_dd
from .solvers import (
    Constant,
    Diminishing,
    Geometric,
    MMParams,
    Polyak,
    SubgradOracle,
    mm_lspar,
    oracle_from_expr,
    projected_subgradient,
    subgradient_method,
)
from .stationarity import (
    StationarityReport,
    classify,
    convex_optimality_check,
    lspar_d_stationarity_check,
)
from .subdiff import (
    AffineCompose,
    L1Norm,
    L2Norm,
    MaxOfSmooth,
    ScaledSum,
    SubdiffKind,
    SubdiffSet,
    bouligand,
    clarke,
    clarke_dir_deriv,
    convex_catalog_subdiff,
    dir_deriv,
    eigmax_subdiff,
    frechet,
    limiting,
    normal_cone,
    weakly_convex_subdiff,
)

__version__ = "0.1.0"
