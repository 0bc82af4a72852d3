"""Every tolerance of the package is named once, in nonsmooth.tolerances."""

import ast
import inspect
import math
import pathlib

import numpy as np
import pytest

import nonsmooth
from nonsmooth import polyhedra, sampled, solvers, subdiff
from nonsmooth.tolerances import rel_scale

# (file, owner, value, reason) of the small literals that are not tolerances;
# owner None allows every site of the file
ALLOWED = [
    ("gallery.py", None, None, "the worked examples' expected values, compared as tests compare"),
    ("experiments.py", "fit_log_linear", 1e-300, "a floor that keeps log10 finite"),
    ("sampled.py", "_draws", 1e-300, "a floor under a norm before dividing by it"),
    ("experiments.py", "_write_fig5_svg", 1e-16, "a floor that keeps 0 on fig5's log axis"),
    ("experiments.py", "gen_robust_instance", 1e-12, "a floor under a norm before dividing by it"),
    ("solvers.py", "MMParams.c_min", 1e-9, "a frozen MM parameter: the least proximal weight"),
    ("solvers.py", "MMParams.eta", 1e-4, "a frozen MM parameter: the sufficient-decrease weight"),
]


def _decimals(call):
    """The rounding-decimals argument of a ``round``/``np.round``/
    ``np.around`` call or a ``.round`` method call when it is a literal;
    None otherwise."""
    f = call.func
    if isinstance(f, ast.Name) and f.id == "round":
        pos = 1
    elif isinstance(f, ast.Attribute) and f.attr in ("round", "around"):
        pos = 1 if isinstance(f.value, ast.Name) and f.value.id in ("np", "numpy") else 0
    else:
        return None
    given = [k.value for k in call.keywords if k.arg in ("decimals", "ndigits")]
    arg = given[0] if given else call.args[pos] if len(call.args) > pos else None
    if isinstance(arg, ast.UnaryOp):
        arg = arg.operand
    return arg if isinstance(arg, ast.Constant) else None


def _sites(tree) -> list:
    """(owner, line, value) of every float literal with 0 < |value| < 1e-3,
    and (owner, line, "decimals") of every literal rounding-decimals
    argument; the owner is the enclosing top-level function,
    ``Class.method`` or ``Class.field``."""
    owned = []
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for m in top.body:
                name = getattr(m, "name", None) or getattr(getattr(m, "target", None), "id", "")
                owned.append((f"{top.name}.{name}", m))
        else:
            owned.append((getattr(top, "name", "<module>"), top))
    found = []
    for owner, root in owned:
        for n in ast.walk(root):
            if isinstance(n, ast.Constant) and type(n.value) is float and 0 < abs(n.value) < 1e-3:
                found.append((owner, n.lineno, n.value))
            elif isinstance(n, ast.Call) and _decimals(n) is not None:
                found.append((owner, n.lineno, "decimals"))
    return found


def _allowed(name, owner, value):
    return [
        entry
        for entry in ALLOWED
        if entry[0] == name and entry[1] in (None, owner) and entry[2] in (None, value)
    ]


def test_tolerances_live_in_one_module():
    stray, used = [], set()
    for path in sorted(pathlib.Path(nonsmooth.__file__).parent.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        for owner, line, value in _sites(ast.parse(path.read_text())):
            hits = _allowed(path.name, owner, value)
            used.update(entry[:3] for entry in hits)
            if not hits:
                stray.append(f"{path.name}:{line} {owner}: {value}")
    assert stray == [], "name these in nonsmooth.tolerances"
    assert used == {entry[:3] for entry in ALLOWED}, "an allowlist entry matches no site"


def test_tolerance_guard_catches_planted_sites():
    tree = ast.parse(
        "def _within(V, R, p, tol):\n"
        "    return dist <= 1e-9 * scale\n"
        "class Cells:\n"
        "    def key(self, g):\n"
        "        return np.round(g, 12), round(t, 3), g.round(4), np.around(g, decimals=2)\n"
        "    margin: float = -1e-7\n"
        "def fine(x):\n"
        "    return np.round(x), round(x), np.round(x, KEY_DECIMALS), 0.5 * x, 1e-3, 12\n"
    )
    assert [(owner, value) for owner, _, value in _sites(tree)] == [
        ("_within", 1e-9),
        ("Cells.key", "decimals"),
        ("Cells.key", "decimals"),
        ("Cells.key", "decimals"),
        ("Cells.key", "decimals"),
        ("Cells.margin", 1e-7),
    ]


@pytest.mark.parametrize(
    "arrays, scale",
    [
        (([0.5, -0.25],), 1.0),
        (([-3.0, 2.0],), 3.0),
        (([2.0], [[-4.0]]), 4.0),
        (([math.nan],), 1.0),  # NaN does not raise the scale
        (([math.nan], [4.0]), 4.0),
        (([2.0], [math.nan]), 2.0),
    ],
)
def test_rel_scale(arrays, scale):
    assert rel_scale(*map(np.asarray, arrays)) == scale


@pytest.mark.parametrize(
    "fn, knob",
    [
        (polyhedra.lp_solve, "tol"),
        (polyhedra.conv_hull, "tol"),
        (polyhedra.vertex_enumeration, "tol"),
        (subdiff.normal_cone, "tol"),
        (subdiff.eigmax_subdiff, "tol"),
        (subdiff.EigmaxSubdiff.contains, "tol"),
        (subdiff.EigmaxSubdiff.is_extreme_point, "tol"),
        (solvers.project, "max_sweeps"),
        (sampled.fd_dir_deriv, "osc_tol"),
    ],
)
def test_no_knob_for_a_fixed_tolerance(fn, knob):
    assert knob not in inspect.signature(fn).parameters
