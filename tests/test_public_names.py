"""Every public name and every tolerance of the package has a reader.

A name that ``nonsmooth/__init__.py`` re-exports must be read by a module of
the package other than the one that defines it, and every constant of
``nonsmooth.tolerances`` by some other module; otherwise it is code that only
its own tests reach.  A read is a Name, an Attribute or an ImportFrom node.
"""

import ast
import pathlib

import nonsmooth

PKG = pathlib.Path(nonsmooth.__file__).parent

# exports with no reader in the package, each with the reason it stays
ALLOWED = {
    "ActivePattern": "the tests' independent route to the engine's active pattern",
    "active_pattern": "the tests' independent route to the engine's active pattern",
    "StationarityReport": "the return type of classify",
    "ScaledSum": "README's convex catalog",
    "AffineCompose": "README's convex catalog",
    "MaxOfSmooth": "README's convex catalog",
    "eigmax_subdiff": "README's convex catalog",
    "weakly_convex_subdiff": "README's convex catalog",
    "convex_optimality_check": "the paper's convex optimality test, 0 in the subdifferential plus N_C(x)",
    "sampled_clarke_dd": "one of README's three sampling oracles, for trees outside the exact fragments",
}


def _reads(tree) -> set:
    """The names a module reads: Name ids, Attribute attrs, ImportFrom names."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def _unread_exports(modules: dict) -> list:
    """Names re-exported by ``__init__`` that no module other than
    ``__init__`` and the defining one reads; ``modules`` maps module names
    to parsed trees."""
    exports = [
        (a.asname or a.name, node.module)
        for node in modules["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    ]
    reads = {name: _reads(tree) for name, tree in modules.items()}
    return sorted(
        name
        for name, home in exports
        if not any(name in r for mod, r in reads.items() if mod not in ("__init__", home))
    )


def _unread_constants(modules: dict) -> list:
    """Module-level constants of ``tolerances`` that no other module reads."""
    consts = [
        t.id
        for node in modules["tolerances"].body
        if isinstance(node, ast.Assign)
        for t in node.targets
        if isinstance(t, ast.Name)
    ]
    reads = set().union(*(_reads(tree) for mod, tree in modules.items() if mod != "tolerances"))
    return sorted(c for c in consts if c not in reads)


def _package() -> dict:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PKG.glob("*.py"))}


def test_every_export_has_a_reader():
    unread = _unread_exports(_package())
    assert [n for n in unread if n not in ALLOWED] == [], "delete these or give them a caller"
    assert sorted(ALLOWED) == unread, "an allowlist entry has a reader or is not exported"


def test_every_tolerance_is_read():
    assert _unread_constants(_package()) == []


def test_guards_catch_planted_sites():
    modules = {
        "__init__": ast.parse("from .geo import used, unused, via_attr, imported\n"),
        "geo": ast.parse("def used(): pass\ndef unused(): return unused\n"),
        "app": ast.parse("from .geo import imported\nused()\ngeo.via_attr\n"),
        "tolerances": ast.parse("READ = 1e-9\nUNREAD = 1e-8\ndef rel_scale(): pass\n"),
    }
    modules["app"].body += ast.parse("x = READ\n").body
    assert _unread_exports(modules) == ["unused"]
    assert _unread_constants(modules) == ["UNREAD"]


# Which trees and dimensions the exact engine answers is one table,
# ``subdiff._SUPPORT``, read by the one support check, ``_refusal``.  In the
# modules it gates, no other code reads a tree's fragment, so no second gate
# can grow beside the table.
SUPPORT_CHECK = {"subdiff": ("_SUPPORT", "_refusal"), "stationarity": ()}
FRAGMENT_READS = {"classify_fragment", "FragmentClass", "fragment"}


def _fragment_reads(tree, allowed: tuple) -> list:
    """Sorted (owner, line) of each read of ``classify_fragment``,
    ``FragmentClass`` or a ``.fragment`` attribute outside the owners
    ``allowed``.  The owner is the enclosing top-level function or class,
    the name a top-level assignment binds, or "<module>"."""
    out = []
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            owner = top.name
        elif isinstance(top, ast.Assign) and isinstance(top.targets[0], ast.Name):
            owner = top.targets[0].id
        else:
            owner = "<module>"
        if owner in allowed:
            continue
        for n in ast.walk(top):
            name = n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else None
            if name in FRAGMENT_READS:
                out.append((owner, n.lineno))
    return sorted(out)


def test_fragment_gates_live_in_the_support_table():
    modules = _package()
    for mod, allowed in SUPPORT_CHECK.items():
        assert _fragment_reads(modules[mod], allowed) == [], f"{mod}: ask subdiff._refusal instead"


def test_fragment_guard_catches_planted_sites():
    tree = ast.parse(
        "from .expr import FragmentClass, classify_fragment\n"
        "TABLE = {'f': (FragmentClass.PA,)}\n"
        "def _refusal(e):\n"
        "    return classify_fragment(e) in TABLE['f']\n"
        "def gate(e, n):\n"
        "    return classify_fragment(e) is FragmentClass.PA and n <= 3\n"
        "class Oracle:\n"
        "    def answers(self, tape):\n"
        "        return tape.fragment\n"
        "PLQ = FragmentClass.PLQ\n"
        "print(FragmentClass)\n"
    )
    got = _fragment_reads(tree, ("TABLE", "_refusal"))
    assert got == [("<module>", 11), ("Oracle", 9), ("PLQ", 10), ("gate", 6), ("gate", 6)]


# A defaulted parameter of a public function or method, or a defaulted field
# of a public dataclass, must be set by some call in the package or in the
# benchmark's scripts; otherwise its default is the only value in use and it
# is a constant.  Calls match by the callee's last name (``f(...)``,
# ``mod.f(...)`` or ``obj.f(...)``), so a namesake can count as a setter and
# a call through another name (a dict entry, a local alias) counts for none.
BENCH = PKG.parents[1] / "perfbench"

# the experiment configs, whose every field but out_dir the CLI sets from a
# config key of the same name (``dataclasses.fields``); --out sets out_dir
CLI_KEYS = ("LsparExperimentConfig", "RecoveryConfig")

# defaulted parameters no call sets, each with the reason it stays
ALLOWED_PARAMS = {
    "Polyak.margin": "the CLI sets it through _SCHEDULES: --schedule polyak:f_star,margin",
    "RecoveryConfig.out_dir": "the CLI sets it from --out through a local alias of the class",
    "sampled_clarke_dd.samples": "a sampling budget README documents for users",
    "sampled_clarke_dd.rungs": "a sampling budget README documents for users",
    "sampled_clarke_dd.radius": "a sampling argument README documents for users",
    "sampled_clarke_dd.seed": "a sampling argument README documents for users",
    "gradient_sampling.rungs": "a sampling budget README documents for users",
    "fd_dir_deriv.schedule": "a sampling budget README documents for users",
    "sampled_c_stationarity.samples": "a sampling budget README documents for users",
    "sampled_c_stationarity.radius": "a sampling argument README documents for users",
    "sampled_c_stationarity.seed": "a sampling argument README documents for users",
    "sampled_c_stationarity.tol": "the sampled C-test's tolerance; README documents its check",
    "lp_solve.A_eq": "the tests' independent reference route",
    "lp_solve.b_eq": "the tests' independent reference route",
    "active_pattern.tol": "the tests' independent reference route",
    "convex_optimality_check.tol": "the one stationarity tolerance a caller sets",
    "lspar_d_stationarity_check.tol": "the one stationarity tolerance a caller sets",
    "lspar_d_stationarity_check.act_tol": "compared with the exact engine at exact ties (act_tol = 0)",
    "lspar_d_stationarity_check.selection_cap": "compared with the exact engine at exact ties",
}


def _is_dataclass(cls) -> bool:
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in cls.decorator_list
    )


def _defaulted(modules: dict) -> dict:
    """``"owner.param"`` -> (callee name, positional index, param name) of
    every defaulted parameter of a public function or method and every
    defaulted field of a public dataclass."""
    out = {}

    def params(fn, skip: int):
        a = fn.args
        pos = a.posonlyargs + a.args
        for i, arg in enumerate(pos[len(pos) - len(a.defaults) :], len(pos) - len(a.defaults)):
            yield arg.arg, i - skip
        for arg, d in zip(a.kwonlyargs, a.kw_defaults):
            if d is not None:
                yield arg.arg, None

    for tree in modules.values():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name.startswith("_"):
                continue
            if isinstance(top, ast.FunctionDef):
                for p, i in params(top, 0):
                    out[f"{top.name}.{p}"] = (top.name, i, p)
            elif isinstance(top, ast.ClassDef):
                fields = [s for s in top.body if isinstance(s, ast.AnnAssign)]
                if _is_dataclass(top):
                    for i, f in enumerate(fields):
                        if f.value is not None:
                            out[f"{top.name}.{f.target.id}"] = (top.name, i, f.target.id)
                for m in top.body:
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                        static = any(getattr(d, "id", "") == "staticmethod" for d in m.decorator_list)
                        for p, i in params(m, 0 if static else 1):
                            out[f"{top.name}.{m.name}.{p}"] = (m.name, i, p)
    return out


def _set_params(modules: dict) -> set:
    """(callee name, positional index or param name) of every argument some
    call passes; ``"*"`` stands for every position (an unpacked sequence),
    ``"**"`` for every keyword."""
    out = set()
    for tree in modules.values():
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call):
                continue
            name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
            out.update((name, "*" if isinstance(a, ast.Starred) else i) for i, a in enumerate(n.args))
            out.update((name, k.arg or "**") for k in n.keywords)
    return out


def _unset_params(modules: dict, setters: dict, cli_keys: tuple = CLI_KEYS) -> list:
    """Defaulted parameters of ``modules`` that no call in ``setters`` sets;
    the fields but ``out_dir`` of the classes ``cli_keys`` names count as
    set."""
    given = _set_params(setters)

    def is_set(callee, i, p):
        if callee in cli_keys and p != "out_dir":
            return True
        by_position = i is not None and ((callee, i) in given or (callee, "*") in given)
        return by_position or (callee, p) in given or (callee, "**") in given

    return sorted(q for q, spec in _defaulted(modules).items() if not is_set(*spec))


def _setters() -> dict:
    mods = {f"bench.{p.stem}": ast.parse(p.read_text()) for p in sorted(BENCH.glob("*.py"))}
    return {**_package(), **mods}


def test_every_defaulted_parameter_has_a_setter():
    assert "fields" in _reads(_package()["cli"]), "CLI_KEYS holds only while the CLI reads the fields"
    unset = _unset_params(_package(), _setters())
    assert [q for q in unset if q not in ALLOWED_PARAMS] == [], "make these constants or set them"
    assert sorted(ALLOWED_PARAMS) == unset, "an allowlist entry is set by a call or does not exist"


def test_parameter_guard_catches_planted_sites():
    lib = ast.parse(
        "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
        "def g(a=1, b=2): pass\n"
        "def h(a=1): pass\n"
        "def _private(a=1): pass\n"
        "@dataclass(frozen=True)\n"
        "class Cfg:\n"
        "    x: int\n"
        "    y: int = 1\n"
        "    z: int = 2\n"
        "    w: int = 3\n"
        "    out_dir: str = None\n"
        "    def m(self, t=1, u=2): pass\n"
    )
    app = ast.parse(
        "f(0, 5, d=6)\n"
        "g(*args)\n"
        "mod.Cfg(0, 1)\n"
        "obj.m(u=1)\n"
        "mod.h(**kw)\n"
        "alias(d=1, e=1)\n"
    )
    modules = {"lib": lib}
    assert _unset_params(modules, {"lib": lib, "app": app}) == [
        "Cfg.m.t", "Cfg.out_dir", "Cfg.w", "Cfg.z", "f.c", "f.e"
    ]
    # a CLI config's fields count as set, but out_dir and its methods' parameters
    assert _unset_params(modules, {"app": app}, ("Cfg",)) == ["Cfg.m.t", "Cfg.out_dir", "f.c", "f.e"]
