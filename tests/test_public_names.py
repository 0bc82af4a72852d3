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
