"""Dead-code guards for the package's names.

A private name (one leading underscore, not a dunder) defined at the top of a
module under ``src/oddpower/`` by ``def``, ``class`` or assignment must be
read somewhere in the package: as a name, as an attribute or in an import.
A public name listed in a module's ``__all__`` must exist in that module, so
a deletion cannot leave a stale export behind, and it must have a reader
outside the tests: ``cli.py``, a file under ``oddbench/`` or another package
module (``__init__.py`` re-exports, it does not read).  Each public method
of ``BiPoly`` (no leading underscore) must likewise be read as an attribute
in a package module or a file under ``oddbench/``.  The few names and
methods kept for library callers alone are listed in ``KEPT`` with the
reason for each.
"""

import ast
import importlib
from pathlib import Path

import oddpower

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "oddpower"
BENCH = PACKAGE.parent.parent / "oddbench"

KEPT = {
    "X": "ring generator; the README and the differential tests write polynomials in X and Z",
    "Z": "ring generator; the README and the differential tests write polynomials in X and Z",
    "MAX_DEGREE": "the parser's documented degree bound, which callers need to stay inside it",
    "IdentityReport": "the type check_derivative_identity returns; the benchmark reads its .holds",
    "PolyParseError": "the error parse_poly raises, which callers catch by name",
    "UnknownVariableError": "the error parse_poly raises for a name other than x or z",
    "BiPoly.zero": "the additive identity, the counterpart of BiPoly.one for library callers",
}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.extend(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return [name for name in names if _is_private(name)]


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_private_names_are_used():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*(_used(tree) for tree in trees.values()))
    defined = [(module, name) for module, tree in trees.items() for name in _defined(tree)]
    assert defined, "no private names found; is the package path right?"
    assert [f"{module}:{name}" for module, name in defined if name not in used] == []


def _modules() -> list:
    return [
        importlib.import_module(f"oddpower.{path.stem}") if path.stem != "__init__" else oddpower
        for path in sorted(PACKAGE.glob("*.py"))
    ]


def test_exports_resolve():
    modules = _modules()
    exporting = [module for module in modules if hasattr(module, "__all__")]
    assert oddpower in exporting and len(exporting) > 1, "no __all__ found; is the package path right?"
    missing = [
        f"{module.__name__}:{name}"
        for module in exporting
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert missing == []


def test_public_names_have_consumers():
    # oddpower.__all__ only re-exports names of the modules, checked here.
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    bench = [ast.parse(path.read_text()) for path in sorted(BENCH.glob("*.py"))]
    assert bench, "no benchmark sources found; is the oddbench path right?"
    outside = set().union(*map(_used, bench), _used(trees["cli"]))
    exported, unread = set(), []
    for module in _modules():
        if module is oddpower or not hasattr(module, "__all__"):
            continue
        stem = module.__name__.rpartition(".")[2]
        others = (tree for name, tree in trees.items() if name not in (stem, "__init__"))
        readers = outside.union(*map(_used, others))
        exported.update(module.__all__)
        unread += [f"{stem}:{name}" for name in module.__all__ if name not in readers | KEPT.keys()]
    assert not unread, f"exported, but only the tests read them: {unread}"
    kept_names = {name for name in KEPT if "." not in name}
    assert kept_names <= exported, "a KEPT name is no longer exported"


def test_bipoly_methods_have_readers():
    tree = ast.parse((PACKAGE / "bipoly.py").read_text())
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "BiPoly"]
    methods = [
        f"BiPoly.{node.name}"
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert "BiPoly.diff" in methods, "no BiPoly methods found; is the package path right?"
    sources = [*PACKAGE.glob("*.py"), *BENCH.glob("*.py")]
    read = {
        f"BiPoly.{node.attr}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert [method for method in methods if method not in read | KEPT.keys()] == []
    kept_methods = {name for name in KEPT if name.startswith("BiPoly.")}
    assert kept_methods <= set(methods), "a KEPT method is no longer defined"
