"""Dead-code guards for the package's names.

A private name (one leading underscore, not a dunder) defined at the top of a
module under ``src/oddpower/`` by ``def``, ``class`` or assignment must be
read somewhere in the package: as a name, as an attribute or in an import.
A public name listed in a module's ``__all__`` must exist in that module, so
a deletion cannot leave a stale export behind; it must be bound at import,
so that ``dir()`` lists it and ``help(oddpower)`` shows it; and it must have
a reader outside the tests: ``cli.py``, a file under ``oddbench/`` or
another package module (``__init__.py`` re-exports, it does not read).
Each public method of ``BiPoly`` (no leading underscore) must likewise be
read as an attribute in a package module or a file under ``oddbench/``.
The few names and methods kept for library callers alone are listed in
``KEPT`` with the reason for each.

Only ``bipoly.py`` knows how a ``BiPoly`` stores its numerators: no other
package module reads the attribute ``_den`` or ``_diags`` or imports
``_from_ints``, so a change of layout stays inside that one file.  Likewise
only ``rationals.py`` names ``_triangle_row`` or ``_tangents``, the
triangle state that ``bernoulli.cache_clear()`` drops, so no other module
can keep or reset it behind that clear.

An AST walk cannot tell who reads an operator (``a * b`` reads the same on
two ``int`` as on two ``BiPoly``), so the dunders of ``BiPoly`` are checked by
a census at run time: every method of the class is wrapped to count its
calls, then each CLI subcommand runs in each format, along with a ``verify``
failure row and the calls of one ``roundtrip`` request of the benchmark.
Every dunder must have run at least once, except the six in
``DUNDERS_KEPT``, each with its reason.  ``__add__`` is one of them, since
no subcommand adds two polynomials; its reason, that it is ``_add`` with
sign +1 and ``-`` is the same ``_add`` with -1, is checked too: the census
also wraps the module global ``bipoly._add`` and fails unless it ran.
"""

import ast
import functools
import importlib
import inspect
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import oddpower
import oddpower.bipoly as bipoly
import oddpower.engine as engine
from oddpower.bipoly import FORMATS, BiPoly
from oddpower.cli import main

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "oddpower"
BENCH = PACKAGE.parent.parent / "oddbench"

KEPT = {
    "MAX_DEGREE": "the parser's documented degree bound, which callers need to stay inside it",
    "IdentityReport": "the type check_derivative_identity returns; the benchmark reads its .holds",
    "PolyParseError": "the error parse_poly raises, which callers catch by name",
    "UnknownVariableError": "the error parse_poly raises for a name other than x or z",
}

DUNDERS_KEPT = {
    "__init__": "the constructor, BiPoly({...}), by which a library caller writes a polynomial",
    "__add__": (
        "the sum of two polynomials, for library callers and the tests' "
        "build_poly_from_conv_sums; it is _add with sign +1, and -, which every verify row "
        "runs, is the same _add with -1"
    ),
    "__eq__": "polynomial equality; with scalars through _lift, so that BiPoly() == 0 is True",
    "__hash__": "required because __eq__ is defined, which would otherwise make BiPoly unhashable",
    "__str__": "the plain render, and how print() shows a polynomial",
    "__repr__": "what the README's Library doctest prints for a polynomial",
}

# Each CLI subcommand in each of its formats, at small orders.
CENSUS_ARGV = [
    ["coeffs", "3"],
    ["coeffs", "3", "--format", "json"],
    *(["poly", "2", "--format", fmt] for fmt in FORMATS),
    *(["diff", "2", "--var", v, "--format", fmt] for v in ("x", "z", "both") for fmt in FORMATS),
    ["eval", "3", "--at", "-3/4"],
    ["verify", "--max-y", "3"],
    ["oracle", "3", "--max-n", "10"],
]
# Every cache the census's calls fill, the evaluation's kept diagonals too,
# so that no call reads an entry a corrupted row left behind.
CACHED = (
    oddpower.bernoulli,
    oddpower.power_sum,
    oddpower.conv_sum,
    oddpower.solve_coeffs,
    oddpower.build_poly,
    oddpower.derivative_sum,
    engine._derivative_diagonal,
)


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


LAYOUT_ATTRIBUTES = ("_den", "_diags")


def test_only_bipoly_reads_the_layout():
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in LAYOUT_ATTRIBUTES:
                readers.append(f"{path.name}:{node.lineno}: .{node.attr}")
            elif isinstance(node, ast.alias) and node.name == "_from_ints":
                readers.append(f"{path.name}:{node.lineno}: import _from_ints")
    inside = [r for r in readers if r.startswith("bipoly.py:")]
    assert inside, "no layout reads found; is the package path right?"
    assert [r for r in readers if r not in inside] == []


TRIANGLE_STATE = ("_triangle_row", "_tangents")


def test_only_rationals_names_the_triangle_state():
    # bernoulli's cache_clear drops the state, so only its module touches it.
    namers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if any(getattr(node, key, None) in TRIANGLE_STATE for key in ("id", "attr", "name"))
    ]
    inside = [n for n in namers if n.startswith("rationals.py:")]
    assert inside, "no triangle state found; is the package path right?"
    assert [n for n in namers if n not in inside] == []


def _modules() -> list:
    return [
        importlib.import_module(f"oddpower.{path.stem}") if path.stem != "__init__" else oddpower
        for path in sorted(PACKAGE.glob("*.py"))
    ]


# Prints each name in a module's __all__ that dir(module) leaves out, then
# each name in oddpower.__all__ that its pydoc page leaves out.
EXPORTS_PROBE = """
import importlib, pkgutil, pydoc
import oddpower
stems = [info.name for info in pkgutil.iter_modules(oddpower.__path__)]
for module in [oddpower, *(importlib.import_module(f"oddpower.{stem}") for stem in stems)]:
    for name in getattr(module, "__all__", ()):
        if name not in dir(module):
            print(f"{module.__name__}:{name}")
page = pydoc.render_doc(oddpower, renderer=pydoc.plaintext)
print(*(name for name in oddpower.__all__ if name not in page))
"""


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
    # Each export is an ordinary attribute, so dir() and help() show it.  A
    # fresh interpreter, since a lookup made earlier in this one could have
    # bound a name that a module only makes on demand.
    proc = subprocess.run(
        [sys.executable, "-c", EXPORTS_PROBE],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


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


def _counting(calls: Counter, name: str, function):
    @functools.wraps(function)
    def counted(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)

    return counted


def _clear_caches() -> None:
    for cached in CACHED:
        cached.cache_clear()


def test_bipoly_dunders_run(monkeypatch):
    # Wrap every method of the class body, aliases such as ``__radd__ =
    # __add__`` under their own name, so each name's calls are counted apart.
    calls: Counter = Counter()
    methods = []
    for name, value in vars(BiPoly).items():
        if inspect.isfunction(value):
            monkeypatch.setattr(BiPoly, name, _counting(calls, name, value))
        elif isinstance(value, classmethod):
            counted = _counting(calls, name, value.__func__)
            monkeypatch.setattr(BiPoly, name, classmethod(counted))
        else:
            continue
        methods.append(name)
    # __add__ and __sub__ look _add up as a module global at each call.
    monkeypatch.setattr(bipoly, "_add", _counting(calls, "_add", bipoly._add))
    dunders = [name for name in methods if name.startswith("__") and name.endswith("__")]
    assert "__add__" in dunders and "diff" in methods, "no BiPoly methods wrapped"
    assert DUNDERS_KEPT.keys() <= set(dunders), "a DUNDERS_KEPT method is no longer defined"

    _clear_caches()
    try:
        for argv in CENSUS_ARGV:
            assert main(argv) == 0, argv
        # The calls of one roundtrip request of oddbench/run.py, made directly.
        y = 5
        poly = oddpower.build_poly(y)
        texts = {fmt: oddpower.render(poly, fmt) for fmt in FORMATS}
        assert oddpower.parse_poly(texts["plain"]) == oddpower.build_poly(y)
        u = Fraction(-3, 7)
        assert oddpower.eval_derivative_at(y, u) == (2 * y + 1) * u ** (2 * y)
        # One verify FAIL row, as in test_cli::test_verify_failure_names_first_residual_term.
        real = oddpower.solve_coeffs
        row = real(2)
        corrupted = (row[0], row[1], row[2] + Fraction(1, 2))
        with monkeypatch.context() as patch:
            patch.setattr(engine, "solve_coeffs", lambda m: corrupted if m == 2 else real(m))
            _clear_caches()
            assert main(["verify", "--max-y", "2"]) == 1
    finally:
        _clear_caches()

    unrun = [name for name in dunders if not calls[name] and name not in DUNDERS_KEPT]
    assert unrun == [], f"BiPoly dunders that no subcommand or roundtrip call runs: {unrun}"
    assert calls["_add"], "_add, which __add__ shares with __sub__, never ran"
