"""Cache-key guard: every ``lru_cache`` in ``src/oddpower/`` is typed.

An untyped cache keys 2, 2.0 and True alike (they hash and compare equal), so
a float or bool order would be handed a cached int entry, or refused, by
whichever call came first.  ``typed=True`` keeps each such call off the int
entries, where the order check refuses it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "oddpower"


def _cache_decorators() -> list[tuple[str, ast.expr]]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("lru_cache", "cache"):
                    found.append((f"{path.name}:{node.name}", decorator))
    return found


def _typed(decorator: ast.expr) -> bool:
    return isinstance(decorator, ast.Call) and any(
        keyword.arg == "typed"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is True
        for keyword in decorator.keywords
    )


def test_every_lru_cache_is_typed():
    decorators = _cache_decorators()
    assert len(decorators) >= 6, "cached layers not found; is the package path right?"
    assert [where for where, decorator in decorators if not _typed(decorator)] == []
