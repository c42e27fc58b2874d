"""Cache guards: every ``lru_cache`` in ``src/oddpower/`` is typed and is
registered in ``engine._CACHES``.

An untyped cache keys 2, 2.0 and True alike (they hash and compare equal), so
a float or bool order would be handed a cached int entry, or refused, by
whichever call came first.  ``typed=True`` keeps each such call off the int
entries, where the order check refuses it.

``engine.clear_caches()`` clears exactly the caches in ``engine._CACHES``, so
a cache left out of that registry would keep its results across every
"clear all"; the registry must name each decorated function, and each entry
of ``KEPT_STATE``: kept state that is not an ``lru_cache`` but offers its
``cache_clear``, ``cache_info`` and ``__wrapped__``, named by the function it
wraps.
"""

import ast
from pathlib import Path

import oddpower.engine as engine

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "oddpower"

KEPT_STATE = [
    "_spell",  # bipoly: the one-slot memo of the last polynomial rendered
]


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


def test_every_lru_cache_is_registered():
    decorated = sorted(where.partition(":")[2] for where, _ in _cache_decorators())
    registered = sorted(cached.__wrapped__.__name__ for cached in engine._CACHES)
    assert registered == sorted(decorated + KEPT_STATE)
