"""Benchmark contract guard: what ``oddbench/run.py`` uses of the library
exists, without importing or changing the benchmark.

The harness clears the cache of each name in its ``CACHED`` tuple, calls the
package through a module object named ``lib``, and reads ``.holds`` of the
derivative check.  A simplification of the library that drops any of these
would break the benchmark's runs rather than any test, so they are read from
the harness source with ``ast`` and checked here.  The CLI output the
harness compares byte for byte with ``oddbench/expected.json`` is checked
here too, and so are the sha256 digests of the renders of ``f_24..f_64`` in
all three formats that ``roundtrip`` compares, so a change that breaks
either fails a test before it fails every benchmark pass.  The plain renders
``roundtrip`` parses back must parse to the polynomials they came from:
``parse_poly`` reads only the plain renderer's language, so a renderer change
that left it would fail every ``roundtrip`` request.
"""

import ast
import hashlib
import json
from pathlib import Path

import pytest

import oddpower
from oddpower.cli import main
from oddpower.bipoly import FORMATS

RUN_PY = Path(__file__).resolve().parent.parent / "oddbench" / "run.py"
EXPECTED = json.loads((RUN_PY.parent / "expected.json").read_text())
TREE = ast.parse(RUN_PY.read_text())


def _cached_names() -> tuple[str, ...]:
    for node in TREE.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CACHED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no CACHED tuple in oddbench/run.py")


CACHED = _cached_names()
LIB_NAMES = sorted(
    {
        node.attr
        for node in ast.walk(TREE)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "lib"
    }
)


def test_contract_found():
    assert "conv_sum" in CACHED and "build_poly" in CACHED
    assert "check_derivative_identity" in LIB_NAMES


@pytest.mark.parametrize("name", CACHED)
def test_cached_layer_is_exported_and_clearable(name):
    assert name in oddpower.__all__
    assert callable(getattr(oddpower, name).cache_clear)


@pytest.mark.parametrize("name", LIB_NAMES)
def test_harness_call_is_exported(name):
    assert name in oddpower.__all__


@pytest.mark.parametrize("y", range(6))
def test_checks_hold_for_small_orders(y):
    assert oddpower.check_derivative_identity(y).holds is True
    assert oddpower.check_diagonal(y) is True


@pytest.mark.parametrize(
    "argv,expected_out",
    [
        (["verify", "--max-y", "64"], "\n".join(EXPECTED["verify"]) + "\n"),
        (["coeffs", "0"], EXPECTED["coeffs_0"] + "\n"),
    ],
)
def test_cli_output_matches_benchmark_expectation(capsys, argv, expected_out):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, expected_out, "")


@pytest.mark.parametrize("y", range(24, 65))
def test_renders_match_benchmark_digests(y):
    digests = EXPECTED["renders"][str(y)]
    poly = oddpower.build_poly(y)
    rendered = {fmt: oddpower.render(poly, fmt).encode() for fmt in FORMATS}
    assert {fmt: hashlib.sha256(text).hexdigest() for fmt, text in rendered.items()} == digests


def test_plain_renders_parse_on_the_term_scan():
    for y in range(65):
        poly = oddpower.build_poly(y)
        assert oddpower.parse_poly(oddpower.render(poly, "plain")) == poly
