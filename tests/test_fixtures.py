"""The reference corpus and its loader in helpers.py."""

import pytest

from helpers import F1, load_corpus
from oddpower.bipoly import BiPoly
from oddpower.engine import build_poly, derivative_sum

EXPECTED_NAMES = [
    "f_1",
    "f_2",
    "f_3",
    "df1_dx",
    "df1_dz",
    "sum_1",
    "df2_dx",
    "df2_dz",
    "sum_2",
    "df3_dx",
    "df3_dz",
    "sum_3",
    "diag_sum_1",
    "diag_sum_2",
    "diag_sum_3",
]


def test_bundled_corpus_names_in_order():
    assert list(load_corpus()) == EXPECTED_NAMES


def test_bundled_corpus_spot_checks():
    corpus = load_corpus()
    assert corpus["f_1"] == F1
    assert corpus["sum_2"] == derivative_sum(2)
    assert corpus["diag_sum_3"] == BiPoly.monomial(6, 0, 7)
    assert corpus["df3_dx"] == build_poly(3).diff("x")


def test_fixture_fields():
    for name, poly in load_corpus().items():
        assert name
        assert isinstance(poly, BiPoly) and poly


def test_parse_skips_blanks_and_comments():
    lines = [
        "# a comment",
        "",
        '"p" "somewhere" := x + z',
        "   ",
        "  # indented comment",
        '"q" "elsewhere" := 2 z^2',
    ]
    corpus = load_corpus(lines)
    assert list(corpus) == ["p", "q"]
    assert corpus["p"] == BiPoly({(1, 0): 1, (0, 1): 1})
    assert corpus["q"] == BiPoly({(0, 2): 2})


def test_parse_rejects_malformed_line():
    with pytest.raises(ValueError, match="line 2.*malformed"):
        load_corpus(['"ok" "ref" := x', "not a fixture"])


def test_parse_rejects_duplicate_names():
    lines = ['"p" "a" := x', '"p" "b" := z']
    with pytest.raises(ValueError, match="line 2.*duplicate"):
        load_corpus(lines)


def test_parse_reports_bad_expression_with_location():
    with pytest.raises(ValueError, match="line 1.*'p'"):
        load_corpus(['"p" "ref" := x +'])
