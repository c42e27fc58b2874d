"""Command line behavior: output bytes, exit codes, guard rails."""

import errno
import importlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tomllib
from pathlib import Path
from types import SimpleNamespace

import pytest

import oddpower.cli as cli
import oddpower.coefficients as coefficients
import oddpower.engine as engine
from oddpower.cli import main
from oddpower.coefficients import solve_coeffs
from oddpower.rationals import Rational


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- coeffs ---------------------------------------------------------------


def test_coeffs_plain(capsys):
    code, out, _ = run(capsys, "coeffs", "3")
    assert code == 0
    assert out == "1 -14 0 140\n"


def test_coeffs_json(capsys):
    code, out, _ = run(capsys, "coeffs", "3", "--format", "json")
    assert code == 0
    assert out == '{"m":3,"A":["1/1","-14/1","0/1","140/1"]}\n'


def test_coeffs_order_zero(capsys):
    code, out, _ = run(capsys, "coeffs", "0")
    assert code == 0
    assert out == "1\n"


# -- poly -----------------------------------------------------------------


def test_poly_plain(capsys):
    code, out, _ = run(capsys, "poly", "1")
    assert code == 0
    assert out == "3 x z - 3 z^2 + 3 x z^2 - 2 z^3\n"


def test_poly_latex(capsys):
    code, out, _ = run(capsys, "poly", "1", "--format", "latex")
    assert code == 0
    assert out == "3 x z - 3 z^{2} + 3 x z^{2} - 2 z^{3}\n"


def test_poly_json(capsys):
    code, out, _ = run(capsys, "poly", "0", "--format", "json")
    assert code == 0
    assert out == '{"terms":[{"dx":0,"dz":1,"c":"1/1"}]}\n'


def test_poly_json_is_valid_json(capsys):
    _, out, _ = run(capsys, "poly", "3", "--format", "json")
    payload = json.loads(out)
    assert len(payload["terms"]) == 17


# -- diff -----------------------------------------------------------------


def test_diff_x(capsys):
    code, out, _ = run(capsys, "diff", "1", "--var", "x")
    assert code == 0
    assert out == "3 z + 3 z^2\n"


def test_diff_z(capsys):
    code, out, _ = run(capsys, "diff", "1", "--var", "z")
    assert code == 0
    assert out == "3 x - 6 z + 6 x z - 6 z^2\n"


def test_diff_both(capsys):
    code, out, _ = run(capsys, "diff", "1", "--var", "both")
    assert code == 0
    assert out == "3 x - 3 z + 6 x z - 3 z^2\n"


def test_diff_requires_var(capsys):
    code, _, err = run(capsys, "diff", "1")
    assert code == 2
    assert "--var" in err


# -- eval -----------------------------------------------------------------


def test_eval_integer_point(capsys):
    code, out, _ = run(capsys, "eval", "2", "--at", "1")
    assert code == 0
    assert out == "5 = 5\n"


def test_eval_fractional_point(capsys):
    code, out, _ = run(capsys, "eval", "3", "--at", "1/2")
    assert code == 0
    assert out == "7/64 = 7/64\n"


def test_eval_negative_point(capsys):
    code, out, _ = run(capsys, "eval", "1", "--at=-2")
    assert code == 0
    assert out == "12 = 12\n"


@pytest.mark.parametrize("point", ["-3/4", "-2"])
def test_eval_negative_point_as_a_separate_argument(capsys, point):
    # argparse alone takes "-3/4" after "--at" for an option and exits 2.
    attached = run(capsys, "eval", "2", f"--at={point}")
    assert attached[0] == 0
    assert run(capsys, "eval", "2", "--at", point) == attached


def test_eval_rejects_decimals(capsys):
    code, _, err = run(capsys, "eval", "1", "--at", "1.5")
    assert code == 2
    assert "invalid rational" in err


def test_eval_rejects_zero_denominator(capsys):
    code, _, err = run(capsys, "eval", "1", "--at", "1/0")
    assert code == 2
    assert "invalid rational" in err


@pytest.mark.parametrize(
    "argv",
    [["coeffs", "1_0"], ["coeffs", "٣"], ["coeffs", " 3"], ["eval", "1", "--at", "1_0/3"]],
    ids=["underscore", "arabic-indic-digit", "space", "underscore-in-point"],
)
def test_numbers_are_an_optional_sign_and_ascii_digits(capsys, argv):
    # int() alone reads all four, as 10, 3, 3 and 10/3.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: ") and err.count("\n") == 2
    assert err.splitlines()[1].startswith("oddpower ") and ": error: argument " in err


DIGIT_LIMIT = sys.get_int_max_str_digits()  # 0: no limit


@pytest.mark.skipif(not 0 < DIGIT_LIMIT < 5000, reason="needs a digit limit below 5000")
@pytest.mark.parametrize("point", [f"{10**41}", f"1/{10**41}"])
def test_eval_value_past_the_digit_limit_is_a_usage_error(capsys, point):
    # Inside the order limit, but (2*64+1) u^128 has over 5000 digits: more
    # than str() of an int allows by default, and the limit stays in place.
    code, out, err = run(capsys, "eval", "64", "--at", point)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{DIGIT_LIMIT} digits" in err and "Traceback" not in err
    assert sys.get_int_max_str_digits() == DIGIT_LIMIT


@pytest.mark.skipif(DIGIT_LIMIT == 0, reason="needs a digit limit")
@pytest.mark.parametrize(
    "point",
    ["9" * (DIGIT_LIMIT + 700), "1/" + "9" * (DIGIT_LIMIT + 700)],
    ids=["integer", "denominator"],
)
def test_eval_point_past_the_digit_limit_is_a_usage_error(capsys, point):
    # A well-formed integer that int() refuses to read: the error names the
    # limit instead of calling the number invalid, and does not echo it back.
    code, out, err = run(capsys, "eval", "1", "--at", point)
    assert (code, out) == (2, "")
    assert err.startswith("usage: ") and err.count("\n") == 2
    assert f"error: argument --at: the number has more than {DIGIT_LIMIT} digits" in err
    assert "invalid rational" not in err and len(err) < 300


@pytest.mark.skipif(DIGIT_LIMIT == 0, reason="needs a digit limit")
@pytest.mark.parametrize(
    ("point", "reason"),
    [
        ("9" * (DIGIT_LIMIT + 700) + "/x", "invalid rational"),
        ("x/" + "9" * (DIGIT_LIMIT + 700), "invalid rational"),
        ("9" * (DIGIT_LIMIT + 700) + "/7", f"the number has more than {DIGIT_LIMIT} digits"),
        ("7/" + "9" * (DIGIT_LIMIT + 700), f"the number has more than {DIGIT_LIMIT} digits"),
    ],
    ids=["long-numerator-bad-denominator", "bad-numerator-long-denominator",
         "long-numerator", "long-denominator"],
)
def test_point_shape_is_checked_before_its_length(capsys, point, reason):
    # Either part of a/b that is not a number makes the point invalid, however
    # long the other part: the digit limit is named only for a real number.
    code, out, err = run(capsys, "eval", "1", "--at", point)
    assert (code, out) == (2, "")
    assert err.startswith("usage: ") and err.count("\n") == 2
    assert f"error: argument --at: {reason}" in err
    assert ("digits" in err) == ("digits" in reason)


@pytest.mark.skipif(DIGIT_LIMIT == 0, reason="needs a digit limit")
@pytest.mark.parametrize(
    "argv",
    [["coeffs"], ["verify", "--max-y"], ["oracle", "3", "--max-n"]],
    ids=["coeffs", "verify", "oracle-max-n"],
)
def test_order_past_the_digit_limit_is_a_usage_error(capsys, argv):
    # The order parser names the limit as --at's does, and does not echo the digits.
    code, out, err = run(capsys, *argv, "9" * (DIGIT_LIMIT + 700))
    assert (code, out) == (2, "")
    assert err.startswith("usage: ") and err.count("\n") == 2
    assert f"the number has more than {DIGIT_LIMIT} digits" in err
    assert "invalid integer" not in err and len(err) < 300


@pytest.mark.skipif(DIGIT_LIMIT == 0, reason="needs a digit limit")
@pytest.mark.parametrize(
    ("argv", "reason"),
    [
        (["coeffs", "1" * (DIGIT_LIMIT + 100) + "a"], "invalid integer"),
        (["coeffs", "\u0661" * (DIGIT_LIMIT + 700)], "invalid integer"),
        (["eval", "2", "--at", "1/xxxxxxxxxx" + "2" * (DIGIT_LIMIT + 100)], "invalid rational"),
    ],
    ids=["trailing-letter", "arabic-indic-digits", "letters-in-denominator"],
)
def test_long_text_that_is_not_a_number_is_invalid(capsys, argv, reason):
    # Only the ASCII digits count toward the limit, and only in a text that
    # is a number: anything else is malformed, however long, and raising the
    # limit would not make it read.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: ") and err.count("\n") == 2
    assert reason in err and "digits" not in err


@pytest.mark.skipif(DIGIT_LIMIT == 0, reason="needs a digit limit")
def test_eval_checks_the_value_is_printable_before_the_work(capsys, monkeypatch):
    # (2*64+1) u^128 for u = <600 nines>/7 has about 77,000 digits; the
    # digit-limit exit comes before any polynomial work.
    def unreached(y, u):
        raise AssertionError("eval_derivative_at ran for an unprintable value")

    monkeypatch.setattr(cli.engine, "eval_derivative_at", unreached)
    code, out, err = run(capsys, "eval", "64", "--at", "9" * 600 + "/7")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{DIGIT_LIMIT} digits" in err


@pytest.mark.parametrize(
    ("argv", "echo"),
    [
        (
            ["eval", "1", "--at", "9" * 5000 + "/x"],
            "invalid rational '" + "9" * 40 + "'... (5002 characters), expected",
        ),
        (["coeffs", "9" * 5000 + "a"], "invalid integer: '" + "9" * 40 + "'... (5001 characters)\n"),
        (["coeffs", "9" * 39 + "a"], "invalid integer: '" + "9" * 39 + "a'\n"),
        (["eval", "1", "--at", "1/" + "x" * 38], "invalid rational '1/" + "x" * 38 + "', expected"),
        (["coeffs", "9" * 40 + "a"], "invalid integer: '" + "9" * 40 + "'... (41 characters)\n"),
        (
            ["eval", "1", "--at", "1/" + "x" * 39],
            "invalid rational '1/" + "x" * 38 + "'... (41 characters), expected",
        ),
    ],
    ids=["long-point", "long-order", "order-of-40", "point-of-40", "order-of-41", "point-of-41"],
)
def test_malformed_argument_echo_is_cut_short(capsys, argv, echo):
    # A malformed argument is echoed up to 40 characters as it is, and past
    # that, from 41 on, as its first 40 characters and its length.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: ") and err.count("\n") == 2
    assert echo in err and len(err.encode()) < 400


@pytest.mark.skipif(DIGIT_LIMIT == 0, reason="needs a digit limit")
@pytest.mark.parametrize(
    "argv",
    [["coeffs", "200"], ["coeffs", "200", "--format", "json"], ["poly", "200"]],
    ids=["coeffs", "coeffs-json", "poly"],
)
def test_output_past_the_digit_limit_is_a_usage_error(argv):
    # Order 200 has coefficients of more than 640 digits: a subcommand that
    # cannot print its value says so as eval does, with no traceback.
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "oddpower.cli", *argv, "--allow-large"],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=src, PYTHONINTMAXSTRDIGITS="640"),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "more than 640 digits" in proc.stderr and "Traceback" not in proc.stderr


def test_other_value_errors_are_not_usage_errors(monkeypatch):
    def broken(m):
        raise ValueError("not a digit limit")

    monkeypatch.setattr(cli, "solve_coeffs", broken)
    with pytest.raises(ValueError, match="not a digit limit"):
        main(["coeffs", "3"])


def test_eval_mismatch_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli.engine, "eval_derivative_at", lambda y, u: Rational(99))
    code, out, _ = run(capsys, "eval", "2", "--at", "1")
    assert code == 1
    assert out == "99 != 5 MISMATCH\n"


# -- verify ---------------------------------------------------------------


def test_verify_single_order(capsys):
    code, out, _ = run(capsys, "verify", "--max-y", "0")
    assert code == 0
    assert out.splitlines() == [
        " y  diagonal  derivative  overall",
        " 0  PASS      PASS        PASS",
    ]


def test_verify_small_range(capsys):
    code, out, _ = run(capsys, "verify", "--max-y", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(line.endswith("PASS") for line in lines[1:])


def test_verify_failure_exits_one(capsys, monkeypatch):
    real = cli.engine.check_diagonal
    monkeypatch.setattr(cli.engine, "check_diagonal", lambda y: y != 2 and real(y))
    code, out, _ = run(capsys, "verify", "--max-y", "3")
    assert code == 1
    lines = out.splitlines()
    assert lines[3] == " 2  FAIL      PASS        FAIL"
    assert lines[4].endswith("PASS")


def test_verify_failure_names_first_residual_term(capsys, monkeypatch):
    # A_2 of order 2 off by 1/2 adds H_2 / 2, whose diagonal x^5/60 - x/60
    # leaves the residual x^4/12 - 1/60 in the derivative check.
    real = solve_coeffs
    row = real(2)
    corrupted = (row[0], row[1], row[2] + Rational(1, 2))
    monkeypatch.setattr(engine, "solve_coeffs", lambda m: corrupted if m == 2 else real(m))
    # Every cache that could keep a result of the corrupted row, eval's kept
    # diagonals too, is cleared before and after.
    caches = (engine.build_poly, engine.derivative_sum, engine._derivative_diagonal)
    for cached in caches:
        cached.cache_clear()
    try:
        code, out, _ = run(capsys, "verify", "--max-y", "3")
    finally:
        for cached in caches:
            cached.cache_clear()
    assert code == 1
    assert out.splitlines() == [
        " y  diagonal  derivative  overall",
        " 0  PASS      PASS        PASS",
        " 1  PASS      PASS        PASS",
        " 2  FAIL      FAIL        FAIL  first residual term: -1/60",
        " 3  PASS      PASS        PASS",
    ]


def test_verify_pads_the_y_column_to_max_y(capsys, monkeypatch):
    monkeypatch.setattr(cli.engine, "check_diagonal", lambda y: True)
    monkeypatch.setattr(
        cli.engine, "check_derivative_identity", lambda y: SimpleNamespace(holds=True)
    )
    code, out, _ = run(capsys, "verify", "--max-y", "100", "--allow-large")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 102
    assert lines[0] == "  y  diagonal  derivative  overall"
    assert lines[1] == "  0  PASS      PASS        PASS"
    assert lines[-1] == "100  PASS      PASS        PASS"


def test_verify_holds_one_order_at_a_time(capsys, monkeypatch):
    real = engine.check_derivative_identity
    sizes = []

    def recording(y):
        report = real(y)
        sizes.append([fn.cache_info().currsize for fn in (engine.build_poly, engine.derivative_sum)])
        return report

    monkeypatch.setattr(engine, "check_derivative_identity", recording)
    code, _, _ = run(capsys, "verify", "--max-y", "12")
    assert code == 0
    assert len(sizes) == 13
    assert max(max(pair) for pair in sizes) <= 1
    assert [fn.cache_info().currsize for fn in (engine.build_poly, engine.derivative_sum)] == [0, 0]


def test_interrupt_exits_130_without_traceback(capsys, monkeypatch):
    def interrupted(y):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.engine, "check_diagonal", interrupted)
    code, out, err = run(capsys, "verify", "--max-y", "3")
    assert code == cli.EXIT_INTERRUPTED == 130
    assert out == " y  diagonal  derivative  overall\n"
    assert err == "interrupted\n"


def test_sigint_exits_130_without_traceback():
    src = str(Path(cli.__file__).resolve().parents[1])
    with subprocess.Popen(
        [sys.executable, "-m", "oddpower.cli", "verify", "--max-y", "100", "--allow-large"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
        # A child inherits an ignored SIGINT (pytest run as a background job),
        # and Python then installs no KeyboardInterrupt handler; restore it.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    ) as proc:
        assert proc.stdout.readline().startswith(b"  y  diagonal")  # the handler is in place
        proc.send_signal(signal.SIGINT)
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 130
    assert stderr == b"interrupted\n"


# -- oracle ---------------------------------------------------------------


def test_oracle_default_range(capsys):
    code, out, _ = run(capsys, "oracle", "2")
    assert code == 0
    assert out == "m=2: PASS (n = 1..30)\n"


def test_oracle_explicit_range(capsys):
    code, out, _ = run(capsys, "oracle", "3", "--max-n", "10")
    assert code == 0
    assert out == "m=3: PASS (n = 1..10)\n"


def test_oracle_rejects_zero_range(capsys):
    for max_n in ("0", "-1"):
        code, _, err = run(capsys, "oracle", "3", "--max-n", max_n)
        assert code == 2
        assert f"must be positive: '{max_n}'" in err


def test_oracle_failure_exits_one(capsys, monkeypatch):
    # Row (1, 0, 30) with A_2 off by 1/2 first fails at n = 2, where the
    # double sum is A_0 + (A_0 + A_1 + A_2) = 32 + 1/2.
    row = solve_coeffs(2)
    corrupted = (row[0], row[1], row[2] + Rational(1, 2))
    monkeypatch.setattr(coefficients, "solve_coeffs", lambda m: corrupted)
    code, out, _ = run(capsys, "oracle", "2")
    assert code == 1
    assert out == "m=2: FAIL at n=2 (lhs 65/2, rhs 32)\n"


# -- guard rails and usage errors -----------------------------------------


def test_large_order_refused(capsys):
    code, out, err = run(capsys, "poly", "129")
    assert code == 2
    assert out == ""
    assert "soft limit" in err and "--allow-large" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "129"],
        ["poly", "129"],
        ["diff", "129", "--var", "x"],
        ["eval", "129", "--at", "1"],
        ["verify", "--max-y", "129"],
        ["oracle", "129"],
    ],
    ids=["coeffs", "poly", "diff", "eval", "verify", "oracle"],
)
def test_every_subcommand_refuses_a_large_order(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: order 129 exceeds the soft limit 128; pass --allow-large to override\n"


def test_large_order_allowed_with_flag(capsys):
    code, out, _ = run(capsys, "coeffs", "129", "--allow-large")
    assert code == 0
    assert len(out.split()) == 130


def test_boundary_order_needs_no_flag(capsys):
    code, _, _ = run(capsys, "coeffs", "128")
    assert code == 0


def test_verify_guard_applies_to_max_y(capsys):
    code, _, err = run(capsys, "verify", "--max-y", "200")
    assert code == 2
    assert "soft limit" in err


def test_oracle_range_refused(capsys):
    # No soft limit on --max-n: the oracle sums n only up to 2m + 1.
    code, out, err = run(capsys, "oracle", "0", "--max-n", "1001")
    assert code == 0
    assert out == "m=0: PASS (n = 1..1001)\n"
    assert err == ""


def test_oracle_range_past_a_million(capsys):
    code, out, _ = run(capsys, "oracle", "64", "--max-n", "1000000")
    assert code == 0
    assert out == "m=64: PASS (n = 1..1000000)\n"


def test_oracle_range_allowed_with_flag(capsys):
    code, out, _ = run(capsys, "oracle", "0", "--max-n", "1001", "--allow-large")
    assert code == 0
    assert out == "m=0: PASS (n = 1..1001)\n"


def test_no_subcommand_is_usage_error(capsys):
    assert run(capsys, )[0] == 2


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_negative_order_rejected(capsys):
    code, _, err = run(capsys, "coeffs", "-1")
    assert code == 2
    assert "non-negative" in err


def test_bad_format_rejected(capsys):
    assert run(capsys, "poly", "1", "--format", "html")[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "poly", "--help")[0] == 0


# -- closed pipe ----------------------------------------------------------


def test_closed_stdout_exits_quietly():
    # poly 64 prints ~430 kB, far more than a pipe buffers, so the write is
    # still in progress when the reader goes away.
    src = str(Path(cli.__file__).resolve().parents[1])
    with subprocess.Popen(
        [sys.executable, "-m", "oddpower.cli", "poly", "64"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    ) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
    assert stderr == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize(
    "argv",
    [["verify", "--max-y", "3"], ["poly", "5"], ["poly", "64"]],
    ids=["verify", "poly", "poly-64"],
)
def test_failed_write_is_named_and_exits_two(argv):
    # Every write to /dev/full fails with ENOSPC: one error line, no
    # traceback, and no second report from the interpreter's final flush.
    src = str(Path(cli.__file__).resolve().parents[1])
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "oddpower.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
            env=dict(os.environ, PYTHONPATH=src),
        )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write the output: ")
    assert proc.stderr.count("\n") == 1 and f"[Errno {errno.ENOSPC}]" in proc.stderr


# -- installed entry point ------------------------------------------------


@pytest.mark.skipif(shutil.which("oddpower") is None, reason="script not on PATH")
def test_console_script():
    proc = subprocess.run(
        ["oddpower", "coeffs", "3"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 -14 0 140\n"


def test_console_script_entry_point():
    pyproject = Path(cli.__file__).resolve().parents[2] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())
    assert project["project"]["scripts"] == {"oddpower": "oddpower.cli:main"}
    module, _, attribute = project["project"]["scripts"]["oddpower"].partition(":")
    assert getattr(importlib.import_module(module), attribute) is main


# -- start-up -------------------------------------------------------------


def test_cli_import_loads_no_heavy_stdlib_modules():
    # These would be over half of the package's import time, and nothing in
    # it needs them.  Only modules the import itself loads count, not those
    # that `site` has already loaded on a given host.
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        "import sys; before = set(sys.modules); import oddpower.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "oddpower.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "json", "ast", "dis"} == set()
