"""Command line interface.

Subcommands:
    coeffs <m>            print the solved coefficient row for order m, as
                          ``A_0 A_1 ... A_m`` or, with --format json, as
                          ``{"m":<m>,"A":["<num>/<den>", ...]}`` (index r = 0..m)
    poly <y>              print the y-th family polynomial
    diff <y> --var x|z|both   print a partial derivative or their sum
    eval <y> --at <u>     evaluate the derivative sum at (u, u)
    verify [--max-y N]    symbolic identity checks, PASS/FAIL table per y
    oracle <m> [--max-n N]    integer summation check of the expansion

The oracle prints ``m=<m>: PASS (n = 1..<N>)`` when the expansion holds for
every n up to N = --max-n.  It sums n = 1..min(N, 2m+1) only: both sides are
polynomials in n of degree at most 2m + 1 that vanish at n = 0, so agreement
at n = 1..2m+1 proves the expansion for every n, and N >= 2m + 1 (the
default 30 for m <= 14) makes the PASS line a proof.  A failed oracle check
prints ``m=<m>: FAIL at n=<n> (lhs <lhs>, rhs <rhs>)``: the first n where
the double sum (lhs) differs from n^(2m+1) (rhs).  A
``verify`` row whose derivative check fails ends in
``  first residual term: <term>``, the lowest term in canonical order of the
partial sum's diagonal minus (2y+1) x^(2y).  ``verify`` keeps one order at a
time: after each row it clears the ``build_poly`` and ``derivative_sum``
caches, so its memory does not grow with --max-y.

Exit codes: 0 success / all checks pass, 1 a verification failed, 2 usage or
parse error (a number is an optional sign and the ASCII digits, ``a/b`` for
--at; other text is an invalid integer or rational, echoed back, cut to its
first 40 characters and its length when longer, and a well-formed number
with more digits than the interpreter reads is named as such, not echoed)
or any value to be printed with more digits than it prints
(``sys.get_int_max_str_digits()``, 4300 by default; one ``error:`` line on
stderr, for ``eval`` before any polynomial work) or a write to stdout that
failed other than by a closed pipe, as on a full disk (one ``error:`` line
naming the OS error, no traceback), 130
interrupted by Ctrl-C (SIGINT; ``interrupted`` is printed to
stderr, with no traceback), 141 stdout was closed before the output was
written (as in ``oddpower poly 64 | head``; nothing is printed to stderr).
Orders above 128 are refused unless --allow-large is given, to keep
accidental runtimes in check.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import engine
from .bipoly import FORMATS, BiPoly, render
from .coefficients import first_failure, solve_coeffs
from .rationals import Rational

MAX_ORDER = 128
EXIT_INTERRUPTED = 130  # 128 + SIGINT, what a shell reports for a program stopped by Ctrl-C
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer killed by the signal


def _ints(*texts: str) -> list[int]:
    """``int()`` of each text, for an optional sign and the ASCII digits only;
    ``int()`` alone also reads underscores, other scripts' digits and outer
    whitespace.  Every text's shape is checked before any text's length, so
    a number with more digits than ``int()`` reads is named, not echoed, and
    only when every text is a number."""
    digits = [text[1:] if text[:1] in ("+", "-") else text for text in texts]
    if not all(part.isascii() and part.isdigit() for part in digits):
        raise ValueError(texts)
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if 0 < limit < max(map(len, digits)):
        raise argparse.ArgumentTypeError(
            f"the number has more than {limit} digits, the interpreter's limit for "
            "reading an integer (PYTHONINTMAXSTRDIGITS raises it)"
        )
    return [int(text) for text in texts]


def _echo(text: str) -> str:
    """``repr(text)`` of an argument for an error message, cut to its first
    40 characters with its full length named when it is longer."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def _nonneg_int(text: str, least: int = 0) -> int:
    try:
        (value,) = _ints(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {_echo(text)}")
    if value < least:
        bound = "positive" if least else "non-negative"
        raise argparse.ArgumentTypeError(f"must be {bound}: {_echo(text)}")
    return value


def _positive_int(text: str) -> int:
    return _nonneg_int(text, least=1)


def _rational(text: str) -> Rational:
    # Accepts "a/b" or an integer; decimals are refused to preserve exactness.
    num, sep, den = text.partition("/")
    try:
        value = Rational(*(_ints(num, den) if sep else _ints(num)))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"invalid rational {_echo(text)}, expected an integer or a/b"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddpower",
        description="Exact polynomial engine for the odd-power derivative identity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    coeffs = sub.add_parser("coeffs", help="solved coefficient row for order m")
    coeffs.add_argument("order", type=_nonneg_int, metavar="m")
    coeffs.add_argument("--format", choices=("plain", "json"), default="plain")

    poly = sub.add_parser("poly", help="the y-th family polynomial")
    poly.add_argument("order", type=_nonneg_int, metavar="y")
    poly.add_argument("--format", choices=FORMATS, default="plain")

    diff = sub.add_parser("diff", help="partial derivative of the y-th polynomial")
    diff.add_argument("order", type=_nonneg_int, metavar="y")
    diff.add_argument("--var", choices=("x", "z", "both"), required=True)
    diff.add_argument("--format", choices=FORMATS, default="plain")

    evaluate = sub.add_parser("eval", help="derivative sum at the diagonal point (u, u)")
    evaluate.add_argument("order", type=_nonneg_int, metavar="y")
    evaluate.add_argument("--at", type=_rational, required=True, metavar="U")

    verify = sub.add_parser("verify", help="symbolic identity checks for y = 0..N")
    verify.add_argument("--max-y", type=_nonneg_int, default=25, dest="order", metavar="MAX_Y")

    oracle = sub.add_parser("oracle", help="summed check of order m, a proof if --max-n >= 2m+1")
    oracle.add_argument("order", type=_nonneg_int, metavar="m")
    oracle.add_argument("--max-n", type=_positive_int, default=30)

    for command in (coeffs, poly, diff, evaluate, verify, oracle):
        command.add_argument("--allow-large", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        if sys.stdout is not None:  # None when the process was started without stdout
            sys.stdout.flush()  # a failed write shows here, not in the interpreter's final flush
        return code
    except BrokenPipeError:
        # The reader has gone away.  Point stdout at devnull so that the
        # interpreter's final flush does not report the same error again.
        _discard_stdout()
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        # Any other failed write, such as a full disk: named, and not retried.
        _discard_stdout()
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        # str() of a number with more digits than the interpreter prints.
        print(
            f"error: the value has more than {sys.get_int_max_str_digits()} digits, the "
            "interpreter's limit for printing an integer (PYTHONINTMAXSTRDIGITS raises it)",
            file=sys.stderr,
        )
        return 2


def _discard_stdout() -> None:
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _attach_negative_points(argv: list[str]) -> list[str]:
    """Join ``--at`` and a following value that starts with ``-`` and a digit
    into ``--at=<value>``: argparse reads only ``-N`` and ``-N.N`` as
    negative numbers, so it would take ``-3/4`` for an option."""
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] == "--at" and arg[:1] == "-" and arg[1:2].isdecimal():
            joined[-1] = f"--at={arg}"
        else:
            joined.append(arg)
    return joined


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_points(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse has already written its message; fold --help's exit 0 and
        # usage errors' exit 2 into the return value.
        return int(exc.code or 0)

    if args.order > MAX_ORDER and not args.allow_large:
        print(
            f"error: order {args.order} exceeds the soft limit {MAX_ORDER}; "
            "pass --allow-large to override",
            file=sys.stderr,
        )
        return 2

    if args.command == "coeffs":
        row = solve_coeffs(args.order)
        if args.format == "json":
            values = ",".join(f'"{a.numerator}/{a.denominator}"' for a in row)
            print(f'{{"m":{args.order},"A":[{values}]}}')
        else:
            print(" ".join(str(a) for a in row))
        return 0

    if args.command == "poly":
        print(render(engine.build_poly(args.order), args.format))
        return 0

    if args.command == "diff":
        if args.var == "both":
            result = engine.derivative_sum(args.order)
        else:
            result = engine.build_poly(args.order).diff(args.var)
        print(render(result, args.format))
        return 0

    if args.command == "eval":
        closed_form = (2 * args.order + 1) * args.at ** (2 * args.order)
        text = str(closed_form)  # a value past the digit limit fails here, before the work
        value = engine.eval_derivative_at(args.order, args.at)
        holds = value == closed_form
        print(f"{value} = {text}" if holds else f"{value} != {text} MISMATCH")
        return 0 if holds else 1

    if args.command == "verify":
        width = max(2, len(str(args.order)))  # the y column fits --max-y
        print(f"{'y':>{width}}  diagonal  derivative  overall")
        failed = False
        for y in range(args.order + 1):
            diagonal_ok = engine.check_diagonal(y)
            report = engine.check_derivative_identity(y)
            overall = diagonal_ok and report.holds
            failed = failed or not overall
            row = (
                f"{y:>{width}}  {_status(diagonal_ok):<8}  {_status(report.holds):<10}  "
                f"{_status(overall)}"
            )
            if not report.holds:
                dx, dz, coeff = next(report.residual.terms())
                row += f"  first residual term: {BiPoly.monomial(dx, dz, coeff)}"
            print(row)
            engine.build_poly.cache_clear()
            engine.derivative_sum.cache_clear()
        return 1 if failed else 0

    if args.command == "oracle":
        failure = first_failure(args.order, args.max_n)
        if failure is None:
            print(f"m={args.order}: PASS (n = 1..{args.max_n})")
            return 0
        n, lhs, rhs = failure
        print(f"m={args.order}: FAIL at n={n} (lhs {lhs}, rhs {rhs})")
        return 1

    raise AssertionError(f"unhandled command {args.command!r}")


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


if __name__ == "__main__":
    sys.exit(main())
