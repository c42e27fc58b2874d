#!/usr/bin/env python3
"""Write oddbench/expected.json, the outputs every benchmark run is checked against.

    python3 oddbench/make_expected.py

It records what the code in ``src/`` prints now: the `coeffs 0` line, the
`verify --max-y 64` table, the `oracle 64 --max-n 300` line, and the sha256
digest of the plain, LaTeX and JSON render of f_y for every roundtrip order.
The stored file was made at the commit that added the benchmark; the renders
and CLI output must stay byte for byte the same, so only re-run this after a
deliberate change of output format.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run


def cli_lines(args: tuple[str, ...], tally: run.Tally) -> list[str]:
    child = run.run_child(args, tally)
    if child.code != 0 or child.err:
        sys.exit(f"{' '.join(args)} failed with exit code {child.code}: {child.err!r}")
    return child.out.decode().splitlines()


def main() -> None:
    tally = run.Tally()
    lib, _ = run.import_library()
    expected = {
        "coeffs_0": cli_lines(run.STARTUP_ARGS, tally)[0],
        "verify": cli_lines(run.VERIFY_ARGS, tally),
        "oracle": cli_lines(run.ORACLE_ARGS, tally)[0],
        "renders": {
            str(y): {
                fmt: hashlib.sha256(lib.render(lib.build_poly(y), fmt).encode()).hexdigest()
                for fmt in run.FORMATS
            }
            for y in run.ROUNDTRIP_ORDERS
        },
    }
    (run.BENCH_DIR / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
