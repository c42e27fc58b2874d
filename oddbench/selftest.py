#!/usr/bin/env python3
"""Self-test of the benchmark itself, from the root of a source checkout:

    python3 oddbench/selftest.py

It checks that the benchmark catches wrong output and reports what
BENCHMARK.json promises:

1. With a corrupted expected digest (the plain render of one roundtrip order)
   and a wrong expected oracle line, exactly the operations that produce those
   outputs fail, and no other: in a roundtrip run the request of that order in
   each batch, in a traced run that request and the `oracle` command.
2. The printed metric names and units match BENCHMARK.json, for untraced and
   traced runs, and the exact counts of two traced runs are equal.
3. In a directory holding only BENCHMARK.json and the benchmark's own files,
   the benchmark exits non-zero without printing a result.

Takes about four minutes; exits 1 and names each failed check otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import BENCH_DIR, OUT_DIR, ROOT, load_units

CORRUPT_Y = 40
WRONG_ORACLE = "m=64: PASS (n = 1..299)"


def bench(args: list[str], cwd=ROOT, expected=None) -> subprocess.CompletedProcess:
    command = [sys.executable, "oddbench/run.py", *args]
    if expected is not None:
        command += ["--expected", str(expected)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    meta_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(meta_line.removeprefix("# meta ")), json.loads(result_line)


def failures(proc: subprocess.CompletedProcess) -> list[str]:
    return [line for line in proc.stderr.splitlines() if line.startswith("FAIL ")]


def main() -> int:
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    units = load_units()

    def expect_units(result: dict, group: str, what: str) -> None:
        printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
        expect(printed == units[group], f"{what}: metric names and units match BENCHMARK.json {group}")

    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    expected["renders"][str(CORRUPT_Y)]["plain"] = "0" * 64
    expected["oracle"] = WRONG_ORACLE
    OUT_DIR.mkdir(exist_ok=True)
    corrupted = OUT_DIR / "selftest-expected.json"
    corrupted.write_text(json.dumps(expected))

    common = ["--seed", "1", "--seconds", "1"]
    proc = bench(["--workload", "roundtrip", *common, "--trace", "0"], expected=corrupted)
    meta, result = result_of(proc)
    lines = failures(proc)
    expect(
        result["failed"] == meta["passes"] > 0 and not result["correct"],
        f"roundtrip: failed {result['failed']} == one request per pass ({meta['passes']})",
    )
    expect(
        len(lines) == result["failed"]
        and all(f"y={CORRUPT_Y} " in line and "plain render" in line for line in lines),
        f"roundtrip: only the plain render of f_{CORRUPT_Y} fails",
    )
    expect_units(result, "end_to_end", "roundtrip")

    proc = bench(["--workload", "verify-sweep", *common, "--trace", "1"], expected=corrupted)
    _, result = result_of(proc)
    lines = failures(proc)
    expect(
        result["failed"] == 2 and result["attempted"] > result["failed"],
        f"traced verify-sweep: failed {result['failed']} == 2 of {result['attempted']}",
    )
    expect(
        len(lines) == 2
        and any(line.startswith("FAIL oracle:") for line in lines)
        and any(f"y={CORRUPT_Y} " in line and "plain render" in line for line in lines),
        f"traced verify-sweep: only the plain render of f_{CORRUPT_Y} and the oracle line fail",
    )

    proc = bench(["--workload", "verify-sweep", *common, "--trace", "0"])
    _, result = result_of(proc)
    expect(result["correct"] and result["failed"] == 0, "verify-sweep: every output correct")
    expect_units(result, "end_to_end", "verify-sweep")

    counts = []
    for workload, seed in (("verify-sweep", "1"), ("roundtrip", "2")):
        proc = bench(["--workload", workload, "--seed", seed, "--seconds", "1", "--trace", "1"])
        _, result = result_of(proc)
        expect(result["correct"] and result["failed"] == 0, f"traced {workload}: every output correct")
        expect_units(result, "per_layer", f"traced {workload}")
        counts.append({k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "s"})
    expect(counts[0] == counts[1], "traced runs: exact counts equal")

    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(["--workload", "verify-sweep", *common, "--trace", "0"], cwd=bare)
    printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
    expect(proc.returncode != 0 and not printed_result, "without the sources: non-zero exit, no result")
    shutil.rmtree(bare)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
