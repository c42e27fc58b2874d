#!/usr/bin/env python3
"""Benchmark for the oddpower engine.

Usage, from the root of a source checkout (no install needed)::

    python3 oddbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json and oddbench/README.md for why each exists):

* ``verify-sweep``  one ``oddpower verify --max-y 64`` child process per pass.
* ``roundtrip``     in-process library use with warm caches: each pass is one
                    batch of requests, one per order 24..64 in seeded order, each
                    rendering f_y three ways, parsing the plain text back and
                    evaluating the derivative sum at a seeded rational point.

A run is single-process apart from the CLI children it starts one at a time
(one client, closed loop), and it keeps itself and its children on one CPU.
Passes are repeated until ``--seconds`` have elapsed.  A shared host runs the
same code at speeds up to twice apart from one moment to the next, so every
step is timed next to a run of the reference kernel in ``speed.py`` and
scaled by it: the steps of a ``verify`` pass are the rows of its table, which
``timed_cli.py`` marks as the child prints them, a roundtrip step is one
request, a set-up step one start-up or one order warmed.  Times are reported
scaled, as seconds on a host where the kernel takes ``speed.REFERENCE_S``;
the raw times are in the ``# meta`` line.  Set-up and pass times are the
median over the run.  Request latencies are the median and 90th percentile
over all of ``roundtrip``'s requests; a CLI run is a single request, so on
``verify-sweep`` both are ``wall_s``.  Every output is checked against
``expected.json``; each mismatch makes its operation fail and is named on
stderr as ``FAIL <operation>: <reason>``.

``--trace 1`` makes the separate traced run instead (see ``traced_run``): the
pipeline stages timed one by one with cold caches, plus exact counts.

The last line of stdout is the result object; the line before it, starting
with ``# meta``, holds the run metadata.  Exit code 2 means the program could
not be found or run at all, and then no result is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from speed import kernel_s, scale

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("verify-sweep", "roundtrip")
MAX_Y = 64  # the CLI's soft order limit
ORACLE_MAX_N = 300
ROUNDTRIP_ORDERS = range(24, MAX_Y + 1)
FORMATS = ("plain", "latex", "json")
STARTUPS_PER_PASS = 8  # timed `coeffs 0` start-ups before each CLI pass
WARM_REPEATS = 3  # timed cache warm-ups per roundtrip run
IMPORT_REPEATS = 5  # timed imports in a traced run
RUN_DEADLINE_S = 170  # a run must end within 180 s
CACHED = ("bernoulli", "power_sum", "conv_sum", "solve_coeffs", "build_poly", "derivative_sum")

VERIFY_ARGS = ("-m", "oddpower.cli", "verify", "--max-y", str(MAX_Y))
MARKS = OUT_DIR / "marks.json"  # written by timed_cli.py
TIMED_VERIFY_ARGS = (str(BENCH_DIR / "timed_cli.py"), str(MARKS), *VERIFY_ARGS[2:])
ORACLE_ARGS = ("-m", "oddpower.cli", "oracle", str(MAX_Y), "--max-n", str(ORACLE_MAX_N))
STARTUP_ARGS = ("-m", "oddpower.cli", "coeffs", "0")


@dataclass
class Tally:
    """Checked operations of one run; every failure is reported on stderr."""

    attempted: int = 0
    failed: int = 0
    deadline: float = field(default_factory=lambda: time.perf_counter() + RUN_DEADLINE_S)

    def check(self, operation: str, reasons: list[str]) -> bool:
        self.attempted += 1
        if reasons:
            self.failed += 1
            for reason in reasons:
                print(f"FAIL {operation}: {reason}", file=sys.stderr)
        return not reasons


# -- child processes --------------------------------------------------------


@dataclass
class Child:
    code: int
    out: bytes
    err: bytes
    started: float  # time.perf_counter() when it was started
    wall_s: float
    peak_rss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # Bytecode caches must be written next to the sources, inside the checkout.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: tuple[str, ...], tally: Tally) -> Child:
    """Run ``python3 <args>`` in the checkout and reap it with ``os.wait4``,
    which gives this child's own peak RSS rather than the maximum over all
    children so far (``RUSAGE_CHILDREN``)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    chunks: dict[int, list[bytes]] = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            selector.register(proc.stderr, selectors.EVENT_READ)
            while selector.get_map():
                remaining = tally.deadline - time.perf_counter()
                if remaining <= 0:
                    proc.kill()
                    break
                for key, _ in selector.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        selector.unregister(key.fileobj)
    except BaseException:
        proc.kill()  # leave no child behind, then re-raise
        os.wait4(proc.pid, 0)
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped
    out = b"".join(chunks[proc.stdout.fileno()])
    err = b"".join(chunks[proc.stderr.fileno()])
    proc.stdout.close()
    proc.stderr.close()
    return Child(proc.returncode, out, err, start, wall, usage.ru_maxrss / 1024)


def check_child(child: Child, expected_out: str) -> list[str]:
    reasons = []
    if child.code != 0:
        reasons.append(f"exit code {child.code}, expected 0")
    if child.out != expected_out.encode():
        got = child.out.decode(errors="replace").splitlines()
        want = expected_out.splitlines()
        diff = next(
            (i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want))
        )
        reasons.append(f"stdout differs from line {diff + 1} ({len(got)} lines, expected {len(want)})")
    if child.err:
        reasons.append(f"stderr not empty: {child.err[:200]!r}")
    return reasons


def verify_pass(expected: dict, tally: Tally, index: int) -> tuple[Child, float, float] | None:
    """One checked ``verify`` child, its lines timed by timed_cli.py.
    Returns the child, its wall time without the kernel runs, and that time
    scaled: each step (start to the first line, line to line, last line to
    exit) scaled by the kernel runs at its two ends.  None if the output was
    wrong."""
    MARKS.unlink(missing_ok=True)
    child = run_child(TIMED_VERIFY_ARGS, tally)
    if not tally.check(f"verify-sweep[{index}]", check_child(child, "\n".join(expected["verify"]) + "\n")):
        return None
    marks = json.loads(MARKS.read_text())
    work = child.wall_s - sum(kernel for _, kernel in marks)
    scaled = 0.0
    step_start, kernel_before = child.started, marks[0][1]
    for printed_at, kernel in marks:
        scaled += scale(printed_at - step_start, kernel_before, kernel)
        step_start, kernel_before = printed_at + kernel, kernel
    scaled += scale(child.started + child.wall_s - step_start, kernel_before)
    return child, work, scaled


def verify_workload(expected: dict, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Run ``verify`` until ``seconds`` have passed.  Start-ups of `oddpower
    coeffs 0` are timed between the passes, each scaled by kernel runs just
    before and after it, so that set-up samples spread over the run like the
    passes do; one untimed start-up first leaves the bytecode caches in
    place."""
    startups, passes = [], []

    def startup(index: int) -> float:
        before = kernel_s()
        child = run_child(STARTUP_ARGS, tally)
        tally.check(f"startup[{index}]", check_child(child, expected["coeffs_0"] + "\n"))
        return scale(child.wall_s, before, kernel_s())

    startup(-1)
    start = time.perf_counter()
    attempts = 0
    while not attempts or time.perf_counter() - start < seconds:
        startups += [startup(len(startups) + i) for i in range(STARTUPS_PER_PASS)]
        verified = verify_pass(expected, tally, attempts)
        attempts += 1
        if verified is not None:
            passes.append(verified)
    if not passes:
        return {}, {"passes": attempts}  # every pass failed its check; nothing to time
    wall_s = statistics.median(scaled for _, _, scaled in passes)
    metrics = {
        "setup_s": statistics.median(startups),
        "wall_s": wall_s,
        # A run of the command is a single request, so its latency is wall_s.
        "req_p50_ms": wall_s * 1000,
        "req_p90_ms": wall_s * 1000,
        "peak_rss_mb": statistics.median(child.peak_rss_mb for child, _, _ in passes),
    }
    info = {
        "passes": attempts,
        "pass_s": [round(work, 3) for _, work, _ in passes],
        "scaled_pass_s": [round(scaled, 3) for _, _, scaled in passes],
        "setups": len(startups),
    }
    return metrics, info


# -- in-process library use -------------------------------------------------


def import_library():
    """Import oddpower from this checkout; returns the module and import seconds."""
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = False
    start = time.perf_counter()
    import oddpower  # noqa: PLC0415

    return oddpower, time.perf_counter() - start


def memoised(lib) -> dict:
    return {name: getattr(lib, name) for name in CACHED}


def clear_caches(lib) -> None:
    for fn in memoised(lib).values():
        fn.cache_clear()


def warm(lib) -> float:
    """Fill the caches roundtrip reads; returns the scaled seconds it took,
    each order scaled by kernel runs just before and after it."""
    total = 0.0
    before = kernel_s()
    for y in ROUNDTRIP_ORDERS:
        start = time.perf_counter()
        lib.build_poly(y)
        lib.derivative_sum(y)
        took = time.perf_counter() - start
        after = kernel_s()
        total += scale(took, before, after)
        before = after
    return total


def request_batch(rng: random.Random) -> list[tuple[int, Fraction]]:
    """One pass of roundtrip: every order once, in seeded order, each with a
    seeded point u = p/q, 1 <= |p|, q <= 999.  Every batch holds the same
    orders, so the seed moves only the order and the points."""
    orders = list(ROUNDTRIP_ORDERS)
    rng.shuffle(orders)
    return [(y, Fraction(rng.choice((-1, 1)) * rng.randint(1, 999), rng.randint(1, 999))) for y in orders]


def no_span(name: str, request: str | None = None):
    return nullcontext()


def serve(lib, y: int, u: Fraction, span=no_span) -> tuple[dict, object, Fraction]:
    """The program's work for one roundtrip request."""
    request = f"y={y},u={u}"
    poly = lib.build_poly(y)
    texts = {}
    for fmt in FORMATS:
        with span(f"rendering.render_{fmt}", request):
            texts[fmt] = lib.render(poly, fmt)
    with span("parsing.parse_poly", request):
        parsed = lib.parse_poly(texts["plain"])
    with span("engine.eval_derivative_at", request):
        value = lib.eval_derivative_at(y, u)
    return texts, parsed, value


def check_request(lib, expected: dict, y: int, u: Fraction, texts, parsed, value) -> list[str]:
    reasons = []
    digests = expected["renders"][str(y)]
    for fmt in FORMATS:
        if hashlib.sha256(texts[fmt].encode()).hexdigest() != digests[fmt]:
            reasons.append(f"{fmt} render of f_{y} differs from the expected digest")
    if parsed != lib.build_poly(y):
        reasons.append(f"parse_poly(plain f_{y}) != build_poly({y})")
    want = (2 * y + 1) * u ** (2 * y)
    if value != want:
        reasons.append(f"eval_derivative_at({y}, {u}) = {value}, expected {want}")
    return reasons


def run_batch(lib, expected, batch, tally: Tally, span=no_span) -> list[float]:
    """Serve and check one batch; returns the request latencies, each scaled
    by kernel runs just before and after it (checks are not part of a
    latency)."""
    latencies = []
    for y, u in batch:
        before = kernel_s()
        start = time.perf_counter()
        texts, parsed, value = serve(lib, y, u, span)
        took = time.perf_counter() - start
        latencies.append(scale(took, before, kernel_s()))
        tally.check(f"roundtrip y={y} u={u}", check_request(lib, expected, y, u, texts, parsed, value))
    return latencies


def roundtrip_workload(expected: dict, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Warm the caches WARM_REPEATS times, each time from cold, and serve
    batches for an equal share of ``seconds`` after each warm-up, so that
    set-up samples spread over the run like the batches do."""
    # The untimed child leaves bytecode caches in place, as for the CLI workloads.
    run_child(("-c", "import oddpower"), tally)
    before = kernel_s()
    lib, import_s = import_library()
    import_s = scale(import_s, before, kernel_s())
    rng = random.Random(seed)
    warm_times, batches = [], []
    for _ in range(WARM_REPEATS):
        clear_caches(lib)
        warm_times.append(warm(lib))
        share_start = time.perf_counter()
        while not batches or time.perf_counter() - share_start < seconds / WARM_REPEATS:
            batches.append(run_batch(lib, expected, request_batch(rng), tally))
    latencies = [latency for batch in batches for latency in batch]
    metrics = {
        "setup_s": import_s + statistics.median(warm_times),
        "wall_s": statistics.median(sum(batch) for batch in batches),
        "req_p50_ms": statistics.median(latencies) * 1000,
        "req_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "passes": len(batches),
        "scaled_pass_s": [round(sum(batch), 3) for batch in batches],
        "requests": len(latencies),
        "setups": len(warm_times),
        "scaled_setup_s": [round(import_s + w, 3) for w in warm_times],
    }
    return metrics, info


# -- traced run -------------------------------------------------------------


class Tracer:
    """Spans kept in memory: name, start, end (seconds since the tracer was
    made), parent span id, the request they belong to and, for a span of one
    call, its scaled duration."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, request: str | None = None):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "request": request,
            "start": time.perf_counter() - self._origin,
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._open.pop()

    @contextmanager
    def call(self, name: str, request: str | None = None):
        """A span of one call, scaled by kernel runs just before and after it."""
        before = kernel_s()
        with self.span(name, request) as record:
            yield record
        record["scaled"] = scale(record["end"] - record["start"], before, kernel_s())

    def total(self, name: str) -> float:
        """Summed scaled duration of the calls called ``name``."""
        return sum(s["scaled"] for s in self.spans if s["name"] == name)


def pipeline(lib) -> list[tuple[str, object, range]]:
    """Stages in pipeline order, each calling one layer for every order it
    needs.  With the caches cleared once before the first stage, each stage
    finds its inputs cached by the stages before it, so its time is close to
    its self time."""
    orders = range(MAX_Y + 1)
    sum_degrees = range(2 * MAX_Y + 1)  # conv_sum(r) needs power_sum(0..2r)
    return [
        ("rationals.bernoulli", lib.bernoulli, sum_degrees),
        ("powersums.power_sum", lib.power_sum, sum_degrees),
        ("powersums.conv_sum", lib.conv_sum, orders),
        ("bipoly.diagonal", lambda r: lib.conv_sum(r).diagonal(), orders),
        ("coefficients.solve_coeffs", lib.solve_coeffs, orders),
        ("engine.build_poly", lib.build_poly, orders),
        ("bipoly.diff", lambda y: (lib.build_poly(y).diff("x"), lib.build_poly(y).diff("z")), orders),
        ("engine.derivative_sum", lib.derivative_sum, orders),
        ("engine.check_diagonal", lib.check_diagonal, orders),
        ("engine.check_derivative_identity", lambda y: lib.check_derivative_identity(y).holds, orders),
    ]


CHECKED_STAGES = ("engine.check_diagonal", "engine.check_derivative_identity")
# The calls covering the work of one untraced pass of each workload.  Their
# traced time minus that pass's time is the tracing overhead; for
# verify-sweep it is negative by the interpreter start-up.
PATHS = {
    "verify-sweep": (
        "rationals.bernoulli",
        "powersums.power_sum",
        "powersums.conv_sum",
        "coefficients.solve_coeffs",
        "engine.build_poly",
        *CHECKED_STAGES,
    ),
    "roundtrip": (
        *(f"rendering.render_{fmt}" for fmt in FORMATS),
        "parsing.parse_poly",
        "engine.eval_derivative_at",
    ),
}


def cli_import_s(tally: Tally) -> float:
    """Median of IMPORT_REPEATS imports of oddpower.cli in a fresh
    interpreter, each scaled by kernel runs just before and after it, after
    one untimed import that leaves the bytecode caches in place."""
    code = "import time; t = time.perf_counter(); import oddpower.cli; print(time.perf_counter() - t)"
    times = []
    for i in range(IMPORT_REPEATS + 1):
        before = kernel_s()
        child = run_child(("-c", code), tally)
        after = kernel_s()
        ok = child.code == 0 and not child.err
        reasons = [] if ok else [f"exit code {child.code}: {child.err[:200]!r}"]
        if tally.check(f"import[{i}]", reasons) and i:
            times.append(scale(float(child.out), before, after))
    return statistics.median(times)


def f_sizes(lib, y: int) -> dict[str, int]:
    poly = lib.build_poly(y)
    coeffs = [c for _, _, c in poly.terms()]
    return {
        "engine.f_terms": len(coeffs),
        "engine.f_num_bits_max": max(abs(c.numerator).bit_length() for c in coeffs),
        "engine.f_den_lcm": math.lcm(*(c.denominator for c in coeffs)),
        **{f"rendering.bytes_{fmt}": len(lib.render(poly, fmt).encode()) for fmt in FORMATS},
    }


def traced_run(workload: str, seed: int, expected: dict, tally: Tally) -> tuple[dict, dict]:
    """Per-layer metrics: every stage timed with cold caches, the oracle's
    summation, one traced roundtrip batch, exact counts, and the tracing
    overhead against one untraced pass of ``workload``."""
    metrics = {"cli.import_s": cli_import_s(tally)}
    lib, _ = import_library()
    tracer = Tracer()
    clear_caches(lib)
    for name, fn, args in pipeline(lib):
        with tracer.span(f"stage {name}"):
            for a in args:
                with tracer.call(name, f"y={a}"):
                    result = fn(a)
                if name in CHECKED_STAGES:
                    tally.check(f"{name}({a})", [] if result is True else [f"returned {result!r}"])
        metrics[f"{name}_s"] = tracer.total(name)
    # One call of a few seconds, so the host's speed may change within it.
    with tracer.call("coefficients.verify_identity", f"y={MAX_Y}"):
        holds = lib.verify_identity(MAX_Y, ORACLE_MAX_N)
    tally.check("verify_identity", [] if holds else [f"verify_identity({MAX_Y}, {ORACLE_MAX_N}) failed"])
    # The same route through the CLI, checked but not timed.
    tally.check("oracle", check_child(run_child(ORACLE_ARGS, tally), expected["oracle"] + "\n"))
    batch = request_batch(random.Random(seed))
    with tracer.span("requests"):
        run_batch(lib, expected, batch, tally, tracer.call)
    for name in (
        "coefficients.verify_identity",
        "engine.eval_derivative_at",
        "parsing.parse_poly",
        *(f"rendering.render_{fmt}" for fmt in FORMATS),
    ):
        metrics[f"{name}_s"] = tracer.total(name)
    for name, fn in memoised(lib).items():
        info = fn.cache_info()
        metrics[f"{name}.cache_hits"] = info.hits
        metrics[f"{name}.cache_misses"] = info.misses
    metrics |= f_sizes(lib, MAX_Y)

    if workload == "roundtrip":
        untraced = sum(run_batch(lib, expected, batch, tally))
    else:
        verified = verify_pass(expected, tally, 0)
        untraced = verified[2] if verified else math.nan
    metrics["trace.path_s"] = sum(tracer.total(name) for name in PATHS[workload])
    metrics["trace.overhead_s"] = metrics["trace.path_s"] - untraced

    spans_file = OUT_DIR / f"spans-{workload}-{seed}.json"
    spans_file.write_text(json.dumps({"workload": workload, "seed": seed, "spans": tracer.spans}))
    return metrics, {"spans": len(tracer.spans), "spans_file": str(spans_file.relative_to(ROOT))}


# -- metadata and output ----------------------------------------------------


def bytecode_cached() -> bool:
    cache = SRC / "oddpower" / "__pycache__"
    tag = sys.implementation.cache_tag
    return all(
        (cache / f"{module.stem}.{tag}.pyc").exists() for module in (SRC / "oddpower").glob("*.py")
    )


def git_sha() -> str | None:
    if shutil.which("git") is None:
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    result = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    return result.stdout.strip() if result.returncode == 0 else None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "oddpower").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(args, cached: bool) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_sha256(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "bytecode_cached": cached,
    }


def load_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {group: {m["name"]: m["unit"] for m in spec[group]} for group in ("end_to_end", "per_layer")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--expected",
        type=Path,
        default=BENCH_DIR / "expected.json",
        help="expected outputs (the self-test passes a corrupted copy)",
    )
    args = parser.parse_args(argv)

    if not (SRC / "oddpower" / "cli.py").is_file():
        print(f"error: no oddpower sources under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads(args.expected.read_text())
    units = load_units()
    OUT_DIR.mkdir(exist_ok=True)
    meta = metadata(args, bytecode_cached())
    # The steps and the kernel runs that scale them share one CPU, children
    # included: each CPU of a shared host changes speed on its own.
    meta["cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {meta["cpu"]})
    tally = Tally()

    if args.trace:
        metrics, info = traced_run(args.workload, args.seed, expected, tally)
        group = "per_layer"
    elif args.workload == "roundtrip":
        metrics, info = roundtrip_workload(expected, args.seed, args.seconds, tally)
        group = "end_to_end"
    else:
        metrics, info = verify_workload(expected, args.seconds, tally)
        group = "end_to_end"

    meta |= info
    meta["fail_ratio"] = tally.failed / tally.attempted
    print("# meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        # A metric missing from BENCHMARK.json raises here; the self-test
        # catches one BENCHMARK.json lists but the run did not produce.
        "metrics": {name: {"value": value, "unit": units[group][name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
