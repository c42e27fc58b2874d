"""Run the oddpower CLI with each line it prints timed against the reference kernel.

    PYTHONPATH=src python3 oddbench/timed_cli.py <marks.json> <cli arguments...>

Behaves like ``python3 -m oddpower.cli <cli arguments...>``, with the same
stdout, stderr and exit code, except that each stdout line is flushed as it is
printed and followed by one run of ``speed.reference_work``.  On exit it
writes to <marks.json> one ``[printed_at, kernel_s]`` pair per line, where
``printed_at`` is ``time.perf_counter()`` (the system's monotonic clock, so the
benchmark can line it up with its own) just after the line was written.
"""

from __future__ import annotations

import json
import sys
import time

from speed import kernel_s  # this file's directory is sys.path[0]


class LineTimer:
    """A stdout wrapper that marks every line."""

    def __init__(self, stream):
        self.stream = stream
        self.marks: list[tuple[float, float]] = []

    def write(self, text: str) -> int:
        written = self.stream.write(text)
        for _ in range(text.count("\n")):
            self.stream.flush()
            printed_at = time.perf_counter()
            self.marks.append((printed_at, kernel_s()))
        return written

    def __getattr__(self, name):
        return getattr(self.stream, name)


def main() -> int:
    marks_path, *argv = sys.argv[1:]
    from oddpower.cli import main as cli_main  # noqa: PLC0415

    timer = LineTimer(sys.stdout)
    sys.stdout = timer
    try:
        return cli_main(argv)
    finally:
        sys.stdout = timer.stream
        with open(marks_path, "w") as marks:
            json.dump(timer.marks, marks)


if __name__ == "__main__":
    sys.exit(main())
