"""README drift guard: every ``$ oddpower ...`` example in the "Command
line" section, run through ``cli.main``, prints exactly the lines shown, and
the "Library" block passes as a doctest."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from oddpower.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[tuple[str, list[str]]]:
    """(command, expected stdout lines) for each example in the section."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *output = chunk.splitlines()
        assert command.startswith("$ oddpower "), chunk
        examples.append((command[2:].split("#", 1)[0].strip(), output))
    return examples


EXAMPLES = _examples()


def test_examples_found():
    assert len(EXAMPLES) == 7


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(capsys, command, expected):
    code = main(shlex.split(command)[1:])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_library_block_is_a_passing_doctest():
    section = README.read_text().split("## Library", 1)[1]
    block = re.search(r"```pycon\n(.*?)```", section, re.S).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README Library", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert len(test.examples) >= 10
    assert runner.summarize(verbose=False) == (0, len(test.examples))
