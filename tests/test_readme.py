"""Every ``$ oddsymplectic ...`` example in README.md prints what the README shows."""

import re
import shlex
from pathlib import Path

import pytest

from oddsymplectic.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_transcript():
    """``(command, expected output)`` pairs from the README's ``sh`` blocks, in order.

    A command is a ``$ `` line together with its ``\\`` continuations; its
    expected output is every following line up to the next ``$ `` line or
    the end of the block.
    """
    pairs = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S):
        lines = block.splitlines()
        i = 0
        while i < len(lines):
            if not lines[i].startswith("$ "):
                i += 1
                continue
            command = lines[i][2:]
            while command.endswith("\\"):
                i += 1
                command = command[:-1] + lines[i]
            i += 1
            output = []
            while i < len(lines) and not lines[i].startswith("$ "):
                output.append(lines[i])
                i += 1
            pairs.append((command, "\n".join(output)))
    return pairs


TRANSCRIPT = readme_transcript()
FILES = {
    shlex.split(command)[1]: output for command, output in TRANSCRIPT if command.startswith("cat ")
}
EXAMPLES = [(c, out) for c, out in TRANSCRIPT if c.startswith("oddsymplectic ")]


def test_readme_has_the_documented_examples():
    commands = [shlex.split(c)[1] for c, _ in EXAMPLES]
    for name in ("bracket", "laplace", "berezinian", "fourier", "restrict", "suite"):
        assert name in commands
    assert set(FILES) == {"scale.json"}


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(command, expected, tmp_path, monkeypatch, capsys):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)[1:]) == 0
    printed = capsys.readouterr().out.rstrip("\n")
    if expected.endswith("..."):
        assert printed.startswith(expected[: -len("...")])
    else:
        assert printed == expected
