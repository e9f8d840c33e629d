"""The README's examples run as written.

The library example is executed and must print what its comments show; each
``chipfire`` line of the command-line block runs through ``cli.main`` in a
scratch directory, with the bundled data paths resolved, and must exit 0.
"""

import re
import shlex
from pathlib import Path

from chipfire import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def block(heading, language):
    """The first fenced ``language`` block after the ``## heading`` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_comments(capsys):
    code = block("Library example", "python")
    expected = [
        line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")
    ]
    assert expected
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_command_line_examples_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line) for line in block("Command line", "sh").splitlines()]
    assert len(commands) == 7
    for command in commands:
        assert command[0] == "chipfire"
        argv = [str(ROOT / arg) if arg.startswith("src/") else arg for arg in command[1:]]
        assert cli.main(argv) == 0, (command, capsys.readouterr().err)
    assert {p.name for p in tmp_path.iterdir()} == {"funnel.dot", "gated.ccfg", "simple.cfg"}
