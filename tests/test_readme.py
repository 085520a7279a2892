"""The README's examples run as written and give the results they state."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from lambdamu import ParseError, parse_formula
from lambdamu.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(lang: str, after: str) -> str:
    """The first fenced block in lang after the heading after."""
    section = README[README.index(f"\n## {after}\n"):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


COMMANDS = [line for line in _block("sh", "Command line").splitlines()
            if line.startswith("lambdamu ")]


def _stated_result(line: str):
    """The comment of a command line when it states a result, a formula;
    None when it only describes the command."""
    comment = line.partition("#")[2].strip()
    try:
        parse_formula(comment)
    except ParseError:
        return None
    return comment


def test_the_command_examples_are_found():
    assert len(COMMANDS) == 7
    assert [line for line in COMMANDS if _stated_result(line)] == \
        [COMMANDS[0]]


@pytest.mark.parametrize("line", COMMANDS,
                         ids=[line.split()[1] for line in COMMANDS])
def test_command_example(line, capsys):
    argv = shlex.split(line, comments=True)[1:]
    assert main(argv) == 0
    out = capsys.readouterr().out
    stated = _stated_result(line)
    if stated is not None:
        assert out.startswith(stated)


def test_library_example():
    # each top-level expression is evaluated, so its value can be read
    # against the result its comment states
    code = _block("python", "Library")
    scope, values = {}, {}
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            values[stmt.lineno] = eval(compile(
                ast.Expression(stmt.value), "README.md", "eval"), scope)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), scope)
    lines = code.splitlines()
    assert {lines[n - 1].partition("#")[2].strip(): value
            for n, value in values.items()} == {"True": True}
    assert "report = probe_peirce(t)       # confirmed, m = 1" in lines
    report = scope["report"]
    assert (report.verdict, report.m) == ("confirmed", 1)
