"""Every ``from symdigits... import ...`` that README.md cites, in a code
block or in inline code, imports; every ``symdigits`` command line in a
code block parses and resolves; and the API size it states is the number
of names the package re-exports."""

import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

import symdigits
from symdigits import cli

README = Path(__file__).resolve().parents[1] / "README.md"
# a fenced block's body, or an inline code span
_CODE = re.compile(r"```[^\n]*\n(.*?)```|`([^`\n]+)`", re.DOTALL)
_IMPORT = re.compile(r"from\s+(symdigits(?:\.\w+)*)\s+import\s+(\([^)]*\)|[^\n]*)")


def _readme_imports():
    """(module, name) of every name imported from symdigits in README's code."""
    found = []
    for match in _CODE.finditer(README.read_text(encoding="utf-8")):
        for module, names in _IMPORT.findall(match.group(1) or match.group(2)):
            for item in names.split("#")[0].strip().strip("()").split(","):
                if item.strip():
                    found.append((module, item.split()[0]))
    return found


def test_readme_cites_an_import():
    assert _readme_imports()


@pytest.mark.parametrize("module, name", _readme_imports())
def test_readme_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def _readme_commands():
    """The arguments of every ``symdigits ...`` line in README's code
    blocks, its ``#`` comment dropped."""
    text = README.read_text(encoding="utf-8")
    return [shlex.split(line.split("#", 1)[0])[1:]
            for match in _CODE.finditer(text) if match.group(1)
            for line in match.group(1).splitlines() if line.startswith("symdigits ")]


def test_readme_cites_a_command():
    assert _readme_commands()


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_resolves(argv):
    command = cli._command_of(argv)
    assert command is not None, argv
    args = cli.build_parser(command).parse_args(argv[command.count(" ") + 1:])
    cli._resolve(args)  # a bad flag or value raises CliError


def test_readme_states_the_api_size():
    tree = ast.parse(Path(symdigits.__file__).read_text(encoding="utf-8"))
    names = [alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    stated = re.findall(r"\((\d+)\s+names\)", README.read_text(encoding="utf-8"))
    assert stated == [str(len(names))]
