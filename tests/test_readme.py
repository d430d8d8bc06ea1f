"""Every ``from symdigits... import ...`` that README.md cites, in a code
block or in inline code, imports."""

import importlib
import re
from pathlib import Path

import pytest

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
