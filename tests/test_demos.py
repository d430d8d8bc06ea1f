"""The demos are not run by the test suite, so an API change could break
them silently.  This checks that every module a demo imports from
symdigits exists and holds every name the demo takes from it, and that
every call of such a name binds to its signature."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_imports_exist(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "symdigits":
            module = importlib.import_module(node.module)
            missing = [alias.name for alias in node.names if not hasattr(module, alias.name)]
            assert not missing, f"{demo.name}: {node.module} has no {missing}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "symdigits":
                    importlib.import_module(alias.name)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_calls_bind_to_their_signatures(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))
    imported = {alias.asname or alias.name:
                getattr(importlib.import_module(node.module), alias.name)
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module and node.module.split(".")[0] == "symdigits"
                for alias in node.names}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id in imported]
    assert calls, f"{demo.name} calls nothing it imports from symdigits"
    for call in calls:
        if any(isinstance(arg, ast.Starred) for arg in call.args) or \
                any(keyword.arg is None for keyword in call.keywords):
            continue  # *args or **kwargs: the arguments are not known here
        try:
            inspect.signature(imported[call.func.id]).bind(
                *call.args, **{keyword.arg: keyword.value for keyword in call.keywords})
        except TypeError as exc:
            pytest.fail(f"{demo.name}:{call.lineno} {call.func.id}(...): {exc}")
