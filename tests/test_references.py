"""Every top-level function and class in ``src/symdigits`` has a caller
outside its own definition: in the package (re-exports in ``__init__.py``
do not count), the demos, the benchmark, or the acceptance suite.  Code
that only the unit tests call does not belong in the package."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "symdigits"


def _names(tree: ast.AST) -> set:
    """Identifiers a tree refers to: names, attributes, imported names and
    identifier strings (the benchmark's tracer looks functions up by name)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            found.add(node.value)
    return found


def test_every_package_definition_is_used_outside_the_unit_tests():
    others = [*sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
              ROOT / "tests" / "test_acceptance.py"]
    used_elsewhere = set().union(*(_names(ast.parse(p.read_text())) for p in others))
    # the package's top-level statements, each with the names it refers to
    statements = [(path, node, _names(node)) for path in sorted(PACKAGE.glob("*.py"))
                  if path.name != "__init__.py" for node in ast.parse(path.read_text()).body]
    unused = [f"{path.name}:{node.lineno} {node.name}" for path, node, _ in statements
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in used_elsewhere
              and not any(node.name in names for _, other, names in statements
                          if other is not node)]
    assert unused == []
