"""Every top-level function and class in ``src/symdigits`` has a caller
outside its own definition: in the package (re-exports in ``__init__.py``
do not count), the demos, the benchmark, or the acceptance suite.  Code
that only the unit tests call does not belong in the package, and neither
does an attribute that nothing reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "symdigits"
MODULES = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
OTHERS = [*sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
          ROOT / "tests" / "test_acceptance.py"]


def _names(tree: ast.AST) -> set:
    """Identifiers a tree reads: names, attributes, imported names and
    identifier strings (the benchmark's tracer looks functions up by name).
    An assignment's target is not a read."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            found.add(node.value)
    return found


def _attributes(tree: ast.AST):
    """(line, name) of each plain class-body assignment and each attribute
    set on ``self``.  Annotated class fields are left out: ``asdict`` and
    the reports write dataclass fields without naming them."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for statement in node.body:
                if isinstance(statement, ast.Assign):
                    yield from ((statement.lineno, target.id) for target in statement.targets
                                if isinstance(target, ast.Name))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                and isinstance(node.value, ast.Name) and node.value.id == "self":
            yield node.lineno, node.attr


def test_every_package_definition_is_used_outside_the_unit_tests():
    used_elsewhere = set().union(*(_names(ast.parse(p.read_text())) for p in OTHERS))
    # the package's top-level statements, each with the names it refers to
    statements = [(path, node, _names(node)) for path in MODULES
                  for node in ast.parse(path.read_text()).body]
    unused = [f"{path.name}:{node.lineno} {node.name}" for path, node, _ in statements
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in used_elsewhere
              and not any(node.name in names for _, other, names in statements
                          if other is not node)]
    assert unused == []


def test_every_attribute_is_read_outside_the_unit_tests():
    read = set().union(*(_names(ast.parse(p.read_text())) for p in [*MODULES, *OTHERS]))
    unread = [f"{path.name}:{line} {name}" for path in MODULES
              for line, name in _attributes(ast.parse(path.read_text())) if name not in read]
    assert unread == []
