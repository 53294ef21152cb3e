"""Every module-level import of the package is referenced in its module,
and every function, class and method it defines is referenced by name."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nullkahler"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _bound_names(stmt):
    """Names a module-level import statement binds."""
    if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
        return []
    if isinstance(stmt, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in stmt.names]
    if isinstance(stmt, ast.ImportFrom):
        return [a.asname or a.name for a in stmt.names]
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = [name for stmt in tree.body for name in _bound_names(stmt)]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in imported if name not in used]
    assert not unused, f"{path.name} imports {unused} and never uses them"


def _definitions(tree):
    """(qualified name, name, is a method) of every function, class and
    method."""
    out = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                out.append((prefix + child.name, child.name, in_class))
                visit(child, prefix + child.name + ".",
                      isinstance(child, ast.ClassDef))
            else:
                visit(child, prefix, in_class)

    visit(tree, "", False)
    return out


def _references(tree, names, attributes):
    """Add the names read to ``names`` and the attributes taken to
    ``attributes``; a string constant that is a dotted name, as the
    benchmark tracer and ``monkeypatch`` name their targets, adds to
    both."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
                attributes.update(parts)


def test_every_definition_is_referenced():
    # an import or a re-export in __init__ is not a use; a method counts
    # as used only where it is taken as an attribute, not where a local
    # variable happens to share its name
    names, attributes = set(), set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            _references(ast.parse(path.read_text()), names, attributes)
    unused = [f"{path.name}: {qualified}"
              for path in sorted(PACKAGE.glob("*.py"))
              for qualified, name, method
              in _definitions(ast.parse(path.read_text()))
              if not (name.startswith("__") and name.endswith("__"))
              and name not in (attributes if method else names | attributes)]
    assert not unused, f"defined but never referenced: {unused}"
