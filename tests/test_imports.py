"""Every module-level import of the package is referenced in its module,
every function, class, method and module-level constant it defines is
referenced by name from the package or the benchmark, and every test
oracle is referenced from a test.  Importing the package loads none of
its modules, so a process loads only the modules it asks for and
theirs.  The package draws nothing at random: no module reaches a
random generator, and a suite run loads none."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nullkahler"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
#: the modules whose references count as uses of a package definition
USERS = sorted(p for folder in ("src", "perfbench")
               for p in (ROOT / folder).rglob("*.py"))
#: the tests' independent references, and the tests that must use them
ORACLES = ROOT / "tests" / "oracles.py"
TESTS = sorted(ORACLES.parent.glob("test_*.py"))


#: the package's modules in ``sys.modules`` after importing a module in
#: a fresh interpreter: the package imports nothing, the evolver needs
#: only the expression trees and the fields, and the command line every
#: module but ``__main__`` and the evolver, which only its evolve command
#: loads, when it runs
LOADED_BY = {
    "nullkahler": {"nullkahler"},
    "nullkahler.evolver": {"nullkahler", "nullkahler.evolver",
                           "nullkahler.expressions", "nullkahler.fields"},
    "nullkahler.cli": {"nullkahler", "nullkahler.cli", "nullkahler.curvature",
                       "nullkahler.dkp", "nullkahler.expressions",
                       "nullkahler.fields", "nullkahler.geometry",
                       "nullkahler.nk_system", "nullkahler.sampling"},
}


def _fresh_stdout(code):
    """What ``code`` prints in a fresh interpreter that imports the
    package from the source tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", LOADED_BY)
def test_import_loads_only_the_modules_it_needs(module):
    code = (f"import sys, {module}; print(*sorted(name for name in sys.modules"
            " if name.partition('.')[0] == 'nullkahler'))")
    assert set(_fresh_stdout(code).split()) == LOADED_BY[module]


def test_build_parser_leaves_the_evolver_unloaded():
    # ``nullkahler check`` builds the parser too, and compiles no evolver
    code = ("import sys, nullkahler.cli; nullkahler.cli.build_parser();"
            " print('nullkahler.evolver' in sys.modules)")
    assert _fresh_stdout(code).split() == ["False"]


def test_cli_import_creates_no_dataclass():
    # a frozen dataclass execs generated source for each method when its
    # class is created, about 1 ms apiece, in every process that starts
    code = ("import sys, numpy; before = set(sys.modules); import nullkahler.cli;"
            " print(*sorted(set(sys.modules) - before))")
    added = _fresh_stdout(code).split()
    assert "nullkahler.cli" in added
    assert "dataclasses" not in added


def test_check_run_loads_no_random_module():
    # no check draws at random, so a ``nullkahler check`` process never
    # loads numpy.random (about 6 MB and 15 ms when it does)
    config = PACKAGE / "fixtures" / "paper.cfg"
    code = ("import contextlib, io, sys, nullkahler.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = nullkahler.cli.main(['check', '--config', {str(config)!r}])\n"
            "print(code, 'numpy.random' in sys.modules)")
    assert _fresh_stdout(code).split() == ["0", "False"]


def _random_uses(tree):
    """Line numbers where a module imports ``random`` (the standard
    module, ``numpy.random`` or any other) or takes a ``.random``
    attribute."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [f"{node.module}.{alias.name}" for alias in node.names]
            modules.append(node.module or "")
        elif isinstance(node, ast.Attribute):
            modules = [node.attr]
        else:
            continue
        if any("random" in name.split(".") for name in modules):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_reaches_a_random_generator(path):
    # also on the paths a paper.cfg suite never runs: export and evolve
    uses = _random_uses(ast.parse(path.read_text(), filename=str(path)))
    assert not uses, f"{path.name} reaches a random module at lines {uses}"


def test_the_random_guard_sees_each_form():
    for text in ("import random", "import numpy.random", "from random import "
                 "choice", "from numpy import random", "from numpy.random "
                 "import default_rng", "np.random.default_rng(0)"):
        assert _random_uses(ast.parse(text)) == [1], text
    assert _random_uses(ast.parse("from . import sampling\nrandomize = 1")) == []


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


def _assigned_names(target):
    """Names a module-level assignment target binds."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in _assigned_names(elt)]
    return []


def _definitions(tree):
    """(qualified name, name, is a method) of every function, class,
    method and module-level constant."""
    out = []
    for stmt in tree.body:
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target] if isinstance(stmt, ast.AnnAssign)
                   else [])
        out += [(name, name, False) for target in targets
                for name in _assigned_names(target)]

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
    both.  A name that is only assigned is not read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
                attributes.update(parts)


def _unreferenced(defining, users):
    """Every definition in the modules ``defining``, as "<file>:
    <qualified name>", that no module in ``users`` references; a method
    counts as referenced only where it is taken as an attribute, not
    where a local variable happens to share its name."""
    names, attributes = set(), set()
    for path in users:
        _references(ast.parse(path.read_text()), names, attributes)
    return [f"{path.name}: {qualified}"
            for path in defining
            for qualified, name, method
            in _definitions(ast.parse(path.read_text()))
            if not (name.startswith("__") and name.endswith("__"))
            and name not in (attributes if method else names | attributes)]


def test_every_definition_is_referenced():
    # only the package and the benchmark count as users: an import or a
    # re-export in __init__ is not a use, and a call from a test is not
    # one either, so the package holds no test-only code
    unused = _unreferenced(sorted(PACKAGE.glob("*.py")), USERS)
    assert not unused, f"defined but never referenced: {unused}"


def test_every_test_oracle_is_tested():
    # the oracles are the tests' independent references: one that no
    # test reads checks nothing
    untested = _unreferenced([ORACLES], TESTS)
    assert not untested, f"no test references {untested}"
