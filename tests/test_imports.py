"""Every module-level import of the package is referenced in its module,
and every function, class, method and module-level constant it defines
is referenced by name from the package or the benchmark, or is a listed
test oracle.  Importing the package loads none of its modules, so a
process loads only the modules it asks for and theirs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nullkahler"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
#: the folders whose references count as uses of a definition
USERS = ("src", "perfbench")


#: the package's modules in ``sys.modules`` after importing a module in
#: a fresh interpreter: the package imports nothing, and the evolver
#: needs only the expression trees and the fields
LOADED_BY = {
    "nullkahler": {"nullkahler"},
    "nullkahler.evolver": {"nullkahler", "nullkahler.evolver",
                           "nullkahler.expressions", "nullkahler.fields"},
}


@pytest.mark.parametrize("module", LOADED_BY)
def test_import_loads_only_the_modules_it_needs(module):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    code = (f"import sys, {module}; print(*sorted(name for name in sys.modules"
            " if name.partition('.')[0] == 'nullkahler'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == LOADED_BY[module]


def test_cli_import_creates_no_dataclass():
    # a frozen dataclass execs generated source for each method when its
    # class is created, about 1 ms apiece, in every process that starts
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    code = ("import sys, numpy; before = set(sys.modules); import nullkahler.cli;"
            " print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "nullkahler.cli" in added
    assert "dataclasses" not in added


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


def _references(tree, names, attributes, skip=()):
    """Add the names read to ``names`` and the attributes taken to
    ``attributes``; a string constant that is a dotted name, as the
    benchmark tracer and ``monkeypatch`` name their targets, adds to
    both.  A name that is only assigned is not read, and nothing is read
    inside the definitions whose qualified names are in ``skip``."""
    stack = [(tree, "")]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            prefix += node.name
            if prefix in skip:
                continue
            prefix += "."
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
                attributes.update(parts)
        stack.extend((child, prefix) for child in ast.iter_child_nodes(node))


#: Definitions that no module of the package or the benchmark calls and
#: that the tests keep as their independent references, as
#: "<module file>: <qualified name>".  A name the package starts to call
#: leaves this list.
TEST_ORACLES = (
    # paper constructions the tests use as fixtures: the symmetry orbit
    # of linearised solutions and the W = H_x/2 hyper-Kahler case
    "dkp.py: symmetry_w",
    "dkp.py: hyperkahler_specialize",
    # the closed form of d Sigma^{1'1'}, which criterion 9 compares the
    # exact exterior derivative against; the suite reads only the two
    # closed forms Sigma^{0'0'} and Sigma^{0'1'}
    "dkp.py: sigma11_rhs",
    # cross-checks: a second derivation of the metric, its signature,
    # the orientation and the Hodge star that the checks take as given
    "geometry.py: hodge_star",
    "geometry.py: MetricField.signature_counts",
    "geometry.py: CoFrame.orientation_sign",
    # the volume form e^0 ^ e^1 ^ e^2 ^ e^3, which only the orientation
    # cross-check above builds
    "geometry.py: CoFrame.volume_form",
    "geometry.py: metric_from_coframe",
    "spinors.py: sd_asd_split",
    # the value types the criterion-11 oracles build and return: a
    # tagged 2-spinor for raise_lower and contract, a checked two-form
    # for sd_asd_split, and the error their checks raise
    "spinors.py: Spinor2",
    "spinors.py: TwoFormValue",
    "spinors.py: SpinorError",
    # criterion-11 spinor algebra: the 2-spinor conventions the
    # soldering and the Weyl spinors are tested against
    "spinors.py: raise_lower",
    "spinors.py: contract",
    "spinors.py: vector_to_bispinor",
    "spinors.py: bispinor_to_vector",
    "spinors.py: sigma_basis",
)


def _referenced(folders):
    """(names, attributes) read by the modules under ``folders``, outside
    the package's test oracles: a name that only an oracle reads is
    test-only too."""
    names, attributes = set(), set()
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            oracles = {entry.partition(": ")[2] for entry in TEST_ORACLES
                       if path.parent == PACKAGE
                       and entry.startswith(path.name + ": ")}
            _references(ast.parse(path.read_text()), names, attributes,
                        oracles)
    return names, attributes


def _unreferenced(names, attributes):
    """Every package definition, as "<file>: <qualified name>", that
    ``names`` and ``attributes`` do not reach."""
    return [f"{path.name}: {qualified}"
            for path in sorted(PACKAGE.glob("*.py"))
            for qualified, name, method
            in _definitions(ast.parse(path.read_text()))
            if not (name.startswith("__") and name.endswith("__"))
            and name not in (attributes if method else names | attributes)]


def test_every_definition_is_referenced():
    # only the package and the benchmark count as users: an import or a
    # re-export in __init__ is not a use, a call from a test is not one
    # either (the test oracles are listed above), and a method counts as
    # used only where it is taken as an attribute, not where a local
    # variable happens to share its name
    unused = [entry for entry in _unreferenced(*_referenced(USERS))
              if entry not in TEST_ORACLES]
    assert not unused, f"defined but never referenced: {unused}"


def test_test_oracles_are_defined_tested_and_not_called():
    unused = set(_unreferenced(*_referenced(USERS)))
    untested = set(_unreferenced(*_referenced(("tests",))))
    defined = set(_unreferenced(set(), set()))
    assert len(set(TEST_ORACLES)) == len(TEST_ORACLES)
    for entry in TEST_ORACLES:
        assert entry in defined, f"{entry} is not defined in the package"
        assert entry not in untested, f"no test references {entry}"
        assert entry in unused, (
            f"{entry} is referenced from {USERS}; take it off TEST_ORACLES")
