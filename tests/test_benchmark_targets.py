"""The traced benchmark patches program functions by module and name."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    assert tracer.PROGRAM_TARGETS
    for mod_name, path, _ in tracer.PROGRAM_TARGETS:
        owner = importlib.import_module(mod_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        # the tracer replaces the attribute where it is defined, so an
        # inherited method would not do
        assert callable(vars(owner).get(attr)), (mod_name, path)


def test_node_classes_define_their_counted_methods():
    # the tracer counts node work by replacing ``evaluate`` and ``diff``
    # in each node class's own namespace; a method inherited from ``Expr``
    # would make that lookup fail, and a class it does not name goes
    # uncounted
    from nullkahler.expressions import Expr

    tracer = _load_tracer()
    expressions = importlib.import_module("nullkahler.expressions")
    assert {cls.__name__ for cls in Expr.__subclasses__()} == set(tracer.NODE_CLASSES)
    for cls_name in tracer.NODE_CLASSES:
        cls = getattr(expressions, cls_name)
        for method in ("evaluate", "diff"):
            assert callable(vars(cls).get(method)), (cls_name, method)
