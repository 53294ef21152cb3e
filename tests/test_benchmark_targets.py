"""The traced benchmark patches program functions by module and name."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.PROGRAM_TARGETS
    for mod_name, path, _ in tracer.PROGRAM_TARGETS:
        owner = importlib.import_module(mod_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        # the tracer replaces the attribute where it is defined, so an
        # inherited method would not do
        assert callable(vars(owner).get(attr)), (mod_name, path)
