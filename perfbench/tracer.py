"""From-outside tracer for the traced benchmark run.

It wraps public functions and methods of ``nullkahler`` (and
``numpy.einsum`` / ``numpy.linalg.solve``) at every place the program
binds them, records one span per call (name, start, end, parent) and a
few counters, and restores the originals on ``uninstall``.  Nothing
under ``src/`` changes.

Each thread keeps its own span stack, span list and counters, so the
threaded suite mode is traced without locks on the hot path.  Spans stay
in memory until ``layer_metrics`` reduces them, once, after the call.

Self time of a span is its duration minus the time covered by its child
spans from the program.  NumPy spans are a cross-cutting layer: they are
recorded with their parent but never subtracted from it, so the
soldering ``einsum`` counts toward ``oracle_report``'s self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from time import perf_counter

import numpy as np

# (module, attribute path, span name).  A function is also patched in
# every other nullkahler module that imported it by name.
PROGRAM_TARGETS = (
    ("nullkahler.cli", "load_config", "cli.load_config"),
    ("nullkahler.cli", "run_fixture", "cli.run_fixture"),
    ("nullkahler.fields", "ExprField.evaluate", "fields.evaluate"),
    ("nullkahler.fields", "ExprField.differentiate", "fields.differentiate"),
    ("nullkahler.sampling", "SamplePlan.points", "sampling.points"),
    ("nullkahler.geometry", "MetricField.evaluate", "geometry.metric_jet"),
    ("nullkahler.geometry", "MetricField.inverse", "geometry.metric_jet"),
    ("nullkahler.geometry", "MetricField.first_derivatives", "geometry.metric_jet"),
    ("nullkahler.geometry", "MetricField.second_derivatives", "geometry.metric_jet"),
    ("nullkahler.geometry", "CoFrame.evaluate", "geometry.coframe_jet"),
    ("nullkahler.geometry", "CoFrame.first_derivatives", "geometry.coframe_jet"),
    ("nullkahler.geometry", "CoFrame.second_derivatives", "geometry.coframe_jet"),
    ("nullkahler.geometry", "CoFrame.dual_vectors", "geometry.coframe_jet"),
    ("nullkahler.geometry", "exterior_derivative", "geometry.exterior_derivative"),
    ("nullkahler.curvature", "coordinate_curvature", "curvature.coordinate_curvature"),
    ("nullkahler.curvature", "check_null_kahler", "curvature.check_null_kahler"),
    ("nullkahler.curvature", "oracle_report", "curvature.oracle_report"),
    ("nullkahler.curvature", "spin_connection", "curvature.spin_connection"),
    ("nullkahler.curvature", "curvature_two_forms", "curvature.curvature_two_forms"),
    ("nullkahler.curvature", "decompose_curvature", "curvature.decompose_curvature"),
    ("nullkahler.nk_system", "residual_nk1", "nk_system.residual_build"),
    ("nullkahler.nk_system", "residual_nk2", "nk_system.residual_build"),
    ("nullkahler.nk_system", "commutator_sweep", "nk_system.commutator_sweep"),
    ("nullkahler.dkp", "ew_residual", "dkp.ew_residual"),
    ("nullkahler.dkp", "monopole_residual", "dkp.monopole_residual"),
    ("nullkahler.dkp", "sd_two_forms", "dkp.sd_two_forms"),
    ("nullkahler.dkp", "jones_tod_reduce", "dkp.jones_tod_reduce"),
    ("nullkahler.evolver", "dkp_evolve", "evolver.dkp_evolve"),
    ("nullkahler.evolver", "Grid2D.mesh", "evolver.mesh"),
    ("nullkahler.evolver", "BoundarySource.u_on", "evolver.boundary"),
    ("nullkahler.evolver", "BoundarySource.udot_on", "evolver.boundary"),
    ("nullkahler.evolver", "BoundarySource.source_on", "evolver.boundary"),
)

NUMPY_TARGETS = (
    ("numpy", "einsum", "numpy.einsum"),
    ("numpy.linalg", "solve", "numpy.linalg_solve"),
)

# Expression nodes are only counted: a span per node would dwarf the work.
NODE_CLASSES = ("Const", "Var", "Add", "Mul", "Div", "Pow", "Neg", "Call")

#: per-layer metrics in report order: (name, unit, reduction, source).
#: ``source`` names the spans, or the counter, that the reduction reads.
LAYER_METRICS = (
    ("cli.load_config_s", "s", "inclusive", "cli.load_config"),
    ("cli.fixture_build_s", "s", "inclusive", "cli.fixture_build"),
    ("cli.fixture_busy_s", "s", "busy", "cli.run_fixture"),
    ("cli.slowest_fixture_s", "s", "slowest", "cli.run_fixture"),
    ("expressions.node_evals", "count", "counter", "expressions.node_evals"),
    ("expressions.node_diffs", "count", "counter", "expressions.node_diffs"),
    ("fields.evaluate_calls", "count", "calls", "fields.evaluate"),
    ("fields.evaluate_s", "s", "inclusive", "fields.evaluate"),
    ("fields.points_evaluated", "count", "counter", "fields.points_evaluated"),
    ("fields.differentiate_calls", "count", "calls", "fields.differentiate"),
    ("fields.differentiate_s", "s", "inclusive", "fields.differentiate"),
    ("sampling.points_s", "s", "inclusive", "sampling.points"),
    ("geometry.metric_jet_calls", "count", "calls", "geometry.metric_jet"),
    ("geometry.metric_jet_s", "s", "inclusive", "geometry.metric_jet"),
    ("geometry.coframe_jet_calls", "count", "calls", "geometry.coframe_jet"),
    ("geometry.coframe_jet_s", "s", "inclusive", "geometry.coframe_jet"),
    ("geometry.exterior_derivative_s", "s", "inclusive", "geometry.exterior_derivative"),
    ("curvature.coordinate_curvature_calls", "count", "calls", "curvature.coordinate_curvature"),
    ("curvature.coordinate_curvature_self_s", "s", "self", "curvature.coordinate_curvature"),
    ("curvature.check_null_kahler_self_s", "s", "self", "curvature.check_null_kahler"),
    ("curvature.oracle_report_calls", "count", "calls", "curvature.oracle_report"),
    ("curvature.oracle_report_self_s", "s", "self", "curvature.oracle_report"),
    ("curvature.spin_connection_self_s", "s", "self", "curvature.spin_connection"),
    ("curvature.curvature_two_forms_s", "s", "inclusive", "curvature.curvature_two_forms"),
    ("curvature.decompose_curvature_s", "s", "inclusive", "curvature.decompose_curvature"),
    ("numpy.einsum_calls", "count", "calls", "numpy.einsum"),
    ("numpy.einsum_s", "s", "inclusive", "numpy.einsum"),
    ("numpy.linalg_solve_s", "s", "inclusive", "numpy.linalg_solve"),
    ("nk_system.residual_build_s", "s", "inclusive", "nk_system.residual_build"),
    ("nk_system.commutator_sweep_s", "s", "inclusive", "nk_system.commutator_sweep"),
    ("dkp.ew_residual_s", "s", "inclusive", "dkp.ew_residual"),
    ("dkp.monopole_residual_s", "s", "inclusive", "dkp.monopole_residual"),
    ("dkp.sd_two_forms_s", "s", "inclusive", "dkp.sd_two_forms"),
    ("dkp.jones_tod_reduce_s", "s", "inclusive", "dkp.jones_tod_reduce"),
    ("evolver.steps", "count", "counter", "evolver.steps"),
    ("evolver.stage_self_ms", "ms", "stage_ms", "evolver.dkp_evolve"),
    ("evolver.mesh_calls", "count", "calls", "evolver.mesh"),
    ("evolver.mesh_s", "s", "inclusive", "evolver.mesh"),
    ("evolver.boundary_calls", "count", "calls", "evolver.boundary"),
    ("evolver.boundary_s", "s", "inclusive", "evolver.boundary"),
    # traced over plain median call, minus one; the caller measures it
    ("trace.overhead_frac", "frac", "overhead", None),
)


def _outermost_s(spans, name):
    """Summed duration of the spans not nested in another span of ``name``."""
    total = 0.0
    for span in spans:
        parent = span.parent
        while parent is not None and parent.name != name:
            parent = parent.parent
        if parent is None:
            total += span.duration
    return total


def _stage_ms(spans, counts):
    """``dkp_evolve`` self time per RK4 stage, in ms."""
    steps = counts.get("evolver.steps", 0)
    return 1e3 * sum(span.self_s for span in spans) / (4 * steps) if steps else 0.0


_REDUCTIONS = {
    "calls": lambda spans, counts, source: len(spans),
    "counter": lambda spans, counts, source: counts.get(source, 0),
    "inclusive": lambda spans, counts, source: _outermost_s(spans, source),
    "self": lambda spans, counts, source: sum((span.self_s for span in spans), 0.0),
    "busy": lambda spans, counts, source: sum((span.duration for span in spans), 0.0),
    "slowest": lambda spans, counts, source: max((span.duration for span in spans),
                                                 default=0.0),
    "stage_ms": lambda spans, counts, source: _stage_ms(spans, counts),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child_s = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class _ThreadState:
    def __init__(self):
        self.stack = []
        self.spans = []
        self.counts = {}


def _resolve(owner, path):
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _points_of(args):
    shape = np.shape(args[1])
    return shape[0] if len(shape) == 2 else 1


def _steps_of(args, kwargs):
    return kwargs["steps"] if "steps" in kwargs else args[2]


class Tracer:
    """Patches the program on ``install`` and collects spans per thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._patches = []

    # --- recording ----------------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def _span_wrapper(self, fn, name, counter=None):
        state_of = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            span = Span(name, stack[-1] if stack else None)
            if counter is not None:
                key, amount = counter(args, kwargs)
                state.counts[key] = state.counts.get(key, 0) + amount
            stack.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
                state.spans.append(span)

        return wrapper

    def _library_wrapper(self, fn, name):
        state_of = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = state_of()
            span = Span(name, state.stack[-1] if state.stack else None)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                state.spans.append(span)

        return wrapper

    def _count_wrapper(self, fn, key):
        state_of = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = state_of().counts
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _build_wrapper(self, load_config):
        """Wrap each fixture's ``build`` closure as ``cli.fixture_build``."""
        span_of = self._span_wrapper

        @functools.wraps(load_config)
        def wrapper(*args, **kwargs):
            config = load_config(*args, **kwargs)
            for fixture in config["fixtures"]:
                fixture.build = span_of(fixture.build, "cli.fixture_build")
            return config

        return wrapper

    # --- patching -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper):
        """Rebind ``original`` in every loaded nullkahler module."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != "nullkahler":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, path, name in NUMPY_TARGETS:
            owner, attr = _resolve(importlib.import_module(mod_name), path)
            original = getattr(owner, attr)
            wrapper = self._library_wrapper(original, name)
            self._set(owner, attr, wrapper)
            self._patch_everywhere(original, wrapper)
        expressions = importlib.import_module("nullkahler.expressions")
        for cls_name in NODE_CLASSES:
            cls = getattr(expressions, cls_name)
            self._set(cls, "evaluate",
                      self._count_wrapper(cls.evaluate, "expressions.node_evals"))
            self._set(cls, "diff",
                      self._count_wrapper(cls.diff, "expressions.node_diffs"))
        counters = {
            "fields.evaluate": lambda a, k: ("fields.points_evaluated", _points_of(a)),
            "evolver.dkp_evolve": lambda a, k: ("evolver.steps", _steps_of(a, k)),
        }
        for mod_name, path, name in PROGRAM_TARGETS:
            owner, attr = _resolve(importlib.import_module(mod_name), path)
            original = owner.__dict__[attr]
            wrapper = self._span_wrapper(original, name, counters.get(name))
            if name == "cli.load_config":
                wrapper = self._build_wrapper(wrapper)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
            else:
                self._patch_everywhere(original, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self):
        with self._lock:
            for state in self._threads:
                if state.stack:
                    raise RuntimeError("reset while a traced call is running")
                state.spans.clear()
                state.counts.clear()

    def spans(self):
        with self._lock:
            return [span for state in self._threads for span in state.spans]

    def counts(self):
        total = {}
        with self._lock:
            for state in self._threads:
                for key, value in state.counts.items():
                    total[key] = total.get(key, 0) + value
        return total

    # --- reduction ----------------------------------------------------------

    def layer_metrics(self):
        """The metrics of ``LAYER_METRICS`` for the spans recorded so far.

        ``trace.overhead_frac`` compares traced with plain calls, so the
        caller adds it.
        """
        by_name = {}
        for span in self.spans():
            by_name.setdefault(span.name, []).append(span)
        counts = self.counts()
        return {name: _REDUCTIONS[how](by_name.get(source, []), counts, source)
                for name, _, how, source in LAYER_METRICS if how in _REDUCTIONS}

    def span_records(self):
        """Spans as plain dicts, parents referenced by list index."""
        spans = self.spans()
        index = {id(span): k for k, span in enumerate(spans)}
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": index.get(id(s.parent)) if s.parent is not None else None,
             "self_s": s.self_s}
            for s in spans
        ]
