"""Scalar fields on coordinate charts with derivatives up to fourth order.

``ExprField`` is the one field backend: an expression tree on a chart,
differentiated exactly.  The tree reads the chart's coordinates and
nothing else; a name that stands for a value was bound when the text
was parsed (``parse(text, names, bindings)``), so a field carries no
value environment.  ``ExprField.differentiate(*coords)`` takes a partial
derivative as a field.  The one memo under it is the expression nodes'
own (``Expr.derivative``), and fields keep no derivative state: the jets
of ``geometry.field_jet`` apply ``Expr.derivative`` to the trees
themselves, through the same node memo, and evaluate the partials with
``node_value`` rather than as fields.  On grids ``evaluate_axes`` runs
a :class:`Plan` of the tree instead, compiled for one shape per axis (a
column, a row, a scalar): each array value goes into a buffer the plan
owns, free again after its last reader, so a plan run again allocates
nothing but its result.

A field's tree reads only its chart's coordinates.  That is checked where
a tree enters the field layer from outside: ``ExprField(expr, chart)``,
``from_text``, ``constant``, ``on_chart`` and a bare tree given as an
operand of field arithmetic raise ``ExpressionError`` on an unbound name.
Field arithmetic and negation combine trees that passed the check on the
same chart (a field on another chart raises ``DomainError``), and
``differentiate`` reads no name its field did not, so their results are
built without checking again.

``Grid`` is the one uniform grid, n-D, which ``export`` samples fields
on (``sample_to_grid``), ``grid_to_csv`` writes and the dKP evolver
steps on; it refuses a degenerate axis when it is built.
"""

from __future__ import annotations

import numbers

import numpy as np

from .expressions import (
    Const,
    EvaluationError,
    ExpressionError,
    Expr,
    Frozen,
    Var,
    add,
    as_expr,
    div,
    mul,
    neg,
    node_value,
    parse,
)

#: half-width of the exclusion band around a declared singular locus
EXCLUDED_BAND_HALF_WIDTH = 0.05

MAX_DERIVATIVE_ORDER = 4


class DomainError(ValueError):
    """Point outside the declared chart domain or inside an excluded band."""


class OrderOverflowError(ValueError):
    """Derivative request beyond total order four."""


class ExcludedBand(Frozen):
    """Open band |coord - center| < half_width removed from the domain."""

    __slots__ = ("coord", "center", "half_width")

    def __init__(self, coord: str, center: float,
                 half_width: float = EXCLUDED_BAND_HALF_WIDTH):
        object.__setattr__(self, "coord", coord)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_width", half_width)


class Chart(Frozen):
    """Ordered coordinate names plus declared singular loci."""

    __slots__ = ("coords", "excluded")

    def __init__(self, coords, excluded=()):
        object.__setattr__(self, "coords", tuple(coords))
        object.__setattr__(self, "excluded", tuple(excluded))

    @property
    def dim(self):
        return len(self.coords)

    def axis(self, name: str) -> int:
        try:
            return self.coords.index(name)
        except ValueError:
            raise DomainError(f"{name!r} is not a coordinate of {self.coords}") from None

    def check_domain(self, axes) -> None:
        """Raise DomainError if a coordinate array of ``axes``, one per
        chart axis, enters an excluded band."""
        for band in self.excluded:
            values = axes[self.axis(band.coord)]
            if np.any(np.abs(values - band.center) < band.half_width):
                raise DomainError(
                    f"evaluation inside excluded band {band.coord} = {band.center}"
                )


def _as_points(points, dim):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        if pts.shape[0] != dim:
            raise DomainError(f"expected a point of dimension {dim}")
        return pts[None, :], True
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise DomainError(f"expected points of shape (n, {dim})")
    return pts, False


class Plan:
    """``tree`` compiled for variable values of the given ``shapes`` (a
    dict by name).  A step is a distinct node, its children's steps and
    its buffer: none for a leaf or a scalar value, computed as
    ``node_value`` computes it, else one freed by an earlier step, or a
    new one.  A root of the full shape writes into the result, which may
    serve any earlier step too: only the root's operands are alive when
    the root runs."""

    def __init__(self, tree: Expr, shapes: dict):
        nodes = []
        _post_order(tree, shapes, nodes, {})
        self.shape = np.broadcast_shapes(*shapes.values())
        self.direct = bool(nodes[-1][1]) and nodes[-1][2] == self.shape != ()
        last = {k: j for j, (_, args, _) in enumerate(nodes) for k in args}
        free, owned, self.steps = {self.shape: [_OUT] if self.direct else []}, {}, []
        for j, (node, args, shape) in enumerate(nodes):
            for k in {k for k in args if last[k] == j} & owned.keys():
                free.setdefault(nodes[k][2], []).append(owned.pop(k))
            buffer = None
            if j == len(nodes) - 1 and self.direct:
                buffer = _OUT
            elif args and shape:
                pool = free.get(shape)
                buffer = owned[j] = pool.pop() if pool else np.empty(shape)
            self.steps.append((node, args, buffer))

    def __call__(self, env: dict, out=None) -> np.ndarray:
        """The tree at ``env``, in ``out`` (apart from ``env``) or new."""
        if out is None:
            out = np.empty(self.shape)
        values = []
        for node, args, buffer in self.steps:
            values.append(node.apply(*[values[k] for k in args],
                                     out=out if buffer is _OUT else buffer)
                          if args else node.evaluate(env))
        if not self.direct:
            out[...] = values[-1]
        return out


#: the buffer that stands for the result array
_OUT = object()


def _post_order(node, shapes, nodes, index) -> int:
    """Append ``(node, child steps, shape)`` to ``nodes`` for each node
    not in ``index`` (by id), children first in the walk's order."""
    if id(node) not in index:
        args = tuple(_post_order(getattr(node, name), shapes, nodes, index)
                     for name in node.children)
        shape = (np.broadcast_shapes(*(nodes[k][2] for k in args)) if args
                 else shapes.get(node.name, ()) if isinstance(node, Var) else ())
        index[id(node)] = len(nodes)
        nodes.append((node, args, shape))
    return index[id(node)]


class ExprField:
    """Closed-form backend: exact differentiation of an expression tree.
    ``plans``, if a dict, keeps the field's plans (see ``evaluate_axes``)."""

    def __init__(self, expr, chart: Chart, plans=None):
        self.expr = as_expr(expr)
        self.chart = chart
        self.plans = plans
        free = self.expr.variables() - set(chart.coords)
        if free:
            raise ExpressionError(f"unbound variables {sorted(free)}")

    @classmethod
    def from_text(cls, text: str, chart: Chart) -> "ExprField":
        return cls(parse(text, chart.coords), chart)

    @classmethod
    def constant(cls, value, chart: Chart) -> "ExprField":
        return cls(as_expr(value), chart)

    def on_chart(self, chart: Chart) -> "ExprField":
        """The same expression viewed on a larger chart."""
        return ExprField(self.expr, chart)

    def evaluate_axes(self, *axes, memo=None, out=None) -> np.ndarray:
        """The field at the coordinates ``axes``, one array per chart axis,
        broadcast against each other with numpy's rules, in ``out`` or a
        new array.

        The evaluation routine of a field, at sample points (through
        ``evaluate``) and on grids: on a tensor grid pass each axis shaped
        to broadcast (x as a column, y as a row, t as a scalar), so every
        function of one coordinate is evaluated once per node of its axis.
        ``memo`` is an evaluation memo for these ``axes`` (see
        ``expressions``).  Without one the tree runs through the ``Plan``
        of the axes' shapes, compiled for the call, or once and kept with
        its buffers if the field has ``plans``.  Jets
        (``geometry.field_jet``) evaluate their partials directly.
        """
        if len(axes) != self.chart.dim:
            raise DomainError(f"expected {self.chart.dim} coordinate arrays")
        self.chart.check_domain(axes)
        env = dict(zip(self.chart.coords, axes))
        if memo is None:
            key = tuple(map(np.shape, axes))
            plans = {} if self.plans is None else self.plans
            if key not in plans:
                plans[key] = Plan(self.expr, dict(zip(self.chart.coords, key)))
            values = plans[key](env, out)
        else:
            values = np.asarray(node_value(self.expr, env, memo), dtype=float)
            shape = np.broadcast(*axes).shape
            if values.shape != shape:  # a tree that does not read every axis
                values = np.broadcast_to(values, shape)
            values = np.array(values) if out is None else np.copyto(out, values) or out
        if not np.isfinite(values).all():
            raise EvaluationError("non-finite field value")
        return values

    def evaluate(self, points, memo=None):
        """The field at ``points`` of shape (n, dim), or at one point.

        Each node of the tree is evaluated once, through ``memo`` if one is
        given (it must belong to the same ``points``) or a fresh one.
        """
        pts, single = _as_points(points, self.chart.dim)
        values = self.evaluate_axes(*pts.T, memo={} if memo is None else memo)
        return float(values[0]) if single else values

    def differentiate(self, *coords) -> "ExprField":
        """The partial derivative along the chart coordinates ``coords``,
        one name per order: ``differentiate("x", "y")`` is Theta_xy.

        The one derivative entry point.  The names are sorted into chart
        order, so ``("y", "x")`` and ``("x", "y")`` are one request, and
        each is applied with ``Expr.derivative``: the memo lives on the
        expression nodes, so asking again returns the same tree.  A
        derivative reads no name its tree did not, so it is not checked
        against the chart again.
        """
        if len(coords) > MAX_DERIVATIVE_ORDER:
            raise OrderOverflowError(
                f"total derivative order {len(coords)} exceeds "
                f"{MAX_DERIVATIVE_ORDER}")
        expr = self.expr
        for name in sorted(coords, key=self.chart.axis):
            expr = expr.derivative(name)
        return _unchecked_field(expr, self.chart)

    # Field arithmetic builds new trees; handy for residual operators.
    def _operand(self, other) -> Expr:
        """The tree of ``other``: a field on this chart, a tree the chart
        binds (checked as ``ExprField`` checks it) or a number."""
        if isinstance(other, ExprField):
            if other.chart != self.chart:
                raise DomainError("field charts differ")
            return other.expr
        if isinstance(other, Expr):
            return ExprField(other, self.chart).expr
        return Const(float(other))

    def __add__(self, other):
        return _unchecked_field(add(self.expr, self._operand(other)),
                                self.chart)

    __radd__ = __add__

    def __sub__(self, other):
        return _unchecked_field(add(self.expr, neg(self._operand(other))),
                                self.chart)

    def __rsub__(self, other):
        return _unchecked_field(add(self._operand(other), neg(self.expr)),
                                self.chart)

    def __mul__(self, other):
        return _unchecked_field(mul(self.expr, self._operand(other)),
                                self.chart)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _unchecked_field(div(self.expr, self._operand(other)),
                                self.chart)

    def __rtruediv__(self, other):
        return _unchecked_field(div(self._operand(other), self.expr),
                                self.chart)

    def __neg__(self):
        return _unchecked_field(neg(self.expr), self.chart)


def _unchecked_field(expr: Expr, chart: Chart) -> ExprField:
    """A field of ``expr``, a tree built from trees already checked on
    ``chart`` (operands, or the tree a derivative was taken of), so it
    reads no name the chart lacks and is not checked again."""
    field = ExprField.__new__(ExprField)
    field.expr, field.chart, field.plans = expr, chart, None
    return field


class Grid:
    """A uniform tensor grid: per-axis ``(lo, hi, n)``, given flat as
    ``Grid(x0, x1, nx, y0, y1, ny, ...)``.  Every axis has an integer
    count of at least two nodes and finite edges, low below high."""

    def __init__(self, *edges):
        if not edges or len(edges) % 3:
            raise ValueError(f"expected (lo, hi, n) per axis, got {edges}")
        ranges = []
        for lo, hi, n in zip(edges[::3], edges[1::3], edges[2::3]):
            lo, hi = float(lo), float(hi)
            if not (isinstance(n, numbers.Integral) and n >= 2
                    and np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"degenerate grid axis ({lo}, {hi}, {n}): "
                                 f"need n >= 2 and finite lo < hi")
            ranges.append((lo, hi, int(n)))
        self.ranges = tuple(ranges)
        self.shape = tuple(n for _, _, n in self.ranges)
        self.spacing = tuple((hi - lo) / (n - 1) for lo, hi, n in self.ranges)

    def axes(self):
        """The nodes of each axis, shaped to broadcast: for two axes an
        (nx, 1) column of x and a (1, ny) row of y."""
        dim = len(self.ranges)
        return [np.linspace(lo, hi, n).reshape([-1 if k == j else 1
                                                for k in range(dim)])
                for j, (lo, hi, n) in enumerate(self.ranges)]

    def mesh(self):
        return np.broadcast_arrays(*self.axes())

    def ring(self):
        """Boolean mask of the grid's shape, True on the boundary nodes."""
        ring = np.ones(self.shape, dtype=bool)
        ring[(slice(1, -1),) * len(self.shape)] = False
        return ring


def sample_to_grid(field: ExprField, grid: Grid) -> np.ndarray:
    """The field at the grid's nodes; node values match evaluation exactly."""
    return field.evaluate_axes(*grid.axes())


# --- CSV serialization of sampled grids --------------------------------------

def grid_to_csv(grid: Grid, values: np.ndarray, names, path) -> None:
    """Header row with the axes, named ``names``, then the row-major
    ``values`` on ``grid`` (%.17g)."""
    if values.shape != grid.shape or len(names) != len(grid.shape):
        raise ValueError(f"values of shape {values.shape} on axes {names} "
                         f"do not fit a grid of shape {grid.shape}")
    spec = ";".join(f"{name},{lo:.17g},{hi:.17g},{n}"
                    for name, (lo, hi, n) in zip(names, grid.ranges))
    with open(path, "w") as handle:
        handle.write(f"# axes: {spec}\n")
        for row in values.reshape(-1, grid.shape[-1]):
            handle.write(",".join(f"{v:.17g}" for v in row) + "\n")
