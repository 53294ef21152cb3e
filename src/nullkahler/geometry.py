"""Coframes, metric fields and exterior calculus on a single chart, with
the two-spinor conventions and the Hodge star they are checked by.

Forms are stored in coordinate components (dictionaries keyed by strictly
increasing index tuples); frame quantities are converted to coordinate
components at evaluation points.  Line-element products are symmetrized,
so a displayed ``dw dx`` contributes 1/2 to each of g_wx and g_xw.

Two-spinor conventions:

* epsilon_{01} = epsilon_{0'1'} = 1 and epsilon^{01} = 1, so that
  epsilon^{AB} epsilon_{CB} = delta^A_C (north-west / south-east);
  iota_A = iota^B epsilon_{BA} and iota^A = epsilon^{AB} iota_B.
* Coframe values are E[n, A, A', mu], the null tetrad e^{AA'} in the
  order 00', 01', 10', 11', with g = 2(e^{00'} e^{11'} - e^{10'} e^{01'});
  nothing assumes a diag(+, +, -, -) ordering of the chart.
* Symmetric 2-spinor objects are stored in the pair order ``SYM_PAIRS``,
  ((0, 0), (0, 1), (1, 1)).
* Sigma^{A'B'} = (1/2) epsilon_{AB} e^{AA'} ^ e^{BB'} and the mirror
  formula for Sigma^{AB}; this normalization satisfies the coframe
  reconstruction identity exactly.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import combinations, permutations

import numpy as np

from .expressions import Const, EvaluationError, node_value
from .fields import Chart, DomainError, ExprField
from .nk_system import theta_blocks
from .sampling import Box, SamplePlan

DEGENERACY_TOL = 1e-10

EPS_LOWER = np.array([[0.0, 1.0], [-1.0, 0.0]])
EPS_UPPER = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: index pairs labelling symmetric 2-spinor objects
SYM_PAIRS = ((0, 0), (0, 1), (1, 1))


class DegeneracyError(ValueError):
    """Coframe or metric degenerate on the declared domain."""


def permutation_parity(seq) -> int:
    """+1 or -1 by the number of inversions of a sequence of distinct items."""
    sign = 1
    for i, j in combinations(range(len(seq)), 2):
        if seq[i] > seq[j]:
            sign = -sign
    return sign


def _perm_symbol(n: int) -> np.ndarray:
    symbol = np.zeros((n,) * n)
    for perm in permutations(range(n)):
        symbol[perm] = permutation_parity(perm)
    return symbol


#: the permutation symbol [a...] of the 3- and 4-dimensional charts
_PERM_SYMBOLS = {3: _perm_symbol(3), 4: _perm_symbol(4)}


def levi_civita(g: np.ndarray, orientation: int = 1) -> np.ndarray:
    """Volume tensor eps_{a...} = orientation * sqrt|det g| * [a...] of a
    3- or 4-dimensional metric."""
    g = np.asarray(g, dtype=float)
    n = g.shape[-1]
    scale = orientation * np.sqrt(np.abs(np.linalg.det(g)))
    scale = np.asarray(scale)
    return scale.reshape(scale.shape + (1,) * n) * _PERM_SYMBOLS[n]


def hodge_star_values(omega: np.ndarray, degree: int, g: np.ndarray,
                      orientation: int = 1) -> np.ndarray:
    """Pointwise Hodge dual of p-form components (batched).

    (*w)_{b...} = (1/p!) w^{a1..ap} eps_{a1..ap b...}; indices raised
    with the inverse metric.  Works for 3- and 4-dimensional metrics.
    """
    g = np.asarray(g, dtype=float)
    omega = np.asarray(omega, dtype=float)
    ginv = np.linalg.inv(g)
    eps = levi_civita(g, orientation)
    n = g.shape[-1]
    letters = "abcd"[:degree]
    out = "efgh"[: n - degree]
    raised = omega
    for k, letter in enumerate(letters):
        upper = letters[:k] + "Z" + letters[k + 1:]
        raised = np.einsum(f"...{letter}Z,...{upper}->...{letters}", ginv, raised)
    fact = float(math.factorial(degree))
    return np.einsum(f"...{letters},...{letters}{out}->...{out}", raised, eps) / fact


@cache
def _merge_sign(left: tuple, right: tuple):
    """Sorted concatenation of disjoint index tuples and its parity."""
    if set(left) & set(right):
        return None, 0
    return tuple(sorted(left + right)), permutation_parity(left + right)


@cache
def _mirrors(axes: tuple) -> tuple:
    """Slot prefixes ``out[:, k, l, ...]`` of every ordering of ``axes``."""
    return tuple((slice(None),) + p for p in sorted(set(permutations(axes))))


@cache
def _signed_permutations(degree: int) -> tuple:
    """``(permutation, parity)`` of every ordering of ``range(degree)``."""
    return tuple((perm, permutation_parity(perm))
                 for perm in permutations(range(degree)))


def _is_plus_zero(part) -> bool:
    """Whether ``part`` is the constant +0.0 that ``np.zeros`` already holds."""
    return (part.__class__ is Const and part.value == 0.0
            and math.copysign(1.0, part.value) > 0)


def _partials(expr, coords, order: int) -> list:
    """``(axes, partial)`` per sorted axis tuple in chart order, leaving out
    the partials that are the constant +0.0.

    A constant's partials are all +0.0, so the walk stops at a constant
    before the last order and takes no derivative below it.
    """
    found = [((), expr)]
    for _ in range(order):
        found = [(axes + (k,), part.derivative(coords[k]))
                 for axes, part in found if part.__class__ is not Const
                 for k in range(axes[-1] if axes else 0, len(coords))]
    return [(axes, part) for axes, part in found if not _is_plus_zero(part)]


def field_jet(entries, shape, points, order: int, memo=None) -> np.ndarray:
    """Values (order 0), first (1) or second (2) partials of a field array.

    ``entries`` lists ``(field, [(index, sign), ...])``: the field, times
    the sign (+1 or -1), fills each index of an array of ``shape``;
    unlisted slots are zero, and no slot belongs to two entries.  Returns
    ``out[n, k..., *index]`` with ``order`` derivative axes.  Each partial
    is taken once per sorted axis tuple (k <= l), applying
    ``Expr.derivative`` along the axes in chart order (the node memo
    returns the same tree as ``ExprField.differentiate``), and is mirrored
    into the symmetric slots.

    The points are checked against each chart's excluded bands once per
    call, and every partial of a chart is evaluated with ``node_value`` on
    one coordinate environment through one evaluation memo (see
    ``expressions``): the partials of one field share most of their nodes,
    so each node is evaluated once per call.  A caller that takes several
    orders, or several fields, at the same ``points`` passes its own
    ``memo`` to every call, and a node shared across them is evaluated
    once in all.  The memo must belong to ``points``.  Charts are told
    apart by identity, so each chart object gets one environment.

    Most partials of a metric or coframe are constants, and most of those
    are zero.  A +0.0 partial writes nothing, since the array starts as
    zeros, and the walk takes no derivative below a constant.  Signed
    zeros are kept: a slot of sign -1 starts as -0.0, the value each of
    its +0.0 partials stands for, and a ``Const(-0.0)`` partial is written
    like any other constant.  A slot of sign +1 takes a partial's values
    as they are and a slot of sign -1 takes their negation, computed once
    per partial: both are the bits of ``sign * values``.  A constant is
    written as it is, with no tree walk, once ``math.isfinite`` has passed
    it.  The evaluated partials are checked once, on the finished jet: a
    non-finite value, constant or evaluated, raises ``EvaluationError``.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dim = pts.shape[-1]
    out = np.zeros((pts.shape[0],) + (dim,) * order + tuple(shape))
    memo = {} if memo is None else memo
    envs = {}
    for field, _ in entries:
        chart = field.chart
        if id(chart) not in envs:
            if chart.dim != dim:
                raise DomainError(f"expected points of shape (n, {chart.dim})")
            chart.check_domain(pts.T)
            envs[id(chart)] = dict(zip(chart.coords, pts.T))
    for field, slots in entries:
        env = envs[id(field.chart)]
        slots = [(tuple(index), sign > 0) for index, sign in slots]
        minus = False
        for index, plus in slots:
            if not plus:
                out[(Ellipsis,) + index] = -0.0
                minus = True
        for axes, part in _partials(field.expr, field.chart.coords, order):
            if part.__class__ is Const:
                values = part.value
                if not math.isfinite(values):
                    raise EvaluationError("non-finite field value")
            else:
                values = node_value(part, env, memo)
            negated = -values if minus else None
            for prefix in _mirrors(axes):
                for index, plus in slots:
                    out[prefix + index] = values if plus else negated
    if not np.isfinite(out).all():
        raise EvaluationError("non-finite field value")
    return out


def _zero_field(chart: Chart) -> ExprField:
    return ExprField.constant(0.0, chart)


class FormField:
    """Differential form of degree p with scalar-field components."""

    def __init__(self, chart: Chart, degree: int, comps=None):
        if not 0 <= degree <= chart.dim:
            raise DomainError(f"degree {degree} out of range on {chart.coords}")
        self.chart = chart
        self.degree = degree
        self.comps = {}
        for key, value in (comps or {}).items():
            key = tuple(key)
            if len(key) != degree or list(key) != sorted(set(key)):
                raise DomainError(f"bad component key {key} for degree {degree}")
            self.comps[key] = value

    def component(self, key) -> ExprField:
        return self.comps.get(tuple(key), _zero_field(self.chart))

    def __add__(self, other: "FormField") -> "FormField":
        if other.degree != self.degree or other.chart != self.chart:
            raise DomainError("form degree/chart mismatch")
        comps = dict(self.comps)
        for key, value in other.comps.items():
            comps[key] = comps[key] + value if key in comps else value
        return FormField(self.chart, self.degree, comps)

    def __sub__(self, other: "FormField") -> "FormField":
        return self + other.scaled(-1.0)

    def scaled(self, factor) -> "FormField":
        comps = {key: value * factor for key, value in self.comps.items()}
        return FormField(self.chart, self.degree, comps)

    def mul_scalar(self, field: ExprField) -> "FormField":
        comps = {key: value * field for key, value in self.comps.items()}
        return FormField(self.chart, self.degree, comps)

    def jet_entries(self) -> list:
        """``field_jet`` entries: each component in its antisymmetric slots."""
        perms = _signed_permutations(self.degree)
        return [(field, [(tuple(map(key.__getitem__, perm)), sign)
                         for perm, sign in perms])
                for key, field in self.comps.items()]

    def evaluate(self, points, memo=None) -> np.ndarray:
        """Dense antisymmetric component array of shape (n, 4, ..., 4)."""
        return field_jet(self.jet_entries(), (self.chart.dim,) * self.degree,
                         points, 0, memo)


def wedge(a: FormField, b: FormField) -> FormField:
    if a.chart != b.chart:
        raise DomainError("wedge across different charts")
    degree = a.degree + b.degree
    if degree > a.chart.dim:
        raise DomainError("wedge degree exceeds chart dimension")
    comps = {}
    for ka, fa in a.comps.items():
        for kb, fb in b.comps.items():
            key, sign = _merge_sign(ka, kb)
            if key is None:
                continue
            term = (fa * fb) * float(sign)
            comps[key] = comps[key] + term if key in comps else term
    return FormField(a.chart, degree, comps)


def exterior_derivative(a: FormField) -> FormField:
    if a.degree >= a.chart.dim:
        return FormField(a.chart, min(a.degree + 1, a.chart.dim))
    comps = {}
    for key, field in a.comps.items():
        for axis in range(a.chart.dim):
            if axis in key:
                continue
            new_key, sign = _merge_sign((axis,), key)
            term = field.differentiate(field.chart.coords[axis]) * float(sign)
            comps[new_key] = comps[new_key] + term if new_key in comps else term
    return FormField(a.chart, a.degree + 1, comps)


class MetricField:
    """Symmetric matrix of scalar-field components on a chart."""

    def __init__(self, chart: Chart, comps):
        self.chart = chart
        n = chart.dim
        self.comps = [list(row) for row in comps]
        self._entries = [(self.comps[i][j], [((i, j), 1), ((j, i), 1)])
                         for i in range(n) for j in range(i, n)]

    def component(self, i: int, j: int) -> ExprField:
        return self.comps[i][j]

    def evaluate(self, points, memo=None) -> np.ndarray:
        return field_jet(self._entries, (self.chart.dim,) * 2, points, 0, memo)

    def inverse(self, points) -> np.ndarray:
        return inverse_metric_values(self.evaluate(points))

    def first_derivatives(self, points, memo=None) -> np.ndarray:
        """dg[n, k, i, j] = partial_k g_ij, exact."""
        return field_jet(self._entries, (self.chart.dim,) * 2, points, 1, memo)

    def second_derivatives(self, points, memo=None) -> np.ndarray:
        """ddg[n, k, l, i, j] = partial_k partial_l g_ij, exact."""
        return field_jet(self._entries, (self.chart.dim,) * 2, points, 2, memo)


class CoFrame:
    """Null tetrad of one-forms e^{AA'} with scalar-field components."""

    def __init__(self, chart: Chart, forms):
        self.chart = chart
        self.forms = forms  # forms[A][Ap] is a degree-1 FormField
        self._entries = [(field, [((a, ap, mu), 1)])
                         for a in range(2) for ap in range(2)
                         for (mu,), field in forms[a][ap].comps.items()]

    def form(self, a: int, ap: int) -> FormField:
        return self.forms[a][ap]

    def evaluate(self, points, memo=None) -> np.ndarray:
        """E[n, A, A', mu]."""
        return field_jet(self._entries, (2, 2, self.chart.dim), points, 0, memo)

    def first_derivatives(self, points, memo=None) -> np.ndarray:
        """dE[n, k, A, A', mu] = partial_k e^{AA'}_mu, exact."""
        return field_jet(self._entries, (2, 2, self.chart.dim), points, 1, memo)

    def second_derivatives(self, points, memo=None) -> np.ndarray:
        """ddE[n, k, l, A, A', mu], exact."""
        return field_jet(self._entries, (2, 2, self.chart.dim), points, 2, memo)

    def sigma(self, i: int, j: int) -> FormField:
        """Sigma^{A'B'} for (A', B') = (i, j) as an exact form field.

        Same normalization as ``sigma_basis`` in ``tests/oracles.py``:
        Sigma^{A'B'} = 1/2 eps_{AB} e^{AA'} ^ e^{BB'}, with eps_{01} = 1.
        """
        return (wedge(self.form(0, i), self.form(1, j)).scaled(0.5)
                + wedge(self.form(1, i), self.form(0, j)).scaled(-0.5))

    def dual_vectors(self, points, memo=None) -> np.ndarray:
        """Frame vectors D[n, A, A', mu] with e^{BB'}(D_{AA'}) = delta."""
        return dual_vector_values(self.evaluate(points, memo))


def inverse_metric_values(gv: np.ndarray) -> np.ndarray:
    """g^{-1} at each point from metric values g[n, i, j]."""
    det = np.linalg.det(gv)
    if np.any(np.abs(det) < DEGENERACY_TOL):
        raise DegeneracyError("metric degenerate at a sample point")
    return np.linalg.inv(gv)


def dual_vector_values(e: np.ndarray) -> np.ndarray:
    """Frame vectors D[n, A, A', mu] from coframe values E[n, A, A', mu]."""
    mat = e.reshape(e.shape[0], 4, 4)  # rows 00',01',10',11'
    det = np.linalg.det(mat)
    if np.any(np.abs(det) < DEGENERACY_TOL):
        raise DegeneracyError("degenerate coframe")
    dual = np.linalg.inv(mat)  # columns are the dual vectors
    return np.transpose(dual, (0, 2, 1)).reshape(e.shape[0], 2, 2, -1)


# --- constructors ------------------------------------------------------------

def nk_metric(theta: ExprField) -> MetricField:
    """g = dw dx + dz dy - Txx dz^2 - Tyy dw^2 + 2 Txy dw dz."""
    chart = theta.chart
    if chart.coords != ("w", "z", "x", "y"):
        raise DomainError("nk metric expects the chart (w, z, x, y)")
    txx, tyy, txy = theta_blocks(theta)
    half = ExprField.constant(0.5, chart)
    zero = _zero_field(chart)
    w, z, x, y = 0, 1, 2, 3
    comps = [[zero for _ in range(4)] for _ in range(4)]
    comps[w][x] = comps[x][w] = half
    comps[z][y] = comps[y][z] = half
    comps[w][w] = -tyy
    comps[z][z] = -txx
    comps[w][z] = comps[z][w] = txy
    return MetricField(chart, comps)


def nk_coframe(theta: ExprField) -> CoFrame:
    """Null tetrad whose induced metric reproduces nk_metric exactly.

    e^{00'} = dw, e^{10'} = dz,
    e^{01'} = -(dy + Txy dw - Txx dz)/2,
    e^{11'} =  (dx - Tyy dw + Txy dz)/2.
    Sigma^{0'0'} = e^{00'} ^ e^{10'} = dw ^ dz.
    """
    chart = theta.chart
    if chart.coords != ("w", "z", "x", "y"):
        raise DomainError("nk coframe expects the chart (w, z, x, y)")
    txx, tyy, txy = theta_blocks(theta)
    one = ExprField.constant(1.0, chart)
    zero = _zero_field(chart)
    w, z, x, y = 0, 1, 2, 3

    e00 = FormField(chart, 1, {(w,): one})
    e10 = FormField(chart, 1, {(z,): one})
    e01 = FormField(chart, 1, {(y,): one * -0.5, (w,): txy * -0.5, (z,): txx * 0.5})
    e11 = FormField(chart, 1, {(x,): one * 0.5, (w,): tyy * -0.5, (z,): txy * 0.5})
    return CoFrame(chart, [[e00, e01], [e10, e11]])


DKP_CHART_COORDS = ("x", "y", "t", "z")


def _require_dkp_chart(field: ExprField):
    if field.chart.coords != ("x", "y", "t"):
        raise DomainError("dkp potentials live on the chart (x, y, t)")


def _check_nonvanishing(field: ExprField, box: Box, what: str):
    if box.dim > field.chart.dim:
        box = Box(box.bounds[: field.chart.dim])
    plan = SamplePlan(box, count=60, seed=11)
    values = field.evaluate(plan.points())
    crosses_zero = values.min() < 0.0 < values.max()
    if crosses_zero or np.min(np.abs(values)) < 1e-6:
        raise DegeneracyError(f"{what} vanishes on the declared domain")


def _dkp_blocks(h_pot: ExprField, w_pot: ExprField):
    """The chart (x, y, t, z) and H_x, W_x, W_y lifted to it."""
    _require_dkp_chart(h_pot)
    _require_dkp_chart(w_pot)
    chart4 = Chart(DKP_CHART_COORDS, h_pot.chart.excluded)
    blocks = (h_pot.differentiate("x"), w_pot.differentiate("x"),
              w_pot.differentiate("y"))
    return (chart4,) + tuple(f.on_chart(chart4) for f in blocks)


def dkp_metric(h_pot: ExprField, w_pot: ExprField, box: Box = None) -> MetricField:
    """g = Wx (dy^2 - 4 dx dt - 4 Hx dt^2) - Wx^{-1} (dz - Wx dy - 2 Wy dt)^2
    on the chart (x, y, t, z); Wx must be bounded away from zero on
    ``box`` (checked on a deterministic sample when a box is supplied).
    """
    chart4, hx4, wx4, wy4 = _dkp_blocks(h_pot, w_pot)
    if box is not None:
        _check_nonvanishing(w_pot.differentiate("x"), box, "W_x")
    zero = _zero_field(chart4)
    x, y, t, z = 0, 1, 2, 3
    comps = [[zero for _ in range(4)] for _ in range(4)]
    comps[x][t] = comps[t][x] = -2.0 * wx4
    comps[y][z] = comps[z][y] = ExprField.constant(1.0, chart4)
    comps[y][t] = comps[t][y] = -2.0 * wy4
    comps[z][z] = -1.0 / wx4
    comps[z][t] = comps[t][z] = 2.0 * wy4 / wx4
    comps[t][t] = -4.0 * (wx4 * hx4) - 4.0 * (wy4 * wy4) / wx4
    return MetricField(chart4, comps)


def dkp_coframe(h_pot: ExprField, w_pot: ExprField) -> CoFrame:
    """Null tetrad for the dkp metric, g = 2(e^{00'}e^{11'} - e^{10'}e^{01'}).

    e^{00'} = -2 Wx dt,
    e^{10'} = (dz - 2 Wy dt) / (2 Wx),
    e^{01'} = dz - 2 Wx dy - 2 Wy dt + z e^{00'},
    e^{11'} = dx + Hx dt + z e^{10'}.

    The Wy term of e^{01'} multiplies dt and the Hx term of e^{11'}
    multiplies dt: this is the unique choice (in this triangular shape)
    reproducing the metric, and it also matches the closed-form
    Sigma^{0'1'} and Sigma^{1'1'} expressions used by the dkp pipeline.
    W_x is checked on a box by ``dkp_metric``.
    """
    chart4, hx4, wx4, wy4 = _dkp_blocks(h_pot, w_pot)
    zc = ExprField.from_text("z", chart4)
    one = ExprField.constant(1.0, chart4)
    x, y, t, z = 0, 1, 2, 3

    e00 = FormField(chart4, 1, {(t,): -2.0 * wx4})
    e10 = FormField(chart4, 1, {(z,): 0.5 / wx4, (t,): -1.0 * wy4 / wx4})
    e01 = FormField(chart4, 1, {
        (z,): one,
        (y,): -2.0 * wx4,
        (t,): -2.0 * wy4 + zc * (-2.0 * wx4),
    })
    e11 = FormField(chart4, 1, {
        (x,): one,
        (t,): hx4 + zc * (-1.0 * wy4 / wx4),
        (z,): zc * (0.5 / wx4),
    })
    return CoFrame(chart4, [[e00, e01], [e10, e11]])
