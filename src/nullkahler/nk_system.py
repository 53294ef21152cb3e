"""The fourth-order system behind the split-signature metric ansatz.

A potential Theta(w, z, x, y) and an auxiliary function f satisfy

    Theta_wx + Theta_zy + Theta_xx Theta_yy - Theta_xy^2 = f,
    box f := f_xw + f_yz + Theta_yy f_xx + Theta_xx f_yy
             - 2 Theta_xy f_xy = 0,

which is equivalent to anti-self-duality of the induced metric and to
commutativity of the associated spectral-parameter Lax fields.  This
module provides the residual operators, four closed-form solution
families, and the Lax pair with a numerical commutator check.
"""

from __future__ import annotations

import numpy as np

from .expressions import (EvaluationError, Var, integrate_polynomial,
                          node_value, parse)
from .fields import Chart, DomainError, ExcludedBand, ExprField
from .sampling import Box, SamplePlan

NK_COORDS = ("w", "z", "x", "y")


def _nk_chart(excluded=()) -> Chart:
    return Chart(NK_COORDS, tuple(excluded))


DEFAULT_NK_BOX = Box(((-1.0, 1.0),) * 4)

#: excluded bands that a solution family puts on its chart: family 3,
#: Theta = A(x/y), is singular on y = 0
FAMILY_EXCLUDED = {3: (ExcludedBand("y", 0.0),)}

#: the ``params`` keys each family of ``example_family`` reads:
#: (required, optional)
FAMILY_PARAMS = {1: (("A",), ("B",)), 2: (("P",), ("Q",)),
                 3: (("A",), ()), 4: (("A",), ("B",))}

#: range of the spectral parameter lambda in ``commutator_sweep``
LAMBDA_WINDOW = (-2.0, 2.0)


class NKSolution:
    """A (Theta, f) pair with its sampling box."""

    def __init__(self, theta: ExprField, f: ExprField,
                 box: Box = DEFAULT_NK_BOX):
        self.theta = theta
        self.f = f
        self.box = box


def theta_blocks(theta: ExprField) -> tuple:
    """(Theta_xx, Theta_yy, Theta_xy), the second derivatives that enter
    the metric, the coframe, the box operator and the Lax pair."""
    return (theta.differentiate("x", "x"), theta.differentiate("y", "y"),
            theta.differentiate("x", "y"))


def induced_f(theta: ExprField) -> ExprField:
    """f := Theta_wx + Theta_zy + Theta_xx Theta_yy - Theta_xy^2."""
    txx, tyy, txy = theta_blocks(theta)
    return (
        theta.differentiate("w", "x")
        + theta.differentiate("z", "y")
        + txx * tyy
        - txy * txy
    )


def residual_nk1(theta: ExprField, f: ExprField) -> ExprField:
    """First equation residual: induced_f(theta) - f."""
    return induced_f(theta) - f


def box_operator(theta: ExprField, g: ExprField) -> ExprField:
    """box g = g_xw + g_yz + Tyy g_xx + Txx g_yy - 2 Txy g_xy."""
    txx, tyy, txy = theta_blocks(theta)
    return (
        g.differentiate("w", "x")
        + g.differentiate("z", "y")
        + tyy * g.differentiate("x", "x")
        + txx * g.differentiate("y", "y")
        - 2.0 * (txy * g.differentiate("x", "y"))
    )


def residual_nk2(theta: ExprField, f: ExprField) -> ExprField:
    """Second equation residual: box f."""
    return box_operator(theta, f)


# --- closed-form solution families -------------------------------------------

def example_family(kind: int, params: dict, box: Box = DEFAULT_NK_BOX) -> NKSolution:
    """The four closed-form families; ``params`` maps A, B, P, Q to
    expression text.

    1. Theta_x = 0:  Theta = B(w,y) + z * int A(w,y) dy, f = A.
       A, B polynomial (the y-antiderivative must be closed form).
    2. f = Theta_x with Theta_xx = 0:
       Theta = x * int P dy + z * int (int (P - P_w) dy + P^2) dy
             + intint Q dy^2,  f = Theta_x;  P, Q polynomial in (w, y).
    3. Theta = A(x/y) for an arbitrary expression A(s); f is induced.
       The locus y = 0 is excluded from the chart.
    4. Theta = x A(y) + B(y), f = -(A')^2.
    """
    if kind == 1:
        a = parse(params["A"], ("w", "y"))
        b = parse(params.get("B", "0"), ("w", "y"))
        theta = b + Var("z") * integrate_polynomial(a, "y")
        chart = _nk_chart()
        return NKSolution(ExprField(theta, chart), ExprField(a, chart), box)
    if kind == 2:
        p = parse(params["P"], ("w", "y"))
        q = parse(params.get("Q", "0"), ("w", "y"))
        n_zz = integrate_polynomial(
            integrate_polynomial(p - p.derivative("w"), "y") + p * p, "y")
        n_q = integrate_polynomial(integrate_polynomial(q, "y"), "y")
        theta = (Var("x") * integrate_polynomial(p, "y")
                 + Var("z") * n_zz + n_q)
        chart = _nk_chart()
        theta_field = ExprField(theta, chart)
        return NKSolution(theta_field, theta_field.differentiate("x"), box)
    if kind == 3:
        theta = parse(params["A"], (), {"s": Var("x") / Var("y")})
        chart = _nk_chart(FAMILY_EXCLUDED[3])
        theta_field = ExprField(theta, chart)
        return NKSolution(theta_field, induced_f(theta_field), box)
    if kind == 4:
        a = parse(params["A"], ("y",))
        b = parse(params.get("B", "0"), ("y",))
        theta = Var("x") * a + b
        a_y = a.derivative("y")
        chart = _nk_chart()
        return NKSolution(ExprField(theta, chart),
                          ExprField(-(a_y * a_y), chart), box)
    raise ValueError(f"unknown family kind {kind!r}")


# --- Lax pair -----------------------------------------------------------------

class LaxFields:
    """Two vector fields on (w, z, x, y, lambda).

    Coefficients are polynomials in lambda with scalar-field values:
    ``l0[k]`` / ``l1[k]`` map a coordinate index to a list of
    (lambda power, ExprField).  The normal form is pinned by
    coefficient(d_w in L0) = coefficient(d_z in L1) = 1.
    """

    def __init__(self, l0: dict, l1: dict, chart: Chart):
        self.l0 = l0
        self.l1 = l1
        self.chart = chart


def lax_fields(theta: ExprField, f: ExprField) -> LaxFields:
    """L0 = (d_w - Txy d_y + Tyy d_x) - lambda d_y + f_y d_lambda,
    L1 = (d_z + Txx d_y - Txy d_x) + lambda d_x - f_x d_lambda."""
    chart = theta.chart
    one = ExprField.constant(1.0, chart)
    txx, tyy, txy = theta_blocks(theta)
    l0 = {
        0: [(0, one)],
        2: [(0, tyy)],
        3: [(0, -txy), (1, -one)],
        4: [(0, f.differentiate("y"))],
    }
    l1 = {
        1: [(0, one)],
        2: [(0, -txy), (1, one)],
        3: [(0, txx)],
        4: [(0, -f.differentiate("x"))],
    }
    return LaxFields(l0, l1, chart)


def lax_commutator(lax: LaxFields, points, lambdas, memo=None) -> np.ndarray:
    """[L0, L1] components at (point, lambda) pairs; shape (n, 5).

    The commutator coefficients are lambda polynomials of degree <= 2
    assembled from exact field derivatives of the Lax coefficients:
    [L0,L1]^k = L0(L1^k) - L1(L0^k).  The points are checked against the
    chart's excluded bands once (``DomainError``), and each Lax
    coefficient, and each first partial of one that a component needs
    (``Expr.derivative`` of its tree), is evaluated with ``node_value``
    on one coordinate environment through one memo, ``memo`` if given
    (it must belong to ``points``).  The polynomial algebra is done on
    the values: each term ``c1 * (sign * c2) * lambda^p`` is added to its
    component's row, and lambda^0 = 1 multiplies nothing, since x * 1.0
    is exact.  Raises ``EvaluationError`` if a component is not finite.
    """
    memo = {} if memo is None else memo
    chart = lax.chart
    coords = chart.coords
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != chart.dim:
        raise DomainError(f"expected points of shape (n, {chart.dim})")
    chart.check_domain(pts.T)
    env = dict(zip(coords, pts.T))
    lam = np.broadcast_to(np.asarray(lambdas, dtype=float), (pts.shape[0],))
    lam_power = {1: lam, 2: lam ** 2}

    def evaluated(vector):
        return {k: [(power, coeff.expr, node_value(coeff.expr, env, memo))
                    for power, coeff in poly] for k, poly in vector.items()}

    def partial(poly, j):
        """d_j of an evaluated lambda polynomial as (power, values); axis
        4 is lambda."""
        if j == 4:
            return [(power - 1, value * float(power))
                    for power, _, value in poly if power]
        return [(power, node_value(expr.derivative(coords[j]), env, memo))
                for power, expr, _ in poly]

    l0, l1 = evaluated(lax.l0), evaluated(lax.l1)
    rows = np.zeros((5, pts.shape[0]))
    for k, row in enumerate(rows):
        for source, target, sign in ((l0, l1, 1.0), (l1, l0, -1.0)):
            for j, coeff_j in source.items():
                dtarget = partial(target.get(k, []), j)
                for p1, _, c1 in coeff_j:
                    for p2, c2 in dtarget:
                        term = c1 * (sign * c2)
                        power = p1 + p2
                        row += term * lam_power[power] if power else term
    if not np.isfinite(rows).all():
        raise EvaluationError("non-finite Lax commutator")
    return rows.T


def commutator_sweep(solution: NKSolution, count: int = 100, seed: int = 20240,
                     points=None, memo=None) -> np.ndarray:
    """The [L0, L1] components over a deterministic (point, lambda) sweep,
    one row of five per point.

    The points are the sample plan's on the solution's box; a caller that
    holds them already passes them as ``points``, with their evaluation
    ``memo``.  The lambda draws come from the plan's seed either way.
    """
    plan = SamplePlan(solution.box, count=count, seed=seed)
    pts = plan.points() if points is None else points
    lam = plan.rng().uniform(*LAMBDA_WINDOW, size=pts.shape[0])
    lax = lax_fields(solution.theta, solution.f)
    return lax_commutator(lax, pts, lam, memo)
