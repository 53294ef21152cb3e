"""Symmetry reduction: dKP potentials, Einstein-Weyl structures,
monopole pairs, and the circle-bundle metric they assemble into.

Potentials H(x, y, t) and W(x, y, t) satisfy

    H_yy - H_xt + H_x H_xx = 0          (potential dKP)
    W_yy - W_xt + (H_x W_x)_x = 0       (linearised dKP)

With u = H_x the Weyl structure h = dy^2 - 4 dx dt - 4 u dt^2,
nu = -4 u_x dt is Einstein-Weyl exactly when u solves dKP, and
(V = W_x, alpha = -W_x dy - 2 W_y dt) solves the generalised monopole
equation on it.  The four-metric built from (H, W) is then ASD
null-Kahler with the Killing vector along z.

The Weyl connection D is the torsion-free connection with D h = nu x h.
In n dimensions its symmetrized Ricci tensor is

    Ric^D_(ij) = Ric^h_ij + (n-2)/2 nabla_(i nu_j) + (n-2)/4 nu_i nu_j
                 + (a multiple of h_ij)

with nabla the Levi-Civita connection of h (Pedersen & Tod, Adv. Math.
97, 1993), so at n = 3 the coefficients are 1/2 and 1/4.  (h, nu) is
Einstein-Weyl when the trace-free part vanishes, and ``ew_residual``
reads it off the curvature of h and the first jet of nu; D itself is
never formed.
"""

from __future__ import annotations

import numpy as np

from .curvature import coordinate_curvature
from .fields import Chart, ExprField
from .geometry import (
    CoFrame,
    FormField,
    MetricField,
    _require_dkp_chart,
    dkp_metric,
    exterior_derivative,
    field_jet,
    hodge_star_values,
    wedge,
)
from .sampling import Box

EW_CHART = Chart(("x", "y", "t"))

#: orientation of the Einstein-Weyl chart (x, y, t); fixed by the
#: closed-form star relations *dt = dt^dy, *dy = 2 dt^dx
EW_ORIENTATION = 1

#: orientation used inside the Jones-Tod one-form; the opposite choice
#: flips nu, and this one reproduces nu = -4 u_x dt modulo the gauge
#: term d ln(Wx^2) on every circle-bundle fixture
JONES_TOD_ORIENTATION = 1


def residual_heqn(h_pot: ExprField) -> ExprField:
    """H_yy - H_xt + H_x H_xx."""
    _require_dkp_chart(h_pot)
    return (
        h_pot.differentiate("y", "y")
        - h_pot.differentiate("x", "t")
        + h_pot.differentiate("x") * h_pot.differentiate("x", "x")
    )


def residual_lindkp(h_pot: ExprField, w_pot: ExprField) -> ExprField:
    """W_yy - W_xt + (H_x W_x)_x."""
    _require_dkp_chart(h_pot)
    _require_dkp_chart(w_pot)
    hx_wx = h_pot.differentiate("x") * w_pot.differentiate("x")
    return (w_pot.differentiate("y", "y") - w_pot.differentiate("x", "t")
            + hx_wx.differentiate("x"))


# --- Einstein-Weyl structures --------------------------------------------------

class EWStructure:
    """Three-metric h and one-form nu on the chart (x, y, t)."""

    def __init__(self, h: MetricField, nu: FormField):
        self.h = h
        self.nu = nu


def ew_from_u(u: ExprField) -> EWStructure:
    """h = dy^2 - 4 dx dt - 4 u dt^2, nu = -4 u_x dt."""
    _require_dkp_chart(u)
    chart = u.chart
    zero = ExprField.constant(0.0, chart)
    one = ExprField.constant(1.0, chart)
    x, y, t = 0, 1, 2
    comps = [[zero for _ in range(3)] for _ in range(3)]
    comps[y][y] = one
    comps[x][t] = comps[t][x] = ExprField.constant(-2.0, chart)
    comps[t][t] = -4.0 * u
    h = MetricField(chart, comps)
    nu = FormField(chart, 1, {(t,): -4.0 * u.differentiate("x")})
    return EWStructure(h, nu)


def ew_residual(ew: EWStructure, points, memo=None) -> np.ndarray:
    """The trace-free symmetrized Ricci tensor of the Weyl connection at
    ``points``, shape (n, 3, 3), in closed form from the Levi-Civita
    connection of h (see the module docstring):

        Ric^h_ij + 1/2 nabla_(i nu_j) + 1/4 nu_i nu_j,  less its h-trace,

    with Ric^h and Gamma^k_ij from ``coordinate_curvature`` and
    nabla_i nu_j = d_i nu_j - Gamma^k_ij nu_k from nu's first jet.
    ``memo`` is an evaluation memo of ``points``.
    """
    memo = {} if memo is None else memo
    raw = coordinate_curvature(ew.h, points, memo)
    nu = ew.nu.evaluate(points, memo)
    n, dim = nu.shape
    dnu = field_jet(ew.nu.jet_entries(), (dim,), points, 1, memo)
    gamma = raw.christoffel.reshape(n, dim, dim * dim)
    cov = dnu - (nu[:, None, :] @ gamma).reshape(n, dim, dim)
    ricci = (raw.ricci + 0.25 * (cov + np.swapaxes(cov, -1, -2))
             + 0.25 * nu[:, :, None] * nu[:, None, :])
    trace = np.einsum("nij,nij->n", raw.metric_inv, ricci)
    return ricci - (trace / 3.0)[:, None, None] * raw.metric


# --- monopole pairs -------------------------------------------------------------

class MonopolePair:
    """Function V of conformal weight -1 and connection one-form alpha."""

    def __init__(self, v: ExprField, alpha: FormField):
        self.v = v
        self.alpha = alpha


def monopole_from_w(h_pot: ExprField, w_pot: ExprField) -> MonopolePair:
    """V = W_x with alpha = -W_x dy - 2 W_y dt (the gauge used by the
    circle-bundle metric)."""
    _require_dkp_chart(w_pot)
    x, y, t = 0, 1, 2
    alpha = FormField(w_pot.chart, 1, {
        (y,): -1.0 * w_pot.differentiate("x"),
        (t,): -2.0 * w_pot.differentiate("y"),
    })
    return MonopolePair(w_pot.differentiate("x"), alpha)


def monopole_residual(ew: EWStructure, pair: MonopolePair, points,
                      memo=None) -> np.ndarray:
    """The components of *_h (dV + 1/2 nu V) - d alpha at ``points``, one
    row per point; ``memo`` is an evaluation memo of ``points``."""
    chart = pair.v.chart
    dv = exterior_derivative(FormField(chart, 0, {(): pair.v}))
    coupled = dv + ew.nu.mul_scalar(pair.v * 0.5)
    values = coupled.evaluate(points, memo)
    hv = ew.h.evaluate(points, memo)
    star = hodge_star_values(values, 1, hv, EW_ORIENTATION)
    dalpha = exterior_derivative(pair.alpha).evaluate(points, memo)
    return star - dalpha


# --- circle-bundle metric and its SD two-forms ----------------------------------

def build_metric(h_pot: ExprField, w_pot: ExprField, box: Box = None) -> MetricField:
    """The four-metric on (x, y, t, z): ``geometry.dkp_metric``, kept for
    the benchmark's ``TwoPath`` workload, its one remaining caller."""
    return dkp_metric(h_pot, w_pot, box)


def sd_two_forms(coframe: CoFrame, points, memo=None):
    """The printed SD two-form basis of a dkp coframe and the closedness
    of its first two forms.

    Returns (sigma00, sigma01, sigma11, (d sigma00, d sigma01)) where the
    forms use the display normalization Sigma^{0'0'} = e00'^e10',
    Sigma^{0'1'} = e10'^e01' - e00'^e11', Sigma^{1'1'} = e01'^e11', and
    the pair holds the three-form components of d Sigma^{0'0'} and
    d Sigma^{0'1'} at ``points``, one row per point.  d Sigma^{1'1'} is
    not closed in general; the tests compare it against its closed form.
    ``memo`` is an evaluation memo of ``points``.
    """
    e00, e01 = coframe.form(0, 0), coframe.form(0, 1)
    e10, e11 = coframe.form(1, 0), coframe.form(1, 1)
    sigma00 = wedge(e00, e10)
    sigma01 = wedge(e10, e01) - wedge(e00, e11)
    sigma11 = wedge(e01, e11)
    closure = tuple(exterior_derivative(sigma).evaluate(points, memo)
                    for sigma in (sigma00, sigma01))
    return sigma00, sigma01, sigma11, closure


# --- Jones-Tod reduction ---------------------------------------------------------

class JonesTodReduction:
    """EW data recovered from a four-metric with the Killing vector d_z.

    ``h`` carries exact component fields on (x, y, t); the one-form is
    built and evaluated pointwise by ``nu_at`` when it is called (its
    derivatives are never needed by the round-trip contracts).
    """

    def __init__(self, h: MetricField, nu_at):
        self.h = h
        self.nu_at = nu_at  # callable(points4) -> (n, 4) component array


def jones_tod_reduce(metric: MetricField) -> JonesTodReduction:
    """h = |K|^{-2} g - |K|^{-4} Kb o Kb, nu = 2 |K|^{-2} *_g (Kb ^ dKb)
    for K = d_z; the metric components must not depend on z."""
    chart4 = metric.chart
    if chart4.coords != ("x", "y", "t", "z"):
        raise ValueError("jones_tod_reduce expects the chart (x, y, t, z)")
    zi = 3
    for i in range(4):
        for j in range(4):
            if "z" in metric.component(i, j).expr.variables():
                raise ValueError("metric components depend on z; K is not Killing")
    chart3 = Chart(("x", "y", "t"), chart4.excluded)
    norm2 = metric.component(zi, zi)  # |K|^2 = g_zz
    comps3 = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            gij = metric.component(i, j)
            ki = metric.component(zi, i)
            kj = metric.component(zi, j)
            entry = gij / norm2 - (ki * kj) / (norm2 * norm2)
            comps3[i][j] = ExprField(entry.expr, chart3)
    h = MetricField(chart3, comps3)

    def nu_at(points4) -> np.ndarray:
        kflat = FormField(chart4, 1, {
            (mu,): metric.component(zi, mu) for mu in range(4)
        })
        three_form = wedge(kflat, exterior_derivative(kflat))
        pts = np.atleast_2d(np.asarray(points4, dtype=float))
        gv = metric.evaluate(pts)
        star = hodge_star_values(three_form.evaluate(pts), 3, gv,
                                 JONES_TOD_ORIENTATION)
        scale = 2.0 / norm2.on_chart(chart4).evaluate(pts)
        return star * scale[:, None]

    return JonesTodReduction(h, nu_at)

