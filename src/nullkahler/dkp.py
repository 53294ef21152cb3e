"""Symmetry reduction: dKP potentials, Einstein-Weyl structures,
monopole pairs, the circle-bundle metric they assemble into, and the
Jones-Tod three-metric read back off it.

Potentials H(x, y, t) and W(x, y, t) satisfy

    H_yy - H_xt + H_x H_xx = 0          (potential dKP)
    W_yy - W_xt + (H_x W_x)_x = 0       (linearised dKP)

With u = H_x the Weyl structure h = dy^2 - 4 dx dt - 4 u dt^2,
nu = -4 u_x dt is Einstein-Weyl exactly when u solves dKP, and
(V = W_x, alpha = -W_x dy - 2 W_y dt) solves the generalised monopole
equation on it.  The four-metric built from (H, W) is then ASD
null-Kahler with the Killing vector along z; its SD two-forms are the
``CoFrame.sigma`` forms of ``geometry.dkp_coframe``, in the normalization
every curved fixture is checked in.

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

from .curvature import check_null_kahler, coordinate_curvature
from .fields import Chart, ExprField
from .geometry import (
    SYM_PAIRS,
    CoFrame,
    FormField,
    MetricField,
    _require_dkp_chart,
    dkp_metric,
    exterior_derivative,
    field_jet,
    hodge_star_values,
)
from .sampling import Box

EW_CHART = Chart(("x", "y", "t"))

#: orientation of the Einstein-Weyl chart (x, y, t); fixed by the
#: closed-form star relations *dt = dt^dy, *dy = 2 dt^dx
EW_ORIENTATION = 1


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
    """The SD two-forms of a dkp coframe and the closedness of the first
    two, kept for the benchmark's tracer, which names it.

    Returns (sigma00, sigma01, sigma11, (d sigma00, d sigma01)): the
    forms are ``CoFrame.sigma`` in the pair order ``SYM_PAIRS``, and the
    pair is ``check_null_kahler``'s.  ``memo`` is an evaluation memo of
    ``points``.
    """
    return (*(coframe.sigma(*pair) for pair in SYM_PAIRS),
            check_null_kahler(coframe, points, memo))


# --- Jones-Tod reduction ---------------------------------------------------------

def jones_tod_reduce(metric: MetricField) -> MetricField:
    """The three-metric h = |K|^{-2} g - |K|^{-4} Kb o Kb on (x, y, t) of
    the Jones-Tod reduction along K = d_z, with exact component fields;
    the metric components must not depend on z."""
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
    return MetricField(chart3, comps3)
