"""Independent references the tests compare the package against.

Nothing in the package or the benchmark calls these; the tests keep them
as second derivations of what the package computes its own way.  The
module is imported by the tests and not collected, since its name does
not start with ``test_``.  Two-spinor conventions are those of
``nullkahler.geometry``: epsilon_{01} = epsilon^{01} = 1, symmetric pairs
in the order ``SYM_PAIRS``, and
Sigma^{A'B'} = (1/2) epsilon_{AB} e^{AA'} ^ e^{BB'}.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from nullkahler.curvature import (
    _EPS_SYM,
    _PHI_COLS,
    _PHI_ROWS,
    CurvatureReport,
    _extract_slots,
    coordinate_curvature,
)
from nullkahler.dkp import EWStructure, residual_lindkp
from nullkahler.evolver import EVOLVER_CHART, BoundarySource
from nullkahler.expressions import EvaluationError, add, mul
from nullkahler.fields import Chart, ExprField, Grid
from nullkahler.geometry import (
    EPS_LOWER,
    EPS_UPPER,
    SYM_PAIRS,
    CoFrame,
    DegeneracyError,
    FormField,
    MetricField,
    _check_nonvanishing,
    _require_dkp_chart,
    _zero_field,
    dkp_metric,
    exterior_derivative,
    field_jet,
    hodge_star_values,
    inverse_metric_values,
    wedge,
)
from nullkahler.nk_system import LaxFields
from nullkahler.sampling import Box


# --- paper constructions the tests use as fixtures ----------------------------
# the symmetry orbit of linearised solutions and the W = H_x/2
# hyper-Kahler case

def symmetry_w(h_pot: ExprField, a=0.0, b=0.0, c=0.0, e=0.0) -> ExprField:
    """Linearised solution from the scaling/translation symmetry orbit:

        W = a (x H_x + y H_y + t H_t - H) + b H_x + c H_t + e H_y.

    The scaling family carries conformal weight -1 on H (the potential
    equation is invariant under H -> H(lam x, lam y, lam t)/lam), which
    is where the -H term of the a-generator comes from; the residual
    contract residual_lindkp(H, W) = 0 for every exact H pins it.
    """
    _require_dkp_chart(h_pot)
    chart = h_pot.chart
    x = ExprField.from_text("x", chart)
    y = ExprField.from_text("y", chart)
    t = ExprField.from_text("t", chart)
    hx, hy, ht = (h_pot.differentiate(name) for name in ("x", "y", "t"))
    out = ExprField.constant(0.0, chart)
    if a:
        out = out + (x * hx + y * hy + t * ht - h_pot) * a
    if b:
        out = out + hx * b
    if c:
        out = out + ht * c
    if e:
        out = out + hy * e
    return out


def hyperkahler_specialize(h_pot: ExprField, box: Box = None) -> MetricField:
    """g = (H_xx/2)(dy^2 - 4 dx dt - 4 H_x dt^2)
          - (2/H_xx)(dz - H_xx dy/2 - H_xy dt)^2,

    the covariantly-constant-frame case W = H_x/2; H_xx must be bounded
    away from zero (degenerate conformal factor otherwise).
    """
    _require_dkp_chart(h_pot)
    if box is not None:
        _check_nonvanishing(h_pot.differentiate("x", "x"), box, "H_xx")
    return dkp_metric(h_pot, 0.5 * h_pot.differentiate("x"))


# --- the closed form of d Sigma^{1'1'} ----------------------------------------
# criterion 9 compares the exact exterior derivative against it; the
# suite reads only the two closed forms Sigma^{0'0'} and Sigma^{0'1'}

def sigma11_rhs(h_pot: ExprField, w_pot: ExprField) -> FormField:
    """Closed-form d Sigma^{1'1'} for the circle-bundle tetrad:

        d(2W - H_x) ^ dt ^ dz  -  2 (lindKP residual) dx ^ dy ^ dt.

    Derived by exact differentiation of the Sigma^{1'1'} components; it
    vanishes iff W = H_x/2 + f(t) modulo the linearised equation.
    """
    chart4 = Chart(("x", "y", "t", "z"), h_pot.chart.excluded)
    x, y, t, z = 0, 1, 2, 3
    f0 = (2.0 * w_pot - h_pot.differentiate("x")).on_chart(chart4)
    df = exterior_derivative(FormField(chart4, 0, {(): f0}))
    dt_dz = FormField(chart4, 2, {(t, z): ExprField.constant(1.0, chart4)})
    dxdydt = FormField(chart4, 3, {(x, y, t): ExprField.constant(1.0, chart4)})
    lind = residual_lindkp(h_pot, w_pot).on_chart(chart4)
    return wedge(df, dt_dz) + dxdydt.mul_scalar(lind * -2.0)


# --- the closure of Sigma through form trees ----------------------------------
# the package reads d Sigma^{0'0'} and d Sigma^{0'1'} off the coframe's
# values and first jet; this route builds Sigma^{0'b} = ``CoFrame.sigma``
# as a form tree and takes its exact exterior derivative, and is the
# reference the jet route must agree with

def sigma_closure_by_forms(coframe: CoFrame, points) -> tuple:
    """(d Sigma^{0'0'}, d Sigma^{0'1'}) at ``points`` in the layout of
    ``check_null_kahler``: one row per point of the components at
    kappa < mu < nu."""
    kappa, mu, nu = zip(*combinations(range(4), 3))
    return tuple(
        exterior_derivative(coframe.sigma(0, b)).evaluate(points)[
            :, kappa, mu, nu]
        for b in (0, 1))


# --- the Jones-Tod one-form ------------------------------------------------------
# the suite compares only the reduced three-metric h with the EW h; the
# tests check the recovered one-form against nu = -4 u_x dt modulo the
# conformal-gauge term

#: orientation used inside the Jones-Tod one-form; the opposite choice
#: flips nu, and this one reproduces nu = -4 u_x dt modulo the gauge
#: term d ln(Wx^2) on every circle-bundle fixture
JONES_TOD_ORIENTATION = 1


def jones_tod_nu(metric: MetricField, points4,
                 orientation: int = JONES_TOD_ORIENTATION) -> np.ndarray:
    """nu = 2 |K|^{-2} *_g (Kb ^ dKb) for K = d_z, as an (n, 4) component
    array at ``points4`` on (x, y, t, z), with the star of ``orientation``."""
    chart4 = metric.chart
    norm2 = metric.component(3, 3)  # |K|^2 = g_zz
    kflat = FormField(chart4, 1, {
        (mu,): metric.component(3, mu) for mu in range(4)
    })
    three_form = wedge(kflat, exterior_derivative(kflat))
    pts = np.atleast_2d(np.asarray(points4, dtype=float))
    gv = metric.evaluate(pts)
    star = hodge_star_values(three_form.evaluate(pts), 3, gv, orientation)
    scale = 2.0 / norm2.on_chart(chart4).evaluate(pts)
    return star * scale[:, None]


# --- cross-checks of what the checks take as given ----------------------------
# a second derivation of the metric, its signature, the orientation with
# the volume form it is read from, and the Hodge star of a form field

def metric_from_coframe(e: CoFrame) -> MetricField:
    """g = 2(e^{00'} e^{11'} - e^{10'} e^{01'}), symmetrized products."""
    chart = e.chart
    n = chart.dim
    zero = _zero_field(chart)
    comps = [[zero for _ in range(n)] for _ in range(n)]
    e00, e11 = e.form(0, 0), e.form(1, 1)
    e10, e01 = e.form(1, 0), e.form(0, 1)
    for i in range(n):
        for j in range(i, n):
            acc = (
                e00.component((i,)) * e11.component((j,))
                + e00.component((j,)) * e11.component((i,))
                - e10.component((i,)) * e01.component((j,))
                - e10.component((j,)) * e01.component((i,))
            )
            comps[i][j] = acc
            comps[j][i] = acc
    return MetricField(chart, comps)


def signature_counts(metric: MetricField, points):
    """(positive, negative) eigenvalue counts at each point."""
    eigenvalues = np.linalg.eigvalsh(metric.evaluate(points))
    return (eigenvalues > 0).sum(axis=1), (eigenvalues < 0).sum(axis=1)


def volume_form(coframe: CoFrame) -> FormField:
    """nu = e^{01'} ^ e^{10'} ^ e^{11'} ^ e^{00'} (orientation fix)."""
    return wedge(
        wedge(coframe.form(0, 1), coframe.form(1, 0)),
        wedge(coframe.form(1, 1), coframe.form(0, 0)),
    )


def orientation_sign(coframe: CoFrame, points) -> int:
    """Sign of nu against the chart coordinate volume element."""
    top = volume_form(coframe).evaluate(points)
    component = top[(slice(None),) + tuple(range(coframe.chart.dim))]
    if np.any(component == 0.0):
        raise DegeneracyError("degenerate coframe (vanishing volume form)")
    signs = np.sign(component)
    if not np.all(signs == signs[0]):
        raise DegeneracyError("orientation flips across the sample set")
    return int(signs[0])


def hodge_star(a: FormField, g: MetricField, orientation: int, points) -> np.ndarray:
    """Pointwise Hodge dual of ``a`` with respect to ``g`` at ``points``."""
    values = a.evaluate(points)
    gv = g.evaluate(points)
    return hodge_star_values(values, a.degree, gv, orientation)


# --- the value types the criterion-11 oracles build and return ----------------
# a tagged 2-spinor for raise_lower and contract, a checked two-form for
# sd_asd_split, and the error their checks raise

class SpinorError(ValueError):
    pass


class Spinor2:
    """Two real components with chirality and variance tags."""

    def __init__(self, components, chirality: str = "primed",
                 variance: str = "upper"):
        self.components = tuple(float(c) for c in components)
        self.chirality = chirality
        self.variance = variance
        if len(self.components) != 2:
            raise SpinorError("a 2-spinor has two components")
        if self.chirality not in ("primed", "unprimed"):
            raise SpinorError(f"bad chirality {self.chirality!r}")
        if self.variance not in ("upper", "lower"):
            raise SpinorError(f"bad variance {self.variance!r}")

    @property
    def array(self) -> np.ndarray:
        return np.array(self.components)


class TwoFormValue:
    """Antisymmetric 4x4 component array of a two-form at a point."""

    def __init__(self, components, chart: tuple = ("w", "z", "x", "y")):
        arr = np.asarray(components, dtype=float)
        if arr.shape[-2:] != (4, 4):
            raise SpinorError("two-form components must be 4x4")
        if not np.allclose(arr, -np.swapaxes(arr, -1, -2), atol=0.0):
            raise SpinorError("two-form components must be antisymmetric")
        self.components = arr
        self.chart = chart


# --- criterion-11 spinor algebra ----------------------------------------------
# the 2-spinor conventions the soldering and the Weyl spinors are tested
# against, and the self-dual / anti-self-dual split of a two-form

def raise_lower(s: Spinor2, direction: str) -> Spinor2:
    """iota_A = iota^B eps_BA (lower); iota^A = eps^AB iota_B (raise)."""
    if direction == "lower":
        if s.variance != "upper":
            raise SpinorError("can only lower an upper-index spinor")
        out = s.array @ EPS_LOWER  # iota_A = iota^B eps_{BA}
        return Spinor2(tuple(out), s.chirality, "lower")
    if direction == "raise":
        if s.variance != "lower":
            raise SpinorError("can only raise a lower-index spinor")
        out = EPS_UPPER @ s.array  # iota^A = eps^{AB} iota_B
        return Spinor2(tuple(out), s.chirality, "upper")
    raise SpinorError(f"direction must be 'raise' or 'lower', got {direction!r}")


def contract(a: Spinor2, b: Spinor2) -> float:
    """Epsilon contraction of two same-chirality spinors; antisymmetric."""
    if a.chirality != b.chirality:
        raise SpinorError("cannot contract spinors of different chirality")
    if a.variance == b.variance:
        # eps_{01} = eps^{01} = 1: exactly a0 b1 - a1 b0 either way
        a0, a1 = a.components
        b0, b1 = b.components
        return a0 * b1 - a1 * b0
    upper, lower = (a, b) if a.variance == "upper" else (b, a)
    sign = 1.0 if a.variance == "upper" else -1.0  # u^A v_A = -u_A v^A
    return float(sign * (upper.components[0] * lower.components[0]
                         + upper.components[1] * lower.components[1]))


def vector_to_bispinor(v) -> np.ndarray:
    """V^a -> V^{AA'} = [[V0+V3, V1+V2], [V1-V2, V0-V3]].

    Components are ordered (V^0, V^1, V^2, V^3), and det V^{AA'} equals
    the split-signature quadratic form V0^2 - V1^2 + V2^2 - V3^2.
    Batched over a leading axis.
    """
    v = np.asarray(v, dtype=float)
    v0, v1, v2, v3 = v[..., 0], v[..., 1], v[..., 2], v[..., 3]
    out = np.empty(v.shape[:-1] + (2, 2))
    out[..., 0, 0] = v0 + v3
    out[..., 0, 1] = v1 + v2
    out[..., 1, 0] = v1 - v2
    out[..., 1, 1] = v0 - v3
    return out


def bispinor_to_vector(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    out = np.empty(m.shape[:-2] + (4,))
    out[..., 0] = (m[..., 0, 0] + m[..., 1, 1]) / 2.0
    out[..., 1] = (m[..., 0, 1] + m[..., 1, 0]) / 2.0
    out[..., 2] = (m[..., 0, 1] - m[..., 1, 0]) / 2.0
    out[..., 3] = (m[..., 0, 0] - m[..., 1, 1]) / 2.0
    return out


def sd_asd_split(omega, g, orientation: int = 1):
    """Split a two-form value into (self-dual, anti-self-dual) parts.

    In split signature the Hodge star squares to +1 on two-forms, so the
    projectors are (1 +- star)/2 with real eigenspaces.
    """
    arr = omega.components if isinstance(omega, TwoFormValue) else np.asarray(omega)
    g = np.asarray(g, dtype=float)
    if np.any(np.abs(np.linalg.det(g)) < 1e-14):
        raise SpinorError("degenerate metric")
    star = hodge_star_values(arr, 2, g, orientation)
    sd = (arr + star) / 2.0
    asd = (arr - star) / 2.0
    if isinstance(omega, TwoFormValue):
        return TwoFormValue(sd, omega.chart), TwoFormValue(asd, omega.chart)
    return sd, asd


def sigma_basis(coframe_values: np.ndarray):
    """Sigma bases from coframe values E[..., A, A', mu].

    Returns (sigma_primed, sigma_unprimed) of shape (..., 3, 4, 4) in the
    pair order ((0,0), (0,1), (1,1)); primed entries are self-dual, the
    unprimed anti-self-dual, for the orientation induced by the coframe.
    """
    e = np.asarray(coframe_values, dtype=float)
    if e.shape[-3:] != (2, 2, 4):
        raise SpinorError("coframe values must have shape (..., 2, 2, 4)")
    wedge = np.einsum("...abm,...cdn->...abcdmn", e, e) \
        - np.einsum("...abn,...cdm->...abcdmn", e, e)
    # Sigma^{A'B'} = 1/2 eps_{AB} e^{AA'} ^ e^{BB'}
    sp_full = 0.5 * np.einsum("ac,...abcdmn->...bdmn", EPS_LOWER, wedge)
    su_full = 0.5 * np.einsum("bd,...abcdmn->...acmn", EPS_LOWER, wedge)
    shape = e.shape[:-3]
    sigma_p = np.empty(shape + (3, 4, 4))
    sigma_u = np.empty(shape + (3, 4, 4))
    for k, (i, j) in enumerate(SYM_PAIRS):
        sigma_p[..., k, :, :] = sp_full[..., i, j, :, :]
        sigma_u[..., k, :, :] = su_full[..., i, j, :, :]
    return sigma_p, sigma_u


# --- the dKP evolver's non-local term in physical space ------------------------
# the implicit stage never forms N v: it works in sine space, as a
# recurrence; the tests assemble N from this trapezoid sum to check the
# stage and the step bound against it

def nonlocal_term(u: np.ndarray, grid: Grid, out: np.ndarray,
                  uyy: np.ndarray) -> np.ndarray:
    """N u = int_{x0}^{x} u_yy dx' by the trapezoid rule from the x0 row,
    with u's y-boundary columns as the Dirichlet data of u_yy, written
    into ``out`` and returned; ``uyy`` is C-contiguous scratch of u's
    shape.  Zero on the y-boundary columns and the x0 row; the ring rows
    are not used."""
    if not uyy.flags.c_contiguous:
        raise ValueError("nonlocal_term needs C-contiguous scratch")
    # the difference runs over the flattened rows, where the operands are
    # contiguous, and its values across a row break land on the
    # y-boundary columns, which are then zeroed
    flat, lap = u.reshape(-1), uyy.reshape(-1)[1:-1]
    np.multiply(2.0, flat[1:-1], out=lap)
    np.subtract(flat[2:], lap, out=lap)
    lap += flat[:-2]
    dx, dy = grid.spacing
    lap /= dy ** 2
    uyy[:, 0] = uyy[:, -1] = 0.0
    np.cumsum(uyy, axis=0, out=out)
    uyy += uyy[0].copy()
    uyy *= 0.5
    out -= uyy
    out *= dx
    return out


# --- the Lax commutator through field evaluations ------------------------------
# the package evaluates the Lax coefficients and their partials as node
# values in one coordinate environment; this route evaluates each one as
# a field, with its own domain check and copy, and is the reference the
# value route must equal bit for bit

def lax_commutator_by_fields(lax: LaxFields, points, memo=None) -> np.ndarray:
    """The lambda-coefficients of [L0, L1] at ``points``; shape (n, 5, 3),
    each coefficient and partial through ``ExprField.evaluate``."""
    memo = {} if memo is None else memo
    coords = lax.chart.coords
    pts = np.atleast_2d(np.asarray(points, dtype=float))

    l0, l1 = ({k: [(power, coeff, coeff.evaluate(pts, memo))
                   for power, coeff in poly] for k, poly in vector.items()}
              for vector in (lax.l0, lax.l1))
    out = np.zeros((pts.shape[0], 5, 3))
    for k in range(5):
        for source, target, sign in ((l0, l1, 1.0), (l1, l0, -1.0)):
            for j, coeff_j in source.items():
                # d_j of the target's lambda polynomial; axis 4 is lambda
                if j == 4:
                    dtarget = [(power - 1, value * float(power))
                               for power, _, value in target.get(k, [])
                               if power]
                else:
                    dtarget = [(power, coeff.differentiate(coords[j])
                                .evaluate(pts, memo))
                               for power, coeff, _ in target.get(k, [])]
                for p1, _, c1 in coeff_j:
                    for p2, c2 in dtarget:
                        out[:, k, p1 + p2] += c1 * (sign * c2)
    if not np.isfinite(out).all():
        raise EvaluationError("non-finite Lax commutator")
    return out


# --- the product rule without the constant-factor shortcut ---------------------
# the package's Mul.diff builds one term when a factor is a constant; the
# general rule builds both and lets the smart constructors fold the zero
# one, and is the reference the shortcut's tree must equal node for node

def product_rule(node, var: str):
    """(l r)' = l' r + l r' for a ``Mul`` node, both terms built."""
    return add(mul(node.left.derivative(var), node.right),
               mul(node.left, node.right.derivative(var)))


# --- the oracle curvature with every sector computed at once -------------------
# the package's oracle report computes c_asd, Phi and the Bianchi gap
# when they are first read; this one computes all of them when it is
# built, from both bivectors made together, and is the reference the
# deferred sectors must equal bit for bit

def eager_oracle_report(metric: MetricField, coframe: CoFrame, points,
                        memo=None) -> CurvatureReport:
    """``oracle_report`` with every field set when it returns."""
    memo = {} if memo is None else memo
    raw = coordinate_curvature(metric, points, memo)
    dual = coframe.dual_vectors(points, memo)
    npts = dual.shape[0]
    riemann = raw.riemann_low.reshape(npts, 16, 16)
    lam = (raw.scalar / 24.0)[:, None, None, None, None] * _EPS_SYM

    # Sigma' as [n, a, b, X', Y'] and Sigma as [n, a, x, b, y], each
    # transposed to [n, X, Y, a, b]
    d = dual.transpose(0, 1, 3, 2)
    sigma_p = (d[:, 0, :, None, :, None] * d[:, 1, None, :, None, :]
               - d[:, 1, :, None, :, None] * d[:, 0, None, :, None, :])
    d = dual.transpose(0, 2, 3, 1)
    sigma_u = (d[:, 0, :, :, None, None] * d[:, 1, None, None, :, :]
               - d[:, 1, :, :, None, None] * d[:, 0, None, None, :, :])
    fulls = []  # 1/4 R_abcd S^ab_XY S^cd_ZW - (R/24) eps_sym
    for sigma in (sigma_p.transpose(0, 3, 4, 1, 2),
                  sigma_u.transpose(0, 2, 4, 1, 3)):
        flat = sigma.reshape(npts, 4, 16)
        spin = flat @ riemann @ flat.transpose(0, 2, 1)
        fulls.append(0.25 * spin.reshape(npts, 2, 2, 2, 2) - lam)
    c_sd_full, c_asd_full = fulls
    sym_gap = max(float(np.max(np.abs(full - full.transpose(axes))))
                  for full in (c_sd_full, c_asd_full)
                  for axes in ((0, 2, 1, 3, 4), (0, 1, 3, 2, 4)))

    phi_ab = -0.5 * (raw.ricci - 0.25 * raw.scalar[:, None, None] * raw.metric)
    frame = dual.reshape(npts, 4, 4)
    bis = frame @ phi_ab @ frame.transpose(0, 2, 1)
    phi = 0.5 * (bis + bis.transpose(0, 2, 1))[:, _PHI_ROWS, _PHI_COLS]
    return CurvatureReport(_extract_slots(c_asd_full), _extract_slots(c_sd_full),
                           phi, raw.scalar, sym_gap, raw=raw)


# --- a manufactured dKP solution that only the time stepping gets wrong --------
# every spatial operator of the evolver is exact on data quadratic in x
# and y, so the error of a run on this solution is the time error alone,
# and halving dt shows the order of ARS(2,3,3) apart from the grid

def quadratic_reference() -> BoundarySource:
    """u* = (x^2 + x y + y^2) s(t) + x e^{-t}/2, s(t) = sin(1 + 3t)/4,
    with x0 = 0 and the source S that makes it an exact solution of the
    boundary-closed evolution form

        u_t(x) = [u u_x](x) - [u u_x](x0) + int_{x0}^{x} u_yy dx'
                 + u_t(x0) + S,

    worked out by hand:
    S = u*_t(x) - u*_t(0) - [u u_x](x) + [u u_x](0) - int_0^x u*_yy dx'
      = 3 (x^2 + x y) cos(1 + 3t)/4 - x e^{-t}/2
        - u* ((2x + y) s + e^{-t}/2) + y^2 s (y s + e^{-t}/2) - 2 x s.
    """
    u_text = "(x^2 + x*y + y^2)*sin(1 + 3*t)/4 + x*exp(-t)/2"
    source_text = (
        "3*(x^2 + x*y)*cos(1 + 3*t)/4 - x*exp(-t)/2"
        f" - ({u_text})*((2*x + y)*sin(1 + 3*t)/4 + exp(-t)/2)"
        " + y^2*sin(1 + 3*t)/4*(y*sin(1 + 3*t)/4 + exp(-t)/2)"
        " - x*sin(1 + 3*t)/2"
    )
    return BoundarySource(ExprField.from_text(u_text, EVOLVER_CHART),
                          ExprField.from_text(source_text, EVOLVER_CHART))


# --- the Weyl connection, formed ---------------------------------------------
# the package reads the Einstein-Weyl residual off the Levi-Civita curvature
# of h in closed form and never forms the Weyl connection; this route forms
# it, with the Christoffel symbols and their partials, and takes the Ricci
# tensor of the connection itself.  It is the reference the closed form
# must agree with, and the tests' second derivation of the Riemann tensor

def christoffel(dg, ddg, ginv) -> tuple:
    """Gamma^a_{bc} = 1/2 g^{ad} (d_b g_dc + d_c g_bd - d_d g_bc), its
    partials d_k Gamma^a_{bc} and d_k g^{ab}, exact given exact metric
    derivatives."""
    n, dim = ginv.shape[:2]
    dginv = -(ginv[:, None] @ dg @ ginv[:, None])
    bracket = (
        np.einsum("nbdc->nbcd", dg)
        + np.einsum("ncbd->nbcd", dg)
        - np.einsum("ndbc->nbcd", dg)
    )
    dbracket = (
        np.einsum("nkbdc->nkbcd", ddg)
        + np.einsum("nkcbd->nkbcd", ddg)
        - np.einsum("nkdbc->nkbcd", ddg)
    )
    # the contractions over d are batched products with one column per (b, c)
    columns = bracket.reshape(n, dim * dim, dim).swapaxes(-1, -2)
    dcolumns = dbracket.reshape(n, dim, dim * dim, dim).swapaxes(-1, -2)
    gamma = 0.5 * (ginv @ columns).reshape((n,) + (dim,) * 3)
    dgamma = 0.5 * (dginv @ columns[:, None] + ginv[:, None] @ dcolumns).reshape(
        (n, dim) + (dim,) * 3)
    return gamma, dgamma, dginv


def weyl_connection(ew: EWStructure, points, memo=None):
    """Weyl connection coefficients, their exact first derivatives, h, h^{-1}.

    gamma^i_jk = LC(h) - 1/2 (d^i_j nu_k + d^i_k nu_j - h_jk nu^i),
    the unique torsion-free connection with D h = nu x h.  Every jet is
    evaluated through one memo, ``memo`` if given (it must belong to
    ``points``).
    """
    memo = {} if memo is None else memo
    hv = ew.h.evaluate(points, memo)
    hinv = inverse_metric_values(hv)
    dh = ew.h.first_derivatives(points, memo)
    ddh = ew.h.second_derivatives(points, memo)
    gamma, dgamma, dhinv = christoffel(dh, ddh, hinv)
    n = hv.shape[-1]
    nu = ew.nu.evaluate(points, memo)
    dnu = field_jet(ew.nu.jet_entries(), (n,), points, 1, memo)

    eye = np.eye(n)
    nu_up = np.einsum("nij,nj->ni", hinv, nu)
    correction = -0.5 * (
        np.einsum("ij,nk->nijk", eye, nu)
        + np.einsum("ik,nj->nijk", eye, nu)
        - np.einsum("njk,ni->nijk", hv, nu_up)
    )
    dnu_up = np.einsum("nkij,nj->nki", dhinv, nu) + np.einsum(
        "nij,nkj->nki", hinv, dnu
    )
    dcorrection = -0.5 * (
        np.einsum("ij,nlk->nlijk", eye, dnu)
        + np.einsum("ik,nlj->nlijk", eye, dnu)
        - np.einsum("nljk,ni->nlijk", dh, nu_up)
        - np.einsum("njk,nli->nlijk", hv, dnu_up)
    )
    return gamma + correction, dgamma + dcorrection, hv, hinv


def weyl_ricci(ew: EWStructure, points, memo=None) -> tuple:
    """The Ricci tensor R_ij = d_k G^k_ij - d_i G^k_kj + G^k_kl G^l_ij
    - G^k_il G^l_kj of the Weyl connection G, not symmetrized, with h
    and h^{-1} at ``points``."""
    gamma, dgamma, hv, hinv = weyl_connection(ew, points, memo)
    ricci = (
        np.einsum("nkkij->nij", dgamma)
        - np.einsum("nikkj->nij", dgamma)
        + np.einsum("nkkl,nlij->nij", gamma, gamma)
        - np.einsum("nkil,nlkj->nij", gamma, gamma)
    )
    return ricci, hv, hinv


def weyl_ew_residual(ew: EWStructure, points, memo=None) -> np.ndarray:
    """The trace-free part of the Weyl connection's symmetrized Ricci
    tensor, shape (n, 3, 3): what ``dkp.ew_residual`` computes in closed
    form."""
    ricci, hv, hinv = weyl_ricci(ew, points, memo)
    sym = 0.5 * (ricci + np.swapaxes(ricci, -1, -2))
    trace = np.einsum("nij,nij->n", hinv, sym)
    return sym - np.einsum("n,nij->nij", trace / 3.0, hv)
