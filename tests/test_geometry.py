from itertools import product

import numpy as np
import pytest

from nullkahler.expressions import (
    Const,
    EvaluationError,
    ExpressionError,
    Var,
    mul,
    power,
)
from nullkahler.fields import Chart, DomainError, ExcludedBand, ExprField
from nullkahler.geometry import (
    SYM_PAIRS,
    DegeneracyError,
    FormField,
    dkp_coframe,
    dkp_metric,
    exterior_derivative,
    field_jet,
    nk_coframe,
    nk_metric,
    wedge,
)
from nullkahler.dkp import ew_from_u
from nullkahler.sampling import Box, SamplePlan
from oracles import (
    hodge_star,
    metric_from_coframe,
    orientation_sign,
    signature_counts,
    volume_form,
)

CHART4 = Chart(("w", "z", "x", "y"))
CHART3 = Chart(("x", "y", "t"))
BOX4 = Box(((-1, 1),) * 4)
DKP_BOX = Box(((-1, 1), (-1, 1), (-1, 0.5), (-1, 1)))


def plan_points(box=BOX4, count=30):
    return SamplePlan(box, count=count).points()


def test_flat_metric_components():
    g = nk_metric(ExprField.constant(0.0, CHART4))
    gv = g.evaluate(np.zeros((1, 4)))[0]
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[2, 0] = 0.5  # dw dx
    expected[1, 3] = expected[3, 1] = 0.5  # dz dy
    np.testing.assert_array_equal(gv, expected)


def test_nk_metric_derived_components():
    g = nk_metric(ExprField.from_text("z*y^3/3", CHART4))
    p = np.array([[0.3, 0.7, -0.2, 0.9]])
    gv = g.evaluate(p)[0]
    z, y = 0.7, 0.9
    assert gv[0, 0] == pytest.approx(-2 * y * z)
    g2 = nk_metric(ExprField.from_text("x*y^3", CHART4))
    gv2 = g2.evaluate(np.array([[1.0, 1.0, 1.0, 1.0]]))[0]
    assert gv2[0, 0] == -6.0
    assert gv2[0, 1] == 3.0


def test_nk_coframe_reproduces_metric():
    for text in ("0", "x*y^3", "x^2*y^2 + w*x*y + z*x^3/2"):
        theta = ExprField.from_text(text, CHART4)
        pts = plan_points()
        gap = nk_metric(theta).evaluate(pts) \
            - metric_from_coframe(nk_coframe(theta)).evaluate(pts)
        assert np.max(np.abs(gap)) < 1e-12


def test_nk_sigma01_closed():
    theta = ExprField.from_text("x^2*y^2 + w*x*y", CHART4)
    sigma01 = nk_coframe(theta).sigma(0, 1)
    pts = plan_points()
    assert np.max(np.abs(exterior_derivative(sigma01).evaluate(pts))) < 1e-12


@pytest.mark.parametrize("chart", [CHART4, CHART3], ids=["4d", "3d"])
def test_exterior_derivative_of_a_top_form_is_the_zero_top_form(chart):
    # d of a top-degree form is zero; it is returned as the empty form of
    # the top degree, which the chart still has, and d d of a form one
    # degree lower lands there too
    dim = chart.dim
    top = FormField(chart, dim, {tuple(range(dim)): ExprField.from_text(
        "x^2*y", chart)})
    below = FormField(chart, dim - 1, {tuple(range(1, dim)): ExprField.from_text(
        "x^2*y", chart)})
    pts = SamplePlan(Box(((-1, 1),) * dim), count=4).points()
    for form in (exterior_derivative(top),
                 exterior_derivative(exterior_derivative(below))):
        assert form.degree == dim and form.comps == {}
        values = form.evaluate(pts)
        assert values.shape == (4,) + (dim,) * dim and not values.any()


def test_dkp_metric_flat_fixture():
    h_pot = ExprField.constant(0.0, CHART3)
    w_pot = ExprField.from_text("x", CHART3)
    g = dkp_metric(h_pot, w_pot)
    gv = g.evaluate(np.array([[0.2, -0.1, 0.4, 0.8]]))[0]
    # g = (dy^2 - 4 dx dt) - (dz - dy)^2 on (x, y, t, z)
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[2, 0] = -2.0
    expected[1, 3] = expected[3, 1] = 1.0
    expected[3, 3] = -1.0
    np.testing.assert_allclose(gv, expected, atol=1e-14)


def test_dkp_metric_linear_fixture():
    # H = x t + y^2/2, W = x: g = dy^2 - 4 dx dt - 4 t dt^2 - (dz - dy)^2
    h_pot = ExprField.from_text("x*t + y^2/2", CHART3)
    w_pot = ExprField.from_text("x", CHART3)
    g = dkp_metric(h_pot, w_pot)
    p = np.array([[0.3, 0.5, 0.7, -0.2]])
    gv = g.evaluate(p)[0]
    assert gv[2, 2] == pytest.approx(-4 * 0.7)
    assert gv[1, 1] == 0.0
    assert gv[0, 2] == -2.0


def test_dkp_coframe_reproduces_metric():
    h_pot = ExprField.from_text("-x^2/(2*(t-1))", CHART3)
    w_pot = ExprField.from_text("-x/(t-1)", CHART3)
    pts = SamplePlan(DKP_BOX, count=100).points()
    gap = dkp_metric(h_pot, w_pot).evaluate(pts) \
        - metric_from_coframe(dkp_coframe(h_pot, w_pot)).evaluate(pts)
    assert np.max(np.abs(gap)) < 1e-10


def test_dkp_coframe_flat_component():
    h_pot = ExprField.constant(0.0, CHART3)
    w_pot = ExprField.from_text("x", CHART3)
    coframe = dkp_coframe(h_pot, w_pot)
    e00 = coframe.form(0, 0).evaluate(np.array([[0.1, 0.2, 0.3, 0.4]]))[0]
    np.testing.assert_allclose(e00, [0.0, 0.0, -2.0, 0.0], atol=1e-15)


def test_dkp_degenerate_conformal_factor():
    h_pot = ExprField.constant(0.0, CHART3)
    w_pot = ExprField.from_text("y^2 + 2*x*t", CHART3)  # W_x = 2t crosses 0
    with pytest.raises(DegeneracyError):
        dkp_metric(h_pot, w_pot, Box(((-1, 1), (-1, 1), (-0.5, 0.5), (-1, 1))))


def test_wedge_basics():
    one = ExprField.constant(1.0, CHART4)
    dw = FormField(CHART4, 1, {(0,): one})
    dz = FormField(CHART4, 1, {(1,): one})
    pts = plan_points(count=5)
    assert np.max(np.abs(wedge(dw, dw).evaluate(pts))) == 0.0
    anti = wedge(dw, dz).evaluate(pts) + wedge(dz, dw).evaluate(pts)
    assert np.max(np.abs(anti)) == 0.0


def test_wedge_two_forms_give_volume():
    # (dz ^ dt) ^ (dx ^ dy) is volume-proportional on the chart (x,y,t,z)
    chart = Chart(("x", "y", "t", "z"))
    one = ExprField.constant(1.0, chart)
    x, y, t, z = 0, 1, 2, 3
    dzdt = FormField(chart, 2, {(t, z): -1.0 * one})  # dz ^ dt
    dxdy = FormField(chart, 2, {(x, y): one})
    four = wedge(dzdt, dxdy)
    values = four.evaluate(np.zeros((1, 4)))
    # dz^dt^dx^dy = -dx^dy^dt^dz
    assert values[0, x, y, t, z] == -1.0


def test_wedge_top_form():
    one = ExprField.constant(1.0, CHART4)
    dw = FormField(CHART4, 1, {(0,): one})
    dz = FormField(CHART4, 1, {(1,): one})
    dx = FormField(CHART4, 1, {(2,): one})
    dy = FormField(CHART4, 1, {(3,): one})
    top = wedge(wedge(dz, dx), wedge(dy, dw))
    values = top.evaluate(plan_points(count=3))
    # dz^dx^dy^dw = -dw^dz^dx^dy
    assert values[0, 0, 1, 2, 3] == -1.0


def test_exterior_derivative_examples():
    chart = CHART4
    zfield = ExprField.from_text("z", chart)
    zdw = FormField(chart, 1, {(0,): zfield})
    d = exterior_derivative(zdw)
    values = d.evaluate(plan_points(count=4))
    assert np.allclose(values[:, 1, 0], 1.0)  # dz ^ dw component
    assert np.allclose(values[:, 0, 1], -1.0)


def test_d_squared_zero():
    rng = np.random.default_rng(3)
    comps = {}
    for key in ((0, 1), (0, 2), (1, 3), (2, 3)):
        text = f"{rng.uniform(-1,1):.4f}*w^2*y + {rng.uniform(-1,1):.4f}*x^3*z"
        comps[key] = ExprField.from_text(text, CHART4)
    sigma = FormField(CHART4, 2, comps)
    dd = exterior_derivative(exterior_derivative(sigma))
    assert np.max(np.abs(dd.evaluate(plan_points()))) < 1e-12


def test_dkp_sigma_closedness():
    h_pot = ExprField.from_text("-x^2/(2*(t-1))", CHART3)
    w_pot = ExprField.from_text("-x/(t-1)", CHART3)
    coframe = dkp_coframe(h_pot, w_pot)
    pts = SamplePlan(DKP_BOX, count=60).points()
    for pair in ((0, 0), (0, 1)):
        sigma = coframe.sigma(*pair)
        assert np.max(np.abs(exterior_derivative(sigma).evaluate(pts))) < 1e-12


def test_hodge_star_ew_relations():
    # *dt = dt^dy, *dy = 2 dt^dx, *dx = dy^dx + 2u dy^dt on the
    # Einstein-Weyl background
    u = ExprField.from_text("x*t - y^2/5", CHART3)
    ew = ew_from_u(u)
    pts = SamplePlan(Box(((-1, 1), (-1, 1), (-1, 0.5))), count=25).points()
    one = ExprField.constant(1.0, CHART3)
    x, y, t = 0, 1, 2
    uv = u.evaluate(pts)

    star_dt = hodge_star(FormField(CHART3, 1, {(t,): one}), ew.h, 1, pts)
    assert np.max(np.abs(star_dt[:, t, y] - 1.0)) < 1e-12

    star_dy = hodge_star(FormField(CHART3, 1, {(y,): one}), ew.h, 1, pts)
    assert np.max(np.abs(star_dy[:, t, x] - 2.0)) < 1e-12

    star_dx = hodge_star(FormField(CHART3, 1, {(x,): one}), ew.h, 1, pts)
    assert np.max(np.abs(star_dx[:, y, x] - 1.0)) < 1e-12
    assert np.max(np.abs(star_dx[:, y, t] - 2.0 * uv)) < 1e-12


def test_hodge_star_of_one_is_volume():
    theta = ExprField.from_text("x*y^3", CHART4)
    metric = nk_metric(theta)
    coframe = nk_coframe(theta)
    pts = plan_points()
    one_form = FormField(CHART4, 0, {(): ExprField.constant(1.0, CHART4)})
    star = hodge_star(one_form, metric, orientation_sign(coframe, pts), pts)
    volume = volume_form(coframe).evaluate(pts)
    assert np.max(np.abs(star - volume)) < 1e-12


def test_signature_counts():
    fixtures = [
        nk_metric(ExprField.from_text("x*y^3", CHART4)),
        nk_metric(ExprField.from_text("x^2*y^2 + w*x*y", CHART4)),
    ]
    pts = SamplePlan(BOX4, count=100).points()
    for metric in fixtures:
        pos, neg = signature_counts(metric, pts)
        assert np.all(pos == 2) and np.all(neg == 2)
    dk = dkp_metric(ExprField.from_text("-x^2/(2*(t-1))", CHART3),
                    ExprField.from_text("-x/(t-1)", CHART3))
    pos, neg = signature_counts(dk, SamplePlan(DKP_BOX, count=100).points())
    assert np.all(pos == 2) and np.all(neg == 2)


def test_dkp_orientation_sign():
    coframe = dkp_coframe(ExprField.from_text("-x^2/(2*(t-1))", CHART3),
                          ExprField.from_text("-x/(t-1)", CHART3))
    assert orientation_sign(coframe, SamplePlan(DKP_BOX, count=20).points()) == -1


def test_nk_orientation_sign():
    coframe = nk_coframe(ExprField.from_text("x^2*y^2", CHART4))
    assert orientation_sign(coframe, plan_points()) == 1


def reference_jet(component, shape, pts, order):
    """out[n, k..., *index]: each slot's field differentiated on its own.

    ``component(index)`` returns (field, sign) for one slot.
    """
    dim = pts.shape[1]
    out = np.empty((pts.shape[0],) + (dim,) * order + shape)
    for axes in product(range(dim), repeat=order):
        for index in np.ndindex(*shape):
            field, sign = component(index)
            names = (field.chart.coords[k] for k in axes)
            out[(slice(None),) + axes + index] = \
                sign * field.differentiate(*names).evaluate(pts)
    return out


def two_form_slot(form, index):
    key = tuple(sorted(index))
    if key not in form.comps:  # the diagonal included: a +0 slot
        return form.component(key), 1
    return form.comps[key], 1 if index == key else -1


@pytest.mark.parametrize("build", [
    lambda: (nk_metric, nk_coframe,
             (ExprField.from_text("x^2*y^2 + w*x*y + z*x^3/2", CHART4),),
             BOX4),
    lambda: (dkp_metric, dkp_coframe,
             (ExprField.from_text("-x^2/(2*(t-1))", CHART3),
              ExprField.from_text("x^3 + 2*x + y^2/3", CHART3)),
             DKP_BOX),
], ids=["nk", "dkp"])
def test_jets_match_per_component_reference(build):
    make_metric, make_coframe, potentials, box = build()
    metric, coframe = make_metric(*potentials), make_coframe(*potentials)
    pts = plan_points(box, count=7)
    metric_jets = (metric.evaluate, metric.first_derivatives,
                   metric.second_derivatives)
    coframe_jets = (coframe.evaluate, coframe.first_derivatives,
                    coframe.second_derivatives)
    for order in range(3):
        got = metric_jets[order](pts)
        ref = reference_jet(lambda ij: (metric.component(*ij), 1), (4, 4),
                            pts, order)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

        got = coframe_jets[order](pts)
        ref = reference_jet(
            lambda slot: (coframe.form(*slot[:2]).component(slot[2:]), 1),
            (2, 2, 4), pts, order)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

        for form in (coframe.sigma(*pair) for pair in SYM_PAIRS):
            got = field_jet(form.jet_entries(), (4, 4), pts, order)
            ref = reference_jet(lambda ij: two_form_slot(form, ij), (4, 4),
                                pts, order)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
            if order == 0:
                assert form.evaluate(pts).tobytes() == ref.tobytes()


def test_coframe_jets_are_memoised(diff_calls):
    # the memo lives on the expression nodes: a second jet over the same
    # coframe looks every partial up and applies no differentiation rule
    coframe = nk_coframe(ExprField.from_text("x^2*y^2 + w*x*y", CHART4))
    pts = plan_points(count=5)
    first = coframe.second_derivatives(pts)
    assert diff_calls  # the rules run while the trees are built
    del diff_calls[:]
    second = coframe.second_derivatives(pts)
    assert diff_calls == []
    assert second.tobytes() == first.tobytes()


def test_second_coframe_over_same_theta_reuses_its_derivatives(diff_calls):
    theta = ExprField.from_text("x^2*y^2 + w*x*y + z*x^3/(2 + y^2)", CHART4)
    pts = plan_points(count=5)
    first = nk_coframe(theta).second_derivatives(pts)
    kept = list(diff_calls)  # keeps the nodes alive: no id is reused
    first_calls = {(id(node), var) for node, var in kept}
    del diff_calls[:]
    second = nk_coframe(theta).second_derivatives(pts)
    assert second.tobytes() == first.tobytes()
    # no node of theta's derivatives is differentiated again: only the
    # few product nodes the new coframe builds (T_xy * -1/2, ...) are
    assert not first_calls & {(id(node), var) for node, var in diff_calls}
    assert len(diff_calls) < len(first_calls) / 4


def test_field_jet_writes_constant_partials_unevaluated(monkeypatch):
    # field_jet hands each partial it evaluates to ``node_value``; a
    # constant partial is written into its slots without being handed over
    import nullkahler.geometry as geometry

    metric = nk_metric(ExprField.from_text("x^3*y^3 + w*x*y", CHART4))
    pts = plan_points(count=5)
    reference = metric.second_derivatives(pts)
    evaluated = []
    node_value = geometry.node_value

    def recorded(node, env, memo=None):
        evaluated.append(node)
        return node_value(node, env, memo)

    monkeypatch.setattr(geometry, "node_value", recorded)
    assert metric.second_derivatives(pts).tobytes() == reference.tobytes()
    assert evaluated  # x^3 y^3 leaves non-constant second partials
    assert not any(isinstance(expr, Const) for expr in evaluated)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_constant_jet_slot_in_excluded_band_raises(order):
    chart = Chart(("w", "z", "x", "y"), (ExcludedBand("y", 0.0),))
    pts = plan_points(count=5)
    pts[2, 3] = 0.01
    entries = [(ExprField.constant(2.0, chart), [((0,), 1)])]
    with pytest.raises(DomainError):
        field_jet(entries, (1,), pts, order)
    assert field_jet(entries, (1,), pts[:2], 0).tobytes() == \
        np.full((2, 1), 2.0).tobytes()


def test_non_finite_constant_jet_slot_raises():
    # at each order the partial along x folds to the constant inf, which
    # is checked without being evaluated; the parser refuses the text
    # 1e308*10*x, so the trees are built with the smart constructors
    inf = mul(Const(1e308), Const(10.0))
    fields = (ExprField.constant(float("inf"), CHART4),
              ExprField(mul(inf, Var("x")), CHART4),
              ExprField(mul(inf, power(Var("x"), 2)), CHART4))
    with pytest.raises(ExpressionError, match="not a finite real"):
        ExprField.from_text("1e308*10*x", CHART4)
    for order, field in enumerate(fields):
        part = field.differentiate(*("x",) * order).expr
        assert isinstance(part, Const) and part.value == float("inf")
        entries = [(field, [((0,), 1)])]
        with pytest.raises(EvaluationError):
            field_jet(entries, (1,), plan_points(count=3), order)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_non_finite_evaluated_jet_slot_raises(order, sign):
    # x^3*1e308*10 is a tree, not a folded constant, and at x = 0.9 it
    # and its first two partials along x overflow where they are
    # evaluated; the jet is checked once, when it is finished
    overflowing = ExprField.from_text("x^3*1e308*10", CHART4)
    assert not isinstance(overflowing.differentiate(*("x",) * order).expr, Const)
    pts = np.tile([0.1, 0.2, 0.9, 0.3], (3, 1))
    finite = ExprField.from_text("x*y", CHART4)
    with np.errstate(over="ignore"):
        with pytest.raises(EvaluationError, match="non-finite field value"):
            field_jet([(overflowing, [((0,), sign)])], (1,), pts, order)
        # only the second entry overflows
        entries = [(finite, [((0,), 1)]), (overflowing, [((1,), sign)])]
        with pytest.raises(EvaluationError, match="non-finite field value"):
            field_jet(entries, (2,), pts, order)
    assert np.isfinite(field_jet(entries[:1], (2,), pts, order)).all()


def test_jet_keeps_signed_zeros():
    # -1 times a +0.0 partial is -0.0, and so is +1 times Const(-0.0):
    # these slots are written, not left to the array's +0.0
    xy = ExprField.from_text("x*y", CHART4)
    negative_zero = ExprField.constant(-0.0, CHART4)
    slots = [(xy, 1), (xy, -1), (negative_zero, 1), (negative_zero, -1)]
    entries = [(field, [((i,), sign)]) for i, (field, sign) in enumerate(slots)]
    pts = plan_points(count=5)
    for order in range(3):
        got = field_jet(entries, (4,), pts, order)
        ref = reference_jet(lambda index: slots[index[0]], (4,), pts, order)
        assert np.signbit(ref[ref == 0.0]).any()
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
