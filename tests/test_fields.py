import operator
from pathlib import Path

import numpy as np
import pytest

import nullkahler.fields as fields_module
from nullkahler import cli
from nullkahler.expressions import EvaluationError, ExpressionError, Var, parse
from nullkahler.fields import (
    Chart,
    DomainError,
    ExcludedBand,
    ExprField,
    Grid,
    OrderOverflowError,
    grid_to_csv,
    sample_to_grid,
)

CHART4 = Chart(("w", "z", "x", "y"))
CHART2 = Chart(("x", "y"))


def test_closed_form_mixed_fourth_derivative():
    theta = ExprField.from_text("x*y^3", CHART4)
    d = theta.differentiate("x", "y", "y", "y")
    assert d.evaluate(np.array([0.3, -0.4, 1.7, 2.9])) == 6.0


def test_closed_form_second_derivative():
    f = ExprField.from_text("-9*y^4", CHART4)
    fyy = f.differentiate("y", "y")
    assert fyy.evaluate(np.array([0.0, 0.0, 0.0, 2.0])) == -108.0 * 4


def test_order_overflow():
    theta = ExprField.from_text("x*y^3", CHART4)
    with pytest.raises(OrderOverflowError):
        theta.differentiate("x", "x", "x", "y", "y")


def test_differentiate_sorts_names_into_one_request():
    theta = ExprField.from_text("x^3*y^2 + w*z*x/(1 + y^2)", CHART4)
    assert theta.differentiate("y", "x").expr \
        is theta.differentiate("x", "y").expr
    # the node memo returns the same tree to a second field on the same
    # expression: the field keeps no derivative state of its own
    again = ExprField(theta.expr, CHART4)
    assert again.differentiate("y", "w", "x").expr \
        is theta.differentiate("w", "x", "y").expr
    assert theta.differentiate().expr is theta.expr


def test_differentiate_unknown_name():
    theta = ExprField.from_text("x*y^3", CHART4)
    with pytest.raises(DomainError):
        theta.differentiate("t")
    with pytest.raises(DomainError):
        theta.differentiate("x", "q")


def test_a_tree_enters_a_chart_only_if_the_chart_binds_its_names():
    chart3 = Chart(("x", "y", "t"))
    tree = parse("x*z + y", ("x", "y", "z"))
    with pytest.raises(ExpressionError, match=r"unbound variables \['z'\]"):
        ExprField(tree, chart3)
    with pytest.raises(ExpressionError):
        ExprField.from_text("x*z", chart3)
    on_four = ExprField(tree, CHART4)
    with pytest.raises(ExpressionError, match=r"unbound variables \['w', 'z'\]"):
        ExprField.from_text("w*z + x", CHART4).on_chart(chart3)
    assert on_four.on_chart(Chart(("x", "y", "z"))).expr is tree
    # a bare tree as an operand is checked as a field is
    with pytest.raises(ExpressionError):
        ExprField.from_text("x", chart3) + Var("z")
    assert (ExprField.from_text("x", chart3) * Var("t")).expr.variables() == {"x", "t"}


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
def test_field_arithmetic_refuses_a_field_on_another_chart(op):
    a = ExprField.from_text("x + 2", CHART4)
    b = ExprField.from_text("x + 3", Chart(("w", "z", "x", "y"),
                                           (ExcludedBand("y", 0.0),)))
    for left, right in ((a, b), (b, a)):
        with pytest.raises(DomainError, match="field charts differ"):
            op(left, right)
    assert op(a, ExprField.from_text("x + 3", CHART4)).chart is a.chart


def test_arithmetic_and_derivatives_stay_on_their_chart(monkeypatch):
    # field arithmetic, negation and differentiate build their results
    # unchecked: every one built while the paper.cfg suite runs reads
    # only its chart's coordinates
    built = []
    unchecked = fields_module._unchecked_field

    def recorded(expr, chart):
        built.append((expr, chart))
        return unchecked(expr, chart)

    monkeypatch.setattr(fields_module, "_unchecked_field", recorded)
    config = cli.load_config(Path(cli.__file__).parent / "fixtures/paper.cfg")
    for fixture in config["fixtures"]:
        assert all(entry["pass"] for entry in cli.run_fixture(fixture, config))
    assert len(built) > 900
    for expr, chart in built:
        assert expr.variables() <= set(chart.coords), (str(expr), chart)


def test_evaluate_examples():
    field = ExprField.from_text("x^2/y^2", CHART2)
    assert field.evaluate(np.array([2.0, 1.0])) == 4.0
    zero = ExprField.constant(0.0, CHART2)
    assert zero.evaluate(np.array([0.77, -0.2])) == 0.0
    from nullkahler.expressions import EvaluationError

    with pytest.raises(EvaluationError):
        field.evaluate(np.array([1.0, 0.0]))


def test_evaluate_bitwise_reproducible():
    field = ExprField.from_text("sin(x)*y^3 - x/(2+y)", CHART2)
    pts = np.random.default_rng(5).uniform(-1, 1, size=(50, 2))
    first = field.evaluate(pts)
    second = field.evaluate(pts)
    assert np.array_equal(first, second)


def test_excluded_band():
    chart = Chart(("x", "y"), (ExcludedBand("y", 0.0),))
    field = ExprField.from_text("x/y", chart)
    assert field.evaluate(np.array([1.0, 0.5])) == 2.0
    with pytest.raises(DomainError):
        field.evaluate(np.array([1.0, 0.03]))


CHART3 = Chart(("x", "y", "t"))


@pytest.mark.parametrize("text", [
    "sin(a*x)*cos(y)*exp(-b*t) + x^2*y",
    "-(sin(x) - sin(a))*cos(y)^2*exp(-2*t) - (cos(x) - cos(a))*exp(-t)/b",
    "exp(x*y - t)/(2 + cos(a*t)) + y^3",
    "t^2 + b",
    "1.5",
])
@pytest.mark.parametrize("t", [0.0, 0.37, -1.25])
def test_axis_evaluation_matches_point_evaluation(text, t):
    # one tree, two layouts: (n, 1) x (1, m) x scalar against n*m points
    field = ExprField(parse(text, CHART3.coords, {"a": 0.3, "b": 1.7}), CHART3)
    x = np.linspace(-1.0, 1.3, 23)
    y = np.linspace(-0.7, 2.0, 17)
    on_axes = field.evaluate_axes(x[:, None], y[None, :], t)
    xg, yg = np.meshgrid(x, y, indexing="ij")
    points = np.stack([xg.ravel(), yg.ravel(), np.full(xg.size, t)], axis=-1)
    assert on_axes.shape == (23, 17)
    assert np.array_equal(on_axes, field.evaluate(points).reshape(23, 17))


def test_axis_evaluation_three_axes():
    field = ExprField.from_text("cos(x - t)*exp(y*t)", CHART3)
    x, y, t = (np.linspace(0, 1, n) for n in (5, 4, 3))
    on_axes = field.evaluate_axes(x[:, None, None], y[None, :, None],
                                  t[None, None, :])
    grid = Grid(0, 1, 5, 0, 1, 4, 0, 1, 3)
    points = np.stack([axis.ravel() for axis in grid.mesh()], axis=-1)
    assert np.array_equal(on_axes, field.evaluate(points).reshape(5, 4, 3))
    assert np.array_equal(on_axes, sample_to_grid(field, grid))


def test_axis_evaluation_band_on_one_axis():
    chart = Chart(("x", "y", "t"), (ExcludedBand("y", 0.5),))
    field = ExprField.from_text("x + y", chart)
    x = np.linspace(-1, 1, 5)[:, None]
    assert field.evaluate_axes(x, np.array([[0.0, 1.0]]), 0.0).shape == (5, 2)
    with pytest.raises(DomainError):
        field.evaluate_axes(x, np.array([[0.0, 0.52]]), 0.0)
    with pytest.raises(DomainError):
        Chart(("x", "t"), (ExcludedBand("t", 1.0),)).check_domain((x, 1.01))


def test_axis_evaluation_non_finite_on_the_broadcast_grid():
    # every axis value is finite; only the product of two overflows
    field = ExprField.from_text("x*y", CHART3)
    assert np.isfinite(field.evaluate_axes(np.array([[1e200]]),
                                           np.array([[1e-200, 1e100]]), 0.0)[0, 0])
    with np.errstate(over="ignore"), \
            pytest.raises(EvaluationError, match="non-finite field value"):
        field.evaluate_axes(np.array([[1e200], [1.0]]),
                            np.array([[1.0, 1e200]]), 0.0)
    with pytest.raises(DomainError):
        field.evaluate_axes(np.zeros((2, 1)), np.zeros((1, 2)))


def test_sample_to_grid_nodes_exact():
    grid = Grid(0.0, 1.0, 16, 0.0, 1.0, 16)
    field = ExprField.from_text("x*y^3", CHART2)
    sampled = sample_to_grid(field, grid)
    xs, ys = (axis.ravel() for axis in grid.axes())
    for i in (0, 5, 15):
        for j in (0, 9, 15):
            assert sampled[i, j] == xs[i] * ys[j] ** 3
    constant = sample_to_grid(ExprField.constant(1.0, CHART2), grid)
    assert constant.shape == (16, 16)
    assert np.all(constant == 1.0)
    with pytest.raises(DomainError):
        sample_to_grid(field, Grid(0.0, 1.0, 5))


def test_grid_shape_spacing_axes_and_ring():
    grid = Grid(-1, 1, 5, 0, 3, 4, 2, 2.5, 3)
    assert grid.ranges == ((-1.0, 1.0, 5), (0.0, 3.0, 4), (2.0, 2.5, 3))
    assert grid.shape == (5, 4, 3)
    assert grid.spacing == (0.5, 1.0, 0.25)
    assert [axis.shape for axis in grid.axes()] == [(5, 1, 1), (1, 4, 1),
                                                    (1, 1, 3)]
    assert np.array_equal(grid.axes()[1].ravel(), [0.0, 1.0, 2.0, 3.0])
    x, y, t = grid.mesh()
    assert x.shape == y.shape == t.shape == (5, 4, 3)
    assert np.array_equal(y[2, :, 1], [0.0, 1.0, 2.0, 3.0])
    ring = grid.ring()
    assert ring.shape == (5, 4, 3)
    inside = np.zeros((5, 4, 3), dtype=bool)
    inside[1:-1, 1:-1, 1:-1] = True
    assert np.array_equal(ring, ~inside)
    assert Grid(0, 1, 2).ring().all()


def test_degenerate_grid_rejected():
    inf, nan = float("inf"), float("nan")
    for edges in [(1.0, 1.0, 16), (1.0, 0.0, 16), (0.0, 1.0, 1),
                  (0.0, 1.0, 0), (0.0, inf, 5), (-inf, 1.0, 5), (nan, 1.0, 5),
                  (0.0, 1.0, 5, 0.0, nan, 5), (), (0.0, 1.0)]:
        with pytest.raises(ValueError):
            Grid(*edges)


def test_grid_refuses_a_count_that_is_not_an_integer():
    # Grid(0, 1, 2.9, 0, 1, 3) once truncated 2.9 to 2 nodes, shape (2, 3)
    for n in (2.9, 3.0, float("nan"), float("inf"), "3"):
        with pytest.raises(ValueError, match="need n >= 2"):
            Grid(0, 1, n, 0, 1, 3)
    assert Grid(0, 1, np.int64(4), 0, 1, 3).ranges[0] == (0.0, 1.0, 4)


def test_grid_csv_refuses_values_off_the_grid(tmp_path):
    grid = Grid(0.0, 1.0, 5, 0.0, 1.0, 16)
    path = tmp_path / "grid.csv"
    with pytest.raises(ValueError, match="do not fit a grid of shape"):
        grid_to_csv(grid, np.zeros((16, 5)), ("x", "y"), path)
    with pytest.raises(ValueError, match="do not fit a grid of shape"):
        grid_to_csv(grid, np.zeros((5, 16)), ("x",), path)
    assert not path.exists()


def test_linearity_both_backends():
    f = ExprField.from_text("x^2*y", CHART2)
    g = ExprField.from_text("y^3 - x", CHART2)
    combo = f * 2.5 + g * (-1.5)
    pts = np.random.default_rng(0).uniform(0.3, 0.7, size=(20, 2))
    idx = ("x", "y")
    lhs = combo.differentiate(*idx).evaluate(pts)
    rhs = 2.5 * f.differentiate(*idx).evaluate(pts) \
        - 1.5 * g.differentiate(*idx).evaluate(pts)
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    # the grid container holds the same derivative values node by node
    grid = Grid(0.3, 0.7, 9, 0.3, 0.7, 9)
    lhs_s = sample_to_grid(combo.differentiate(*idx), grid)
    rhs_s = 2.5 * sample_to_grid(f.differentiate(*idx), grid) \
        - 1.5 * sample_to_grid(g.differentiate(*idx), grid)
    np.testing.assert_allclose(lhs_s, rhs_s, atol=1e-14)


def test_mixed_partial_symmetry():
    f = ExprField.from_text("x^3*y^2 + x*y^4", CHART2)
    pts = np.random.default_rng(1).uniform(0.3, 0.7, size=(20, 2))
    a = f.differentiate("x").differentiate("y").evaluate(pts)
    b = f.differentiate("y").differentiate("x").evaluate(pts)
    np.testing.assert_array_equal(a, b)  # exact for the closed form


def test_backend_agreement_quartic_polynomials():
    # all 4th derivatives of a degree <= 6 polynomial on [-1,1]^4: the
    # closed-form backend against each monomial's exact derivative,
    # c * e!/(e-k)! * x^(e-k) per axis, judged against the sum of the
    # term magnitudes that cancel
    rng = np.random.default_rng(42)
    names = ("w", "z", "x", "y")
    exponents = [(2, 1, 2, 1), (0, 0, 3, 3), (1, 1, 2, 2), (0, 2, 0, 4),
                 (6, 0, 0, 0), (0, 0, 1, 4), (1, 0, 4, 1), (2, 2, 1, 1)]
    coeffs = [float(f"{c:.6f}")
              for c in rng.uniform(-0.5, 0.5, size=len(exponents))]
    text = " + ".join(
        f"{c:.6f}*w^{e[0]}*z^{e[1]}*x^{e[2]}*y^{e[3]}"
        for c, e in zip(coeffs, exponents)
    )
    field = ExprField.from_text(text, Chart(names))
    pts = rng.uniform(-1.0, 1.0, size=(200, 4))

    from itertools import combinations_with_replacement

    def falling(e, k):
        return float(np.prod(np.arange(e - k + 1, e + 1))) if k <= e else 0.0

    multi_indices = list(combinations_with_replacement(range(4), 4))
    assert len(multi_indices) == 35
    for combo in multi_indices:
        orders = tuple(combo.count(axis) for axis in range(4))
        terms = np.zeros((len(pts), len(exponents)))
        for m, (c, e) in enumerate(zip(coeffs, exponents)):
            term = np.full(len(pts), c)
            for axis, (ea, k) in enumerate(zip(e, orders)):
                term = term * falling(ea, k) * pts[:, axis] ** max(ea - k, 0)
            terms[:, m] = term
        exact = terms.sum(axis=1)
        got = field.differentiate(*(names[a] for a in combo)).evaluate(pts)
        scale = np.abs(terms).sum(axis=1)
        assert np.all(np.abs(got - exact) <= 1e-12 * scale), orders


def test_grid_csv_round_trip(tmp_path):
    grid = Grid(0.0, 1.0, 9, 0.0, 2.0, 11)
    sampled = sample_to_grid(ExprField.from_text("x*y^3 - 0.25", CHART2), grid)
    path = tmp_path / "grid.csv"
    grid_to_csv(grid, sampled, ("x", "y"), path)
    header = path.read_text().splitlines()[0]
    assert header.startswith("# axes: x,0,1,9;y,0,2,11")
    loaded = np.loadtxt(path, delimiter=",")
    assert np.array_equal(loaded, sampled)


def _partials(field, order):
    """The field and its partial derivatives up to ``order``."""
    from itertools import combinations_with_replacement

    return [field.differentiate(*names) for k in range(order + 1)
            for names in combinations_with_replacement(field.chart.coords, k)]


def _assert_memo_byte_equal(fields, points):
    # one memo shared by all trees, as a jet shares it across its partials
    memo = {}
    for field in fields:
        plain = field.evaluate_axes(*points.T)
        assert field.evaluate_axes(*points.T, memo=memo).tobytes() == plain.tobytes()
        assert field.evaluate(points).tobytes() == plain.tobytes()
    assert memo


@pytest.mark.parametrize("a_text", ["sin(s)", "exp(s)"])
def test_memo_evaluation_is_byte_equal_on_family3(a_text):
    from nullkahler.nk_system import example_family
    from nullkahler.sampling import Box, SamplePlan

    box = Box(((-1, 1), (-1, 1), (-1, 1), (0.7, 1.7)))
    theta = example_family(3, {"A": a_text}, box).theta
    _assert_memo_byte_equal(_partials(theta, 4), SamplePlan(box, 30).points())


def test_memo_evaluation_is_byte_equal_on_dkp_quotients():
    from nullkahler.geometry import dkp_metric
    from nullkahler.geometry import dkp_coframe
    from nullkahler.sampling import Box, SamplePlan

    chart = Chart(("x", "y", "t"))
    h_pot = ExprField.from_text("-x^2/(2*(t-1))", chart)
    w_pot = ExprField.from_text("-x/(t-1)", chart)
    coframe = dkp_coframe(h_pot, w_pot)
    fields = [field for a in range(2) for ap in range(2)
              for field in coframe.form(a, ap).comps.values()]
    fields += [field for row in dkp_metric(h_pot, w_pot).comps for field in row]
    points = SamplePlan(Box(((-1, 1), (-1, 1), (-1, 0.5), (-1, 1))), 30).points()
    _assert_memo_byte_equal([part for field in fields for part in _partials(field, 2)],
                            points)
