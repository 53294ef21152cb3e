from pathlib import Path

import numpy as np
import pytest
from oracles import lax_commutator_by_fields

from nullkahler.cli import NK_TABLE, NKSample, load_config
from nullkahler.curvature import cartan_report, coordinate_curvature
from nullkahler.expressions import EvaluationError, ExpressionError
from nullkahler.fields import Chart, DomainError, ExprField
from nullkahler.geometry import nk_metric
from nullkahler.nk_system import (
    LAMBDA_WINDOW,
    NKSolution,
    box_operator,
    commutator_sweep,
    example_family,
    induced_f,
    lax_commutator,
    lax_fields,
    residual_nk1,
    residual_nk2,
)
from nullkahler.sampling import Box, SamplePlan

CHART4 = Chart(("w", "z", "x", "y"))
BOX4 = Box(((-1, 1),) * 4)
FAMILY3_BOX = Box(((-1, 1), (-1, 1), (-1, 1), (0.7, 1.7)))
FIXTURES = Path(__file__).resolve().parent.parent / "src/nullkahler/fixtures"
PAPER_CFG = FIXTURES / "paper.cfg"


@pytest.fixture(scope="module")
def pts():
    return SamplePlan(BOX4, count=60).points()


def field(text):
    return ExprField.from_text(text, CHART4)


def test_induced_f_examples(pts):
    assert np.max(np.abs(induced_f(field("0")).evaluate(pts))) == 0.0
    p = np.array([0.1, -0.2, 1.0, 1.0])
    assert induced_f(field("x*y^3")).evaluate(p) == -9.0
    assert induced_f(field("x^2*y^2")).evaluate(p) == -12.0


def test_residuals_family1_analytic(pts):
    theta, f = field("z*y^3/3"), field("y^2")
    assert np.max(np.abs(residual_nk1(theta, f).evaluate(pts))) < 1e-14
    assert np.max(np.abs(residual_nk2(theta, f).evaluate(pts))) < 1e-14


def test_residuals_family3_quotient():
    # analytically zero away from y = 0; the 1/y^10 term magnitudes set
    # the round-off floor, which stays under 1e-8 for y >= 0.3
    theta = field("x^2/y^2")
    f = field("-4*x^2/y^6")
    sample = SamplePlan(Box(((-1, 1), (-1, 1), (-1, 1), (0.3, 1.3))),
                        count=60).points()
    assert np.max(np.abs(residual_nk1(theta, f).evaluate(sample))) < 1e-8
    assert np.max(np.abs(residual_nk2(theta, f).evaluate(sample))) < 1e-8


def test_negative_control_box_value(pts):
    theta = field("x^2*y^2")
    f = induced_f(theta)
    assert np.max(np.abs(residual_nk1(theta, f).evaluate(pts))) == 0.0
    boxf = residual_nk2(theta, f)
    value = boxf.evaluate(np.array([1.0, 1.0, 1.0, 1.0]))
    assert value == pytest.approx(288.0, abs=1e-6)
    expected = 288.0 * pts[:, 2] ** 2 * pts[:, 3] ** 2
    np.testing.assert_allclose(boxf.evaluate(pts), expected, atol=1e-10)


def test_gauge_linearity(pts):
    theta, f = field("z*y^3/3"), field("y^2")
    shifted = residual_nk1(theta, f + 2.5).evaluate(pts)
    base = residual_nk1(theta, f).evaluate(pts)
    np.testing.assert_allclose(shifted, base - 2.5, atol=1e-14)


@pytest.mark.parametrize("kind,params,box", [
    (1, {"A": "y^2"}, BOX4),
    (2, {"P": "w*y", "Q": "y^2"}, BOX4),
    (3, {"A": "s^2"}, FAMILY3_BOX),
    (4, {"A": "y^3"}, BOX4),
])
def test_families_solve_the_system(kind, params, box):
    sol = example_family(kind, params, box)
    sample = SamplePlan(box, count=60).points()
    assert np.max(np.abs(residual_nk1(sol.theta, sol.f).evaluate(sample))) < 1e-10
    assert np.max(np.abs(residual_nk2(sol.theta, sol.f).evaluate(sample))) < 1e-10


def test_family1_values():
    sol = example_family(1, {"A": "y^2"})
    p = np.array([0.0, 1.0, 0.0, 1.0])
    assert sol.theta.evaluate(p) == pytest.approx(1.0 / 3.0)
    assert sol.f.evaluate(p) == 1.0


def test_family4_values():
    sol = example_family(4, {"A": "y^3"})
    p = np.array([0.3, 0.4, 2.0, 1.0])
    assert sol.theta.evaluate(p) == 2.0  # x A(y) with B = 0
    assert sol.f.evaluate(p) == -9.0
    # nonzero ASD Weyl witness: the fourth delta-derivative is 6
    assert sol.theta.differentiate("x", "y", "y", "y").evaluate(p) == 6.0
    # a B of either sign solves the system, so only Theta = x A + B
    # itself tells it from x A - B
    with_b = example_family(4, {"A": "y^3", "B": "y^2"})
    assert with_b.theta.evaluate(p) == 3.0
    assert with_b.f.evaluate(p) == -9.0


def test_family1_constant_a_is_vacuum(pts):
    sol = example_family(1, {"A": "w"})
    raw = coordinate_curvature(nk_metric(sol.theta), pts)
    assert np.max(np.abs(raw.ricci)) < 1e-8


def test_family_needs_polynomials():
    with pytest.raises(ExpressionError):
        example_family(1, {"A": "sin(y)"})
    with pytest.raises(ValueError):
        example_family(5, {})


def test_lax_flat_exact():
    zero = ExprField.constant(0.0, CHART4)
    lax = lax_fields(zero, zero)
    # L0 = d_w - lambda d_y, L1 = d_z + lambda d_x
    assert lax.l0[0][0][1].evaluate(np.zeros(4)) == 1.0
    assert lax.l1[1][0][1].evaluate(np.zeros(4)) == 1.0
    pts = SamplePlan(BOX4, count=10).points()
    lams = np.linspace(-2, 2, 10)
    assert np.max(np.abs(lax_commutator(lax, pts, lams))) == 0.0


def test_lax_coefficients_xy3():
    theta, f = field("x*y^3"), field("-9*y^4")
    lax = lax_fields(theta, f)
    p = np.array([0.5, -0.5, 1.0, 1.0])
    # L0 = d_w - 3y^2 d_y + 6xy d_x - lambda d_y - 36 y^3 d_lambda
    coeff_x = sum(c.evaluate(p) for _, c in lax.l0[2])
    assert coeff_x == 6.0
    lam0_y = dict(lax.l0[3])[0].evaluate(p)
    lam1_y = dict(lax.l0[3])[1].evaluate(p)
    assert lam0_y == -3.0 and lam1_y == -1.0
    # d_lambda coefficients are (f_y, -f_x) by construction
    assert dict(lax.l0[4])[0].evaluate(p) == -36.0
    assert dict(lax.l1[4])[0].evaluate(p) == 0.0


def test_lax_commutator_valid_fixtures():
    for kind, params, box in ((1, {"A": "y^2"}, BOX4),
                              (4, {"A": "y^3"}, BOX4),
                              (3, {"A": "s^2"}, FAMILY3_BOX)):
        sol = example_family(kind, params, box)
        assert np.max(np.abs(commutator_sweep(sol, count=100))) < 1e-8


def test_lax_commutator_negative_control():
    theta = field("x^2*y^2")
    bad = NKSolution(theta, induced_f(theta), BOX4)
    value = lax_commutator(lax_fields(bad.theta, bad.f),
                           np.array([[1.0, 1.0, 1.0, 1.0]]), 1.0)
    assert np.max(np.abs(value)) > 1e-2
    # the nonvanishing component is the spectral one: -box f
    np.testing.assert_allclose(value[0, 4], -288.0, atol=1e-10)
    assert np.max(np.abs(value[0, :2])) == 0.0


def _tree_lax_commutator(lax, points, lambdas, memo=None):
    """[L0, L1] with one ExprField product tree per lambda-polynomial
    term, each evaluated on its own: the reference for the value-array
    algebra of ``lax_commutator``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lam = np.broadcast_to(np.asarray(lambdas, dtype=float), (pts.shape[0],))

    def derivative(poly, j):
        if j < 4:
            return [(p, c.differentiate(c.chart.coords[j])) for p, c in poly]
        return [(p - 1, c * float(p)) for p, c in poly if p]

    memo = {} if memo is None else memo
    out = np.zeros((pts.shape[0], 5))
    for k in range(5):
        terms = []
        for j, coeff_j in lax.l0.items():
            terms += [(p1 + p2, c1 * c2) for p1, c1 in coeff_j
                      for p2, c2 in derivative(lax.l1.get(k, []), j)]
        for j, coeff_j in lax.l1.items():
            terms += [(p1 + p2, c1 * (c2 * -1.0)) for p1, c1 in coeff_j
                      for p2, c2 in derivative(lax.l0.get(k, []), j)]
        for power, coeff in terms:
            out[:, k] += coeff.evaluate(pts, memo) * lam ** power
    return out


def test_lax_commutator_matches_the_product_trees():
    config = load_config(PAPER_CFG)
    samples = {fixture.name: fixture.sample(config)
               for fixture in config["fixtures"] if fixture.kind == "nk"}
    assert "control-theta" in samples  # theta = x^2*y^2, expect = fail
    for sample in samples.values():
        lax = lax_fields(sample.theta, sample.f)
        lam = sample.plan.rng().uniform(*LAMBDA_WINDOW, size=len(sample.points))
        expected = _tree_lax_commutator(lax, sample.points, lam)
        assert np.array_equal(lax_commutator(lax, sample.points, lam), expected)
        # through one memo for both, as a suite's sample set shares one
        assert np.array_equal(
            lax_commutator(lax, sample.points, lam, sample.memo),
            _tree_lax_commutator(lax, sample.points, lam, sample.memo))


@pytest.mark.parametrize("config_name", ["paper.cfg", "negative.cfg"])
def test_lax_commutator_equals_the_field_route(config_name):
    # the value route evaluates each coefficient and partial as a node
    # value, once, where the field route evaluates each as a field with
    # its own domain check and copy; the arithmetic and its order are the
    # same, so the two agree to the bit, at the plan's lambda draws and at
    # lambda = 0 and the window's ends
    config = load_config(FIXTURES / config_name)
    samples = [fixture.sample(config) for fixture in config["fixtures"]
               if fixture.kind == "nk"]
    assert samples
    for sample in samples:
        lax = lax_fields(sample.theta, sample.f)
        draws = sample.plan.rng().uniform(*LAMBDA_WINDOW,
                                          size=len(sample.points))
        for lam in (draws, 0.0, -2.0, 2.0):
            got = lax_commutator(lax, sample.points, lam, sample.memo)
            expected = lax_commutator_by_fields(lax, sample.points, lam)
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_lax_commutator_refuses_a_point_in_an_excluded_band():
    config = load_config(PAPER_CFG)
    (fixture,) = (f for f in config["fixtures"] if f.name == "family3")
    sample = fixture.sample(config)
    lax = lax_fields(sample.theta, sample.f)
    point = np.array([[0.1, -0.2, 0.3, 0.01]])  # inside |y| < 0.05
    raised = []
    for route in (lax_commutator, lax_commutator_by_fields):
        with pytest.raises(DomainError) as info:
            route(lax, point, 1.0)
        raised.append(info.type)
    assert raised[0] is raised[1] is DomainError


def test_lax_commutator_overflow_raises():
    lax = lax_fields(field("1e200*x^2*y^2"), field("0"))
    point = np.ones((1, 4))
    # every coefficient is finite (about 1e200); their products are not
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EvaluationError):
            _tree_lax_commutator(lax, point, 1.0)
        with pytest.raises(EvaluationError):
            lax_commutator(lax, point, 1.0)


def test_equivalence_of_formulations(pts):
    # residuals vanish <=> commutator vanishes <=> SD Weyl vanishes,
    # in both the positive and negative directions
    from nullkahler.curvature import cartan_report
    from nullkahler.geometry import nk_coframe

    good = example_family(1, {"A": "y^2"})
    assert np.max(np.abs(residual_nk2(good.theta, good.f).evaluate(pts))) < 1e-10
    assert np.max(np.abs(commutator_sweep(good))) < 1e-8
    assert np.max(np.abs(cartan_report(nk_coframe(good.theta), pts).c_sd)) < 1e-8

    theta = field("x^2*y^2")
    bad = NKSolution(theta, induced_f(theta), BOX4)
    assert np.max(np.abs(residual_nk2(bad.theta, bad.f).evaluate(pts))) > 1e-2
    assert np.max(np.abs(commutator_sweep(bad))) > 1e-2
    assert np.max(np.abs(cartan_report(nk_coframe(bad.theta), pts).c_sd)) > 1e-2


def test_box_operator_matches_nk2(pts):
    theta = field("x*y^3 + z*x^2/4")
    g = field("w*x^2 - y^3/3")
    txx, tyy, txy = (theta.differentiate(*pair)
                     for pair in (("x", "x"), ("y", "y"), ("x", "y")))
    direct = (g.differentiate("x", "w") + g.differentiate("y", "z")
              + tyy * g.differentiate("x", "x")
              + txx * g.differentiate("y", "y")
              - 2.0 * (txy * g.differentiate("x", "y")))
    np.testing.assert_allclose(box_operator(theta, g).evaluate(pts),
                               direct.evaluate(pts), atol=1e-14)


def _random_polynomial(rng, degree, must_have=()):
    """Text of a polynomial in (w, z, x, y) with integer coefficients in
    -3..3 on each monomial of total degree <= ``degree``, plus the
    monomials ``must_have`` (exponent tuples) with coefficients in 1..3."""
    terms = [(int(rng.integers(-3, 4)), powers)
             for powers in np.ndindex((degree + 1,) * 4)
             if sum(powers) <= degree]
    terms += [(int(rng.integers(1, 4)), powers) for powers in must_have]
    return " + ".join(
        "*".join([f"({c})"] + [f"{v}^{p}" for v, p in zip(CHART4.coords, powers)
                               if p])
        for c, powers in terms if c)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_residuals_off_shell_match_the_paper_system(pts, seed):
    # Theta and f solve nothing, and f_xw, f_yz do not vanish, so every
    # term of both equations shows in the residuals; compared against a
    # sympy transcription of the system as printed:
    #   Theta_wx + Theta_zy + Theta_xx Theta_yy - Theta_xy^2 - f,
    #   f_xw + f_yz + Theta_yy f_xx + Theta_xx f_yy - 2 Theta_xy f_xy
    sympy = pytest.importorskip("sympy")
    rng = np.random.default_rng(seed)
    theta_text = _random_polynomial(rng, 4)
    # x w and y z put f_xw and f_yz on every point
    f_text = _random_polynomial(rng, 3, must_have=[(1, 0, 1, 0), (0, 1, 0, 1)])
    w, z, x, y = sym = sympy.symbols("w z x y")
    theta, f = (sympy.Poly(sympy.sympify(text.replace("^", "**"),
                                         dict(zip("wzxy", sym))), *sym)
                for text in (theta_text, f_text))
    assert not f.diff(x, w).is_zero and not f.diff(y, z).is_zero
    nk1 = (theta.diff(w, x) + theta.diff(z, y)
           + theta.diff(x, x) * theta.diff(y, y) - theta.diff(x, y) ** 2 - f)
    nk2 = (f.diff(x, w) + f.diff(y, z) + theta.diff(y, y) * f.diff(x, x)
           + theta.diff(x, x) * f.diff(y, y)
           - 2 * theta.diff(x, y) * f.diff(x, y))
    theta_field, f_field = field(theta_text), field(f_text)
    for residual, exact in ((residual_nk1, nk1), (residual_nk2, nk2)):
        expected = sympy.lambdify(sym, exact.as_expr(), "numpy")(*pts.T)
        got = residual(theta_field, f_field).evaluate(pts)
        scale = np.max(np.abs(expected))
        assert scale > 1.0  # off shell
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("family", ["family1", "family2", "family3", "family4"])
def test_theta_gauge_moves_no_curvature_and_no_residual(family):
    # Theta -> Theta + a(w,z) x + b(w,z) y + c(w,z), f -> f + a_w + b_z
    # leaves Theta_xx, Theta_yy, Theta_xy and every x, y partial of f as
    # they were: the trees of the metric, the coframe, box f and the Lax
    # coefficients fold back to the same nodes, so both curvature reports
    # and every check but nk1 agree to the bit.  nk1 adds a_w and b_z on
    # both sides of its difference, so it agrees to round-off of its terms
    config = load_config(PAPER_CFG)
    (fixture,) = (f for f in config["fixtures"] if f.name == family)
    sample = fixture.sample(config)
    chart = sample.theta.chart
    a, b, c, x, y = (ExprField.from_text(text, chart) for text in
                     ("w*z + sin(w)", "z^2 - w^3", "exp(w*z)", "x", "y"))
    theta = sample.theta + a * x + b * y + c
    f = sample.f + a.differentiate("w") + b.differentiate("z")
    txy = theta.differentiate("x", "y")
    gauged = NKSample(NKSolution(theta, f, sample.solution.box), sample.plan)
    for name, check in NK_TABLE.items():
        before, after = check(sample), check(gauged)
        if name != "nk1":
            assert np.array_equal(before, after), name
            continue
        terms = sum(np.abs(term.evaluate(sample.points)) for term in (
            theta.differentiate("w", "x"), theta.differentiate("z", "y"),
            theta.differentiate("x", "x") * theta.differentiate("y", "y"),
            txy * txy, f))
        assert np.all(np.abs(after - before) <= 8 * np.finfo(float).eps * terms)
    reports = ((sample.oracle, gauged.oracle),
               (cartan_report(sample.coframe, sample.points),
                cartan_report(gauged.coframe, gauged.points)))
    for before, after in reports:
        for name in ("c_asd", "c_sd", "phi", "scalar", "fit_residual"):
            assert np.array_equal(getattr(before, name), getattr(after, name)), name
