import math
from pathlib import Path

import numpy as np
import pytest
from oracles import product_rule

from nullkahler import dkp
from nullkahler.cli import load_config
from nullkahler.nk_system import lax_fields, residual_nk1, residual_nk2
from nullkahler.expressions import (
    _DERIVATIVES,
    FUNCTIONS,
    Add,
    Call,
    Const,
    EvaluationError,
    ExpressionError,
    Mul,
    Pow,
    Var,
    ZERO,
    add,
    div,
    integrate_polynomial,
    parse,
    power,
    to_monomials,
)

NAMES = ("w", "z", "x", "y", "t", "s")


def test_parse_product_power():
    tree = parse("x*y^3", NAMES)
    assert isinstance(tree, Mul)
    assert tree.left == Var("x")
    assert isinstance(tree.right, Pow)
    assert tree.right.exponent == 3.0


def test_parse_function_call():
    tree = parse("sin(w)+2", NAMES)
    assert isinstance(tree, Add)
    assert tree.left == Call("sin", Var("w"))
    assert tree.right == Const(2.0)


def test_parse_error_offset():
    with pytest.raises(ExpressionError) as err:
        parse("x*(", NAMES)
    assert err.value.offset == 3


def test_unknown_identifier_offset():
    with pytest.raises(ExpressionError) as err:
        parse("x + foo*2", NAMES)
    assert "foo" in str(err.value)
    assert err.value.offset == 4


def test_unknown_function():
    with pytest.raises(ExpressionError):
        parse("tan(x)", NAMES)


def test_round_trip_evaluation():
    rng = np.random.default_rng(7)
    sources = ["x*y^3 - 2/(1+x^2)", "sin(w)*cos(z) + exp(y/3)",
               "-(x - y)^4/8 + 0.5*x*t", "(x + 2)*(y - 1)/(t + 5)"]
    for text in sources:
        tree = parse(text, NAMES)
        for _ in range(20):
            env = {name: rng.uniform(-1, 1) for name in NAMES}
            expected = eval(
                text.replace("^", "**"),
                {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log},
                env,
            )
            assert tree.evaluate(env) == pytest.approx(expected, rel=1e-14)


def test_differentiation_polynomial_exact():
    tree = parse("x*y^3", NAMES)
    d = tree.diff("x").diff("y").diff("y").diff("y")
    assert d.evaluate({"x": 3.7, "y": -1.2}) == 6.0


def test_differentiation_quotient():
    tree = parse("x^2/y^2", NAMES)
    dx = tree.diff("x")
    assert dx.evaluate({"x": 2.0, "y": 1.0}) == 4.0
    dyy = tree.diff("y").diff("y")
    # d^2/dy^2 (x^2 y^-2) = 6 x^2 / y^4
    assert dyy.evaluate({"x": 1.0, "y": 2.0}) == pytest.approx(6.0 / 16.0)


def test_differentiation_functions():
    tree = parse("sin(x)*exp(y)", NAMES)
    d = tree.diff("x").diff("y")
    assert d.evaluate({"x": 0.0, "y": 0.0}) == 1.0
    assert parse("log(x)", NAMES).diff("x").evaluate({"x": 4.0}) == 0.25


def test_division_by_zero_reported():
    tree = parse("x^2/y^2", NAMES)
    with pytest.raises(EvaluationError):
        tree.evaluate({"x": 1.0, "y": 0.0})


def test_division_by_zero_in_a_shared_node_raises_with_a_memo():
    shared = div(Const(1.0), Var("x"))
    tree = add(shared, Mul(shared, shared))
    env = {"x": np.array([1.0, 0.0])}
    memo = {}
    for _ in range(2):  # a node that raised is not kept
        with pytest.raises(EvaluationError):
            tree.evaluate(env, memo)
    assert all(node is not shared for node, _ in memo.values())


def test_memo_evaluates_each_node_once(evaluate_calls):
    shared = parse("sin(x)*y + x", NAMES)
    tree = add(Mul(shared, shared), div(shared, add(shared, Const(5.0))))
    env = {"x": np.linspace(0.1, 1.0, 4), "y": np.linspace(-1.0, 1.0, 4)}
    plain = tree.evaluate(env)
    walked = len(evaluate_calls)
    evaluate_calls.clear()
    memo = {}
    assert tree.evaluate(env, memo).tobytes() == plain.tobytes()
    nodes = {id(node) for node in evaluate_calls}
    assert len(evaluate_calls) == len(nodes) < walked
    assert set(memo) == nodes - {id(tree)}  # the root is not read through it


def test_log_domain_reported():
    with pytest.raises(EvaluationError):
        parse("log(x)", NAMES).evaluate({"x": -1.0})


def test_fractional_power_of_negative_base():
    tree = Pow(Var("x"), 0.5)
    assert tree.evaluate({"x": 4.0}) == 2.0
    with pytest.raises(EvaluationError):
        tree.evaluate({"x": -4.0})


def test_exponent_must_be_constant():
    with pytest.raises(ExpressionError):
        parse("x^y", NAMES)
    # but constant-folding expressions are fine
    assert parse("x^(1+2)", NAMES).evaluate({"x": 2.0}) == 8.0


def test_vectorized_evaluation():
    tree = parse("x*y^3", NAMES)
    xs = np.array([1.0, 2.0, 3.0])
    ys = np.array([1.0, 1.0, 2.0])
    np.testing.assert_allclose(tree.evaluate({"x": xs, "y": ys}),
                               [1.0, 2.0, 24.0])


def test_bound_name_builds_its_value_into_the_tree():
    s = div(Var("x"), Var("y"))
    tree = parse("s^2 + s", (), {"s": s})
    assert tree == add(power(s, 2), s)
    assert tree.variables() == {"x", "y"}
    assert tree.evaluate({"x": 2.0, "y": 1.0}) == 6.0
    # a bound number folds like the literal it stands for
    assert parse("2*c^2 + c", (), {"c": 3}) == parse("2*3^2 + 3", ()) \
        == Const(21.0)
    assert parse("sin(x - c)/c", ("x",), {"c": 0.5}) == \
        parse("sin(x - 0.5)/0.5", ("x",))
    # a binding is taken before a declared name of the same spelling
    assert parse("x + 1", ("x",), {"x": 2}) == Const(3.0)
    with pytest.raises(ExpressionError, match="unknown identifier 'q'"):
        parse("s + q", (), {"s": s})
    with pytest.raises(ExpressionError, match="unknown function 's'"):
        parse("s(x)", ("x",), {"s": s})


def test_one_function_table():
    assert set(_DERIVATIVES) == set(FUNCTIONS)
    for name in FUNCTIONS:
        assert parse(f"{name}(x)", ("x",)) == Call(name, Var("x"))


def test_monomials_and_antiderivative():
    tree = parse("w*y^2 - 3*y + 1/2", ("w", "y"))
    mono = to_monomials(tree, ("w", "y"))
    assert mono[(1, 2)] == 1.0
    assert mono[(0, 1)] == -3.0
    assert mono[(0, 0)] == 0.5
    anti = integrate_polynomial(tree, "y")
    # d/dy of the antiderivative recovers the input
    rng = np.random.default_rng(3)
    for _ in range(10):
        env = {"w": rng.uniform(-2, 2), "y": rng.uniform(-2, 2)}
        assert anti.diff("y").evaluate(env) == pytest.approx(
            tree.evaluate(env), rel=1e-14, abs=1e-14)


def test_non_polynomial_antiderivative_rejected():
    with pytest.raises(ExpressionError):
        integrate_polynomial(parse("sin(y)", ("y",)), "y")
    with pytest.raises(ExpressionError):
        integrate_polynomial(parse("1/y", ("y",)), "y")


def test_memo_is_not_part_of_equality_hash_or_repr(diff_calls):
    text = "x*y^3 - 2/(1+x^2) + sin(w)*exp(y/3)"
    used, fresh = parse(text, NAMES), parse(text, NAMES)
    for var in ("x", "y", "w", "t"):
        used.derivative(var).derivative("y")
    assert used.variables() == {"w", "x", "y"}
    assert diff_calls  # the memo is filled
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) and str(used) == str(fresh)
    assert used.derivative("x") == fresh.diff("x")


def test_derivative_is_built_once_per_node_and_variable(diff_calls):
    tree = parse("(x^2 + y)*(x - y)^3/(1 + x^2)", NAMES)
    fourth = tree.derivative("x").derivative("x").derivative("y").derivative("y")
    built = len(diff_calls)
    assert len({(id(node), var) for node, var in diff_calls}) == built
    again = tree.derivative("x").derivative("x").derivative("y").derivative("y")
    assert again is fourth and len(diff_calls) == built
    # a variable the tree does not read costs no rule
    assert tree.derivative("w") is ZERO and len(diff_calls) == built
    env = {"x": 0.3, "y": -0.7}
    assert fourth.evaluate(env) == \
        tree.diff("x").diff("x").diff("y").diff("y").evaluate(env)


def test_memo_leaves_bindings_and_monomials_alone():
    text = "w*y^2 - 3*y*x + x^3/2"
    used, fresh = parse(text, NAMES), parse(text, NAMES)
    for var in ("w", "x", "y"):
        used.derivative(var).derivative(var)
    variables = ("w", "x", "y")
    assert to_monomials(used, variables) == to_monomials(fresh, variables)
    # bind x to a value whose memo is filled, and to a fresh one
    value = parse("y^2", NAMES)
    value.derivative("y").derivative("y")
    bound = parse(text, ("w", "y"), {"x": value})
    unused = parse(text, ("w", "y"), {"x": parse("y^2", NAMES)})
    assert bound == unused
    env = {"w": 0.5, "y": 1.5}
    # the bound tree's derivative is the one the rules build from scratch
    assert bound.derivative("y").evaluate(env) == \
        unused.diff("y").evaluate(env)
    assert bound.variables() == {"w", "y"}


PAPER_CFG = Path(__file__).resolve().parent.parent / "src/nullkahler/fixtures/paper.cfg"


def _paper_trees(fixture, sample):
    """(tree, coords) of one paper.cfg fixture's metric, coframe, nk1/nk2,
    Lax and dkp trees, with the first and second partials of each metric
    and coframe component (the trees the jets evaluate)."""
    fields = []
    if fixture.kind != "ew":
        jets = [field for row in sample.metric.comps for field in row]
        jets += [field for row in sample.coframe.fields for form in row
                 for field in form.values()]
        fields += jets + [field.differentiate(a, b) for field in jets
                          for a in field.chart.coords
                          for b in field.chart.coords]
    if fixture.kind == "nk":
        theta, f = sample.theta, sample.f
        lax = lax_fields(theta, f)
        fields += [residual_nk1(theta, f), residual_nk2(theta, f)]
        fields += [coeff for vector in (lax.l0, lax.l1)
                   for poly in vector.values() for _, coeff in poly]
    else:
        fields += [field for row in sample.ew.h.comps for field in row]
        fields.append(sample.ew.nu)
    if fixture.kind == "dkp":
        h, w = sample.h, sample.w
        fields += [dkp.residual_heqn(h), dkp.residual_lindkp(h, w),
                   w.differentiate("x"), w.differentiate("y")]
    return [(field.expr, field.chart.coords) for field in fields]


def _reachable_products(roots):
    """Each ``Mul`` node reachable from the roots, once, with the
    coordinates of the first root's chart it was reached from."""
    seen, stack = {}, list(roots)
    while stack:
        node, coords = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = (node, coords)
            stack += [(getattr(node, name), coords) for name in node.children]
    return [(node, coords) for node, coords in seen.values()
            if node.__class__ is Mul]


def _same_node(a, b) -> bool:
    """``==`` of two trees, and the same sign for a constant's zero."""
    return a == b and (a.__class__ is not Const
                       or math.copysign(1.0, a.value) == math.copysign(1.0, b.value))


def test_constant_factor_rule_builds_the_product_rule_tree():
    # Mul.diff builds one term when a factor is a constant; along every
    # chart coordinate it must give the node the full product rule gives,
    # for every product in the trees the paper.cfg suite differentiates
    config = load_config(PAPER_CFG)
    roots = []
    for fixture in config["fixtures"]:
        roots += _paper_trees(fixture, fixture.sample(config))
    products = _reachable_products(roots)
    constant_sides = set()
    for node, coords in products:
        constant_sides |= {side for side in ("left", "right")
                           if getattr(node, side).__class__ is Const}
        for var in coords:
            assert _same_node(node.derivative(var), product_rule(node, var)), \
                (str(node), var)
    assert constant_sides == {"left", "right"}
    assert len(products) > 500

    # a factor whose derivative folds to the constant zero: the product
    # with -3 is -0.0, and the rule's add with ZERO makes it +0.0
    node = parse("(x - x) * -3", NAMES)
    assert node.right == Const(-3.0)
    assert _same_node(node.derivative("x"), product_rule(node, "x"))
    assert math.copysign(1.0, node.derivative("x").value) == 1.0
