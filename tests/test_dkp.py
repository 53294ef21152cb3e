import numpy as np
import pytest

from nullkahler.curvature import coordinate_curvature, oracle_report
from nullkahler.dkp import (
    ew_from_u,
    ew_residual,
    jones_tod_reduce,
    monopole_residual,
    residual_heqn,
    residual_lindkp,
    sd_two_forms,
)
from nullkahler.fields import Chart, ExcludedBand, ExprField
from nullkahler.geometry import (
    SYM_PAIRS,
    DegeneracyError,
    dkp_coframe,
    dkp_metric,
)
from nullkahler.sampling import Box, SamplePlan
from oracles import (
    JONES_TOD_ORIENTATION,
    coframe_form,
    coframe_sigma,
    exterior_derivative,
    hyperkahler_specialize,
    jones_tod_nu,
    monopole_residual_by_forms,
    sigma11_rhs,
    signature_counts,
    symmetry_w,
    wedge,
    weyl_connection,
    weyl_ew_residual,
    weyl_ricci,
)

CHART3 = Chart(("x", "y", "t"))
BOX3 = Box(((-1, 1), (-1, 1), (-1, 0.5)))
BOX4 = Box(((-1, 1), (-1, 1), (-1, 0.5), (-1, 1)))


def f3(text):
    return ExprField.from_text(text, CHART3)


@pytest.fixture(scope="module")
def p3():
    return SamplePlan(BOX3, count=60).points()


@pytest.fixture(scope="module")
def p4():
    return SamplePlan(BOX4, count=60).points()


# the main valid pair used throughout: H parabolic in x, W = H_x
H_MAIN = "-x^2/(2*(t-1))"
W_MAIN = "-x/(t-1)"


def test_heqn_examples(p3):
    assert np.max(np.abs(residual_heqn(f3("x*t + y^2/2")).evaluate(p3))) == 0.0
    assert np.max(np.abs(residual_heqn(f3(H_MAIN)).evaluate(p3))) < 1e-12
    bad = residual_heqn(f3("x^2")).evaluate(p3)
    expected = 4.0 * p3[:, 0]
    np.testing.assert_allclose(bad, expected, atol=1e-12)


def test_lindkp_examples(p3):
    h_pot = f3(H_MAIN)
    w_pot = symmetry_w(h_pot, b=1.0)  # W = H_x
    assert np.max(np.abs(residual_lindkp(h_pot, w_pot).evaluate(p3))) < 1e-12
    zero = ExprField.constant(0.0, CHART3)
    assert np.max(np.abs(residual_lindkp(zero, f3("y^2 + 2*x*t")).evaluate(p3))) == 0.0
    bad = residual_lindkp(zero, f3("y^3")).evaluate(p3)
    np.testing.assert_allclose(bad, 6.0 * p3[:, 1], atol=1e-12)


def test_symmetry_w_examples(p3):
    h1 = f3("x*t + y^2/2")
    w1 = symmetry_w(h1, c=1.0)  # H_t = x
    np.testing.assert_allclose(w1.evaluate(p3), p3[:, 0], atol=1e-14)
    h2 = f3(H_MAIN)
    w2 = symmetry_w(h2, b=1.0)
    np.testing.assert_allclose(w2.evaluate(p3),
                               -p3[:, 0] / (p3[:, 2] - 1.0), atol=1e-14)
    w0 = symmetry_w(h2)
    assert np.max(np.abs(w0.evaluate(p3))) == 0.0
    with pytest.raises(DegeneracyError):
        dkp_metric(h2, w0, BOX4)  # degenerate W_x flagged


def test_symmetry_orbit_solves_lindkp(p3):
    h_pot = f3("y^3 - x^2/(2*(t-1)) + 3*(t-1)*x*y")
    assert np.max(np.abs(residual_heqn(h_pot).evaluate(p3))) < 1e-12
    for kwargs in ({"a": 1.0}, {"b": 1.0}, {"c": 1.0}, {"e": 1.0},
                   {"a": 0.3, "b": -1.0, "e": 0.5}):
        w_pot = symmetry_w(h_pot, **kwargs)
        assert np.max(np.abs(residual_lindkp(h_pot, w_pot).evaluate(p3))) < 1e-10


def test_ew_structure_examples(p3):
    flat = ew_from_u(ExprField.constant(0.0, CHART3))
    assert np.max(np.abs(ew_residual(flat, p3))) < 1e-10
    pos, neg = signature_counts(flat.h, p3)
    assert np.all(pos == 2) and np.all(neg == 1)
    assert np.max(np.abs(flat.nu.evaluate(p3))) == 0.0

    u = f3(H_MAIN).differentiate("x")
    ew = ew_from_u(u)
    pos, neg = signature_counts(ew.h, p3)
    assert np.all(pos == 2) and np.all(neg == 1)
    assert np.max(np.abs(ew_residual(ew, p3))) < 1e-6
    # nu = -4 u_x dt: for u = -x/(t-1), u_x = -1/(t-1)
    nu_t = ew.nu.evaluate(p3)
    np.testing.assert_allclose(nu_t, 4.0 / (p3[:, 2] - 1.0), atol=1e-12)

    assert np.max(np.abs(ew_residual(ew_from_u(f3("x^2")), p3))) > 1e-2


def test_weyl_connection_derivative_is_the_derivative_of_gamma(p3):
    # the Weyl connection is the reference route of the EW residual, which
    # symmetrises its Ricci tensor; the second identity term of the
    # correction's derivative, delta^i_k d_l nu_j, enters it only as the
    # antisymmetric d_j nu_i - d_i nu_j, so the residual cannot see that
    # term's sign; the derivative itself can, against a central difference
    # of gamma
    ew = ew_from_u(f3("x^2*y - x/(t-1)"))
    gamma, dgamma, _, _ = weyl_connection(ew, p3)
    step = 1e-5
    for axis in range(3):
        shift = np.zeros(3)
        shift[axis] = step
        ahead = weyl_connection(ew, p3 + shift)[0]
        behind = weyl_connection(ew, p3 - shift)[0]
        central = (ahead - behind) / (2.0 * step)
        np.testing.assert_allclose(dgamma[:, axis], central, rtol=0,
                                   atol=1e-6 * np.abs(dgamma).max())



#: u on which the two EW routes are compared, with the box each is sampled
#: on: control-ew's u, two generic polynomials, and the travelling wave of
#: tests/test_cli.py, an exact dKP solution whose Weyl form is not closed
EW_ROUTE_CASES = (
    ("x^2", BOX3),
    ("x^2*y + 3*y*t^2 - x*t", BOX3),
    ("x^3 - 2*x*y^2 + t*y + 1", BOX3),
    ("-2 + (4 + 2*(x + y - t))^0.5", Box(((0, 1), (0, 1), (-1, 0)))),
)


@pytest.mark.parametrize("text, box", EW_ROUTE_CASES,
                         ids=[text for text, _ in EW_ROUTE_CASES])
def test_closed_form_ew_residual_equals_the_weyl_connection_route(text, box):
    # ew_residual reads the Pedersen-Tod closed form off the Levi-Civita
    # curvature of h; the reference forms the Weyl connection and its Ricci
    # tensor.  The gap is taken relative to that Ricci tensor, the terms
    # the trace-free part cancels: the travelling wave is Einstein-Weyl,
    # so its residual is itself round-off.  A few dozen roundings of terms
    # of that size stay under 32 eps; the gap measured 2 to 7.4 eps
    points = SamplePlan(box, count=100).points()
    ew = ew_from_u(f3(text))
    closed = ew_residual(ew, points)
    reference = weyl_ew_residual(ew, points)
    scale = np.abs(weyl_ricci(ew, points)[0]).max()
    gap = np.abs(closed - reference).max()
    assert gap <= 32 * np.finfo(float).eps * scale
    assert np.abs(ew.nu.differentiate("x").evaluate(points)).max() > 0.1
    einstein_weyl = text.startswith("-2 + ")
    assert (np.abs(reference).max() < 1e-13) == einstein_weyl

def test_monopole_examples(p3):
    h_pot, w_pot = f3(H_MAIN), symmetry_w(f3(H_MAIN), b=1.0)
    ew = ew_from_u(h_pot.differentiate("x"))
    assert np.max(np.abs(monopole_residual(ew, w_pot, p3))) < 1e-8

    # W = x on the flat structure: V = 1 and alpha = -dy, so dV, nu V
    # and d alpha all vanish
    flat = ew_from_u(ExprField.constant(0.0, CHART3))
    assert np.max(np.abs(monopole_residual(flat, f3("x"), p3))) == 0.0

    # W + y^2 keeps V and adds -4y dt to alpha, so d alpha gains -4 dy ^ dt
    perturbed = w_pot + f3("y^2")
    assert np.max(np.abs(monopole_residual(ew, perturbed, p3))) > 1e-2


def test_monopole_jet_route_matches_form_trees():
    # the residual read off the jets of W_x, W_y and nu_t against the form
    # trees of dV, nu V / 2 and d alpha, on every dkp fixture of paper.cfg
    # and on a W that solves nothing: each sum and product is taken in
    # the trees' order, so the values agree exactly (a zero may differ in
    # sign where an absent tree term stands against a computed zero)
    from pathlib import Path

    from nullkahler import cli

    config = cli.load_config(Path(cli.__file__).parent / "fixtures/paper.cfg")
    cases = [(f.name, f.sample(config)) for f in config["fixtures"]
             if f.kind == "dkp"]
    assert len(cases) == 5
    cases = [(name, s.ew, s.w, s.points3) for name, s in cases]
    cases.append(("generic", ew_from_u(f3("x^2*y - x/(t-1)")),
                  f3("x^3*t + y^2*x - t*y"), SamplePlan(BOX3, 60).points()))
    for name, ew, w_pot, points in cases:
        got = monopole_residual(ew, w_pot, points)
        assert np.array_equal(got, monopole_residual_by_forms(ew, w_pot, points)), name
    assert np.abs(got).max() > 0.1


def test_sd_two_forms_report(p4):
    h_pot, w_pot = f3(H_MAIN), f3(W_MAIN)
    coframe = dkp_coframe(h_pot, w_pot)
    s00, s01, s11, (d00, d01) = sd_two_forms(coframe, p4)
    assert np.max(np.abs(d00)) < 1e-9
    assert np.max(np.abs(d01)) < 1e-9
    d11 = exterior_derivative(coframe_sigma(coframe, 1, 1)).evaluate(p4)
    assert np.max(np.abs(d11 - sigma11_rhs(h_pot, w_pot).evaluate(p4))) < 1e-8
    assert np.max(np.abs(d11)) > 1e-1  # open unless W = H_x/2 + f(t)
    # Sigma^{0'0'} = dz ^ dt; the values are those of Sigma's form trees
    assert np.max(np.abs(s00[:, 3, 2] - 1.0)) < 1e-12
    for values, pair in zip((s00, s01, s11), SYM_PAIRS):
        assert np.array_equal(values,
                              coframe_sigma(coframe, *pair).evaluate(p4))


def test_sd_two_forms_parallel_frame(p4):
    h_pot = f3(H_MAIN)
    w_half = symmetry_w(h_pot, b=0.5)  # W = H_x/2
    coframe = dkp_coframe(h_pot, w_half)
    _, _, _, (d00, d01) = sd_two_forms(coframe, p4)
    s11 = coframe_sigma(coframe, 1, 1)
    assert np.max(np.abs(exterior_derivative(s11).evaluate(p4))) < 1e-8
    assert np.max(np.abs(d00)) < 1e-9 and np.max(np.abs(d01)) < 1e-9


def test_sigma11_rhs_closed_form(p4):
    # independent check of the closed form against the exact exterior
    # derivative for an asymmetric, invalid W
    h_pot, w_pot = f3("x*t + y^2/2"), f3("x^3 + 2*x + y^2/3")
    coframe = dkp_coframe(h_pot, w_pot)
    sigma11 = wedge(coframe_form(coframe, 0, 1), coframe_form(coframe, 1, 1))
    lhs = exterior_derivative(sigma11).evaluate(p4)
    rhs = sigma11_rhs(h_pot, w_pot).evaluate(p4)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_jones_tod_round_trip(p3, p4):
    h_pot, w_pot = f3(H_MAIN), f3(W_MAIN)
    metric = dkp_metric(h_pot, w_pot, BOX4)
    h_reduced = jones_tod_reduce(metric)
    ew = ew_from_u(h_pot.differentiate("x"))
    wx2 = w_pot.differentiate("x").evaluate(p3) ** 2
    gap = h_reduced.evaluate(p3) + wx2[:, None, None] * ew.h.evaluate(p3)
    assert np.max(np.abs(gap)) < 1e-8


def test_jones_tod_nu_gauge(p4):
    # recovered nu = -4 H_xx dt + d ln(Wx^2): the EW one-form modulo the
    # conformal-gauge term of the factor -Wx^2
    h_pot, w_pot = f3(H_MAIN), f3(W_MAIN)
    metric = dkp_metric(h_pot, w_pot, BOX4)
    nu = jones_tod_nu(metric, p4)
    chart4 = metric.chart
    wx = w_pot.differentiate("x")

    def on4(field):
        return field.on_chart(chart4).evaluate(p4)

    expected = np.stack([
        on4(2.0 * w_pot.differentiate("x", "x") / wx),
        on4(2.0 * w_pot.differentiate("x", "y") / wx),
        on4(2.0 * w_pot.differentiate("x", "t") / wx)
        - 4.0 * on4(h_pot.differentiate("x", "x")),
        np.zeros(len(p4)),
    ], axis=1)
    assert np.max(np.abs(nu - expected)) < 1e-8
    # the opposite orientation flips nu
    flipped = jones_tod_nu(metric, p4, -JONES_TOD_ORIENTATION)
    assert np.array_equal(flipped, -nu)


def test_jones_tod_flat_fixture(p3):
    metric = dkp_metric(ExprField.constant(0.0, CHART3), f3("x"), BOX4)
    hv = jones_tod_reduce(metric).evaluate(p3)
    expected = np.zeros((len(p3), 3, 3))
    expected[:, 1, 1] = -1.0          # -(dy^2 - 4 dx dt) for W_x = 1
    expected[:, 0, 2] = expected[:, 2, 0] = 2.0
    assert np.max(np.abs(hv - expected)) < 1e-12


def test_jones_tod_requires_killing_vector():
    h_pot, w_pot = f3(H_MAIN), f3(W_MAIN)
    metric = dkp_metric(h_pot, w_pot, BOX4)
    metric.comps[3][3] = ExprField.from_text("-1/(1 - t) + z/10", metric.chart)
    with pytest.raises(ValueError):
        jones_tod_reduce(metric)


def test_hyperkahler_specialization(p4):
    h_pot = f3(H_MAIN)
    special = hyperkahler_specialize(h_pot, BOX4)
    direct = dkp_metric(h_pot, symmetry_w(h_pot, b=0.5), BOX4)
    assert np.max(np.abs(special.evaluate(p4) - direct.evaluate(p4))) < 1e-10
    raw = coordinate_curvature(special, p4)
    assert np.max(np.abs(raw.ricci)) < 1e-7
    with pytest.raises(DegeneracyError):
        hyperkahler_specialize(f3("x*t + y^2/2"), BOX4)  # H_xx = 0


def test_scalar_flatness(p4):
    for h_text, w_kwargs in ((H_MAIN, {"b": 1.0}),
                             ("y^3 - x^2/(2*(t-1)) + 3*(t-1)*x*y", {"e": 0.5})):
        h_pot = f3(h_text)
        w_pot = symmetry_w(h_pot, **w_kwargs)
        metric = dkp_metric(h_pot, w_pot, BOX4)
        raw = coordinate_curvature(metric, p4)
        assert np.max(np.abs(raw.scalar)) < 1e-7


def test_scalar_curvature_tracks_lindkp(p4):
    # R = 0 is a consequence of the linearised equation: the invalid W
    # below breaks it and the scalar curvature responds
    h_pot, w_pot = f3("x*t + y^2/2"), f3("x^3 + 2*x")
    metric = dkp_metric(h_pot, w_pot, BOX4)
    raw = coordinate_curvature(metric, p4)
    assert np.max(np.abs(raw.scalar)) > 1e-1


def test_non_vacuum_witness(p4):
    h_pot = f3("y^3 - x^2/(2*(t-1)) + 3*(t-1)*x*y")
    w_pot = symmetry_w(h_pot, e=0.5)  # W = H_y/2
    metric = dkp_metric(h_pot, w_pot, BOX4)
    coframe = dkp_coframe(h_pot, w_pot)
    raw = coordinate_curvature(metric, p4)
    report = oracle_report(metric, coframe, p4)
    assert np.max(np.abs(raw.ricci)) > 1e-3
    assert np.max(np.abs(report.c_sd)) < 1e-7
    assert np.max(np.abs(report.scalar)) < 1e-7


def test_pipeline_coherence_negative_controls(p3, p4):
    # breaking one input breaks the matching downstream checks
    h_valid = f3(H_MAIN)
    w_valid = f3(W_MAIN)
    controls = [
        ("bad-H", f3("x^2 + x*t"), symmetry_w(f3("x^2 + x*t"), b=1.0)),
        ("bad-W", h_valid, f3("x^3 + 2*x")),
        ("bad-both", f3("x^2 + x*t"), f3("y^3 + x/2")),
    ]
    baseline = {
        "heqn": np.max(np.abs(residual_heqn(h_valid).evaluate(p3))),
        "lindkp": np.max(np.abs(residual_lindkp(h_valid, w_valid).evaluate(p3))),
    }
    assert max(baseline.values()) < 1e-10
    for name, h_pot, w_pot in controls:
        heqn = np.max(np.abs(residual_heqn(h_pot).evaluate(p3)))
        lind = np.max(np.abs(residual_lindkp(h_pot, w_pot).evaluate(p3)))
        ew = np.max(np.abs(ew_residual(ew_from_u(h_pot.differentiate("x")), p3)))
        mono = np.max(np.abs(monopole_residual(
            ew_from_u(h_pot.differentiate("x")), w_pot, p3)))
        coframe = dkp_coframe(h_pot, w_pot)
        report = oracle_report(dkp_metric(h_pot, w_pot), coframe, p4)
        if name in ("bad-H", "bad-both"):
            assert heqn > 1e-2 and ew > 1e-2
        if name in ("bad-W", "bad-both"):
            assert lind > 1e-2
        assert mono > 1e-2 or np.max(np.abs(report.c_sd)) > 1e-3
