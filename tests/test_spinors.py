import numpy as np
import pytest

from nullkahler.fields import Chart, ExprField
from nullkahler.geometry import (
    EPS_LOWER,
    EPS_UPPER,
    dkp_coframe,
    hodge_star_values,
    nk_coframe,
    nk_metric,
    wedge,
)
from nullkahler.sampling import Box, SamplePlan
from oracles import (
    Spinor2,
    SpinorError,
    TwoFormValue,
    bispinor_to_vector,
    contract,
    orientation_sign,
    raise_lower,
    sd_asd_split,
    sigma_basis,
    vector_to_bispinor,
)

CHART4 = Chart(("w", "z", "x", "y"))


def flat_coframe_values(n=1):
    theta = ExprField.constant(0.0, CHART4)
    pts = np.zeros((n, 4))
    return nk_coframe(theta).evaluate(pts)


def flat_metric_values(n=1):
    theta = ExprField.constant(0.0, CHART4)
    return nk_metric(theta).evaluate(np.zeros((n, 4)))


def test_epsilon_convention():
    # eps^{AB} eps_{CB} = delta^A_C under the pinned convention
    np.testing.assert_array_equal(EPS_UPPER @ EPS_LOWER.T, np.eye(2))


def test_bispinor_basis_vectors():
    np.testing.assert_array_equal(
        vector_to_bispinor([1.0, 0.0, 0.0, 0.0]), [[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(
        vector_to_bispinor([0.0, 1.0, 0.0, 0.0]), [[0.0, 1.0], [1.0, 0.0]])


def test_bispinor_determinant_identity():
    rng = np.random.default_rng(11)
    v = rng.uniform(-3, 3, size=(1000, 4))
    det = np.linalg.det(vector_to_bispinor(v))
    quad = v[:, 0] ** 2 - v[:, 1] ** 2 + v[:, 2] ** 2 - v[:, 3] ** 2
    assert np.max(np.abs(det - quad)) < 1e-12


def test_bispinor_round_trip():
    rng = np.random.default_rng(12)
    v = rng.uniform(-1, 1, size=(50, 4))
    np.testing.assert_allclose(bispinor_to_vector(vector_to_bispinor(v)), v,
                               atol=1e-15)


def test_lower_basis_spinor():
    lowered = raise_lower(Spinor2((1.0, 0.0)), "lower")
    assert lowered.components == (0.0, 1.0)
    assert lowered.variance == "lower"


def test_raise_lower_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(25):
        s = Spinor2(tuple(rng.uniform(-2, 2, 2)))
        back = raise_lower(raise_lower(s, "lower"), "raise")
        assert back.components == pytest.approx(s.components, abs=1e-15)


def test_variance_mismatch():
    with pytest.raises(SpinorError):
        raise_lower(Spinor2((1.0, 0.0), variance="lower"), "lower")


def test_self_contraction_vanishes():
    rng = np.random.default_rng(14)
    for _ in range(25):
        s = Spinor2(tuple(rng.uniform(-2, 2, 2)))
        assert contract(s, s) == 0.0


def test_sd_split_flat_nullkahler_form():
    # flat g = dw dx + dz dy: dw ^ dz is purely self-dual
    g = flat_metric_values()[0]
    omega = np.zeros((4, 4))
    omega[0, 1], omega[1, 0] = 1.0, -1.0  # dw ^ dz on (w,z,x,y)
    sd, asd = sd_asd_split(omega, g, orientation=1)
    np.testing.assert_allclose(sd, omega, atol=1e-14)
    np.testing.assert_allclose(asd, 0.0, atol=1e-14)


def test_sd_split_resums_and_projects():
    rng = np.random.default_rng(15)
    g = flat_metric_values()[0]
    for _ in range(10):
        raw = rng.uniform(-1, 1, size=(4, 4))
        omega = raw - raw.T
        sd, asd = sd_asd_split(omega, g, 1)
        np.testing.assert_allclose(sd + asd, omega, atol=1e-12)
        sd2, asd2 = sd_asd_split(sd, g, 1)
        np.testing.assert_allclose(sd2, sd, atol=1e-12)
        np.testing.assert_allclose(asd2, 0.0, atol=1e-12)


def test_double_hodge_is_identity_on_two_forms():
    rng = np.random.default_rng(16)
    theta = ExprField.from_text("x^2*y^2 + w*x*y", CHART4)
    g = nk_metric(theta)
    pts = SamplePlan(Box(((-1, 1),) * 4), count=20).points()
    gv = g.evaluate(pts)
    raw = rng.uniform(-1, 1, size=(20, 4, 4))
    omega = raw - np.swapaxes(raw, -1, -2)
    star = hodge_star_values(omega, 2, gv, 1)
    double = hodge_star_values(star, 2, gv, 1)
    assert np.max(np.abs(double - omega)) < 1e-10


def test_degenerate_metric_rejected():
    with pytest.raises(SpinorError):
        sd_asd_split(np.zeros((4, 4)), np.zeros((4, 4)), 1)


def test_two_form_value_antisymmetry():
    with pytest.raises(SpinorError):
        TwoFormValue(np.eye(4))


def test_sigma_basis_flat():
    sigma_p, _ = sigma_basis(flat_coframe_values())
    expected = np.zeros((4, 4))
    expected[0, 1], expected[1, 0] = 1.0, -1.0
    np.testing.assert_allclose(sigma_p[0, 0], expected, atol=1e-15)


def test_sigma_basis_dkp():
    chart3 = Chart(("x", "y", "t"))
    h_pot = ExprField.from_text("-x^2/(2*(t-1))", chart3)
    w_pot = ExprField.from_text("-x/(t-1)", chart3)
    pts = SamplePlan(Box(((-1, 1), (-1, 1), (-1, 0.5), (-1, 1))), count=10).points()
    sigma_p, _ = sigma_basis(dkp_coframe(h_pot, w_pot).evaluate(pts))
    # Sigma^{0'0'} = dz ^ dt on the chart (x, y, t, z)
    expected = np.zeros((4, 4))
    expected[3, 2], expected[2, 3] = 1.0, -1.0
    assert np.max(np.abs(sigma_p[:, 0] - expected)) < 1e-12


def test_sigma_reconstruction_identity():
    rng = np.random.default_rng(17)
    for _ in range(20):
        e = rng.uniform(-1, 1, size=(1, 2, 2, 4))
        while abs(np.linalg.det(e.reshape(4, 4))) < 0.1:
            e = rng.uniform(-1, 1, size=(1, 2, 2, 4))
        sigma_p, sigma_u = sigma_basis(e)
        pair_index = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}
        for a in range(2):
            for b in range(2):
                for ap in range(2):
                    for bp in range(2):
                        lhs = np.einsum("m,n->mn", e[0, a, ap], e[0, b, bp]) \
                            - np.einsum("n,m->mn", e[0, a, ap], e[0, b, bp])
                        rhs = (EPS_UPPER[a, b] * sigma_p[0, pair_index[(ap, bp)]]
                               + EPS_UPPER[ap, bp] * sigma_u[0, pair_index[(a, b)]])
                        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_sigma_duality_eigenforms():
    # primed Sigmas self-dual, unprimed anti-self-dual under the induced
    # metric and the coframe orientation
    theta = ExprField.from_text("x^2*y^2 + w*x*y + z*x^3/2", CHART4)
    coframe = nk_coframe(theta)
    metric = nk_metric(theta)
    pts = SamplePlan(Box(((-1, 1),) * 4), count=25).points()
    orientation = orientation_sign(coframe, pts)
    gv = metric.evaluate(pts)
    sigma_p, sigma_u = sigma_basis(coframe.evaluate(pts))
    for k in range(3):
        star_p = hodge_star_values(sigma_p[:, k], 2, gv, orientation)
        star_u = hodge_star_values(sigma_u[:, k], 2, gv, orientation)
        assert np.max(np.abs(star_p - sigma_p[:, k])) < 1e-10
        assert np.max(np.abs(star_u + sigma_u[:, k])) < 1e-10


def test_display_basis_quadratic_identity():
    # -2 Sigma^{0'0'} ^ Sigma^{1'1'} = Sigma^{0'1'} ^ Sigma^{0'1'} in the
    # display normalization of the circle-bundle basis
    chart3 = Chart(("x", "y", "t"))
    h_pot = ExprField.from_text("-x^2/(2*(t-1))", chart3)
    w_pot = ExprField.from_text("-x/(t-1)", chart3)
    coframe = dkp_coframe(h_pot, w_pot)
    e00, e01 = coframe.form(0, 0), coframe.form(0, 1)
    e10, e11 = coframe.form(1, 0), coframe.form(1, 1)
    s00 = wedge(e00, e10)
    s01 = wedge(e10, e01) + wedge(e00, e11).scaled(-1.0)
    s11 = wedge(e01, e11)
    pts = SamplePlan(Box(((-1, 1), (-1, 1), (-1, 0.5), (-1, 1))), count=40).points()
    lhs = wedge(s00, s11).scaled(-2.0).evaluate(pts)
    rhs = wedge(s01, s01).evaluate(pts)
    assert np.max(np.abs(lhs - rhs)) < 1e-10
