import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import christoffel, eager_oracle_report, sigma_closure_by_forms

from nullkahler.curvature import (
    cartan_report,
    check_null_kahler,
    coordinate_curvature,
    curvature_two_forms,
    decompose_curvature,
    oracle_report,
    path_agreement,
    spin_connection,
)
from nullkahler.fields import Chart, ExprField
from nullkahler.geometry import (
    EPS_UPPER,
    CoFrame,
    DegeneracyError,
    dkp_coframe,
    dkp_metric,
    inverse_metric_values,
    nk_coframe,
    nk_metric,
)
from nullkahler.sampling import Box, SamplePlan

CHART4 = Chart(("w", "z", "x", "y"))
CHART3 = Chart(("x", "y", "t"))
BOX4 = Box(((-1, 1),) * 4)
DKP_BOX = Box(((-1, 1), (-1, 1), (-1, 0.5), (-1, 1)))

# Frozen closed-form anchors on the theta = x*y^3 and theta = x^2*y^2
# fixtures: the oracle ASD component per delta^4(theta) with
# delta_0 = d/dy, delta_1 = -d/dx, and the oracle SD component
# (slot 0'0'0'0') per box(f).
KAPPA_PAPER = {"asd": 2.0, "sd": 0.5}


def nk_fixture(text):
    theta = ExprField.from_text(text, CHART4)
    return nk_metric(theta), nk_coframe(theta), theta


def _weyl_reference(metric, points):
    """Reference oracle chain, independent of the one-pass Riemann tensor:
    Christoffel symbols and their partials, the mixed Riemann tensor
    R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb} + Gamma Gamma terms,
    lowered, Ricci R_{bd} = R^a_{bad} and R, and the Weyl tensor as the
    Riemann tensor less its Kulkarni-Nomizu trace terms.  Returns
    (C_{abcd}, g^{ab})."""
    g = metric.evaluate(points)
    ginv = inverse_metric_values(g)
    gamma, dgamma, _ = christoffel(metric.first_derivatives(points),
                                   metric.second_derivatives(points), ginv)
    riem = (np.einsum("ncadb->nabcd", dgamma)
            - np.einsum("ndacb->nabcd", dgamma)
            + np.einsum("nace,nedb->nabcd", gamma, gamma)
            - np.einsum("nade,necb->nabcd", gamma, gamma))
    riem_low = np.einsum("nae,nebcd->nabcd", g, riem)
    ricci = np.einsum("nabad->nbd", riem)
    scalar = np.einsum("nbd,nbd->n", ginv, ricci)
    term_ricci = 0.5 * (np.einsum("nac,ndb->nabcd", g, ricci)
                        - np.einsum("nad,ncb->nabcd", g, ricci)
                        - np.einsum("nbc,nda->nabcd", g, ricci)
                        + np.einsum("nbd,nca->nabcd", g, ricci))
    term_scalar = (np.einsum("n,nac,ndb->nabcd", scalar / 6.0, g, g)
                   - np.einsum("n,nad,ncb->nabcd", scalar / 6.0, g, g))
    return riem_low - term_ricci + term_scalar, ginv


@pytest.fixture(scope="module")
def pts():
    return SamplePlan(BOX4, count=40).points()


def test_flat_curvature_vanishes(pts):
    metric, coframe, _ = nk_fixture("0")
    raw = coordinate_curvature(metric, pts)
    assert np.max(np.abs(raw.riemann_low)) < 1e-12
    assert np.max(np.abs(raw.ricci)) < 1e-12
    report = cartan_report(coframe, pts)
    assert np.max(np.abs(report.c_sd)) < 1e-12
    assert np.max(np.abs(report.c_asd)) < 1e-12
    assert np.max(np.abs(report.phi)) < 1e-12
    assert np.max(np.abs(report.scalar)) < 1e-12


def test_family1_ricci_pattern(pts):
    # theta = z y^3/3 (f = y^2): the Ricci tensor has one independent
    # nonzero component along the null w/z block (the ww slot under
    # these index conventions), is null, and is nonzero around y = 1
    metric, _, _ = nk_fixture("z*y^3/3")
    raw = coordinate_curvature(metric, pts)
    off_block = raw.ricci.copy()
    off_block[:, 0, 0] = 0.0  # ww slot on (w, z, x, y)
    assert np.max(np.abs(off_block)) < 1e-12
    assert np.max(np.abs(raw.ricci_square())) < 1e-10
    at_one = coordinate_curvature(metric, np.array([[0.2, 0.3, 0.1, 1.0]]))
    assert np.max(np.abs(at_one.ricci)) > 0.1


def test_gibbons_hawking_is_vacuum():
    h_pot = ExprField.constant(0.0, CHART3)
    w_pot = ExprField.from_text("y^2 + 2*x*t", CHART3)
    box = Box(((-1, 1), (-1, 1), (0.25, 0.75), (-1, 1)))
    metric = dkp_metric(h_pot, w_pot, box)
    raw = coordinate_curvature(metric, SamplePlan(box, count=60).points())
    assert np.max(np.abs(raw.ricci)) < 1e-7


def test_first_bianchi_symmetry(pts):
    for text in ("x*y^3", "x^2*y^2 + w*x*y"):
        metric, _, _ = nk_fixture(text)
        raw = coordinate_curvature(metric, pts)
        cyc = (raw.riemann_low
               + np.einsum("nacdb->nabcd", raw.riemann_low)
               + np.einsum("nadbc->nabcd", raw.riemann_low))
        assert np.max(np.abs(cyc)) < 1e-9


def test_weyl_trace_free(pts):
    metric, _, _ = nk_fixture("x^2*y^2 + w*x*y + z*x^3/2")
    weyl, ginv = _weyl_reference(metric, pts)
    trace = np.einsum("nac,nabcd->nbd", ginv, weyl)
    assert np.max(np.abs(trace)) < 1e-10


def test_spin_connection_flat(pts):
    _, coframe, _ = nk_fixture("0")
    conn = spin_connection(coframe, pts)
    assert conn.residual < 1e-12
    assert np.max(np.abs(conn.unprimed)) < 1e-12
    assert np.max(np.abs(conn.primed)) < 1e-12


def test_spin_connection_residual(pts):
    for text in ("x*y^3", "x^2*y^2 + w*x*y + z*x^3/2"):
        _, coframe, _ = nk_fixture(text)
        assert spin_connection(coframe, pts).residual < 1e-10


def test_spin_connection_nk_patterns(pts):
    # theta = x y^3: third delta-derivatives are drawn from
    # {0, +-6x, +-6y}, with 6y present; the connection one-forms point
    # along dw, dz only
    _, coframe, _ = nk_fixture("x*y^3")
    conn = spin_connection(coframe, pts)
    assert np.max(np.abs(conn.unprimed[:, :, 2:])) < 1e-12
    xs, ys = pts[:, 2], pts[:, 3]
    allowed = np.stack([np.zeros_like(xs), 6 * xs, -6 * xs, 6 * ys, -6 * ys], 1)
    for pair in range(3):
        for comp in range(2):
            values = conn.unprimed[:, pair, comp]
            gap = np.min(np.abs(values[:, None] - allowed), axis=1)
            assert np.max(gap) < 1e-10
    present = np.abs(np.abs(conn.unprimed[:, 0, 1]) - np.abs(6 * ys))
    assert np.max(present) < 1e-10  # the 6y pattern indeed appears


def test_spin_connection_primed_rank_one(pts):
    # Gamma_{A'B'} proportional to iota_{A'} iota_{B'}: a single
    # symmetric slot survives (the 0'0' slot under these conventions,
    # the parallel-spinor direction), with dw/dz components only
    for text in ("x*y^3", "x^2/y^2"):
        theta = ExprField.from_text(text, CHART4)
        use = pts.copy()
        use[:, 3] = np.abs(use[:, 3]) + 0.4
        conn = spin_connection(nk_coframe(theta), use)
        assert np.max(np.abs(conn.primed[:, 1:, :])) < 1e-10
        assert np.max(np.abs(conn.primed[:, :, 2:])) < 1e-10
        assert np.max(np.abs(conn.primed[:, 0, :2])) > 1e-3


def test_curvature_two_forms_flat(pts):
    _, coframe, _ = nk_fixture("0")
    r_u, r_p = curvature_two_forms(spin_connection(coframe, pts))
    assert np.max(np.abs(r_u)) < 1e-12 and np.max(np.abs(r_p)) < 1e-12


def test_curvature_two_forms_abelian():
    # a rank-one connection (single symmetric slot) has Gamma ^ Gamma = 0,
    # so the curvature form reduces to the exact-derivative part
    from nullkahler.curvature import SpinConnection

    rng = np.random.default_rng(8)
    n = 6
    unprimed = np.zeros((n, 3, 4))
    d_unprimed = np.zeros((n, 4, 3, 4))
    unprimed[:, 0, :] = rng.uniform(-1, 1, size=(n, 4))
    d_unprimed[:, :, 0, :] = rng.uniform(-1, 1, size=(n, 4, 4))
    conn = SpinConnection(unprimed, np.zeros((n, 3, 4)),
                          d_unprimed, np.zeros((n, 4, 3, 4)), 0.0,
                          np.zeros((n, 2, 2, 4)))
    r_u, r_p = curvature_two_forms(conn)
    dmixed = np.einsum("abp,nlpk->nlabk", np.asarray(
        __import__("nullkahler.curvature", fromlist=["_MIXED"])._MIXED),
        d_unprimed)
    d_only = np.einsum("nmabk->nabmk", dmixed) - np.einsum("nkabm->nabmk", dmixed)
    np.testing.assert_array_equal(r_u, d_only)
    assert np.max(np.abs(r_p)) == 0.0


#: eps_{AB} = eps^{AB} with eps_{01} = 1, the test's own copy
EPS = np.array([[0.0, 1.0], [-1.0, 0.0]])
ULP = np.finfo(float).eps
#: eps_{AC} eps_{BD} + eps_{AD} eps_{BC}
EPS_SYM = np.einsum("ac,bd->abcd", EPS, EPS) + np.einsum("ad,bc->abcd", EPS, EPS)


def _symmetric4(comps):
    """[n, 2, 2, 2, 2] totally symmetric spinors whose component with k
    1-indices is comps[:, k]."""
    out = np.empty((len(comps), 2, 2, 2, 2))
    for slot in np.ndindex(2, 2, 2, 2):
        out[(slice(None),) + slot] = comps[:, sum(slot)]
    return out


def _pair_symmetric(block):
    """[n, 2, 2, 2, 2] Phi_{ABC'D'}, symmetric in each pair, from its
    3x3 block over (A + B, C' + D')."""
    out = np.empty((len(block), 2, 2, 2, 2))
    for slot in np.ndindex(2, 2, 2, 2):
        out[(slice(None),) + slot] = block[:, slot[0] + slot[1], slot[2] + slot[3]]
    return out


def _soldered_forms(x_u, phi_u, x_p, phi_p, flip=None):
    """Soldered curvature forms [n, 128] of both blocks, R^A_B[CC'DD']
    then R^{A'}_{B'}[CC'DD'], from lowered spinors: the split
    R_{AB}[CC'DD'] = X_{ABCD} eps_{C'D'} + Phi_{ABC'D'} eps_{CD}, its
    primed mirror R_{A'B'} = X'_{A'B'C'D'} eps_{CD} + Phi'_{A'B'CD}
    eps_{C'D'}, each raised with R^A_B = R_{EB} eps^{EA}.  ``flip``
    names one eps factor ("x", "phi" or "raise") to reverse."""
    eps_x, eps_phi, eps_raise = (-EPS if flip == name else EPS
                                 for name in ("x", "phi", "raise"))
    low_u = (np.einsum("nabcd,pq->nabcpdq", x_u, eps_x)
             + np.einsum("nabpq,cd->nabcpdq", phi_u, eps_phi))
    low_p = (np.einsum("nabpq,cd->nabcpdq", x_p, eps_x)
             + np.einsum("nabcd,pq->nabcpdq", phi_p, eps_phi))
    return np.concatenate([
        np.einsum("nebcpdq,ea->nabcpdq", low, eps_raise).reshape(-1, 64)
        for low in (low_u, low_p)], axis=1)


def _spinor_blocks(theta):
    """(X, Phi, X', Phi') of theta[n] = (Psi 5, Psi' 5, Phi 9, R): each X
    is Psi + (R/24)(eps_{AC} eps_{BD} + eps_{AD} eps_{BC}), and the
    primed block's Phi has its pairs swapped."""
    lam = (theta[:, 19] / 24.0)[:, None, None, None, None] * EPS_SYM
    phi = _pair_symmetric(theta[:, 10:19].reshape(-1, 3, 3))
    return (_symmetric4(theta[:, :5]) + lam, phi,
            _symmetric4(theta[:, 5:10]) + lam, phi.transpose(0, 3, 4, 1, 2))


def _soldered_model(theta, flip=None):
    """``_soldered_forms`` of the spinors of theta[n, 20]."""
    return _soldered_forms(*_spinor_blocks(theta), flip)


def _decompose_soldered(data):
    """``decompose_curvature`` of soldered forms data[n, 128] in the unit
    frame, where the forms are their own soldering."""
    npts = len(data)
    dual = np.tile(np.eye(4), (npts, 1, 1)).reshape(npts, 2, 2, 4)
    r_u, r_p = data.reshape(npts, 2, 2, 2, 4, 4).transpose(1, 0, 2, 3, 4, 5)
    return decompose_curvature(r_u, r_p, dual)


def _round_trip(flip=None):
    """(report, theta, scale): random spinors theta[n, 20] soldered by
    the model and read back; scale is the largest soldered component."""
    theta = np.random.default_rng(17).uniform(-1, 1, (60, 20))
    data = _soldered_model(theta, flip)
    return _decompose_soldered(data), theta, float(np.max(np.abs(data)))


def _gaps(report, theta):
    return {"c_asd": np.max(np.abs(report.c_asd - theta[:, :5])),
            "c_sd": np.max(np.abs(report.c_sd - theta[:, 5:10])),
            "phi": np.max(np.abs(report.phi.reshape(-1, 9) - theta[:, 10:19])),
            "scalar": np.max(np.abs(report.scalar - theta[:, 19]))}


def test_decompose_fit_is_exact(pts):
    # the Cartan forms of a metric meet every structural fact the read
    # tests: both blocks carry one R and one Phi, and X is symmetric
    # under pair exchange, each to round-off
    for text in ("x*y^3", "x^2*y^2 + w*x*y + z*x^3/2 + y^4*w/4"):
        _, coframe, _ = nk_fixture(text)
        report = cartan_report(coframe, pts)
        scale = max(1.0, *(float(np.max(np.abs(getattr(report, name))))
                           for name in ("c_asd", "c_sd", "phi", "scalar")))
        assert report.fit_residual <= 16 * ULP * scale


def test_decompose_reads_back_the_spinors_it_was_soldered_from():
    report, theta, scale = _round_trip()
    gaps = _gaps(report, theta)
    assert max(gaps.values()) <= 16 * ULP * scale, gaps
    assert report.fit_residual <= 16 * ULP * scale


@pytest.mark.parametrize("flip", ["x", "phi", "raise"])
def test_decompose_round_trip_sees_each_eps_sign(flip):
    # reversing any eps factor of the forward model moves some sector by
    # O(1), so the round trip pins every sign of the read
    report, theta, scale = _round_trip(flip)
    assert max(_gaps(report, theta).values()) > 0.1 * scale


@pytest.mark.parametrize("broken", ["pair-exchange", "scalar", "phi"])
def test_decompose_fit_residual_sees_each_structural_gap(broken):
    # forms that break one structural fact of a Riemann tensor in the
    # unprimed block leave an O(1) fit_residual: X asymmetric under pair
    # exchange (a_{AB} b_{CD} - b_{AB} a_{CD}, which keeps R and Phi),
    # an R of its own (eps_sym added to X), or a Phi of its own
    rng = np.random.default_rng(23)
    npts = 10
    x_u, phi_u, x_p, phi_p = _spinor_blocks(rng.uniform(-1, 1, (npts, 20)))
    if broken == "pair-exchange":
        a, b = (m + m.transpose(0, 2, 1)
                for m in rng.uniform(-1, 1, (2, npts, 2, 2)))
        x_u = x_u + (np.einsum("nab,ncd->nabcd", a, b)
                     - np.einsum("nab,ncd->nabcd", b, a))
    elif broken == "scalar":
        x_u = x_u + EPS_SYM
    else:
        phi_u = phi_u + _pair_symmetric(rng.uniform(-1, 1, (npts, 3, 3)))
    report = _decompose_soldered(_soldered_forms(x_u, phi_u, x_p, phi_p))
    assert report.fit_residual > 0.1


def test_asd_weyl_value_xy3(pts):
    # delta^4 theta = 6 for theta = x y^3; the oracle ASD component is
    # KAPPA_PAPER["asd"] times the delta-dressed value
    metric, coframe, theta = nk_fixture("x*y^3")
    d4 = theta.differentiate("x", "y", "y", "y").evaluate(pts)
    np.testing.assert_array_equal(d4, np.full(len(pts), 6.0))
    report = oracle_report(metric, coframe, pts)
    live = np.where(np.max(np.abs(report.c_asd), axis=0) > 1e-9)[0]
    assert list(live) == [1]
    # slot 1 carries delta_0 delta_0 delta_0 delta_1 theta = -d_y^3 d_x theta
    expected = KAPPA_PAPER["asd"] * (-6.0)
    np.testing.assert_allclose(report.c_asd[:, 1], expected, atol=1e-6)
    assert abs(abs(report.c_asd[0, 1]) - 6.0 * KAPPA_PAPER["asd"]) < 1e-6


def test_sd_weyl_value_x2y2(pts):
    # theta = x^2 y^2: single surviving SD component = kappa * box f,
    # box f = 288 x^2 y^2, constant ratio across the sample set
    metric, coframe, theta = nk_fixture("x^2*y^2")
    report = oracle_report(metric, coframe, pts)
    live = np.where(np.max(np.abs(report.c_sd), axis=0) > 1e-9)[0]
    assert list(live) == [0]
    boxf = 288.0 * pts[:, 2] ** 2 * pts[:, 3] ** 2
    ratios = report.c_sd[:, 0] / boxf
    assert np.max(ratios) - np.min(ratios) < 1e-4
    np.testing.assert_allclose(ratios, KAPPA_PAPER["sd"], atol=1e-10)


def test_check_asd(pts):
    metric, coframe, _ = nk_fixture("z*y^3/3")
    assert np.max(np.abs(cartan_report(coframe, pts).c_sd)) < 1e-8
    bad_metric, bad_coframe, _ = nk_fixture("x^2*y^2")
    near_ones = np.array([[0.9, 0.9, 0.95, 1.0]])
    assert np.max(np.abs(cartan_report(bad_coframe, near_ones).c_sd)) > 1e-2
    flat_metric, flat_coframe, _ = nk_fixture("0")
    assert np.max(np.abs(cartan_report(flat_coframe, pts).c_sd)) < 1e-14


def test_check_null_kahler(pts):
    # Ricci nullness is the oracle's: test_family1_ricci_pattern and
    # test_flat_curvature_vanishes check it on these fixtures
    _, coframe, _ = nk_fixture("z*y^3/3")
    d00, d01 = check_null_kahler(coframe, pts)
    assert d00.shape[0] == d01.shape[0] == len(pts)
    assert np.max(np.abs(d00)) < 1e-8
    assert np.max(np.abs(d01)) < 1e-8
    _, flat_coframe, _ = nk_fixture("0")
    flat00, flat01 = check_null_kahler(flat_coframe, pts)
    assert max(np.max(np.abs(flat00)), np.max(np.abs(flat01))) < 1e-8


def test_dkp_null_kahler_closure():
    h_pot = ExprField.from_text("-x^2/(2*(t-1))", CHART3)
    w_pot = ExprField.from_text("-x/(t-1)", CHART3)
    coframe = dkp_coframe(h_pot, w_pot)
    pts = SamplePlan(DKP_BOX, count=60).points()
    d00, d01 = check_null_kahler(coframe, pts)
    assert np.max(np.abs(d00)) < 1e-9
    assert np.max(np.abs(d01)) < 1e-9


def _generic_coframe():
    """A coframe on (w, z, x, y) with no closed Sigma: every d Sigma^{0'b}
    is O(1) on the unit box."""
    def form(comps):
        return {k: ExprField.from_text(text, CHART4) for k, text in comps.items()}

    return CoFrame(CHART4, [
        [form({0: "1 + x*y", 1: "sin(z)", 3: "w^2"}),
         form({1: "exp(x/2)", 2: "y*z", 3: "1 - w*x"})],
        [form({0: "cos(y)", 2: "1 + z^2", 3: "x*w"}),
         form({0: "y^3", 1: "1 + w*z", 2: "sin(x + y)"})],
    ])


def test_sigma_closure_jet_route_matches_form_trees():
    # the jet route against the exterior derivative of Sigma's form trees,
    # built by the oracles from the coframe's field dicts, within 32 eps
    # of max|d Sigma|, on every curved paper.cfg fixture and on a coframe
    # whose Sigma is not closed
    from pathlib import Path

    from nullkahler import cli

    config = cli.load_config(Path(cli.__file__).parent / "fixtures/paper.cfg")
    samples = [(f.name, f.sample(config)) for f in config["fixtures"]
               if f.kind in ("nk", "dkp")]
    assert len(samples) == 12
    cases = [(name, s.coframe, s.points) for name, s in samples]
    cases.append(("generic", _generic_coframe(),
                  SamplePlan(BOX4, count=40).points()))
    for name, coframe, points in cases:
        jet = check_null_kahler(coframe, points)
        tree = sigma_closure_by_forms(coframe, points)
        for j, t in zip(jet, tree):
            assert j.shape == (len(points), 4), name
            scale = float(np.max(np.abs(t)))
            assert np.max(np.abs(j - t)) <= 32 * np.finfo(float).eps * scale, name
    # the generic coframe's closures are O(1), so the bound is relative
    assert min(np.max(np.abs(t)) for t in tree) > 0.1


def test_path_equivalence_across_fixtures(pts):
    fixtures = ["x*y^3", "x^2*y^2", "z*y^3/3",
                "x^2*y^2 + w*x*y + z*x^3/2 + y^4*w/4",
                "sin(x)*y^2 + exp(y/4)*x^2"]
    for text in fixtures:
        metric, coframe, _ = nk_fixture(text)
        gaps = path_agreement(oracle_report(metric, coframe, pts),
                              cartan_report(coframe, pts))
        for sector, gap in gaps.items():
            assert gap < 1e-6, (text, sector, gap)


def test_path_equivalence_dkp():
    h_pot = ExprField.from_text("-x^2/(2*(t-1))", CHART3)
    for w_text in ("-x/(t-1)", "x^3 + 2*x"):
        w_pot = ExprField.from_text(w_text, CHART3)
        metric = dkp_metric(h_pot, w_pot)
        coframe = dkp_coframe(h_pot, w_pot)
        sample = SamplePlan(DKP_BOX, count=40).points()
        gaps = path_agreement(oracle_report(metric, coframe, sample),
                              cartan_report(coframe, sample))
        for sector, gap in gaps.items():
            assert gap < 1e-6, (w_text, sector, gap)


def test_paths_agree_without_conversion(pts):
    # both routes report one convention: components agree with no
    # conversion factor.  path_agreement compares a vanishing sector on
    # the global scale, where a wrong sign would pass unseen, so every
    # sector must also be live on some fixture; the scalar one needs the
    # scalar-curved dkp pair
    fixtures = [nk_fixture(text)[:2] + (pts,) for text in
                ("x*y^3", "x^2*y^2", "x^2*y^2 + w*x*y + z*x^3/2 + y^4*w/4")]
    h_pot = ExprField.from_text("x*t + y^2/2", CHART3)
    w_pot = ExprField.from_text("x^3 + 2*x", CHART3)
    fixtures.append((dkp_metric(h_pot, w_pot), dkp_coframe(h_pot, w_pot),
                     SamplePlan(DKP_BOX, count=40).points()))
    sectors = ("c_asd", "c_sd", "phi", "scalar")
    live = set()
    for metric, coframe, sample in fixtures:
        orc = oracle_report(metric, coframe, sample)
        crt = cartan_report(coframe, sample)
        scales = {name: float(np.max(np.abs(getattr(orc, name))))
                  for name in sectors}
        global_scale = max(scales.values())
        for name in sectors:
            gap = float(np.max(np.abs(getattr(orc, name) - getattr(crt, name))))
            if scales[name] > 1e-3 * global_scale:
                live.add(name)
                assert gap <= 1e-12 * scales[name], (name, gap)
            else:
                assert gap <= 1e-12 * global_scale, (name, gap)
    assert live == set(sectors)


def test_nk_ansatz_scalar_flat_even_off_shell(pts):
    # the metric ansatz is identically scalar-flat, solution or not
    for text in ("x^2*y^2", "x^2*y^2 + w*x*y + z*x^3/2"):
        metric, _, _ = nk_fixture(text)
        raw = coordinate_curvature(metric, pts)
        assert np.max(np.abs(raw.scalar)) < 1e-10


def _weyl_spinors_slot_by_slot(metric, coframe, points):
    """Reference: the reference chain's Weyl tensor soldered slot by slot,
    then split."""
    from nullkahler.curvature import _extract_slots

    dual = coframe.dual_vectors(points)
    weyl_spin = np.einsum("nabcd,nxXa,nyYb,nzZc,nwWd->nxXyYzZwW",
                          _weyl_reference(metric, points)[0],
                          dual, dual, dual, dual)
    c_sd = 0.25 * np.einsum("nxXyYzZwW,xy,zw->nXYZW", weyl_spin,
                            EPS_UPPER, EPS_UPPER)
    c_asd = 0.25 * np.einsum("nxXyYzZwW,XY,ZW->nxyzw", weyl_spin,
                             EPS_UPPER, EPS_UPPER)
    return _extract_slots(c_asd), _extract_slots(c_sd)


def _criterion4_fixtures():
    """(metric, coframe, box) of the criterion-4 set: families 1-4, two
    theta potentials and two dKP W potentials."""
    from nullkahler.nk_system import example_family

    family3_box = Box(((-1, 1), (-1, 1), (-1, 1), (0.7, 1.7)))
    fixtures = []
    for kind, params, box in ((1, {"A": "y^2"}, BOX4),
                              (2, {"P": "w*y", "Q": "y^2"}, BOX4),
                              (3, {"A": "s^2"}, family3_box),
                              (4, {"A": "y^3"}, BOX4)):
        theta = example_family(kind, params, box).theta
        fixtures.append((nk_metric(theta), nk_coframe(theta), box))
    for text in ("x^2*y^2", "x^2*y^2 + w*x*y + z*x^3/2"):
        fixtures.append(nk_fixture(text)[:2] + (BOX4,))
    h_pot = ExprField.from_text("-x^2/(2*(t-1))", CHART3)
    for w_text in ("-x/(t-1)", "x^3 + 2*x"):
        w_pot = ExprField.from_text(w_text, CHART3)
        fixtures.append((dkp_metric(h_pot, w_pot), dkp_coframe(h_pot, w_pot),
                         DKP_BOX))
    return fixtures


def test_sigma_soldering_matches_slot_by_slot_reference():
    for metric, coframe, box in _criterion4_fixtures():
        sample = SamplePlan(box, count=40).points()
        report = oracle_report(metric, coframe, sample)
        c_asd, c_sd = _weyl_spinors_slot_by_slot(metric, coframe, sample)
        scale = max(1.0, np.max(np.abs(c_asd)), np.max(np.abs(c_sd)))
        assert np.max(np.abs(report.c_asd - c_asd)) <= 1e-12 * scale
        assert np.max(np.abs(report.c_sd - c_sd)) <= 1e-12 * scale


def test_broadcast_sigma_matches_einsum_reference():
    # the einsums the bivectors were once soldered with, kept as the
    # reference: the broadcast arrays are equal to them (up to the sign of
    # a zero), in their layout the projection of the Riemann tensor keeps
    # its bytes, and projecting the reference chain's Weyl tensor with
    # them gives the report's spinors to round-off
    from nullkahler.curvature import (_EPS_SYM, _extract_slots, _sigma_primed,
                                     _sigma_unprimed)

    for metric, coframe, box in _criterion4_fixtures():
        sample = SamplePlan(box, count=100).points()
        report = oracle_report(metric, coframe, sample)
        dual = coframe.dual_vectors(sample)
        ref_p = np.einsum("xy,nxXa,nyYb->nXYab", EPS_UPPER, dual, dual)
        ref_u = np.einsum("XY,nxXa,nyYb->nxyab", EPS_UPPER, dual, dual)
        sigma_p, sigma_u = _sigma_primed(dual), _sigma_unprimed(dual)
        np.testing.assert_array_equal(sigma_p, ref_p)
        np.testing.assert_array_equal(sigma_u, ref_u)
        riemann = report.raw.riemann_low.reshape(-1, 16, 16)
        weyl = _weyl_reference(metric, sample)[0].reshape(-1, 16, 16)
        lam = (report.scalar / 24.0)[:, None, None, None, None] * _EPS_SYM
        scale = max(1.0, np.max(np.abs(report.c_asd)), np.max(np.abs(report.c_sd)))
        for got, sigma in ((report.c_sd, ref_p), (report.c_asd, ref_u)):
            flat = sigma.reshape(-1, 4, 16)
            spin = 0.25 * (flat @ riemann @ flat.transpose(0, 2, 1))
            ref = _extract_slots(spin.reshape(-1, 2, 2, 2, 2) - lam)
            assert got.tobytes() == ref.tobytes()
            spin = 0.25 * (flat @ weyl @ flat.transpose(0, 2, 1))
            ref = _extract_slots(spin.reshape(-1, 2, 2, 2, 2))
            assert np.max(np.abs(got - ref)) <= 1e-12 * scale


@pytest.mark.parametrize("seed", [0, 7, 20240])
def test_deferred_oracle_sectors_equal_the_eager_report(seed):
    # c_asd, Phi and the Bianchi gap are computed on first read, each
    # chirality's bivector on its own in the layout both had when they
    # were built together: every sector keeps its bytes
    for metric, coframe, box in _criterion4_fixtures():
        sample = SamplePlan(box, count=100, seed=seed).points()
        report = oracle_report(metric, coframe, sample)
        eager = eager_oracle_report(metric, coframe, sample)
        for name in ("c_asd", "c_sd", "phi", "scalar", "fit_residual"):
            got, expected = getattr(report, name), getattr(eager, name)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), name


def test_weyl_spinors_subtract_the_scalar_term():
    # the oracle projects the Riemann tensor and takes (R/24) eps_sym off
    # each chirality; on the criterion-4 dKP fixture W = x^3 + 2x, where
    # |R| is about 1, the term is live, so dropping it or flipping its
    # sign leaves a gap of about |R|/12 against the reference Weyl tensor
    h_pot = ExprField.from_text("-x^2/(2*(t-1))", CHART3)
    w_pot = ExprField.from_text("x^3 + 2*x", CHART3)
    metric, coframe = dkp_metric(h_pot, w_pot), dkp_coframe(h_pot, w_pot)
    sample = SamplePlan(DKP_BOX, count=100).points()
    report = oracle_report(metric, coframe, sample)
    c_asd, c_sd = _weyl_spinors_slot_by_slot(metric, coframe, sample)
    r_max = float(np.max(np.abs(report.scalar)))
    assert r_max > 0.5
    scale = max(1.0, np.max(np.abs(c_asd)), np.max(np.abs(c_sd)), r_max)
    assert np.max(np.abs(report.c_asd - c_asd)) <= 1e-12 * scale
    assert np.max(np.abs(report.c_sd - c_sd)) <= 1e-12 * scale
    assert report.fit_residual <= 1e-12 * scale


def _phi_by_einsum(report, coframe, points):
    """Reference Phi block: Phi_ab soldered with a three-operand einsum,
    reordered and symmetrised with two more, read out pair by pair."""
    raw = report.raw
    phi_ab = -0.5 * (raw.ricci
                     - 0.25 * np.einsum("n,nab->nab", raw.scalar, raw.metric))
    dual = coframe.dual_vectors(points)
    phi_bis = np.einsum("nab,nxpa,nyqb->nxpyq", phi_ab, dual, dual)
    phi_full = 0.5 * (np.einsum("nxpyq->nxypq", phi_bis)
                      + np.einsum("nxpyq->nyxqp", phi_bis))
    pair_of = {(0, 0): 0, (0, 1): 1, (1, 1): 2}
    phi = np.empty((len(points), 3, 3))
    for (a, b), u in pair_of.items():
        for (c, d), v in pair_of.items():
            phi[:, u, v] = phi_full[:, a, b, c, d]
    return phi


def test_phi_product_matches_einsum_reference():
    for metric, coframe, box in _criterion4_fixtures():
        sample = SamplePlan(box, count=100).points()
        report = oracle_report(metric, coframe, sample)
        ref = _phi_by_einsum(report, coframe, sample)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(report.phi - ref)) <= 1e-14 * scale


def _assemble_structure_matrix(e: np.ndarray) -> np.ndarray:
    """Reference: the structure matrices M(e) assembled slot by slot."""
    from nullkahler.curvature import _MIXED, _structure_rows

    npts = e.shape[0]
    mat = np.zeros((npts, 24, 24))
    for row, (a, ap, (mu, nu)) in enumerate(_structure_rows()):
        for p in range(3):
            for k in range(4):
                col_u = p * 4 + k
                col_p = 12 + p * 4 + k
                acc_u = np.zeros(npts)
                acc_p = np.zeros(npts)
                for b in range(2):
                    if _MIXED[a, b, p]:
                        acc_u += _MIXED[a, b, p] * (
                            e[:, b, ap, mu] * (k == nu) - e[:, b, ap, nu] * (k == mu)
                        )
                    if _MIXED[ap, b, p]:
                        acc_p += _MIXED[ap, b, p] * (
                            e[:, a, b, mu] * (k == nu) - e[:, a, b, nu] * (k == mu)
                        )
                mat[:, row, col_u] = acc_u
                mat[:, row, col_p] = acc_p
    return mat


def test_structure_map_matches_assembler():
    # the constant map reproduces the per-entry assembler bit for bit
    from nullkahler.curvature import _STRUCTURE_MAP, _structure_matrix

    unit = _assemble_structure_matrix(np.eye(16).reshape(16, 2, 2, 4))
    assert _STRUCTURE_MAP.tobytes() == unit.reshape(16, 576).tobytes()
    rng = np.random.default_rng(5)
    e = rng.standard_normal((50, 2, 2, 4)) * 10.0 ** rng.uniform(-6, 6, (50, 2, 2, 4))
    np.testing.assert_array_equal(_structure_matrix(e),
                                  _assemble_structure_matrix(e))


def _structure_rhs_by_rows(de):
    """Reference: the structure right-hand side filled row by row."""
    from nullkahler.curvature import _structure_rows

    rhs = np.empty((de.shape[0], 24))
    for row, (a, ap, (mu, nu)) in enumerate(_structure_rows()):
        rhs[:, row] = de[:, mu, a, ap, nu] - de[:, nu, a, ap, mu]
    return rhs


def test_structure_rhs_gather_matches_row_loop():
    from nullkahler.curvature import _structure_rhs

    rng = np.random.default_rng(7)
    de = rng.standard_normal((50, 4, 2, 2, 4)) * 10.0 ** rng.uniform(-6, 6, (50, 4, 2, 2, 4))
    np.testing.assert_array_equal(_structure_rhs(de), _structure_rhs_by_rows(de))
    dde = rng.standard_normal((20, 4, 4, 2, 2, 4))
    for l in range(4):
        np.testing.assert_array_equal(_structure_rhs(dde)[:, l],
                                      _structure_rhs_by_rows(dde[:, l]))


def test_frame_inverse_inverts_the_unit_coframe_matrix():
    from nullkahler.curvature import _FRAME_INV, _structure_matrix

    unit = _structure_matrix(np.eye(4).reshape(1, 2, 2, 4))[0]
    assert np.max(np.abs(_FRAME_INV @ unit - np.eye(24))) <= 1e-14


def test_frame_basis_solve_matches_lapack():
    # (M(1)^{-1} (Lambda^2 D) b) E solves the assembled system M(e) x = b,
    # for one right-hand side per point and for four
    from nullkahler.curvature import (
        _frame_solve,
        _second_compound,
        _structure_matrix,
    )
    from nullkahler.geometry import dual_vector_values

    rng = np.random.default_rng(11)
    frames = np.eye(4) + 0.3 * rng.standard_normal((400, 4, 4))
    frames = frames[np.linalg.cond(frames) < 10.0][:100]
    e = frames.reshape(-1, 2, 2, 4)
    mat = _structure_matrix(e)
    compound = _second_compound(dual_vector_values(e))
    for shape in ((len(e), 24), (len(e), 4, 24)):
        rhs = rng.standard_normal(shape)
        columns = rhs.reshape(len(e), -1, 24).transpose(0, 2, 1)
        want = np.linalg.solve(mat, columns).transpose(0, 2, 1).reshape(shape)
        got = _frame_solve(rhs, frames, compound)
        scale = np.max(np.abs(want), axis=-1)
        assert np.all(np.max(np.abs(got - want), axis=-1) <= 1e-12 * scale)


def test_spin_connection_refuses_a_frame_degenerate_at_one_point():
    # e^{00'} = x dw degenerates on x = 0; the other sample points are
    # regular, and the frame inversion refuses the set that meets x = 0
    one = ExprField.constant(1.0, CHART4)
    x = ExprField.from_text("x", CHART4)
    coframe = CoFrame(CHART4, [[{0: x}, {1: one}], [{2: one}, {3: one}]])
    sample = np.array([[0.1, 0.2, 0.5, 0.3], [0.4, -0.2, 0.0, 0.6],
                       [-0.3, 0.7, -0.8, 0.1]])
    assert spin_connection(coframe, sample[[0, 2]]).residual < 1e-12
    with pytest.raises(DegeneracyError):
        spin_connection(coframe, sample)


def _two_forms_by_einsum(conn):
    """Reference curvature two-forms: the mixed connection and each term
    of dGamma + Gamma ^ Gamma as an einsum."""
    from nullkahler.curvature import _MIXED

    def build(sym, dsym):
        mixed = np.einsum("abp,npk->nabk", _MIXED, sym)
        dmixed = np.einsum("abp,nlpk->nlabk", _MIXED, dsym)
        d_part = (np.einsum("nmabk->nabmk", dmixed)
                  - np.einsum("nkabm->nabmk", dmixed))
        quad = (np.einsum("nacm,ncbk->nabmk", mixed, mixed)
                - np.einsum("nack,ncbm->nabmk", mixed, mixed))
        return d_part + quad

    return build(conn.unprimed, conn.d_unprimed), build(conn.primed, conn.d_primed)


def _cartan_reference(coframe, points):
    """Reference Cartan route: one LAPACK solve for Gamma and one per
    partial d_l Gamma with the assembled M(e) and M(d_l e), the two-forms
    by einsum, the forms soldered with three-operand einsums, and the
    spinors fitted by least squares against the test's forward model."""
    from nullkahler.curvature import SpinConnection, _structure_matrix
    from nullkahler.geometry import dual_vector_values

    e = coframe.evaluate(points)
    de = coframe.first_derivatives(points)
    dde = coframe.second_derivatives(points)
    npts = e.shape[0]
    mat = _structure_matrix(e)
    gamma = np.linalg.solve(mat, _structure_rhs_by_rows(de)[..., None])[..., 0]
    dgamma = np.empty((npts, 4, 24))
    for l in range(4):
        drhs = (_structure_rhs_by_rows(dde[:, l])
                - np.einsum("nij,nj->ni", _structure_matrix(de[:, l]), gamma))
        dgamma[:, l] = np.linalg.solve(mat, drhs[..., None])[..., 0]
    gamma = gamma.reshape(npts, 2, 3, 4)
    dgamma = dgamma.reshape(npts, 4, 2, 3, 4)
    dual = dual_vector_values(e)
    conn = SpinConnection(gamma[:, 0], gamma[:, 1], dgamma[:, :, 0],
                          dgamma[:, :, 1], 0.0, dual)
    data = np.concatenate([
        np.einsum("nabmk,ncpm,ndrk->nabcpdr", form, dual, dual).reshape(npts, 64)
        for form in _two_forms_by_einsum(conn)], axis=1)
    model = _soldered_model(np.eye(20)).T  # 128 x 20, one column per unknown
    theta = np.linalg.lstsq(model, data.T, rcond=None)[0].T
    return conn, {
        "c_asd": theta[:, :5], "c_sd": theta[:, 5:10],
        "phi": theta[:, 10:19].reshape(npts, 3, 3), "scalar": theta[:, 19],
        "fit_residual": np.max(np.abs(data - theta @ model.T)),
    }


def test_cartan_route_matches_per_partial_reference():
    # Gamma and its four partials by the frame-basis solve, the forms by
    # broadcast products and soldered as D R D^T, the spinors read by eps
    # contractions: the same connection and report as one LAPACK solve
    # per partial, einsum forms and soldering and a least-squares fit,
    # and the two routes still agree to round-off
    def close(new, old):
        scale = max(1.0, float(np.max(np.abs(old))))
        return float(np.max(np.abs(new - old))) <= 1e-12 * scale

    for metric, coframe, box in _criterion4_fixtures():
        sample = SamplePlan(box, count=100).points()
        conn = spin_connection(coframe, sample)
        report = cartan_report(coframe, sample)
        ref_conn, ref = _cartan_reference(coframe, sample)
        for name in ("unprimed", "primed", "d_unprimed", "d_primed"):
            assert close(getattr(conn, name), getattr(ref_conn, name)), name
        for name, value in ref.items():
            assert close(getattr(report, name), value), name
        gaps = path_agreement(oracle_report(metric, coframe, sample), report)
        assert max(gaps.values()) < 1e-14, gaps


def _polynomials(names, max_terms=4, max_power=3):
    """Expression text of a polynomial in ``names`` with small integer
    coefficients."""
    monomial = st.tuples(st.integers(-3, 3).filter(bool),
                         *(st.integers(0, max_power) for _ in names))
    return st.lists(monomial, min_size=1, max_size=max_terms).map(
        lambda terms: " + ".join(
            f"({c})" + "".join(f"*{n}^{k}" for n, k in zip(names, powers) if k)
            for c, *powers in terms))


OFF_SHELL = settings(derandomize=True, max_examples=40, deadline=None,
                     database=None)


def _assert_routes_agree(metric, coframe, sample):
    gaps = path_agreement(oracle_report(metric, coframe, sample),
                          cartan_report(coframe, sample))
    assert max(gaps.values()) < 1e-6, gaps


@OFF_SHELL
@given(_polynomials(("w", "z", "x", "y")))
def test_two_routes_agree_on_off_shell_theta(theta_text):
    # a generic theta solves neither nk equation, so every Weyl and Ricci
    # sector is live; the nk ansatz stays scalar-flat off shell
    metric, coframe, _ = nk_fixture(theta_text)
    _assert_routes_agree(metric, coframe, SamplePlan(BOX4, count=30).points())


def _transcendentals(names, max_terms=3, max_power=2):
    """Expression text of a sum of terms c * f(m) * m', f one of sin, exp
    and log(2 + .), m a non-constant monomial with coefficient 1 (so
    |m| <= 1 on the unit box and log's argument stays at least 1) and m'
    a monomial."""
    def monomial(powers):
        return "*".join(f"{n}^{k}" for n, k in zip(names, powers) if k) or "1"

    powers = st.tuples(*(st.integers(0, max_power) for _ in names))
    term = st.builds(
        lambda c, f, inner, outer: f"({c})*{f.format(monomial(inner))}*{monomial(outer)}",
        st.integers(-3, 3).filter(bool),
        st.sampled_from(("sin({})", "exp({})", "log(2 + {})")),
        powers.filter(any), powers)
    return st.lists(term, min_size=1, max_size=max_terms).map(" + ".join)


@settings(OFF_SHELL, max_examples=25)
@given(_transcendentals(("w", "z", "x", "y")))
def test_two_routes_agree_on_non_polynomial_theta(theta_text):
    # few partials of sin, exp and log terms are constants, so most jet
    # slots are evaluated rather than written as constants
    metric, coframe, _ = nk_fixture(theta_text)
    _assert_routes_agree(metric, coframe, SamplePlan(BOX4, count=30).points())


@OFF_SHELL
@given(_polynomials(("x", "y", "t")), st.sampled_from((-2, 2)),
       _polynomials(("x", "y", "t"), max_terms=3, max_power=2))
def test_two_routes_agree_on_off_shell_dkp(h_text, slope, w_text):
    # H and W solve neither dKP equation, so the scalar curvature, and
    # with it the (R/24) term of the oracle's Weyl spinors, is live; W
    # must keep W_x away from zero on the box, as dkp_metric checks
    h_pot = ExprField.from_text(h_text, CHART3)
    w_pot = ExprField.from_text(f"{slope}*x + {w_text}", CHART3)
    try:
        metric = dkp_metric(h_pot, w_pot, DKP_BOX)
    except DegeneracyError:
        assume(False)
    _assert_routes_agree(metric, dkp_coframe(h_pot, w_pot),
                         SamplePlan(DKP_BOX, count=30).points())


@settings(OFF_SHELL, max_examples=25)
@given(_transcendentals(("x", "y", "t")), st.sampled_from((-2, 2)),
       _transcendentals(("x", "y", "t")))
def test_two_routes_agree_on_non_polynomial_dkp(h_text, slope, w_text):
    # H and W carry sin, exp and log terms off shell; draws whose W_x
    # meets zero on the box are refused by dkp_metric, as above
    h_pot = ExprField.from_text(h_text, CHART3)
    w_pot = ExprField.from_text(f"{slope}*x + {w_text}", CHART3)
    try:
        metric = dkp_metric(h_pot, w_pot, DKP_BOX)
    except DegeneracyError:
        assume(False)
    _assert_routes_agree(metric, dkp_coframe(h_pot, w_pot),
                         SamplePlan(DKP_BOX, count=30).points())
