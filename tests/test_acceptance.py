"""Acceptance suite: one test per criterion, one printed line each.

Run with  pytest tests/test_acceptance.py -s  to see the pass/fail lines
as the criteria complete.
"""

import time

import numpy as np
import pytest

from nullkahler.curvature import (
    cartan_report,
    coordinate_curvature,
    oracle_report,
    path_agreement,
)
from nullkahler.dkp import (
    ew_from_u,
    ew_residual,
    monopole_from_w,
    monopole_residual,
    jones_tod_reduce,
    residual_heqn,
    residual_lindkp,
)
from nullkahler.evolver import (
    mms_convergence,
    reference_run_error,
    uniform_reference,
)
from nullkahler.fields import Chart, ExprField, Grid
from nullkahler.geometry import (
    EPS_UPPER,
    SYM_PAIRS,
    dkp_coframe,
    dkp_metric,
    exterior_derivative,
    hodge_star_values,
    nk_coframe,
    nk_metric,
    wedge,
)
from nullkahler.nk_system import (
    NKSolution,
    commutator_sweep,
    example_family,
    induced_f,
    lax_commutator,
    lax_fields,
    residual_nk1,
    residual_nk2,
)
from nullkahler.sampling import Box, SamplePlan
from oracles import sigma11_rhs, sigma_basis, symmetry_w, vector_to_bispinor

CHART4 = Chart(("w", "z", "x", "y"))
CHART3 = Chart(("x", "y", "t"))
BOX4 = Box(((-1, 1),) * 4)
DKP_BOX = Box(((-1, 1), (-1, 1), (-1, 0.5), (-1, 1)))
FAMILY3_BOX = Box(((-1, 1), (-1, 1), (-1, 1), (0.7, 1.7)))

H_MAIN = "-x^2/(2*(t-1))"

#: frozen anchor: the oracle ASD component per delta^4(theta) on
#: theta = x*y^3, with delta_0 = d/dy, delta_1 = -d/dx
KAPPA_ASD = 2.0


def report_line(number, passed, summary):
    marker = "PASS" if passed else "FAIL"
    print(f"{marker} criterion-{number:02d}: {summary}")
    assert passed, f"criterion {number}: {summary}"


def test_criterion_01_flat_baseline():
    theta = ExprField.constant(0.0, CHART4)
    pts = SamplePlan(BOX4, count=100).points()
    raw = coordinate_curvature(nk_metric(theta), pts)
    report = cartan_report(nk_coframe(theta), pts)
    worst = max(
        float(np.max(np.abs(raw.riemann_low))),
        float(np.max(np.abs(report.c_sd))), float(np.max(np.abs(report.c_asd))),
        float(np.max(np.abs(report.phi))),
        float(np.max(np.abs(report.scalar))),
    )
    lax = lax_fields(theta, theta)
    commutator = np.max(np.abs(lax_commutator(lax, pts)))
    report_line(1, worst < 1e-10 and commutator == 0.0,
                f"flat curvature {worst:.1e} < 1e-10, commutator exactly "
                f"{commutator}")


FAMILY_SPECS = (
    (1, {"A": "y^2"}, BOX4),
    (2, {"P": "w*y", "Q": "y^2"}, BOX4),
    (3, {"A": "s^2"}, FAMILY3_BOX),
    (4, {"A": "y^3"}, BOX4),
)


def test_criterion_02_system_geometry_equivalence():
    worst = {"nk": 0.0, "sd": 0.0, "scalar": 0.0, "ricci2": 0.0,
             "dsigma": 0.0, "lax": 0.0}
    for kind, params, box in FAMILY_SPECS:
        sol = example_family(kind, params, box)
        pts = SamplePlan(box, count=100).points()
        worst["nk"] = max(
            worst["nk"],
            float(np.max(np.abs(residual_nk1(sol.theta, sol.f).evaluate(pts)))),
            float(np.max(np.abs(residual_nk2(sol.theta, sol.f).evaluate(pts)))),
        )
        metric, coframe = nk_metric(sol.theta), nk_coframe(sol.theta)
        report = oracle_report(metric, coframe, pts)
        worst["sd"] = max(worst["sd"], float(np.max(np.abs(report.c_sd))))
        worst["scalar"] = max(worst["scalar"], float(np.max(np.abs(report.scalar))))
        worst["ricci2"] = max(worst["ricci2"],
                              float(np.max(np.abs(report.raw.ricci_square()))))
        from nullkahler.curvature import check_null_kahler

        worst["dsigma"] = max(worst["dsigma"], *(
            float(np.max(np.abs(d))) for d in check_null_kahler(coframe, pts)))
        worst["lax"] = max(worst["lax"], float(np.max(np.abs(
            commutator_sweep(sol, pts)))))
    ok = (worst["nk"] < 1e-10 and worst["sd"] < 1e-8 and worst["scalar"] < 1e-8
          and worst["ricci2"] < 1e-8 and worst["dsigma"] < 1e-9
          and worst["lax"] < 1e-8)
    report_line(2, ok,
                "families 1-4: nk {nk:.1e} < 1e-10, SD Weyl {sd:.1e} < 1e-8, "
                "R {scalar:.1e}, Ric.Ric {ricci2:.1e}, dSigma {dsigma:.1e} "
                "< 1e-9, Lax {lax:.1e} < 1e-8".format(**worst))


def test_criterion_03_negative_control_matrix():
    theta = ExprField.from_text("x^2*y^2", CHART4)
    f = induced_f(theta)
    box_value = residual_nk2(theta, f).evaluate(np.array([1.0, 1.0, 1.0, 1.0]))
    box_ok = abs(box_value - 288.0) < 1e-6

    pts20 = SamplePlan(BOX4, count=20).points()
    report = oracle_report(nk_metric(theta), nk_coframe(theta), pts20)
    boxf = residual_nk2(theta, f).evaluate(pts20)
    ratios = report.c_sd[:, 0] / boxf
    spread = float(np.max(ratios) - np.min(ratios))
    other_slots = float(np.max(np.abs(report.c_sd[:, 1:])))

    lax_value = np.max(np.abs(lax_commutator(
        lax_fields(theta, f), np.array([[1.0, 1.0, 1.0, 1.0]]))))
    ok = box_ok and spread < 1e-4 and other_slots < 1e-8 and lax_value > 1e-2
    report_line(3, ok,
                f"box f(1,1,1,1) = {box_value:.9f}, SD/boxf spread {spread:.1e}"
                f" < 1e-4, commutator {lax_value:.1f} > 1e-2")


def test_criterion_04_two_path_agreement():
    worst = 0.0
    for kind, params, box in FAMILY_SPECS:
        sol = example_family(kind, params, box)
        pts = SamplePlan(box, count=60).points()
        coframe = nk_coframe(sol.theta)
        gaps = path_agreement(
            oracle_report(nk_metric(sol.theta), coframe, pts),
            cartan_report(coframe, pts))
        worst = max(worst, *gaps.values())
    for theta_text in ("x^2*y^2", "x^2*y^2 + w*x*y + z*x^3/2"):
        theta = ExprField.from_text(theta_text, CHART4)
        pts = SamplePlan(BOX4, count=60).points()
        coframe = nk_coframe(theta)
        gaps = path_agreement(oracle_report(nk_metric(theta), coframe, pts),
                              cartan_report(coframe, pts))
        worst = max(worst, *gaps.values())
    h_pot = ExprField.from_text(H_MAIN, CHART3)
    for w_text in ("-x/(t-1)", "x^3 + 2*x"):
        w_pot = ExprField.from_text(w_text, CHART3)
        pts = SamplePlan(DKP_BOX, count=60).points()
        coframe = dkp_coframe(h_pot, w_pot)
        gaps = path_agreement(
            oracle_report(dkp_metric(h_pot, w_pot), coframe, pts),
            cartan_report(coframe, pts))
        worst = max(worst, *gaps.values())
    report_line(4, worst < 1e-6,
                f"cartan/oracle agreement {worst:.2e} < 1e-6 across all "
                f"fixtures, components compared directly")


def test_criterion_05_weyl_value():
    theta = ExprField.from_text("x*y^3", CHART4)
    pts = SamplePlan(BOX4, count=50).points()
    d4 = theta.differentiate("x", "y", "y", "y").evaluate(pts)
    exact = np.all(d4 == 6.0)
    report = oracle_report(nk_metric(theta), nk_coframe(theta), pts)
    component = np.abs(report.c_asd[:, 1])
    gap = float(np.max(np.abs(component - 6.0 * KAPPA_ASD)))
    report_line(5, exact and gap < 1e-6,
                f"delta^4 theta = 6 exactly; oracle ASD component = "
                f"6 kappa1 within {gap:.1e}")


def test_criterion_06_dkp_pipeline():
    h_pot = ExprField.from_text(H_MAIN, CHART3)
    w_pot = symmetry_w(h_pot, b=1.0)
    box3 = Box(DKP_BOX.bounds[:3])
    pts3 = SamplePlan(box3, count=100).points()
    pts4 = SamplePlan(DKP_BOX, count=100).points()
    residuals = {
        "heqn": float(np.max(np.abs(residual_heqn(h_pot).evaluate(pts3)))),
        "lindkp": float(np.max(np.abs(
            residual_lindkp(h_pot, w_pot).evaluate(pts3)))),
    }
    ew = ew_from_u(h_pot.differentiate("x"))
    residuals["monopole"] = float(np.max(np.abs(monopole_residual(
        ew, monopole_from_w(h_pot, w_pot), pts3))))
    residuals["ew"] = float(np.max(np.abs(ew_residual(ew, pts3))))
    metric = dkp_metric(h_pot, w_pot, DKP_BOX)
    report = oracle_report(metric, dkp_coframe(h_pot, w_pot), pts4)
    sd = float(np.max(np.abs(report.c_sd)))
    scalar = float(np.max(np.abs(report.scalar)))
    h_reduced = jones_tod_reduce(metric)
    wx2 = w_pot.differentiate("x").evaluate(pts3) ** 2
    jt = float(np.max(np.abs(
        h_reduced.evaluate(pts3) + wx2[:, None, None] * ew.h.evaluate(pts3))))
    ok = (max(residuals.values()) < 1e-6 and sd < 1e-7 and scalar < 1e-7
          and jt < 1e-8)
    report_line(6, ok,
                f"residuals {max(residuals.values()):.1e} < 1e-6, SD Weyl "
                f"{sd:.1e} < 1e-7, |R| {scalar:.1e} < 1e-7, round trip "
                f"{jt:.1e} < 1e-8")


def test_criterion_07_hyperkahler_cases():
    h_pot = ExprField.from_text(H_MAIN, CHART3)
    w_half = symmetry_w(h_pot, b=0.5)
    pts4 = SamplePlan(DKP_BOX, count=100).points()
    ricci_hk = float(np.max(np.abs(coordinate_curvature(
        dkp_metric(h_pot, w_half, DKP_BOX), pts4).ricci)))

    gh_box = Box(((-1, 1), (-1, 1), (0.25, 0.75), (-1, 1)))
    gh = dkp_metric(ExprField.constant(0.0, CHART3),
                      ExprField.from_text("y^2 + 2*x*t", CHART3), gh_box)
    ricci_gh = float(np.max(np.abs(coordinate_curvature(
        gh, SamplePlan(gh_box, count=100).points()).ricci)))
    ok = ricci_hk < 1e-7 and ricci_gh < 1e-7
    report_line(7, ok,
                f"W = H_x/2 Ricci {ricci_hk:.1e} < 1e-7; wave-equation "
                f"monopole Ricci {ricci_gh:.1e} < 1e-7")


def test_criterion_08_nonvacuum_witness():
    h_pot = ExprField.from_text("y^3 - x^2/(2*(t-1)) + 3*(t-1)*x*y", CHART3)
    w_pot = symmetry_w(h_pot, e=0.5)  # W = H_y / 2
    pts3 = SamplePlan(Box(DKP_BOX.bounds[:3]), count=60).points()
    assert np.max(np.abs(residual_heqn(h_pot).evaluate(pts3))) < 1e-10
    assert np.max(np.abs(residual_lindkp(h_pot, w_pot).evaluate(pts3))) < 1e-10
    pts4 = SamplePlan(DKP_BOX, count=100).points()
    metric = dkp_metric(h_pot, w_pot, DKP_BOX)
    raw = coordinate_curvature(metric, pts4)
    report = oracle_report(metric, dkp_coframe(h_pot, w_pot), pts4)
    max_ricci = float(np.max(np.abs(raw.ricci)))
    sd = float(np.max(np.abs(report.c_sd)))
    scalar = float(np.max(np.abs(report.scalar)))
    ok = max_ricci > 1e-3 and sd < 1e-7 and scalar < 1e-7
    report_line(8, ok,
                f"W = H_y/2: max|Ric| {max_ricci:.2f} > 1e-3 while SD Weyl "
                f"{sd:.1e} and R {scalar:.1e} stay < 1e-7")


def test_criterion_09_sigma_identities():
    h_pot = ExprField.from_text(H_MAIN, CHART3)
    pts4 = SamplePlan(DKP_BOX, count=100).points()
    worst_rhs = 0.0
    worst_quad = 0.0
    for w_text in ("-x/(t-1)", "x^3 + 2*x + y^2/3"):
        w_pot = ExprField.from_text(w_text, CHART3)
        coframe = dkp_coframe(h_pot, w_pot)
        s00, s01, s11 = (coframe.sigma(*pair) for pair in SYM_PAIRS)
        d11 = exterior_derivative(s11).evaluate(pts4)
        rhs = sigma11_rhs(h_pot, w_pot).evaluate(pts4)
        worst_rhs = max(worst_rhs, float(np.max(np.abs(d11 - rhs))))
        # Sigma^{0'0'} ^ Sigma^{1'1'} + 2 Sigma^{0'1'} ^ Sigma^{0'1'} = 0
        quad = wedge(s00, s11).evaluate(pts4) \
            + 2.0 * wedge(s01, s01).evaluate(pts4)
        worst_quad = max(worst_quad, float(np.max(np.abs(quad))))
    ok = worst_rhs < 1e-8 and worst_quad < 1e-10
    report_line(9, ok,
                f"dSigma11 matches its closed form within {worst_rhs:.1e} "
                f"< 1e-8; quadratic identity {worst_quad:.1e} < 1e-10")


def test_criterion_10_evolver():
    study = mms_convergence((64, 128, 256), t_end=0.1)
    orders_ok = all(order >= 1.9 for order in study["orders"])
    start = time.perf_counter()
    error = reference_run_error(uniform_reference("t"),
                                Grid(-1, 1, 256, -1, 1, 256), 0.5)
    elapsed = time.perf_counter() - start
    ok = orders_ok and error < 1e-3 and elapsed < 60.0
    report_line(10, ok,
                f"self-convergence orders {[round(o, 3) for o in study['orders']]}"
                f" >= 1.9; reference error {error:.1e} < 1e-3 in {elapsed:.0f} s")


def test_criterion_11_spinor_algebra():
    rng = np.random.default_rng(20240)
    v = rng.uniform(-3, 3, size=(1000, 4))
    det_gap = float(np.max(np.abs(
        np.linalg.det(vector_to_bispinor(v))
        - (v[:, 0] ** 2 - v[:, 1] ** 2 + v[:, 2] ** 2 - v[:, 3] ** 2))))

    recon_gap = 0.0
    pair_index = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}
    for _ in range(20):
        e = rng.uniform(-1, 1, size=(1, 2, 2, 4))
        if abs(np.linalg.det(e.reshape(4, 4))) < 0.1:
            continue
        sigma_p, sigma_u = sigma_basis(e)
        for a in range(2):
            for b in range(2):
                for ap in range(2):
                    for bp in range(2):
                        lhs = np.einsum("m,n->mn", e[0, a, ap], e[0, b, bp]) \
                            - np.einsum("n,m->mn", e[0, a, ap], e[0, b, bp])
                        rhs = (EPS_UPPER[a, b] * sigma_p[0, pair_index[(ap, bp)]]
                               + EPS_UPPER[ap, bp] * sigma_u[0, pair_index[(a, b)]])
                        recon_gap = max(recon_gap,
                                        float(np.max(np.abs(lhs - rhs))))

    theta = ExprField.from_text("x^2*y^2 + w*x*y", CHART4)
    gv = nk_metric(theta).evaluate(SamplePlan(BOX4, count=50).points())
    raw = rng.uniform(-1, 1, size=(50, 4, 4))
    omega = raw - np.swapaxes(raw, -1, -2)
    double = hodge_star_values(
        hodge_star_values(omega, 2, gv, 1), 2, gv, 1)
    star_gap = float(np.max(np.abs(double - omega)))
    ok = det_gap < 1e-12 and recon_gap < 1e-12 and star_gap < 1e-10
    report_line(11, ok,
                f"bispinor det {det_gap:.1e} < 1e-12, reconstruction "
                f"{recon_gap:.1e} < 1e-12, star^2 {star_gap:.1e} < 1e-10")
