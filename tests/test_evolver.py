import hashlib
import tracemalloc

import numpy as np
import pytest

from nullkahler import evolver
from nullkahler.evolver import (
    EVOLVER_CHART,
    BlowUpError,
    BoundarySource,
    REFERENCE_CFL_FACTOR,
    CFLError,
    DKPState,
    ImplicitSolve,
    _explicit_rhs,
    cfl_bound,
    dkp_evolve,
    manufactured_reference,
    mms_convergence,
    reference_run_error,
    saved_steps,
    uniform_reference,
)
from nullkahler.fields import Chart, ExprField, Grid
from oracles import nonlocal_term, quadratic_reference


def test_zero_data_stays_zero():
    grid = Grid(-1, 1, 33, -1, 1, 33)
    state = DKPState(grid, np.zeros((33, 33)))
    out = dkp_evolve(state, 0.5 * cfl_bound(state), 25)
    assert np.max(np.abs(out[-1].u)) == 0.0
    assert out[-1].t == pytest.approx(25 * 0.5 * cfl_bound(state))


def test_cfl_refusal_names_bound():
    grid = Grid(-1, 1, 33, -1, 1, 33)
    state = DKPState(grid, np.zeros((33, 33)))
    bound = cfl_bound(state)
    with pytest.raises(CFLError) as err:
        dkp_evolve(state, 2 * bound, 1)
    assert f"{bound:g}" in str(err.value)


def test_blowup_detection():
    grid = Grid(-1, 1, 65, -1, 1, 65)
    rng = np.random.default_rng(2)
    state = DKPState(grid, rng.uniform(-1, 1, size=(65, 65)))
    # rough data far above the resolved scales diverges quickly at a
    # stable-but-aggressive step
    with pytest.raises(BlowUpError):
        dkp_evolve(state, cfl_bound(state), 4000, blowup_factor=10.0)


@pytest.mark.parametrize("dt, steps, save_every", [
    (0.0, 1, None), (-1e-4, 1, None), (float("nan"), 1, None),
    (float("inf"), 1, None), (1e-4, 0, None), (1e-4, -1, None),
    (1e-4, 2, 0), (1e-4, 2, -1),
])
def test_run_settings_refused(dt, steps, save_every):
    state = DKPState(Grid(-1, 1, 9, -1, 1, 9), np.zeros((9, 9)))
    with pytest.raises(ValueError):
        dkp_evolve(state, dt, steps, save_every=save_every)


@pytest.mark.parametrize("edges, message", [
    ((1, 1, 5, -1, 1, 5), "degenerate grid axis"),
    ((-1, 1, 2, -1, 1, 5), "at least 3 x 3 nodes"),
    ((-1, 1, 5, -1, 1, 2), "at least 3 x 3 nodes"),
    ((-1, 1, 5, -1, 1, 5, 0, 1, 5), "an \\(x, y\\) grid"),
], ids=["x-empty", "nx-2", "ny-2", "three-axes"])
def test_degenerate_grid_refused_at_construction(edges, message):
    # an empty edge made cfl_bound divide by dx = 0, and two nodes on an
    # axis sent the one-sided x stencil out of range
    with pytest.raises(ValueError, match=message):
        DKPState(Grid(*edges), np.zeros(edges[2::3]))


def test_saved_steps():
    assert saved_steps(1e-4, 5) == [0, 5]
    assert saved_steps(1e-4, 5, 2) == [0, 2, 4, 5]
    assert saved_steps(1e-4, 4, 2) == [0, 2, 4]
    assert saved_steps(1e-4, 3, 7) == [0, 3]


def _interior_operator(grid):
    """The non-local term on the interior nodes as a dense matrix,
    assembled column by column from ``nonlocal_term``."""
    inner = ~grid.ring()
    out, uyy = np.empty(inner.shape), np.empty(inner.shape)
    columns = []
    for k in np.flatnonzero(inner):
        unit = np.zeros(inner.size)
        unit[k] = 1.0
        columns.append(nonlocal_term(unit.reshape(inner.shape), grid, out,
                                     uyy)[inner])
    return np.array(columns).T, inner


# the sine matrix is sized by ny and the recurrence runs over nx, so both
# orders of nx != ny; ny = 14 makes m + 1 = 13 prime, ny = 3 is m = 1
@pytest.mark.parametrize("c, nx, ny", [
    pytest.param(c, nx, ny, id=f"{c}" if nx == ny == 17 else f"{c}-{nx}x{ny}")
    for nx, ny in [(17, 17), (17, 11), (11, 17), (9, 14), (9, 3)]
    for c in [1e-5, 1e-3, 0.1, 10.0]])
def test_stage_solve_matches_dense_solve(c, nx, ny):
    # v is random on the x0 row and the y-boundary columns too: the stage
    # takes them as data of N v, which it never forms
    grid = Grid(-1, 1, nx, -0.5, 1, ny)
    dense, inner = _interior_operator(grid)
    v = np.random.default_rng(5).normal(size=inner.shape)
    rhs = nonlocal_term(v, grid, np.empty_like(v), np.empty_like(v))
    expected = np.linalg.solve(np.eye(len(dense)) - c * dense, rhs[inner])
    n = ImplicitSolve(grid, c).stage(v, np.full_like(v, np.nan),
                                     np.empty_like(v))
    assert np.max(np.abs(n[inner] - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.all(n[~inner] == 0.0)


def test_stage_of_data_without_y_curvature_is_zero():
    # rows constant in y have a second difference of exactly 0, so every
    # product and the recurrence see zeros: the uniform pin below rests on it
    grid = Grid(-1, 1, 17, -0.5, 1, 13)
    v = np.broadcast_to(np.random.default_rng(6).normal(size=(17, 1)),
                        (17, 13)).copy()
    out = np.random.default_rng(7).normal(size=v.shape)
    scratch = np.random.default_rng(8).normal(size=v.shape)
    assert np.all(ImplicitSolve(grid, 0.1).stage(v, out, scratch) == 0.0)


def test_stages_match_the_allocating_formulas():
    # the stages write into given arrays; each must give the bits of the
    # plain expression, which the pinned runs below rely on
    grid = Grid(-1, 1, 17, -0.5, 1, 13)
    dx, dy = grid.spacing
    rng = np.random.default_rng(7)
    u, source = rng.normal(size=(2, 17, 13))
    rate = rng.normal(size=2 * 17 + 2 * 11)
    uyy = np.zeros_like(u)
    uyy[:, 1:-1] = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / dy ** 2
    expected = np.cumsum(uyy, axis=0)
    expected -= 0.5 * (uyy + uyy[0])
    expected *= dx
    scratch = np.empty_like(u)
    assert np.array_equal(
        nonlocal_term(u, grid, np.empty_like(u), scratch), expected)
    with pytest.raises(ValueError):
        nonlocal_term(u, grid, np.empty_like(u), np.empty((13, 17)).T)
    advect = np.empty_like(u)
    advect[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx)
    advect[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * dx)
    advect *= u
    advect -= advect[0].copy()
    advect += rate[:13]
    advect += source
    advect[grid.ring()] = rate
    assert np.array_equal(
        _explicit_rhs(u, grid, rate, source, np.empty_like(u)), advect)


@pytest.mark.parametrize("m", [126, 254])
def test_sine_matrices_undo_each_other(m):
    # at c = 0 every a_k is 0, so forward = S dx / (2 dy^2) and
    # inverse = 2/(m + 1) S: S S = (m + 1)/2 I makes their product
    # dx / (2 dy^2) I to round-off
    grid = Grid(0, 2, 5, 0, 2, m + 2)
    solve = ImplicitSolve(grid, 0.0)
    dx, dy = grid.spacing
    product = solve.forward @ solve.inverse / (0.5 * dx / dy ** 2)
    assert np.max(np.abs(product - np.eye(m))) <= 1e-13


def test_nonlocal_term_is_dissipative():
    # N = V' (x) D_yy with V' + V'^T = dx 11^T: the symmetric part of N is
    # negative semidefinite, so the implicit stages contract
    grid = Grid(0, 2, 13, -1, 1, 11)
    dense, _ = _interior_operator(grid)
    dx, dy = grid.spacing
    assert np.max(np.linalg.eigvalsh(dense + dense.T)) <= 1e-12 * dx / dy ** 2


def test_nonlocal_term_is_a_non_normal_volterra_matrix():
    # one interior y-column has D_yy = -2/dy^2, so N = -(2/dy^2) V' there;
    # ||V'||_2 near 2 Lx/pi, not its eigenvalue dx/2, is why an explicit
    # step needs dt ~ dy^2/Lx
    grid = Grid(0, 2, 402, -1, 1, 3)
    dense, _ = _interior_operator(grid)
    dx, dy = grid.spacing
    volterra = -dense * dy ** 2 / 2.0
    assert np.max(np.abs(np.diag(volterra) - dx / 2)) <= 1e-15
    assert np.max(np.abs(volterra + volterra.T - dx)) <= 1e-15
    assert np.linalg.norm(volterra, 2) == pytest.approx(2 * 2.0 / np.pi, rel=5e-3)


def test_high_y_frequency_beyond_the_old_dispersive_cap():
    # 0.9 x the advective bound is 1.7 x the old cap 8 dy^2/Lx, where the
    # explicit four-stage scheme blew up at its second step
    grid = Grid(-1, 1, 65, -1, 1, 65)
    u0 = ExprField.from_text("0.05*sin(24*3.141592653589793*y)*exp(-4*x^2)",
                             EVOLVER_CHART).evaluate_axes(*grid.axes(), 0.0)
    state = DKPState(grid, u0)
    dt = 0.9 * cfl_bound(state)
    assert dt > 1.7 * 8.0 * grid.spacing[1] ** 2 / 2.0
    final = dkp_evolve(state, dt, 200)[-1]
    assert np.max(np.abs(final.u)) <= np.max(np.abs(u0))


def test_uniform_reference_exact():
    # u = t is reproduced to round-off through the boundary closure
    err = reference_run_error(uniform_reference("t"),
                              Grid(-1, 1, 64, -1, 1, 64), 0.3)
    assert err < 1e-12


def test_save_every_sequence():
    grid = Grid(-1, 1, 33, -1, 1, 33)
    state = DKPState(grid, np.zeros((33, 33)), 0.0, uniform_reference("t"))
    out = dkp_evolve(state, 0.5 * cfl_bound(state), 10, save_every=2)
    assert len(out) == 6  # initial + 4 intermediates + final
    times = [s.t for s in out]
    assert times == sorted(times)


def _start(mode, n):
    """A smooth state on n^2: free, or on a reference with u* = t or with
    the manufactured u* and its source."""
    if mode == "free":
        grid = Grid(-1, 1, n, -1, 1, n)
        x, y = grid.axes()
        return DKPState(grid, 0.3 * np.exp(-8 * (x ** 2 + y ** 2)))
    if mode == "uniform":
        grid = Grid(-1, 1, n, -1, 1, n)
        return DKPState(grid, np.zeros((n, n)), 0.0, uniform_reference("t"))
    boundary = manufactured_reference(x0=0.0)
    grid = Grid(0, 2, n, 0, 2, n)
    return DKPState(grid, boundary.u_on(*grid.axes(), 0.0), 0.0, boundary)


def _traced_grids(state, steps):
    """tracemalloc's peak over one ``dkp_evolve`` run and what it still
    holds after the run, in grids of u."""
    tracemalloc.start()
    try:
        dkp_evolve(state, 0.5 * cfl_bound(state), steps)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / state.u.nbytes, held / state.u.nbytes


@pytest.mark.parametrize("mode", ["free", "uniform", "manufactured"])
def test_run_works_in_a_fixed_workspace(mode, monkeypatch):
    # the dkp_evolve docstring: six grids of workspace and about three of
    # solver, under 9.25 grids at 256^2 whatever the step count, and one
    # more for the plan of a manufactured source (stages that each
    # allocated their arrays peaked at 11.28, and a source evaluated into
    # new grids at every stage at 11.32); no plan outlives its run.
    # numpy keeps small blocks that fill as a run goes; with a manufactured
    # source they add up to 0.03 grids between 2 and 10 steps.
    state = _start(mode, 256)
    runs = [_traced_grids(state, steps) for steps in (2, 10)]
    assert max(peak for peak, _ in runs) <= (10.5 if mode == "manufactured" else 9.25)
    assert runs[1][0] == pytest.approx(
        runs[0][0], abs=0.05 if mode == "manufactured" else 0.01)
    assert max(held for _, held in runs) < 0.5
    # no grid is allocated from the second stage on: the peak from then
    # stays within one grid of what the run held as that stage began
    begun = []
    explicit_rhs = evolver._explicit_rhs

    def marked(*args):
        if len(begun) == 1:
            tracemalloc.reset_peak()
        begun.append(tracemalloc.get_traced_memory()[0])
        return explicit_rhs(*args)

    monkeypatch.setattr(evolver, "_explicit_rhs", marked)
    tracemalloc.start()
    try:
        dkp_evolve(state, 0.5 * cfl_bound(state), 10)
        late = tracemalloc.get_traced_memory()[1] - begun[1]
    finally:
        tracemalloc.stop()
    assert late < state.u.nbytes


@pytest.mark.parametrize("mode", ["free", "uniform", "manufactured"])
def test_saved_states_are_apart_from_the_workspace(mode):
    state = _start(mode, 33)
    u0 = state.u.copy()
    dt = 0.5 * cfl_bound(state)
    first = dkp_evolve(state, dt, 6, save_every=1)
    second = dkp_evolve(state, dt, 6, save_every=1)
    assert np.array_equal(state.u, u0)
    assert first[0] is second[0] is state
    assert all(np.array_equal(a.u, b.u) for a, b in zip(first, second))
    arrays = [state.u] + [s.u for s in first[1:] + second[1:]]
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(arrays) for b in arrays[i + 1:])
    # no later step writes a saved state: each is the end of a shorter run
    for k in range(1, 6):
        assert np.array_equal(first[k].u, dkp_evolve(state, dt, k)[-1].u)


def test_manufactured_solution_short_run():
    boundary = manufactured_reference(x0=0.0)
    grid = Grid(0, 2, 64, 0, 2, 64)
    err = reference_run_error(boundary, grid, 0.1)
    assert err < 1e-3


def test_mms_convergence_order():
    study = mms_convergence((32, 64), t_end=0.05)
    assert all(order > 1.7 for order in study["orders"])


def test_time_order_apart_from_space():
    # every spatial operator is exact on data quadratic in x and y, so on
    # quadratic_reference only the time stepping errs: halving dt at a
    # fixed 5 x 5 grid shows ARS(2,3,3)'s third order, which the MMS study
    # (dt tied to dx) cannot tell from second.  At 64 to 256 steps the
    # observed orders are 2.93 and 2.96; a stage time or weight that left
    # the scheme second order would read about 2
    boundary = quadratic_reference()
    grid = Grid(0.0, 1.0, 5, 0.0, 1.0, 5)
    xs, ys = grid.axes()
    state = DKPState(grid, boundary.u_on(xs, ys, 0.0), 0.0, boundary)
    t_end = 0.5
    exact = boundary.u_on(xs, ys, t_end)
    errors = []
    for steps in (64, 128, 256):
        assert t_end / steps <= cfl_bound(state)
        final = dkp_evolve(state, t_end / steps, steps)[-1]
        errors.append(float(np.max(np.abs(final.u - exact))))
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert orders[-1] >= 2.9, orders
    # well above round-off: the smallest error is about 1e7 ulps of u*
    assert errors[-1] > 1e6 * np.finfo(float).eps * np.max(np.abs(exact))



def _travelling_wave_orders(shift: float, t_end: float):
    """Observed orders of the max error at t_end of runs on 17^2, 33^2 and
    65^2 grids of [0, 1]^2, each in equal steps of at most 0.9 times the
    CFL bound of its initial state, against u*(x, y, t - shift) for the
    travelling wave u* = -2 + (4 + 2 (x + y - t))^(1/2).  u* solves dKP
    exactly, since (2 + u*) u*_s = 1 along s = x + y - t, and it is smooth
    for x + y - t > -2."""
    boundary = uniform_reference(f"-2 + (4 + 2*(x + y - t + {shift}))^0.5")
    errors = []
    for n in (17, 33, 65):
        grid = Grid(0.0, 1.0, n, 0.0, 1.0, n)
        xs, ys = grid.axes()
        state = DKPState(grid, boundary.u_on(xs, ys, 0.0), 0.0, boundary)
        steps = int(np.ceil(t_end / (REFERENCE_CFL_FACTOR * cfl_bound(state))))
        final = dkp_evolve(state, t_end / steps, steps)[-1]
        errors.append(np.max(np.abs(final.u - boundary.u_on(xs, ys, t_end))))
    return np.log2(np.array(errors[:-1]) / errors[1:])


def test_travelling_wave_order_where_u_stays_non_negative():
    # over t in [-1.5, 0], u* >= 0 on the box; max errors 4.0e-6, 8.4e-7
    # and 1.8e-7 on the three grids, orders 2.26 and 2.18
    orders = _travelling_wave_orders(1.5, 1.5)
    assert np.all(orders >= 1.9), orders


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 15: the evolver diverges once u* < 0 at x0, where x0 is "
    "an inflow boundary of u_t = u u_x; max errors 4.8e-4, 1.2e-3, 3.4e-2"))
def test_travelling_wave_order_where_u_turns_negative_at_x0():
    # over t in [0, 1], u* < 0 in the corner x + y < t
    orders = _travelling_wave_orders(0.0, 1.0)
    assert np.all(orders >= 1.9), orders

def test_boundary_data_read_only_on_the_ring(monkeypatch, diff_calls):
    # u* and u*_t are evaluated on the 4n - 4 ring points, the source on
    # the whole grid as an (n, 1) column times a (1, n) row, into the
    # run's (n, n) scratch array, and u*_t is built once per reference:
    # the expression nodes keep it, so no differentiation rule runs twice,
    # nor at all in a second run
    n, steps = 33, 5
    del diff_calls[:]
    boundary = manufactured_reference(x0=0.0)
    grid = Grid(0, 2, n, 0, 2, n)
    state = DKPState(grid, boundary.u_on(*grid.mesh(), 0.0), 0.0, boundary)
    evaluated = []
    evaluate = ExprField.evaluate_axes

    def counted_evaluate(self, *axes, out=None):
        shapes = tuple(map(np.shape, axes))
        size = np.prod(np.broadcast_shapes(*shapes), dtype=int)
        is_source = self.expr is boundary.source.expr
        evaluated.append((is_source, size, np.shape(out) if out is not None else None))
        if is_source:
            assert shapes == ((n, 1), (1, n), ())
        return evaluate(self, *axes, out=out)

    monkeypatch.setattr(ExprField, "evaluate_axes", counted_evaluate)
    dkp_evolve(state, 0.5 * cfl_bound(state), steps)
    assert [(size, out) for is_source, size, out in evaluated if is_source] \
        == [(n * n, (n, n))] * (3 * steps)
    assert [(size, out) for is_source, size, out in evaluated if not is_source] \
        == [(4 * n - 4, None)] * (4 * steps)  # u*_t per 3 stages, u* per step
    rules = [(id(node), var) for node, var in diff_calls]
    assert len(set(rules)) == len(rules)
    del diff_calls[:]
    dkp_evolve(state, 0.5 * cfl_bound(state), steps)
    assert diff_calls == []


#: sha256 of the final u of 20 ARS(2,3,3) steps on 33^2.  The uniform run
#: has u_yy = 0, so its bits come from IEEE arithmetic alone and are
#: portable; the free run's implicit stages are products with a sine
#: matrix, so its bits come from numpy's BLAS ``@`` and ``sin`` and belong
#: to one numpy build (recorded with numpy 2.4 and its OpenBLAS on x86-64)
PINNED_FINAL_U = {
    "free": "35b207e9005ecef2ba072c0edccf503907c19e1393d76b94a414c58d179fffb0",
    "uniform": "0d902962dc61bbe2105d543b853e7ab86bd60aa29301b154089a19ca6fd3b4eb",
}


@pytest.mark.parametrize("mode", sorted(PINNED_FINAL_U))
def test_evolver_arithmetic_pinned(mode):
    grid = Grid(-1, 1, 33, -1, 1, 33)
    if mode == "free":
        u0 = np.random.default_rng(3).uniform(-0.5, 0.5, (33, 33))
        state = DKPState(grid, u0)
    else:
        state = DKPState(grid, np.zeros((33, 33)), 0.0, uniform_reference("t"))
    u = dkp_evolve(state, 1e-4, 20)[-1].u
    assert hashlib.sha256(u.tobytes()).hexdigest() == PINNED_FINAL_U[mode]
