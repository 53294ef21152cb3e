import hashlib

import numpy as np
import pytest

from nullkahler.evolver import (
    BlowUpError,
    BoundarySource,
    CFLError,
    DKPState,
    Grid2D,
    cfl_bound,
    dkp_evolve,
    manufactured_reference,
    mms_convergence,
    reference_run_error,
    uniform_reference,
)
from nullkahler.fields import Chart, ExprField


def test_zero_data_stays_zero():
    grid = Grid2D(-1, 1, 33, -1, 1, 33)
    state = DKPState(grid, np.zeros((33, 33)))
    out = dkp_evolve(state, 0.5 * cfl_bound(state), 25)
    assert np.max(np.abs(out[-1].u)) == 0.0
    assert out[-1].t == pytest.approx(25 * 0.5 * cfl_bound(state))


def test_cfl_refusal_names_bound():
    grid = Grid2D(-1, 1, 33, -1, 1, 33)
    state = DKPState(grid, np.zeros((33, 33)))
    bound = cfl_bound(state)
    with pytest.raises(CFLError) as err:
        dkp_evolve(state, 2 * bound, 1)
    assert f"{bound:g}" in str(err.value)


def test_blowup_detection():
    grid = Grid2D(-1, 1, 65, -1, 1, 65)
    rng = np.random.default_rng(2)
    state = DKPState(grid, rng.uniform(-1, 1, size=(65, 65)))
    # rough data far above the resolved scales diverges quickly at a
    # stable-but-aggressive step
    with pytest.raises(BlowUpError):
        dkp_evolve(state, cfl_bound(state), 4000, blowup_factor=10.0)


def test_uniform_reference_exact():
    # u = t is reproduced to round-off through the boundary closure
    err = reference_run_error(uniform_reference("t"),
                              Grid2D(-1, 1, 64, -1, 1, 64), 0.3)
    assert err < 1e-12


def test_save_every_sequence():
    grid = Grid2D(-1, 1, 33, -1, 1, 33)
    state = DKPState(grid, np.zeros((33, 33)), 0.0, uniform_reference("t"))
    out = dkp_evolve(state, 0.5 * cfl_bound(state), 10, save_every=2)
    assert len(out) == 6  # initial + 4 intermediates + final
    times = [s.t for s in out]
    assert times == sorted(times)


def test_manufactured_solution_short_run():
    boundary = manufactured_reference(x0=0.0)
    grid = Grid2D(0, 2, 64, 0, 2, 64)
    err = reference_run_error(boundary, grid, 0.1)
    assert err < 1e-3


def test_mms_convergence_order():
    study = mms_convergence((32, 64), t_end=0.05)
    assert all(order > 1.7 for order in study["orders"])


def test_boundary_data_read_only_on_the_ring(monkeypatch):
    # u* and u*_t are evaluated on the 4n - 4 ring points, the source on
    # the whole grid, and u*_t is differentiated once per reference
    n, steps = 33, 5
    boundary = manufactured_reference(x0=0.0)
    grid = Grid2D(0, 2, n, 0, 2, n)
    state = DKPState(grid, boundary.u_on(*grid.mesh(), 0.0), 0.0, boundary)
    evaluated, differentiated = [], []
    evaluate, differentiate = ExprField.evaluate, ExprField.differentiate

    def counted_evaluate(self, points):
        evaluated.append((self is boundary.source, len(points)))
        return evaluate(self, points)

    def counted_differentiate(self, idx):
        differentiated.append(idx)
        return differentiate(self, idx)

    monkeypatch.setattr(ExprField, "evaluate", counted_evaluate)
    monkeypatch.setattr(ExprField, "differentiate", counted_differentiate)
    dkp_evolve(state, 0.5 * cfl_bound(state), steps)
    assert [size for is_source, size in evaluated if is_source] \
        == [n * n] * (4 * steps)
    assert [size for is_source, size in evaluated if not is_source] \
        == [4 * n - 4] * (5 * steps)  # u*_t per stage, u* per step
    assert len(differentiated) <= 1


#: sha256 of the final u of 20 steps on 33^2, recorded when the boundary
#: data were still evaluated on the whole grid; both runs use IEEE
#: arithmetic alone (no transcendental functions), so the bits are portable
PINNED_FINAL_U = {
    "free": "fb8af2f47c1b96284be42c31f276bcc802a0a0354998eb46d557022d17c28a6a",
    "uniform": "0d902962dc61bbe2105d543b853e7ab86bd60aa29301b154089a19ca6fd3b4eb",
}


@pytest.mark.parametrize("mode", sorted(PINNED_FINAL_U))
def test_evolver_arithmetic_pinned(mode):
    grid = Grid2D(-1, 1, 33, -1, 1, 33)
    if mode == "free":
        u0 = np.random.default_rng(3).uniform(-0.5, 0.5, (33, 33))
        state = DKPState(grid, u0)
    else:
        state = DKPState(grid, np.zeros((33, 33)), 0.0, uniform_reference("t"))
    u = dkp_evolve(state, 1e-4, 20)[-1].u
    assert hashlib.sha256(u.tobytes()).hexdigest() == PINNED_FINAL_U[mode]
