"""Validation-grade IMEX evolver for the dispersionless KP equation.

The equation (u_t - u u_x)_x = u_yy is integrated in the evolution form

    u_t(x) = [u u_x](x) - [u u_x](x0) + int_{x0}^{x} u_yy dx'
             + u_t(x0, y, t) + S(x, y, t),

obtained by integrating the conservation form from the left x-boundary.
In validation mode the boundary closure u_t(x0) and the Dirichlet ring
come from a closed-form reference solution (plus an optional
manufactured source S); in free mode the closure terms are zero, which
assumes decaying data.  u* and u*_t are evaluated on the ring only.

Space: a ``fields.Grid`` with two axes, x then y, of at least three
nodes each (``DKPState`` refuses any other), second-order central
stencils, and the trapezoid rule for the antiderivative.  Time: fixed
steps of the implicit-explicit Runge-Kutta scheme ARS(2,3,3) (Ascher,
Ruuth & Spiteri, Appl. Numer. Math. 25, 1997).  Advection, the x0
closure, the source and the ring are explicit; the linear non-local term
N u = int_{x0}^{x} u_yy dx' is implicit.  A sine transform in y, a
product with a sine matrix built once per run, diagonalises N on the
interior nodes, so each implicit stage is a two-term recurrence in x per
y-mode that never forms N u in physical space (see ``ImplicitSolve``),
and the step is bounded by advection alone (see ``cfl_bound``).
Deterministic and serial; runs stop with a diagnostic when the CFL bound
is violated or the solution blows up (the equation develops gradient
catastrophes).
"""

from __future__ import annotations

import numpy as np

from .expressions import parse
from .fields import Chart, ExprField, Grid

EVOLVER_CHART = Chart(("x", "y", "t"))

#: dt <= CFL_SAFETY * min(dx, dy^2/dx) / (1 + max|u|); see ``cfl_bound``
CFL_SAFETY = 0.25

#: diagonal of ARS(2,3,3)'s implicit tableau, (3 + sqrt 3)/6
GAMMA = (3.0 + np.sqrt(3.0)) / 6.0

#: ``reference_run_error`` steps at this fraction of ``cfl_bound``
REFERENCE_CFL_FACTOR = 0.9

#: (x0, x1, y0, y1) of the manufactured-solution study
MMS_BOX = (0.0, 2.0, 0.0, 2.0)

#: the manufactured u* and its source S; see ``manufactured_reference``
MMS_SOLUTION = "(sin(x)*exp(-t))*cos(y)"
MMS_SOURCE = ("cos(y)*((sin(x0) - sin(x) + cos(x0) - cos(x))*exp(-t)"
              " + ((sin(x0)*cos(x0) - sin(x)*cos(x))*exp(-2*t))*cos(y))")


class CFLError(ValueError):
    """Requested time step exceeds the documented stability bound."""


class BlowUpError(RuntimeError):
    """Solution magnitude grew beyond the divergence threshold."""


#: ``fields.Grid`` under the name the benchmark builds and traces
Grid2D = Grid


class BoundarySource:
    """Closed-form reference data for validation-mode runs, on
    EVOLVER_CHART: x and y broadcast against each other (an (nx, 1)
    column and a (1, ny) row give the (nx, ny) grid, two equal-length
    arrays give those points) at one time t, into ``out`` if given.
    ``held()`` is a copy whose fields keep their evaluation plans, for as
    long as it lives: ``dkp_evolve`` evaluates through one."""

    def __init__(self, reference: ExprField, source: ExprField = None):
        self.reference = reference  # u*(x, y, t)
        self.rate = reference.differentiate("t")  # u*_t
        self.source = source        # manufactured forcing, may be None

    def held(self) -> "BoundarySource":
        copy = object.__new__(BoundarySource)
        for name, field in vars(self).items():
            setattr(copy, name, field and ExprField(field.expr, field.chart, {}))
        return copy

    def u_on(self, x, y, t: float, out=None) -> np.ndarray:
        return self.reference.evaluate_axes(x, y, t, out=out)

    def udot_on(self, x, y, t: float, out=None) -> np.ndarray:
        return self.rate.evaluate_axes(x, y, t, out=out)

    def source_on(self, x, y, t: float, out=None):
        if self.source is None:
            return 0.0
        return self.source.evaluate_axes(x, y, t, out=out)


class DKPState:
    """u sampled on an (x, y) grid at time t, plus boundary data.  The
    grid has two axes of at least three nodes each: the one-sided x
    stencil reads three columns, the y second difference three rows."""

    def __init__(self, grid: Grid, u: np.ndarray, t: float = 0.0,
                 boundary: BoundarySource = None):
        self.grid = grid
        self.u = u
        self.t = t
        self.boundary = boundary
        if len(grid.shape) != 2 or min(grid.shape) < 3:
            raise ValueError(f"the evolver needs an (x, y) grid of at least "
                             f"3 x 3 nodes, got {grid.shape}")
        if self.u.shape != grid.shape:
            raise ValueError("state shape does not match grid")
        if not np.all(np.isfinite(self.u)):
            raise ValueError("non-finite state values")


def cfl_bound(state: DKPState) -> float:
    """The largest dt ``dkp_evolve`` accepts: the advective cap
    CFL_SAFETY min(dx, dy^2/dx) / (1 + max|u|).

    The non-local term sets no cap.  On the interior nodes, with the
    ring as data, N = V' (x) D_yy: V' is the trapezoid Volterra matrix on
    the rows off the x0 ring (dx/2 on its diagonal, dx below it, zero
    above) and D_yy the Dirichlet second difference in y.  A sine
    transform diagonalises D_yy with eigenvalues -mu_k, where
    mu_k = (2/dy)^2 sin^2(k pi / (2 (ny - 1))) > 0, so y-mode k sees
    -mu_k V'.  Since V' + V'^T = dx 11^T is positive semidefinite,

        Re <w, -mu_k V' w> = -mu_k (dx/2) (sum_i w_i)^2 <= 0:

    the numerical range of -mu_k V' lies in the closed left half-plane.
    A rational function bounded by one there is then a contraction of
    the matrix (von Neumann's theorem; Hairer & Wanner, Solving Ordinary
    Differential Equations II, section IV.11).  The implicit part of
    ARS(2,3,3) is A-stable, so its stage solves (I + GAMMA dt mu_k V')^{-1}
    and its step contract for every dt.

    An explicit scheme cannot do that.  V' has the one eigenvalue dx/2,
    but it is far from normal: ||V'||_2 tends to 2 Lx/pi, the norm of the
    Volterra operator on L^2[0, Lx] (Halmos, A Hilbert Space Problem
    Book), so the numerical range of -mu_max V' reaches out to
    about 8 Lx / (pi dy^2).  An explicit step such as classical
    four-stage Runge-Kutta, whose stability region is bounded, therefore
    needs dt proportional to dy^2 / Lx (Trefethen & Embree, Spectra and
    Pseudospectra, 2005, on the non-normal case).
    """
    dx, dy = state.grid.spacing
    umax = float(np.max(np.abs(state.u)))
    return CFL_SAFETY * min(dx, dy ** 2 / dx) / (1.0 + umax)


def _fill_ring(a: np.ndarray, values: np.ndarray) -> None:
    """Write ``values``, one per ring point in C order, onto the ring of
    ``a``: the x0 row, then the two y-boundary nodes of each inner row,
    then the x1 row."""
    ny = a.shape[1]
    sides = values[ny:-ny].reshape(-1, 2)
    a[0] = values[:ny]
    a[1:-1, 0] = sides[:, 0]
    a[1:-1, -1] = sides[:, 1]
    a[-1] = values[-ny:]


def _explicit_rhs(u: np.ndarray, grid: Grid, rate: np.ndarray, source,
                  out: np.ndarray) -> np.ndarray:
    """The explicit part of u_t, written into ``out`` and returned:
    advection, the x0 closure and the source inside, given u_t on the ring
    points in C order (the first ny are the x0 row), which it holds on the
    ring.  The x1 row is all ring, so it takes no stencil: what it holds
    before the ring is written is never read."""
    dx = grid.spacing[0]
    np.subtract(u[2:], u[:-2], out=out[1:-1])
    out[1:-1] /= 2.0 * dx
    out[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * dx)
    out *= u
    out -= out[0].copy()
    out += rate[:u.shape[1]]
    out += source
    _fill_ring(out, rate)
    return out


class ImplicitSolve:
    """The implicit stage on ``grid``: v -> n = (I - c N)^{-1} N v on the
    interior nodes, zero on the ring.  N v takes v's ring as data (the x0
    row and the y-boundary columns of v_yy); c N acts on n, which vanishes
    on the ring.

    The type-I sine transform S_jk = sin(pi j k / (m + 1)), j, k = 1..m,
    m = ny - 2, turns I - c N into I + c mu_k V' on y-mode k (see
    ``cfl_bound``).  The trapezoid Volterra matrix factors as
    V' = (dx/2)(I + L)(I - L)^{-1}, L the shift down one row, so with
    a_k = c mu_k dx/2 the stage is a two-term recurrence in x,

        (1 + a_k) n_i = (1 - a_k) n_{i-1} + (dx/2)(y_i + y_{i-1}),  n_0 = 0,

    vectorised over the modes, where y_i is the transform of v_yy on row i
    (i = 0 is the x0 row).  S S = (m + 1)/2 I, so the transforms are
    products with m x m matrices built once per solver: ``forward`` =
    S diag(dx / (2 dy^2 (1 + a_k))) takes row i of v's second difference
    in y, dy^2 v_yy, to (dx/2) y_i / (1 + a_k), and ``inverse`` =
    2/(m + 1) S.  Those two and the m recurrence factors ``carry`` are all
    the solver holds: a stage works in the caller's ``out`` and
    ``scratch`` grids and allocates nothing.
    """

    def __init__(self, grid: Grid, c: float):
        dx, dy = grid.spacing
        m = grid.shape[1] - 2
        k = np.arange(1, m + 1)
        mu = (2.0 / dy * np.sin(0.5 * np.pi * k / (m + 1))) ** 2
        a = 0.5 * c * dx * mu
        self.carry = (1.0 - a) / (1.0 + a)
        # one period of sines, read at j k mod 2(m + 1): arguments in [0, 2 pi)
        period = np.sin(np.pi * np.arange(2 * m + 2) / (m + 1))
        index = np.outer(k, k)
        index %= 2 * m + 2
        self.inverse = period[index]
        del index
        self.forward = self.inverse * (0.5 * dx / dy ** 2 / (1.0 + a))
        self.inverse *= 2.0 / (m + 1)

    def stage(self, v: np.ndarray, out: np.ndarray,
              scratch: np.ndarray) -> np.ndarray:
        """n for the stage value ``v``, written into ``out`` and returned.
        ``v``, ``out`` and ``scratch`` are C-contiguous grids: ``out`` holds
        v's second difference, then the recurrence's pair sums inside, then
        n; the leading (nx - 1) m entries of ``scratch`` hold the
        transformed rows, then n's modes."""
        # the second difference runs over the flattened rows 0..nx-2, where
        # the operands are contiguous; its values across a row break land
        # on the y-boundary columns, which the product does not read
        flat, diff = v[:-1].reshape(-1), out[:-1].reshape(-1)[1:-1]
        np.multiply(2.0, flat[1:-1], out=diff)
        np.subtract(flat[2:], diff, out=diff)
        diff += flat[:-2]
        rows, m = len(v) - 1, len(self.carry)
        y = scratch.reshape(-1)[:rows * m].reshape(rows, m)
        np.matmul(out[:-1, 1:-1], self.forward, out=y)
        pairs = np.add(y[1:], y[:-1], out=out[1:-1, 1:-1])
        y[0] = 0.0
        for before, row, pair in zip(y, y[1:], pairs):
            np.multiply(self.carry, before, out=row)
            row += pair
        np.matmul(y[1:], self.inverse, out=out[1:-1, 1:-1])
        out[0] = out[-1] = 0.0
        out[:, 0] = out[:, -1] = 0.0
        return out


def saved_steps(dt: float, steps: int, save_every: int = None) -> list:
    """The steps whose states ``dkp_evolve`` returns: 0 (the initial
    state), every ``save_every``-th when it is given, and the last.

    Raises ValueError unless dt is finite and positive, ``steps`` is at
    least 1 and ``save_every`` is None or at least 1.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps!r}")
    if save_every is not None and save_every < 1:
        raise ValueError(f"save_every must be at least 1, got {save_every!r}")
    return [*range(0, steps, save_every or steps), steps]


def dkp_evolve(state: DKPState, dt: float, steps: int,
               save_every: int = None, blowup_factor: float = 1e3):
    """Advance ``steps`` fixed ARS(2,3,3) steps; returns the states at
    ``saved_steps(dt, steps, save_every)``, the initial state first and
    the final state last.

    A run holds six (nx, ny) arrays, all allocated before its first step:
    u, the stage value v, the explicit stages f1 and f2 (the third stage
    reuses f1), the implicit stage n (n2, then n3) and one scratch array.
    An implicit stage works in n and the scratch array alone (see
    ``ImplicitSolve.stage``); the solver holds its two m x m sine matrices
    (m = ny - 2) and no buffer.  Every stage writes into these in place,
    with the same operations in the same order at each node as stages that
    allocate their results, so the values are the same to the bit.  That
    is about eight grids: at 256^2 a free run or one on
    ``uniform_reference("t")`` peaks under 8.25 grids in tracemalloc,
    whatever the step count.  The plans of ``boundary.held()`` live as
    long as the run: u* and u*_t on the ring, and a manufactured source on
    the grid, written into the scratch array.  The source's plan owns no
    grid, since its result array serves every full-shape step (see
    ``manufactured_reference``), so that run peaks under 8.5 grids.  No
    run allocates a grid after its second stage.
    The caller's ``state.u`` is not written; each saved state but the last
    is a copy, and the last holds the run's own u, which no later step
    writes.

    Raises ValueError on the settings ``saved_steps`` refuses,
    :class:`CFLError` up front when dt exceeds ``cfl_bound``, and
    :class:`BlowUpError` if max|u| passes
    ``blowup_factor * (1 + max|u0|)`` during the run.
    """
    saved = set(saved_steps(dt, steps, save_every))
    bound = cfl_bound(state)
    if dt > bound:
        raise CFLError(
            f"dt = {dt:g} exceeds the stability bound {bound:g} "
            f"({CFL_SAFETY:g} min(dx, dy^2/dx)/(1 + max|u|))"
        )
    threshold = blowup_factor * (1.0 + float(np.max(np.abs(state.u))))
    grid, boundary = state.grid, state.boundary and state.boundary.held()
    xg, yg = grid.mesh()
    ring = grid.ring()
    xr, yr = xg[ring], yg[ring]
    del ring
    xs, ys = grid.axes()
    gdt = GAMMA * dt
    solve = ImplicitSolve(grid, gdt)
    u, t = np.array(state.u, dtype=float, order="C"), state.t
    v, f1, f2, n, scratch = (np.empty_like(u) for _ in range(5))
    still = np.zeros(xr.size)

    def explicit(v, s, f):
        """The explicit stage at (v, s), written into f."""
        if boundary is None:  # free mode: the ring holds, no forcing
            return _explicit_rhs(v, grid, still, 0.0, f)
        return _explicit_rhs(v, grid, boundary.udot_on(xr, yr, s),
                             boundary.source_on(xs, ys, s, out=scratch), f)

    def add_scaled(a, c, b):
        """a += c b, through the scratch array."""
        a += np.multiply(c, b, out=scratch)

    out = [state]
    for step in range(1, steps + 1):
        # ARS(2,3,3): explicit tableau rows (), (g), (g - 1, 2 - 2g);
        # implicit rows (), (0, g), (0, 1 - 2g, g); weights (0, 1/2, 1/2)
        explicit(u, t, f1)
        np.multiply(gdt, f1, out=v)
        v += u
        solve.stage(v, n, scratch)  # n2: n = N(v + gdt n)
        add_scaled(v, gdt, n)
        explicit(v, t + gdt, f2)
        np.multiply(GAMMA - 1.0, f1, out=v)
        add_scaled(v, 2.0 - 2.0 * GAMMA, f2)
        add_scaled(v, 1.0 - 2.0 * GAMMA, n)
        v *= dt
        v += u
        f2 += n
        solve.stage(v, n, scratch)  # n3
        add_scaled(v, gdt, n)
        f2 += explicit(v, t + dt - gdt, f1)
        f2 += n
        add_scaled(u, 0.5 * dt, f2)
        t = state.t + step * dt
        if boundary is not None:
            _fill_ring(u, boundary.u_on(xr, yr, t))
        umax = np.abs(u, out=scratch).max()
        if not np.isfinite(umax) or umax > threshold:
            raise BlowUpError(f"solution blew up at step {step} (t = {t:g})")
        if step in saved:
            out.append(DKPState(grid, u if step == steps else u.copy(), t,
                                state.boundary))
    return out


# --- manufactured and closed-form references -----------------------------------

def manufactured_reference(x0: float):
    """u* = sin(x) cos(y) exp(-t) (``MMS_SOLUTION``) with the forcing
    ``MMS_SOURCE``, x0 bound to ``x0``, that makes it an exact solution of
    the boundary-closed evolution form:

        S = u*_t - [u* u*_x](x) + [u* u*_x](x0) - int_{x0}^{x} u*_yy dx'
            - u*_t(x0)
          = cos(y) (a(x) exp(-t) + b(x) exp(-2t) cos(y)),

    a(x) = sin(x0) - sin(x) + cos(x0) - cos(x) (the integral is closed,
    since u*_yy = -u*) and b(x) = sin(x0) cos(x0) - sin(x) cos(x).  Each
    text combines its x and t factors first and multiplies by cos(y)
    last, so on a grid every full-shape step is a column times a row or a
    column plus a grid: a source evaluation makes three passes over the
    grid, and its plan owns no grid, since the result array serves every
    full-shape step (see ``fields.Plan``).
    """
    source = ExprField(parse(MMS_SOURCE, EVOLVER_CHART.coords, {"x0": x0}),
                       EVOLVER_CHART)
    return BoundarySource(ExprField.from_text(MMS_SOLUTION, EVOLVER_CHART),
                          source)


def uniform_reference(expr_text: str):
    """Reference solution without forcing (e.g. ``t`` for H = x t + y^2/2)."""
    return BoundarySource(ExprField.from_text(expr_text, EVOLVER_CHART))


def _run_reference(boundary: BoundarySource, grid: Grid, t_end: float,
                   cfl_factor: float):
    """RMS error against u* at t_end, and RMS of u*, of a run from t = 0
    in equal steps of at most ``cfl_factor`` times the CFL bound."""
    xs, ys = grid.axes()
    state = DKPState(grid, boundary.u_on(xs, ys, 0.0), 0.0, boundary)
    steps = int(np.ceil(t_end / (cfl_factor * cfl_bound(state))))
    final = dkp_evolve(state, t_end / steps, steps)[-1]
    exact = boundary.u_on(xs, ys, t_end)
    return np.sqrt(np.mean((final.u - exact) ** 2)), np.sqrt(np.mean(exact ** 2))


def reference_run_error(boundary: BoundarySource, grid: Grid,
                        t_end: float) -> float:
    """Relative L2 error against the reference at t_end."""
    err, scale = _run_reference(boundary, grid, t_end, REFERENCE_CFL_FACTOR)
    return float(err / scale) if scale > 0 else float(err)


def mms_convergence(resolutions=(64, 128, 256), t_end: float = 0.1) -> dict:
    """Self-convergence study on the manufactured solution.

    Returns {"errors": [...], "orders": [...]} with observed orders
    log2(e_N / e_2N) between successive grids; dt scales with dx so the
    second-order spatial stencils dominate.
    """
    x0, x1, y0, y1 = MMS_BOX
    boundary = manufactured_reference(x0)
    errors = []
    for n in resolutions:
        # dt proportional to dx keeps the spatial error dominant
        err, _ = _run_reference(boundary, Grid(x0, x1, n, y0, y1, n),
                                t_end, 0.5)
        errors.append(float(err))
    orders = [
        float(np.log2(errors[k] / errors[k + 1])) for k in range(len(errors) - 1)
    ]
    return {"resolutions": list(resolutions), "errors": errors, "orders": orders}
