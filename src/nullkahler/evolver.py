"""Validation-grade explicit evolver for the dispersionless KP equation.

The equation (u_t - u u_x)_x = u_yy is integrated in the evolution form

    u_t(x) = [u u_x](x) - [u u_x](x0) + int_{x0}^{x} u_yy dx'
             + u_t(x0, y, t) + S(x, y, t),

obtained by integrating the conservation form from the left x-boundary.
In validation mode the boundary closure u_t(x0) and the Dirichlet ring
come from a closed-form reference solution (plus an optional
manufactured source S); in free mode the closure terms are zero, which
assumes decaying data.  u* and u*_t are evaluated on the ring only.

The scheme is a fixed-step four-stage Runge-Kutta in time with
second-order central stencils and trapezoid accumulation for the
antiderivative: deterministic, serial, and deliberately simple.  Runs
stop with a diagnostic when the CFL bound is violated or the solution
blows up (the equation develops gradient catastrophes).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import Chart, ExprField

EVOLVER_CHART = Chart(("x", "y", "t"))

#: advective part: dt <= CFL_SAFETY * min(dx, dy^2/dx) / (1 + max|u|)
CFL_SAFETY = 0.25

#: dispersive part: dt <= DISPERSIVE_SAFETY * dy^2 / Lx.  The nonlocal
#: term behaves like y-frequency^2 integrated across the whole x-extent;
#: empirically the scheme is stable for dt * pi * Lx / dy^2 up to ~50
#: and diverges beyond ~100, uniformly over 64..256 point grids, so this
#: cap (stiffness 8 pi ~ 25) carries a factor-two margin.
DISPERSIVE_SAFETY = 8.0

#: ``reference_run_error`` steps at this fraction of ``cfl_bound``
REFERENCE_CFL_FACTOR = 0.9

#: (x0, x1, y0, y1) of the manufactured-solution study
MMS_BOX = (0.0, 2.0, 0.0, 2.0)


class CFLError(ValueError):
    """Requested time step exceeds the documented stability bound."""


class BlowUpError(RuntimeError):
    """Solution magnitude grew beyond the divergence threshold."""


@dataclass(frozen=True)
class Grid2D:
    x0: float
    x1: float
    nx: int
    y0: float
    y1: float
    ny: int

    @property
    def dx(self):
        return (self.x1 - self.x0) / (self.nx - 1)

    @property
    def dy(self):
        return (self.y1 - self.y0) / (self.ny - 1)

    def mesh(self):
        x = np.linspace(self.x0, self.x1, self.nx)
        y = np.linspace(self.y0, self.y1, self.ny)
        return np.meshgrid(x, y, indexing="ij")


def field_on(field: ExprField, x, y, t: float) -> np.ndarray:
    """A closed form on EVOLVER_CHART at the points (x, y), time t."""
    pts = np.stack([x.ravel(), y.ravel(), np.full(x.size, t)], axis=-1)
    return field.evaluate(pts).reshape(x.shape)


@dataclass(frozen=True)
class BoundarySource:
    """Closed-form reference data for validation-mode runs."""

    reference: ExprField          # u*(x, y, t)
    source: ExprField = None      # manufactured forcing, may be None

    def u_on(self, x, y, t: float) -> np.ndarray:
        return field_on(self.reference, x, y, t)

    def udot_on(self, x, y, t: float) -> np.ndarray:
        return field_on(self.reference.partial(2), x, y, t)

    def source_on(self, x, y, t: float):
        if self.source is None:
            return 0.0
        return field_on(self.source, x, y, t)


@dataclass(frozen=True)
class DKPState:
    """u sampled on an (x, y) grid at time t, plus boundary data."""

    grid: Grid2D
    u: np.ndarray
    t: float = 0.0
    boundary: BoundarySource = None

    def __post_init__(self):
        if self.u.shape != (self.grid.nx, self.grid.ny):
            raise ValueError("state shape does not match grid")
        if not np.all(np.isfinite(self.u)):
            raise ValueError("non-finite state values")


def cfl_bound(state: DKPState) -> float:
    grid = state.grid
    umax = float(np.max(np.abs(state.u)))
    advective = CFL_SAFETY * min(grid.dx, grid.dy ** 2 / grid.dx) / (1.0 + umax)
    dispersive = DISPERSIVE_SAFETY * grid.dy ** 2 / (grid.x1 - grid.x0)
    return min(advective, dispersive)


def _rhs(u: np.ndarray, grid: Grid2D, ring: np.ndarray, rate: np.ndarray,
         source) -> np.ndarray:
    """u_t of the evolution form, given u_t on the ``ring`` points in C
    order (the first ny are the x0 row) and the source S."""
    dx, dy = grid.dx, grid.dy
    ux = np.zeros_like(u)
    ux[1:-1, :] = (u[2:, :] - u[:-2, :]) / (2.0 * dx)
    ux[0, :] = (-3.0 * u[0, :] + 4.0 * u[1, :] - u[2, :]) / (2.0 * dx)
    ux[-1, :] = (3.0 * u[-1, :] - 4.0 * u[-2, :] + u[-3, :]) / (2.0 * dx)
    advect = u * ux
    uyy = np.zeros_like(u)
    uyy[:, 1:-1] = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / dy ** 2
    # trapezoid antiderivative of u_yy from x0
    nonlocal_term = dx * (np.cumsum(uyy, axis=0) - 0.5 * (uyy + uyy[0:1, :]))

    rhs = (advect - advect[0:1, :]) + nonlocal_term
    rhs += rate[:grid.ny]
    rhs += source
    rhs[ring] = rate
    return rhs


def dkp_evolve(state: DKPState, dt: float, steps: int,
               save_every: int = None, blowup_factor: float = 1e3):
    """Advance ``steps`` fixed RK4 steps; returns the saved state list.

    The initial state is always first in the returned sequence and the
    final state last; intermediate states are kept every ``save_every``
    steps when requested.  Raises :class:`CFLError` up front when dt
    exceeds the documented bound and :class:`BlowUpError` if max|u|
    passes ``blowup_factor * (1 + max|u0|)`` during the run.
    """
    bound = cfl_bound(state)
    if dt > bound:
        raise CFLError(
            f"dt = {dt:g} exceeds the stability bound {bound:g} "
            f"(min of {CFL_SAFETY:g} min(dx, dy^2/dx)/(1 + max|u|) and "
            f"{DISPERSIVE_SAFETY:g} dy^2/Lx)"
        )
    threshold = blowup_factor * (1.0 + float(np.max(np.abs(state.u))))
    grid, boundary = state.grid, state.boundary
    xg, yg = grid.mesh()
    ring = np.ones(xg.shape, dtype=bool)
    ring[1:-1, 1:-1] = False
    xr, yr = xg[ring], yg[ring]

    def rhs(v, s):
        if boundary is None:  # free mode: the ring holds, no forcing
            return _rhs(v, grid, ring, np.zeros(xr.size), 0.0)
        return _rhs(v, grid, ring, boundary.udot_on(xr, yr, s),
                    boundary.source_on(xg, yg, s))

    out = [state]
    u, t = state.u.copy(), state.t
    for step in range(1, steps + 1):
        k1 = rhs(u, t)
        k2 = rhs(u + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(u + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(u + dt * k3, t + dt)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = state.t + step * dt
        if boundary is not None:
            u[ring] = boundary.u_on(xr, yr, t)
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > threshold:
            raise BlowUpError(f"solution blew up at step {step} (t = {t:g})")
        if save_every and step % save_every == 0 and step != steps:
            out.append(replace(state, u=u.copy(), t=t))
    out.append(replace(state, u=u.copy(), t=t))
    return out


# --- manufactured and closed-form references -----------------------------------

def manufactured_reference(x0: float):
    """u* = sin(x) cos(y) exp(-t) with the forcing that makes it an
    exact solution of the boundary-closed evolution form."""
    u_star = ExprField.from_text("sin(x)*cos(y)*exp(-t)", EVOLVER_CHART)
    source_text = (
        "-(sin(x) - sin(x0))*cos(y)*exp(-t)"
        " - (sin(x)*cos(x) - sin(x0)*cos(x0))*cos(y)^2*exp(-2*t)"
        " - (cos(x) - cos(x0))*cos(y)*exp(-t)"
    )
    source = ExprField.from_text(source_text, EVOLVER_CHART, params={"x0": x0})
    return BoundarySource(u_star, source)


def uniform_reference(expr_text: str):
    """Reference solution without forcing (e.g. ``t`` for H = x t + y^2/2)."""
    return BoundarySource(ExprField.from_text(expr_text, EVOLVER_CHART))


def _run_reference(boundary: BoundarySource, grid: Grid2D, t_end: float,
                   cfl_factor: float):
    """RMS error against u* at t_end, and RMS of u*, of a run from t = 0
    in equal steps of at most ``cfl_factor`` times the CFL bound."""
    xg, yg = grid.mesh()
    state = DKPState(grid, boundary.u_on(xg, yg, 0.0), 0.0, boundary)
    steps = int(np.ceil(t_end / (cfl_factor * cfl_bound(state))))
    final = dkp_evolve(state, t_end / steps, steps)[-1]
    exact = boundary.u_on(xg, yg, t_end)
    return np.sqrt(np.mean((final.u - exact) ** 2)), np.sqrt(np.mean(exact ** 2))


def reference_run_error(boundary: BoundarySource, grid: Grid2D,
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
        err, _ = _run_reference(boundary, Grid2D(x0, x1, n, y0, y1, n),
                                t_end, 0.5)
        errors.append(float(err))
    orders = [
        float(np.log2(errors[k] / errors[k + 1])) for k in range(len(errors) - 1)
    ]
    return {"resolutions": list(resolutions), "errors": errors, "orders": orders}
