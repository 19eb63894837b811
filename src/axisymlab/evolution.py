"""Time evolution of axisymmetric swirl-free flow in vorticity form.

The state variable is the relative vorticity xi = omega / r, which rides
along particle paths and diffuses under the radial part of the
five-dimensional Laplacian:

    d(xi)/dt + u . grad(xi) = nu * [ (1/r^3) d/dr (r^3 d(xi)/dr) + d2(xi)/dz2 ].

Time stepping is Strang-split: a half step of implicit diffusion
(theta-scheme, Crank-Nicolson by default), a full semi-Lagrangian advection
step along RK2 characteristics, another diffusion half step, then one
stream-function solve to refresh the velocity.  The advecting velocity is
extrapolated to the step midpoint from the current and previous velocities,
u^n + (dt / 2 dt_prev)(u^n - u^{n-1}) (Staniforth & Cote, Mon. Wea. Rev. 119
(1991) 2206), which is second-order accurate at the midpoint and costs no
extra stream solve.  A state without history (the first step of a run or of a
restart from a checkpoint) advects with the start-of-step velocity.
Departure values are picked up by bicubic interpolation clipped to the
range of its 4x4 stencil, so the transport creates no new extrema.

An alternative conservative update evolves omega itself with a MUSCL
finite-volume flux, for which the plain cell sum of omega telescopes to
round-off; it serves as a cross-check on the semi-Lagrangian route.

Checkpoints use a single-line JSON header followed by raw little-endian
float64 field bytes (format tag AXF1).
"""

from __future__ import annotations

import json
import reprlib
import sys
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .biot_savart import solve_stream_function, stream_operator_radial, velocity_from_stream
from .exceptions import NonFiniteFieldError, NumericalBlowupError
from .grid import HalfPlaneGrid, ScalarField, VelocityField, build_grid
from .interpolation import StencilPlan, interp_bicubic, sample_velocity
from .separable import flux_form_radial, theta_step

CHECKPOINT_MAGIC = "AXF1"
MAX_STEPS = 10_000_000  # run() gives up on a t_final it cannot reach in this many steps


# ---------------------------------------------------------------------------
# state


@dataclass
class FluidState:
    """Relative vorticity xi and its velocity u, always solved from xi.

    u_prev and dt_prev hold the velocity at the start of the previous step
    and that step's length; step_viscous extrapolates from them to the step
    midpoint.  They are None until a step has been taken.  boundary is the
    outer boundary treatment ("zero" or "kernel") of every stream solve of
    this state and of the states stepped from it.
    """

    grid: HalfPlaneGrid
    xi: ScalarField
    nu: float
    u: VelocityField
    t: float = 0.0
    step_index: int = 0
    u_prev: VelocityField | None = None
    dt_prev: float | None = None
    boundary: str = "zero"

    def omega_field(self) -> ScalarField:
        return ScalarField(self.grid, self.grid.r_col * self.xi.values, role="vorticity")


def _solved_velocity(grid: HalfPlaneGrid, xi: ScalarField, boundary: str) -> VelocityField:
    """The velocity of xi: one stream solve with the given boundary treatment."""
    omega = ScalarField(grid, grid.r_col * xi.values, role="vorticity")
    psi, _ = solve_stream_function(omega, boundary=boundary)
    return velocity_from_stream(psi)


def refresh_velocity(state: FluidState) -> FluidState:
    """Re-solve the velocity from xi with state.boundary."""
    return replace(state, u=_solved_velocity(state.grid, state.xi, state.boundary))


def make_state(
    grid: HalfPlaneGrid,
    xi,
    nu: float,
    t: float = 0.0,
    boundary: str = "zero",
) -> FluidState:
    """Assemble a FluidState from raw xi values and solve for its velocity."""
    if not (0.0 <= nu < np.inf):
        raise ValueError(f"viscosity must be finite and nonnegative, got {nu}")
    if not isinstance(xi, ScalarField):
        xi = ScalarField(grid, np.asarray(xi, dtype=np.float64), role="relative_vorticity")
    elif xi.role != "relative_vorticity":
        raise ValueError(f"state field must have role 'relative_vorticity', got {xi.role!r}")
    u = _solved_velocity(grid, xi, boundary)
    return FluidState(grid=grid, xi=xi, nu=float(nu), u=u, t=float(t), boundary=boundary)


# ---------------------------------------------------------------------------
# diffusion of xi: radial 5-D Laplacian + axial Laplacian, zero-flux closures


def _xi_volumes(grid: HalfPlaneGrid) -> np.ndarray:
    """Exact per-cell average of r^3 times hr, as a column.

    Using the exact integral of r^3 over each cell (instead of the midpoint
    value) makes the axis closure of the radial operator exact on xi = c r^2;
    the midpoint weight is off by a factor of two in the first cell.
    """
    i = np.arange(grid.nr, dtype=np.float64)
    return (((i + 1.0) ** 4 - i**4) * grid.hr**3 / 4.0)[:, None]


def _xi_diffusion_radial(grid: HalfPlaneGrid):
    """Tridiagonal coefficients of R xi = -(1/r^3) d/dr (r^3 d xi/dr), in flux form.

    The r^3 face weight vanishes at the axis, so the axis needs no closure.
    With zero flux on the outer face and in z, the cell sum against the
    exact r^3 volumes is invariant and the operator self-adjoint in them.
    """
    hr = grid.hr
    face = np.zeros(grid.nr + 1)
    face[1:-1] = (np.arange(1, grid.nr) * hr) ** 3 / hr
    return flux_form_radial(1.0 / (_xi_volumes(grid)[:, 0] * hr), face)


def _omega_diffusion_radial(grid: HalfPlaneGrid):
    """R of the r omega diffusion: the stream operator's, zero flux at r_max."""
    return stream_operator_radial(grid, outer_r="neumann")


def diffuse_relative_vorticity(
    xi: ScalarField, nu: float, dt: float, theta: float = 0.5
) -> ScalarField:
    """One theta-scheme diffusion step for xi.

    theta = 0.5 is Crank-Nicolson (second order in dt), theta = 1 backward
    Euler.  The implicit system, symmetric positive definite in the exact
    r^3 volume weight, is solved directly by the separable solver with
    zero-flux closures (DCT-II in z).
    """
    grid = xi.grid
    sol = theta_step(xi.values, grid, _xi_diffusion_radial, "neumann", nu, dt, theta)
    return xi.with_values(sol)


def diffuse_vorticity(
    omega: ScalarField, nu: float, dt: float, theta: float = 0.5
) -> ScalarField:
    """Theta-scheme step for the omega diffusion operator.

    The viscous term for omega is d/dr((1/r) d(r omega)/dr) + d2 omega/dz2,
    discretized as -(1/r) B(r omega) with zero-flux truncation closures so
    the operator is self-adjoint in the r weight.  The only cell-sum leak of
    omega is the physical one through the axis.  The theta step is taken for
    r omega, whose diffusion operator is -B itself.  At nu = 0 omega comes
    back unchanged (after theta_step's checks): r omega / r would move it by
    round-off.
    """
    grid = omega.grid
    r = grid.r_col
    sol = theta_step(r * omega.values, grid, _omega_diffusion_radial, "neumann", nu, dt, theta)
    return omega.with_values(sol / r if nu > 0.0 else omega.values.copy())


# ---------------------------------------------------------------------------
# advection


def _departure(grid: HalfPlaneGrid, u: VelocityField, dt: float, plan: StencilPlan):
    """Departure points (r, z) of the cell centres over dt, with plan located there.

    An RK2 midpoint integration of dx/dt = u backward in time, u held fixed
    over the step.  plan is first located at the midpoints to sample u, then
    relocated at the departure points, so a caller that owns one plan
    computes every step's departures in the same arrays.  They depend only
    on u and dt, so a march whose velocity stays the same object may compute
    them once and hand them to every step.
    """
    r2d, z2d = grid.meshes()
    rm = r2d - 0.5 * dt * u.u_r
    zm = z2d - 0.5 * dt * u.u_z
    urm, uzm = sample_velocity(u, rm, zm, plan)
    dep_r = r2d - dt * urm
    dep_z = z2d - dt * uzm
    plan.locate(dep_r, dep_z)
    return dep_r, dep_z, plan


def advect_semi_lagrangian(
    field: ScalarField, u: VelocityField, dt: float, source=None, t: float = 0.0,
    departure=None, plan: StencilPlan | None = None,
) -> ScalarField:
    """Transport a field along characteristics of u over time dt.

    Departure points come from _departure (departure, when given, is its
    result for this u and dt, its plan still located there; otherwise
    _departure relocates plan, a StencilPlan the caller owns, or a new
    one); values are picked up by bicubic interpolation with the field's
    own axis parity, clipped to the range of the 4x4 stencil each value
    reads, so trajectories dipping across r = 0 are handled by reflection
    and no new extremum appears.  A source, callable (t, r, z) -> array, is added by
    the trapezoid rule along the characteristic: at the departure point at
    time t and at the arrival point at time t + dt.
    """
    grid = field.grid
    if departure is None:
        departure = _departure(grid, u, dt, StencilPlan(grid) if plan is None else plan)
    dep_r, dep_z, plan = departure
    vals = interp_bicubic(
        field.values, grid, dep_r, dep_z, field.axis_symmetry, clip=True, plan=plan
    )
    if source is not None:
        r2d, z2d = grid.meshes()
        vals = vals + 0.5 * dt * (source(t, dep_r, dep_z) + source(t + dt, r2d, z2d))
    return field.with_values(vals)


def _split_step(
    field: ScalarField, u: VelocityField, dt: float, diffuse, source=None, t: float = 0.0,
    departure=None, plan: StencilPlan | None = None,
) -> ScalarField:
    """One Strang-split step: diffuse dt/2, advect dt with source, diffuse dt/2.

    diffuse(field, dt=half_dt) -> field is the diffusion half step (a copy
    at nu = 0); source, t, departure and plan are passed to
    advect_semi_lagrangian.
    """
    field = diffuse(field, dt=0.5 * dt)
    field = advect_semi_lagrangian(field, u, dt, source, t, departure, plan)
    return diffuse(field, dt=0.5 * dt)


def cfl_dt(state: FluidState, cfl: float = 0.5, dt_max: float = np.inf) -> float:
    """Advective time-step bound cfl * min(hr/max|u_r|, hz/max|u_z|).

    Capped by dt_max; a state at rest returns dt_max itself.  Diffusion is
    integrated implicitly and contributes no constraint.
    """
    if not (0.0 < cfl <= 1.0):
        raise ValueError(f"cfl must lie in (0, 1], got {cfl}")
    if not (dt_max > 0.0):
        raise ValueError(f"dt_max must be positive, got {dt_max}")
    return _advective_dt(state.grid, state.u.max_speeds(), cfl, dt_max)


def _advective_dt(grid: HalfPlaneGrid, speeds, cfl: float, dt_max: float = np.inf) -> float:
    """min(dt_max, cfl * hr / max|u_r|, cfl * hz / max|u_z|), zero speeds skipped."""
    mr, mz = speeds
    out = dt_max
    if mr > 0.0:
        out = min(out, cfl * grid.hr / mr)
    if mz > 0.0:
        out = min(out, cfl * grid.hz / mz)
    return float(out)


# ---------------------------------------------------------------------------
# full steps


def _midpoint_velocity(state: FluidState, dt: float) -> VelocityField:
    """u^n + (dt / 2 dt_prev)(u^n - u^{n-1}), or u^n without history."""
    u, u_prev = state.u, state.u_prev
    if u_prev is None:
        return u
    c = 0.5 * dt / state.dt_prev
    return VelocityField(
        state.grid,
        u.u_r + c * (u.u_r - u_prev.u_r),
        u.u_z + c * (u.u_z - u_prev.u_z),
    )


def _advanced(state: FluidState, xi: ScalarField, dt: float) -> FluidState:
    """The solved state after one step of length dt that ends with xi.

    Records the start-of-step velocity as the history of the next step.
    """
    return replace(
        state,
        xi=xi,
        t=state.t + dt,
        step_index=state.step_index + 1,
        u=_solved_velocity(state.grid, xi, state.boundary),
        u_prev=state.u,
        dt_prev=dt,
    )


def step_viscous(
    state: FluidState, dt: float, theta: float = 0.5, stencil: StencilPlan | None = None
) -> FluidState:
    """One Strang-split step: diffuse dt/2, advect dt, diffuse dt/2, re-solve.

    The advection uses the velocity extrapolated to the step midpoint from
    state.u and state.u_prev; a state without history (a fresh or restarted
    run) advects with state.u.  The returned state carries state.u and dt as
    its history.  theta weights the diffusion, whose theta_step rejects a bad
    dt or theta even at nu = 0; the boundary treatment comes from the state.
    stencil, when given, is a StencilPlan on the state's grid that the caller
    owns; the step relocates it at its departure points (run passes one plan
    to every step).  Without one the step builds its own.
    """
    diffuse = partial(diffuse_relative_vorticity, nu=state.nu, theta=theta)
    xi = _split_step(state.xi, _midpoint_velocity(state, dt), dt, diffuse, plan=stencil)
    return _advanced(state, xi, dt)


def _flux_difference(w, ghost, vel, vel_lo, h) -> np.ndarray:
    """-(F[i+1/2] - F[i-1/2]) / h along the first axis, F the limited upwind flux of w.

    Van Leer slopes of w between the row ghost below it and a copy of its
    last row above; the ghost takes the first cell's slope, mirrored.  Face
    velocities average adjacent cells of vel: vel_lo on the low face, the
    last cell's on the high one.
    """
    ext = np.concatenate([ghost, w, w[-1:]], axis=0)
    a = ext[1:-1] - ext[:-2]
    b = ext[2:] - ext[1:-1]
    prod = a * b
    denom = a + b
    s = np.where(prod > 0.0, 2.0 * prod / np.where(denom != 0.0, denom, 1.0), 0.0)
    left = np.concatenate([ghost - 0.5 * s[:1], w + 0.5 * s], axis=0)
    right = np.concatenate([w - 0.5 * s, w[-1:] + 0.5 * s[-1:]], axis=0)
    face = np.concatenate([vel_lo, 0.5 * (vel[1:] + vel[:-1]), vel[-1:]], axis=0)
    f = np.where(face >= 0.0, face * left, face * right)
    return -(f[1:] - f[:-1]) / h


def _muscl_rhs(omega: np.ndarray, u: VelocityField) -> np.ndarray:
    """-div(u omega) in the (r, z) plane with limited upwind face fluxes.

    omega is odd across the axis, whose face carries exactly zero radial
    velocity; the other faces use the boundary cell (fields in conservation
    studies vanish there).  The flux sum over cells telescopes, so the plain
    cell sum of omega is conserved up to the open outer faces.
    """
    grid = u.grid
    out_r = _flux_difference(omega, -omega[:1], u.u_r, np.zeros((1, grid.nz)), grid.hr)
    out_z = _flux_difference(omega.T, omega.T[:1], u.u_z.T, u.u_z.T[:1], grid.hz)
    return out_r + out_z.T


def step_conservative_omega(state: FluidState, dt: float, theta: float = 0.5) -> FluidState:
    """One step of the conservative omega route (SSP-RK2 MUSCL + diffusion).

    Advection is in the divergence form of the omega equation, whose flux
    sum telescopes exactly; with nu > 0 the omega diffusion operator is
    applied in a Strang split around it.  The advecting velocity is state.u
    throughout the step, and theta weights the diffusion as in step_viscous.
    """
    grid = state.grid
    omega = diffuse_vorticity(state.omega_field(), state.nu, 0.5 * dt, theta)
    w = omega.values
    w1 = w + dt * _muscl_rhs(w, state.u)
    w2 = 0.5 * w + 0.5 * (w1 + dt * _muscl_rhs(w1, state.u))
    omega = diffuse_vorticity(omega.with_values(w2), state.nu, 0.5 * dt, theta)
    xi = state.xi.with_values(omega.values / grid.r_col)
    return _advanced(state, xi, dt)


# ---------------------------------------------------------------------------
# driver


@dataclass(frozen=True)
class TimeStepPlan:
    """Bundle of time-stepping controls for run().

    dt = None selects adaptive steps from the advective CFL bound; a fixed
    dt is truncated on the final step to land on t_final exactly.  The state,
    not the plan, carries the boundary treatment.
    """

    dt: float | None = None
    dt_max: float | None = None
    cfl: float = 0.5
    theta: float = 0.5
    scheme: str = "xi_semilagrangian"
    sample_every: int = 1
    blowup_limit: float = 1e6

    def validated(self) -> "TimeStepPlan":
        if self.dt is not None and not (0.0 < self.dt < np.inf):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.dt_max is not None and not (0.0 < self.dt_max < np.inf):
            raise ValueError(f"dt_max must be positive and finite, got {self.dt_max}")
        if self.scheme not in ("xi_semilagrangian", "omega_conservative"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.sample_every < 1:
            raise ValueError("sample_every must be at least 1")
        if not (0.5 <= self.theta <= 1.0):
            raise ValueError(f"theta must lie in [0.5, 1], got {self.theta}")
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not (0.0 < self.blowup_limit < np.inf):
            raise ValueError(f"blowup_limit must be positive and finite, got {self.blowup_limit}")
        return self


def run(
    state: FluidState,
    t_final: float,
    plan: TimeStepPlan | None = None,
    sample_hook=None,
):
    """Advance a state to t_final.

    sample_hook(state, step) is invoked on the initial state, on each state
    whose step_index is a multiple of sample_every (a restart keeps the
    uninterrupted run's cadence) and on the final state; non-None returns
    are collected and handed back (and attached to NumericalBlowupError if
    the run dies, so partial diagnostics survive).
    """
    plan = (plan or TimeStepPlan()).validated()
    if t_final < state.t:
        raise ValueError(f"t_final {t_final} is before state time {state.t}")
    if plan.scheme == "xi_semilagrangian":
        # one stencil plan for the whole run, relocated by every step
        stepper, extra = step_viscous, (StencilPlan(state.grid),)
    else:
        stepper, extra = step_conservative_omega, ()

    records = []
    if sample_hook is not None:
        out = sample_hook(state, 0)
        if out is not None:
            records.append(out)

    limit = plan.blowup_limit * max(float(np.max(np.abs(state.xi.values))), 1.0)
    step = 0
    while state.t < t_final - 1e-12 * max(1.0, abs(t_final)):
        if step >= MAX_STEPS:
            raise NumericalBlowupError(
                f"exceeded {MAX_STEPS} steps before reaching t_final",
                step_index=step,
                records=records,
            )
        cap = plan.dt_max if plan.dt_max is not None else np.inf
        dt = plan.dt if plan.dt is not None else cfl_dt(state, plan.cfl, dt_max=cap)
        dt = min(dt, t_final - state.t)
        try:
            state = stepper(state, dt, plan.theta, *extra)
        except NonFiniteFieldError as exc:
            # fields validate finiteness on construction; any other error is
            # not a numerical failure and propagates unchanged
            raise NumericalBlowupError(
                f"step {step + 1} aborted: {exc}", step_index=step + 1, records=records
            ) from exc
        step += 1
        m = float(np.max(np.abs(state.xi.values)))
        if not np.isfinite(m) or m > limit:
            raise NumericalBlowupError(
                f"field magnitude {m:.3e} exceeded blowup guard at t={state.t:.6g}",
                step_index=step,
                records=records,
            )
        at_end = state.t >= t_final - 1e-12 * max(1.0, abs(t_final))
        if sample_hook is not None and (state.step_index % plan.sample_every == 0 or at_end):
            out = sample_hook(state, step)
            if out is not None:
                records.append(out)
    return state, records


# ---------------------------------------------------------------------------
# checkpoints


def write_checkpoint(state: FluidState, path: str) -> None:
    """Write a single-field checkpoint: JSON header line + raw <f8 bytes."""
    grid = state.grid
    header = {
        "magic": CHECKPOINT_MAGIC,
        "nr": grid.nr,
        "nz": grid.nz,
        "r_max": grid.r_max,
        "z_min": grid.z_min,
        "z_max": grid.z_max,
        "t": state.t,
        "step_index": state.step_index,
        "nu": state.nu,
        "boundary": state.boundary,
        "fields": ["xi"],
    }
    with open(path, "wb") as f:
        f.write((json.dumps(header) + "\n").encode("utf-8"))
        f.write(np.ascontiguousarray(state.xi.values, dtype="<f8").tobytes())


def json_number(value, name: str, kind=float, low=-np.inf):
    """A number read from outside JSON, as kind; ValueError naming it if it breaks the rule.

    The rule: no bools, a count (kind int) is a JSON integer, and the value
    is at least low and finite, with |value| at most the largest double.
    """
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        what = "an integer" if kind is int else "a number"
    elif not (low <= value and abs(value) <= sys.float_info.max):
        what = "a finite double" + ("" if low == -np.inf else f" at least {low}")
    else:
        return kind(value)
    raise ValueError(f"{name} must be {what}, got {reprlib.repr(value)}")


def read_checkpoint(path: str) -> FluidState:
    """Load a checkpoint written by write_checkpoint as a solved state, without history.

    The state keeps the header's t, step_index, nu and boundary; older files
    without boundary or step_index get "zero" or 0.  Numeric fields follow
    json_number's rule, nr, nz and step_index as counts and t, nu and
    step_index at least 0; a header field that is missing or breaks it
    raises ValueError naming it.
    """
    xi, nu, t, step_index, boundary = _read_axf1(path)
    return replace(make_state(xi.grid, xi, nu, t=t, boundary=boundary), step_index=step_index)


def _read_axf1(path: str):
    """read_checkpoint's (xi on the header's grid, nu, t, step_index, boundary), unsolved."""
    with open(path, "rb") as f:
        header_line = f.readline()
        payload = f.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable checkpoint header in {path}: {exc}") from exc
    if not isinstance(header, dict):
        raise ValueError(f"checkpoint header in {path} is not a JSON object")
    if header.get("magic") != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic in {path}: {header.get('magic')!r}")
    if header.get("fields") != ["xi"]:
        raise ValueError(f"unsupported checkpoint fields {header.get('fields')!r}")
    header.setdefault("step_index", 0)

    def number(key, kind=float, low=-np.inf):
        return json_number(header.get(key), f"checkpoint header in {path}: field {key!r}", kind, low)

    grid = build_grid(
        number("nr", int), number("nz", int), number("r_max"), number("z_min"), number("z_max")
    )
    expected = grid.nr * grid.nz * 8
    if len(payload) != expected:
        raise ValueError(f"checkpoint payload is {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<f8").reshape(grid.nr, grid.nz).copy()
    step_index = number("step_index", int, low=0)
    nu, t = number("nu", low=0.0), number("t", low=0.0)
    xi = ScalarField(grid, values, role="relative_vorticity")
    return xi, nu, t, step_index, header.get("boundary", "zero")
