"""Lagrangian flow maps, renormalization residuals, and transport duality.

Contents:

- time-interpolated velocity and scalar snapshot series;
- RK4 particle tracing of dx/dt = u(t, x) with bicubic space and linear
  time interpolation (trace_flow), trajectories leaving the truncated
  domain are frozen at exit and excluded from norms;
- transport identity checks along the flow: scalar composition
  (composition_check) and the vorticity/Jacobian relation omega(t, phi) =
  omega_0 * phi_r / r (jacobian_check);
- a built-in family of bounded C^1 renormalization functions vanishing
  near zero, and the weak-form renormalization residual tested against a
  library of space-time bumps;
- forward passive transport and the backward dual problem
  -d_t f - u . grad f = chi + nu (f_rr - (1/r) f_r + f_zz), each stepped by
  the main solver's own Strang-split semi-Lagrangian step
  (evolution._split_step), plus the duality defect between the two.

Sign convention of the duality identity as implemented:

    int_0^T int theta chi r d(r,z) dt
        = int theta(0) f(0) r d(r,z) - int theta(T) f(T) r d(r,z),

which is the orientation consistent with the backward equation above (for
u = 0, chi = c on a box and f(T) = 0 it gives f(0) = cT and both sides
equal cT * int theta_0 over the box, positive).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .biot_savart import stream_operator_radial
from .evolution import _advective_dt, _departure, _split_step, diffuse_relative_vorticity, run
from .grid import HalfPlaneGrid, ScalarField, VelocityField
from .interpolation import interp_bicubic, sample_velocity
from .separable import theta_step
from .test_functions import SpaceTimeBump


# ---------------------------------------------------------------------------
# snapshot series with linear time interpolation


def _shared_times(a, b, T: float) -> np.ndarray:
    """The snapshot times of series a, which b must share to 1e-10 * max(1, T)."""
    if a.times.size != b.times.size or np.max(np.abs(a.times - b.times)) > 1e-10 * max(1.0, T):
        raise ValueError("the two series must share the time grid")
    return a.times


def _locate(times: np.ndarray, t: float):
    if t <= times[0]:
        return 0, 0, 0.0
    if t >= times[-1]:
        return len(times) - 1, len(times) - 1, 0.0
    k = int(np.searchsorted(times, t, side="right") - 1)
    k1 = min(k + 1, len(times) - 1)
    span = times[k1] - times[k]
    w = 0.0 if span == 0.0 else (t - times[k]) / span
    return k, k1, float(w)


class _Series:
    """Snapshots on a shared grid, linearly interpolated in time."""

    def __init__(self, times, fields):
        times = np.asarray(times, dtype=np.float64)
        if times.ndim != 1 or len(fields) != times.size or times.size < 1:
            raise ValueError("times and fields must have equal positive length")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("snapshot times must be strictly increasing")
        grid = fields[0].grid
        role = getattr(fields[0], "role", None)
        for f in fields:
            if not f.grid.same_geometry(grid) or getattr(f, "role", None) != role:
                raise ValueError("all snapshots must share one grid and role")
        self.times = times
        self.fields = list(fields)
        self.grid = grid

    @classmethod
    def frozen(cls, field, T: float):
        """The one snapshot held over [0, T]."""
        return cls(np.array([0.0, T]), [field, field])


class VelocitySeries(_Series):
    """Velocity snapshots on a shared grid, linearly interpolated in time."""

    def at(self, t: float) -> VelocityField:
        """Velocity at t; the snapshot itself on its time or between two copies of it."""
        k, k1, w = _locate(self.times, t)
        a, b = self.fields[k], self.fields[k1]
        if w == 0.0 or a is b:
            return a
        return VelocityField(
            self.grid,
            (1.0 - w) * a.u_r + w * b.u_r,
            (1.0 - w) * a.u_z + w * b.u_z,
        )

    def max_speeds(self):
        speeds = [f.max_speeds() for f in self.fields]
        return max(mr for mr, _ in speeds), max(mz for _, mz in speeds)


class ScalarSeries(_Series):
    """Scalar snapshots on a shared grid and role, linearly interpolated in time."""

    def values_at(self, t: float) -> np.ndarray:
        k, k1, w = _locate(self.times, t)
        if w == 0.0:
            return self.fields[k].values
        return (1.0 - w) * self.fields[k].values + w * self.fields[k1].values

    def sample(self, t: float, r, z) -> np.ndarray:
        return interp_bicubic(self.values_at(t), self.grid, r, z, self.fields[0].axis_symmetry)


def replay_run_series(doc):
    """Re-run a configured simulation, collecting every step as a series.

    Deterministic replay of a run directory's config (a document or a
    RunConfig) from RunConfig.initial_state(), returning (xi ScalarSeries,
    VelocitySeries) on the native step grid; the weak-form residual
    quadratures need the full trajectory, which runs do not persist.
    """
    from .config import RunConfig

    config = doc if isinstance(doc, RunConfig) else RunConfig.from_dict(doc)
    state, _ = config.initial_state()
    plan = replace(config.plan, sample_every=1)
    _, samples = run(state, config.tfinal, plan,
                     sample_hook=lambda s, k: (s.t, s.xi.copy(), s.u.copy()))
    times, xis, us = zip(*samples)
    return ScalarSeries(np.array(times), xis), VelocitySeries(np.array(times), us)


# ---------------------------------------------------------------------------
# flow maps


@dataclass
class FlowMap:
    seeds: np.ndarray          # (n, 2)
    times: np.ndarray          # (m+1,)
    positions: np.ndarray      # (m+1, n, 2)
    active: np.ndarray         # (n,) False once a trajectory left the domain
    axis_flagged: np.ndarray   # (n,) True if r dipped below -1e-8
    grid: HalfPlaneGrid

    def final_positions(self) -> np.ndarray:
        return self.positions[-1]

    def to_csv(self, path: str) -> None:
        lines = ["seed_id,t,phi_r,phi_z"]
        for j in range(self.seeds.shape[0]):
            for k, t in enumerate(self.times):
                pr, pz = self.positions[k, j]
                lines.append(f"{j},{repr(float(t))},{repr(float(pr))},{repr(float(pz))}")
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("\n".join(lines) + "\n")


def _in_domain(grid: HalfPlaneGrid, pos: np.ndarray) -> np.ndarray:
    r, z = pos[:, 0], pos[:, 1]
    return (r < grid.r_max) & (z > grid.z_min) & (z < grid.z_max)


def trace_flow(
    series: VelocitySeries,
    seeds,
    T: float,
    cfl: float = 0.5,
    n_steps: int | None = None,
) -> FlowMap:
    """Integrate particle trajectories through a velocity series.

    Classical RK4 with velocity sampled by bicubic interpolation in space
    (odd/even parity across the axis) and linear interpolation in time.
    The step count honors the advective CFL bound unless n_steps is forced.
    Trajectories that exit the truncated domain are frozen at their last
    interior position and marked inactive; trajectories whose r-coordinate
    drops below -1e-8 are flagged (axisymmetry forbids axis crossing).
    """
    seeds = np.atleast_2d(np.asarray(seeds, dtype=np.float64))
    if seeds.shape[1] != 2:
        raise ValueError("seeds must have shape (n, 2)")
    if np.any(seeds[:, 0] <= 0.0):
        raise ValueError("seeds must lie strictly inside the half plane (r > 0)")
    if T < 0.0:
        raise ValueError("trace duration must be nonnegative")
    grid = series.grid
    if n_steps is None:
        bound = _advective_dt(grid, series.max_speeds(), cfl)
        n_steps = 1 if not np.isfinite(bound) or T == 0.0 else max(int(np.ceil(T / bound)), 1)
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    dt = T / n_steps

    n = seeds.shape[0]
    positions = np.empty((n_steps + 1, n, 2))
    positions[0] = seeds
    times = dt * np.arange(n_steps + 1)
    active = np.ones(n, dtype=bool)
    flagged = np.zeros(n, dtype=bool)

    def vel(t, pos):
        u = series.at(t)
        ur, uz = sample_velocity(u, pos[:, 0], pos[:, 1])
        return np.column_stack([ur, uz])

    x = seeds.copy()
    for k in range(n_steps):
        t = times[k]
        k1 = vel(t, x)
        k2 = vel(t + 0.5 * dt, x + 0.5 * dt * k1)
        k3 = vel(t + 0.5 * dt, x + 0.5 * dt * k2)
        k4 = vel(t + dt, x + dt * k3)
        x_new = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        inside = _in_domain(grid, x_new)
        keep = active & inside
        x = np.where(keep[:, None], x_new, x)  # exits stay frozen at last interior point
        active &= inside
        flagged |= x[:, 0] < -1e-8
        positions[k + 1] = x
    return FlowMap(seeds, times, positions, active, flagged, grid)


def _max_defect(series: ScalarSeries, flow: FlowMap, stride: int, predict) -> float:
    """max over active seeds and sampled times of |series(t, phi(t)) - predict|.

    predict(base, pos) gives the expected values at positions pos from the
    series sampled at the seeds at the first time.
    """
    base = series.sample(flow.times[0], flow.seeds[:, 0], flow.seeds[:, 1])
    worst = 0.0
    for k in range(0, len(flow.times), max(stride, 1)):
        pos = flow.positions[k]
        vals = series.sample(flow.times[k], pos[:, 0], pos[:, 1])
        d = np.abs(vals - predict(base, pos))[flow.active]
        if d.size:
            worst = max(worst, float(np.max(d)))
    return worst


def composition_check(xi_series: ScalarSeries, flow: FlowMap, stride: int = 1) -> float:
    """max over active seeds and sampled times of |xi(t, phi(t)) - xi(0, seed)|."""
    return _max_defect(xi_series, flow, stride, lambda base, pos: base)


def jacobian_check(omega_series: ScalarSeries, flow: FlowMap, stride: int = 1) -> float:
    """max defect of omega(t, phi(t, r, z)) = omega_0(r, z) * phi_r(t) / r.

    Equivalent to checking that r / phi_r is the Jacobian of the flow in
    the r-weighted area element.
    """
    return _max_defect(
        omega_series, flow, stride, lambda base, pos: base * pos[:, 0] / flow.seeds[:, 0]
    )


# ---------------------------------------------------------------------------
# renormalization functions


@dataclass(frozen=True)
class RenormFunction:
    """Bounded C^1 function vanishing identically near zero.

    beta(s) = rho(|s|) * clip_M(|s|^power) * (sign(s) if odd), where rho is
    a C^1 smoothstep vanishing on [0, delta] and equal to 1 beyond 2*delta,
    and clip_M(x) = M tanh(x / M) saturates at the level M (power = 0 drops
    the clip and leaves the plateau M itself).
    """

    name: str
    power: float
    level: float
    delta: float
    odd: bool

    def __post_init__(self):
        if self.delta <= 0.0 or self.level <= 0.0 or self.power < 0.0:
            raise ValueError("delta and level must be positive, power nonnegative")

    def _rho(self, x, derivative: bool):
        """The smoothstep rho(x) and, if asked, rho'(x) (else None)."""
        u = np.clip((x - self.delta) / self.delta, 0.0, 1.0)
        rho = 3.0 * u**2 - 2.0 * u**3
        return rho, ((6.0 * u - 6.0 * u**2) / self.delta if derivative else None)

    def _core(self, x, derivative: bool):
        """The clipped power clip_M(x^power) and, if asked, its x-derivative (else None)."""
        M = self.level
        if self.power == 0.0:
            return np.full_like(x, M), (np.zeros_like(x) if derivative else None)
        xp = x**self.power
        t = np.tanh(xp / M)
        if not derivative:
            return M * t, None
        dcore = (1.0 - t**2) * self.power * np.where(x > 0.0, xp / np.where(x > 0.0, x, 1.0), 0.0)
        return M * t, dcore

    def value(self, s):
        s = np.asarray(s, dtype=np.float64)
        x = np.abs(s)
        rho, _ = self._rho(x, derivative=False)
        core, _ = self._core(x, derivative=False)
        out = rho * core
        return np.where(s < 0.0, -out, out) if self.odd else out

    def derivative(self, s):
        s = np.asarray(s, dtype=np.float64)
        x = np.abs(s)
        rho, drho = self._rho(x, derivative=True)
        core, dcore = self._core(x, derivative=True)
        g = drho * core + rho * dcore
        return g if self.odd else g * np.sign(s)


def built_in_renorm_functions(delta: float = 0.05, level: float = 1.0):
    """The four stock members used by the regression suite and the CLI."""
    return {
        "quadratic_clip": RenormFunction("quadratic_clip", 2.0, level, delta, odd=False),
        "cubic_odd": RenormFunction("cubic_odd", 3.0, level, delta, odd=True),
        "linear_plateau": RenormFunction("linear_plateau", 1.0, 0.5 * level, delta, odd=True),
        "sign_plateau": RenormFunction("sign_plateau", 0.0, level, delta, odd=True),
    }


def beta_integral(xi: ScalarField, beta: RenormFunction) -> float:
    """integral of beta(xi) r d(r,z) over the half plane (flat, no 2 pi)."""
    grid = xi.grid
    return float(np.sum(beta.value(xi.values) * grid.r_col) * grid.cell_area)


# times per block of renorm_residual's products: the block holds three
# full-grid fields per time, so it sets the call's peak memory
_RENORM_BLOCK = 8


def _support_cells(grid: HalfPlaneGrid, spec) -> tuple:
    """Slices of the cells whose centres lie in spec's support box, one cell to spare."""
    r_lo, r_hi, z_lo, z_hi = spec.support_box()
    i0, i1 = np.searchsorted(grid.r_centers, (r_lo, r_hi))
    j0, j1 = np.searchsorted(grid.z_centers, (z_lo, z_hi))
    return slice(max(i0 - 1, 0), i1 + 1), slice(max(j0 - 1, 0), j1 + 1)


def renorm_residual(
    xi_series: ScalarSeries,
    velocity_series: VelocitySeries,
    beta: RenormFunction,
    tests,
) -> float:
    """Weak-form renormalization residual, maximized over a test library.

    For each space-time test function f supported in [0, T) x H, a
    SpaceTimeBump (any other type raises ValueError), with time measured
    from the first snapshot (a restarted run's series starts at t0 > 0):

        R(f) = int_0^T int beta(xi)(f_t + u^r f_r + u^z f_z) r d(r,z) dt
             + int beta(xi(0)) f(0) r d(r,z),

    evaluated by trapezoid in time over the shared snapshot grid and
    midpoint quadrature in space, normalized by the test-function norm.
    R vanishes (to discretization order) iff xi is transported in the
    renormalized sense for this beta.
    """
    times = _shared_times(xi_series, velocity_series, float(xi_series.times[-1]))
    tests = list(tests)
    for f in tests:
        if not isinstance(f, SpaceTimeBump):
            raise ValueError(f"test functions must be SpaceTimeBump, got {type(f).__name__}")
    grid = xi_series.grid
    r2d, z2d = grid.meshes()
    w = grid.r_col * grid.cell_area
    # separable bumps: each spatial factor (b, b_r, b_z) is evaluated once,
    # on the cells around its support box only (it vanishes elsewhere)
    boxes = [_support_cells(grid, f.space) for f in tests]
    parts = [np.stack(f.space.evaluate(r2d[box], z2d[box])).reshape(3, -1, 1)
             for f, box in zip(tests, boxes)]
    wt, dwt = np.moveaxis(np.reshape([f.time_weight(times - times[0]) for f in tests],
                                     (len(tests), 2, times.size)), 0, -1)

    # int beta(xi_k) (b, u_r b_r, u_z b_z) r d(r,z) for every time k and test,
    # as one (times x box cells) @ (box cells) product per test and block of times
    integrals = np.empty((3, times.size, len(tests)))
    for start in range(0, times.size, _RENORM_BLOCK):
        stop = min(start + _RENORM_BLOCK, times.size)
        beta_w = np.empty((3, stop - start, grid.nr, grid.nz))
        for row, k in enumerate(range(start, stop)):
            bw = beta.value(xi_series.fields[k].values) * w
            u = velocity_series.fields[k]
            beta_w[:, row] = bw, bw * u.u_r, bw * u.u_z
        for j, ((rows, cols), part) in enumerate(zip(boxes, parts)):
            block = beta_w[:, :, rows, cols].reshape(3, stop - start, -1)
            integrals[:, start:stop, j] = (block @ part)[..., 0]
    spatial = dwt * integrals[0] + wt * (integrals[1] + integrals[2])
    total = 0.5 * np.diff(times) @ (spatial[1:] + spatial[:-1]) + wt[0] * integrals[0, 0]
    norms = np.array([f.norm() for f in tests])
    return float(np.max(np.abs(total) / norms, initial=0.0))


# ---------------------------------------------------------------------------
# forward and backward transport


def _as_source(chi):
    """Normalize a source term to a callable (t, r, z) -> array or None.

    Accepts None, a callable, or a ScalarSeries (sampled in time with the
    role's axis parity).
    """
    if chi is None or callable(chi):
        return chi
    if isinstance(chi, ScalarSeries):
        return lambda t, r, z: chi.sample(t, r, z)
    raise ValueError(
        f"source must be None, a callable, or a ScalarSeries, got {type(chi).__name__}"
    )


def _diffuse_dual(f: ScalarField, nu: float, dt: float, theta: float = 0.5) -> ScalarField:
    """Theta-scheme step of d_t f = nu (f_rr - (1/r) f_r + f_zz).

    The dual diffusion operator is the negative of the stream operator with
    homogeneous Dirichlet closures on every boundary; it is self-adjoint in
    the 1/r-weighted inner product.  separable.theta_step takes the step with
    one direct solve of (1 + theta nu dt B) (DST-II in z).
    """
    grid = f.grid
    sol = theta_step(f.values, stream_operator_radial(grid), grid.hz, "dirichlet", nu, dt, theta)
    return f.with_values(sol)


def _march(velocity, datum: ScalarField, grid, T: float, n_steps: int, diffuse, source):
    """Times and fields of n_steps evolution._split_step steps from datum at 0 to T.

    The step from t to t + dt advects with velocity(t + dt / 2).  Departure
    points depend only on that velocity and dt, so they are computed again
    only when velocity returns a different object (every step of a
    time-varying series, once on a frozen one).
    """
    if n_steps < 1 or T <= 0.0:
        raise ValueError("need T > 0 and at least one step")
    if not datum.grid.same_geometry(grid):
        raise ValueError("transported data and velocity series grids differ")
    dt = T / n_steps
    times = dt * np.arange(n_steps + 1)
    fields = [datum.copy()]
    u_held = departure = None
    for t in times[:-1]:
        u = velocity(t + 0.5 * dt)
        if u is not u_held:
            u_held, departure = u, _departure(datum.grid, u, dt)
        fields.append(_split_step(fields[-1], u, dt, diffuse, source, t, departure))
    return times, fields


def solve_forward_transport(
    velocity_series: VelocitySeries,
    theta0: ScalarField,
    T: float,
    n_steps: int,
    nu: float = 0.0,
    source=None,
) -> ScalarSeries:
    """March d_t theta + u . grad theta = source + nu*(5-D radial Laplacian).

    Returns the full snapshot series on the uniform step grid.  With nu > 0
    Crank-Nicolson diffusion is Strang-split around the advection exactly as
    in the main solver.
    """
    times, fields = _march(velocity_series.at, theta0, velocity_series.grid, T, n_steps,
                           partial(diffuse_relative_vorticity, nu=nu), _as_source(source))
    return ScalarSeries(times, fields)


def solve_backward_transport(
    velocity_series: VelocitySeries,
    chi,
    T: float,
    n_steps: int,
    nu: float = 0.0,
    f_final: ScalarField | None = None,
) -> ScalarSeries:
    """Solve -d_t f - u . grad f = chi + nu (f_rr - (1/r) f_r + f_zz) on [0, T].

    chi is callable (t, r, z) -> array (or None).  The final datum f(T)
    defaults to zero.  Substituting tau = T - t turns this into forward
    advection by the reversed velocity with source chi(T - tau) and the
    dual (Dirichlet, Crank-Nicolson) diffusion operator; that forward problem
    is integrated with the same splitting as the primary solver.  The returned
    series is indexed by physical time t, ascending.
    """
    chi = _as_source(chi)
    grid = velocity_series.grid
    if f_final is None:
        f_final = ScalarField(grid, np.zeros((grid.nr, grid.nz)), role="dual")

    held = reversed_held = None

    def reversed_velocity(tau):
        # one negated object per snapshot object, so _march can keep its departures
        nonlocal held, reversed_held
        u = velocity_series.at(T - tau)
        if u is not held:
            held, reversed_held = u, VelocityField(grid, -u.u_r, -u.u_z)
        return reversed_held

    source = None
    if chi is not None:
        def source(tau, r, z):
            return chi(T - tau, r, z)

    taus, fields_desc = _march(reversed_velocity, f_final, grid, T, n_steps,
                               partial(_diffuse_dual, nu=nu), source)
    return ScalarSeries(taus, fields_desc[::-1])


def duality_check(theta_series: ScalarSeries, f_series: ScalarSeries, chi, T: float) -> float:
    """Normalized defect of the transport duality identity.

    LHS = int_0^T int theta chi r d(r,z) dt (trapezoid in t), RHS =
    int theta(0) f(0) r - int theta(T) f(T) r; returns
    |LHS - RHS| / (|LHS| + |RHS| + eps).
    """
    times = _shared_times(theta_series, f_series, float(T))
    chi = _as_source(chi)
    grid = theta_series.grid
    r2d, z2d = grid.meshes()
    w = grid.r_col * grid.cell_area
    lhs = 0.0
    if chi is not None:
        vals = np.empty(times.size)
        for k, t in enumerate(times):
            vals[k] = np.sum(theta_series.fields[k].values * chi(t, r2d, z2d) * w)
        dt = np.diff(times)
        lhs = float(np.sum(0.5 * dt * (vals[1:] + vals[:-1])))
    b0 = float(np.sum(theta_series.fields[0].values * f_series.fields[0].values * w))
    bT = float(np.sum(theta_series.fields[-1].values * f_series.fields[-1].values * w))
    rhs = b0 - bT
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)
