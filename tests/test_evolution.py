import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from axisymlab.evolution import (
    _xi_diffusion_radial,
    FluidState,
    TimeStepPlan,
    advect_semi_lagrangian,
    cfl_dt,
    diffuse_relative_vorticity,
    diffuse_vorticity,
    make_state,
    read_checkpoint,
    refresh_velocity,
    run,
    step_conservative_omega,
    step_viscous,
    write_checkpoint,
)
from axisymlab import evolution
from axisymlab.exceptions import NonFiniteFieldError, NumericalBlowupError
from axisymlab.grid import ScalarField, VelocityField, build_grid
from axisymlab.initial_conditions import gaussian_ring_xi
from axisymlab.lagrangian import _diffuse_dual
from axisymlab.separable import apply_separable


def heat_kernel_xi(grid, sigma2):
    """Self-similar solution of d_t xi = nu * (xi_rr + 3 xi_r / r + xi_zz):
    a centered Gaussian whose variance grows as sigma^2 + 2 nu t."""
    r2d, z2d = grid.meshes()
    return np.exp(-(r2d**2 + z2d**2) / (2.0 * sigma2))


def test_xi_diffusion_against_heat_kernel():
    nu, sigma2, T = 0.05, 0.1, 0.5
    errs = []
    for n, steps in ((48, 20), (96, 40)):
        g = build_grid(n, 2 * n, 3.0, -3.0, 3.0)
        xi = ScalarField(g, heat_kernel_xi(g, sigma2), role="relative_vorticity")
        dt = T / steps
        for _ in range(steps):
            xi = diffuse_relative_vorticity(xi, nu, dt)
        s2 = sigma2 + 2.0 * nu * T
        exact = (sigma2 / s2) ** 2.5 * heat_kernel_xi(g, s2)
        errs.append(np.max(np.abs(xi.values - exact)) / np.max(exact))
    assert errs[1] < errs[0] / 3.0
    assert errs[1] < 4e-3


def test_omega_diffusion_against_heat_kernel():
    # omega = r xi solves the omega diffusion equation when xi solves the
    # radial 5-D heat equation
    nu, sigma2, T = 0.05, 0.1, 0.5
    errs = []
    for n, steps in ((48, 20), (96, 40)):
        g = build_grid(n, 2 * n, 3.0, -3.0, 3.0)
        om = ScalarField(g, g.r_col * heat_kernel_xi(g, sigma2), role="vorticity")
        dt = T / steps
        for _ in range(steps):
            om = diffuse_vorticity(om, nu, dt)
        s2 = sigma2 + 2.0 * nu * T
        exact = (sigma2 / s2) ** 2.5 * g.r_col * heat_kernel_xi(g, s2)
        errs.append(np.max(np.abs(om.values - exact)) / np.max(exact))
    assert errs[1] < errs[0] / 3.0
    assert errs[1] < 2e-3


def test_xi_diffusion_conserves_r3_mass():
    # zero-flux closures make the r^3-weighted cell sum exactly invariant
    g = build_grid(32, 32, 2.0, -1.0, 1.0)
    rng = np.random.default_rng(3)
    xi = ScalarField(g, rng.random((32, 32)), role="relative_vorticity")
    w = g.r_col**3  # proportional to the exact volumes up to O(h^2) per cell
    lap = -apply_separable(xi.values, _xi_diffusion_radial(g), g.hz, "neumann")
    i = np.arange(g.nr, dtype=np.float64)
    vol = (((i + 1.0) ** 4 - i**4) * g.hr**3 / 4.0)[:, None] * g.hr
    assert abs(np.sum(lap * vol)) < 1e-12 * np.sum(np.abs(xi.values) * vol)
    out = diffuse_relative_vorticity(xi, 0.1, 0.05)
    before = np.sum(xi.values * vol)
    after = np.sum(out.values * vol)
    assert abs(after - before) < 1e-10 * abs(before)


# (diffusion, field role)
_DIFFUSIONS = {
    "xi": (diffuse_relative_vorticity, "relative_vorticity"),
    "omega": (diffuse_vorticity, "vorticity"),
    "dual": (_diffuse_dual, "dual"),
}


@pytest.mark.parametrize("name", list(_DIFFUSIONS))
def test_diffusion_validation(name):
    # all three diffusions step through separable.theta_step and its checks
    diffuse, role = _DIFFUSIONS[name]
    g = build_grid(8, 8, 1.0, -1.0, 1.0)
    f = ScalarField(g, np.random.default_rng(0).standard_normal((8, 8)), role=role)
    # a NaN or infinite nu or dt is bad input, not a non-finite field
    for nu, dt in ((0.1, -0.1), (0.1, np.nan), (0.1, np.inf), (-0.1, 0.1), (np.nan, 0.1),
                   (np.inf, 0.1)):
        with pytest.raises(ValueError, match="need finite dt > 0 and nu >= 0"):
            diffuse(f, nu, dt)
    with pytest.raises(ValueError):
        diffuse(f, 0.1, 0.1, theta=0.3)
    unchanged = diffuse(f, 0.0, 0.1)
    np.testing.assert_array_equal(unchanged.values, f.values)


def test_advection_rigid_translation():
    # uniform axial velocity: the profile translates exactly, so the error is
    # pure interpolation pickup.  A single step isolates the local order
    # (better than second once the bump is resolved).  Over a multi-step
    # march the clip cuts the moving peak to its largest sample on every
    # step, whatever the stencil width, which caps the peak error near first
    # order (the usual monotone-scheme barrier; unclipped it is about
    # second).  The march must keep the profile inside its initial range.
    W, T = 0.5, 0.2

    def march(n, steps):
        g = build_grid(n, 2 * n, 2.0, -2.0, 2.0)
        r2d, z2d = g.meshes()
        start = np.exp(-((r2d - 1.0) ** 2 + (z2d + 0.5) ** 2) / 0.05)
        cur = ScalarField(g, start, role="relative_vorticity")
        u = VelocityField(g, np.zeros_like(r2d), np.full_like(r2d, W))
        for _ in range(steps):
            cur = advect_semi_lagrangian(cur, u, T / steps)
        exact = np.exp(-((r2d - 1.0) ** 2 + (z2d - W * T + 0.5) ** 2) / 0.05)
        assert cur.values.max() <= start.max() + 1e-14
        assert cur.values.min() >= start.min() - 1e-14
        return float(np.max(np.abs(cur.values - exact)))

    single = [march(n, 1) for n in (128, 256)]
    assert single[1] < single[0] / 3.5
    accumulated = [march(n, s) for n, s in ((64, 8), (128, 16))]
    assert accumulated[1] < accumulated[0] / 1.8
    assert accumulated[1] < 5e-3


def test_step_viscous_advects_with_midpoint_velocity():
    g = build_grid(32, 64, 3.0, -3.0, 3.0)
    r2d, z2d = g.meshes()
    env = np.exp(-((r2d - 1.0) ** 2 + z2d**2))
    u0 = VelocityField(g, 0.2 * z2d * env, 0.5 * env)
    u1 = VelocityField(g, 0.3 * z2d * env, 0.4 * env)
    xi = gaussian_ring_xi(g, 1.0, 0.0, 0.3, 1.0)
    st = FluidState(grid=g, xi=xi, nu=0.0, u=u1, u_prev=u0, dt_prev=0.02)
    out = step_viscous(st, 0.01)
    # u^n + (dt / 2 dt_prev)(u^n - u^{n-1}) with dt / 2 dt_prev = 1/4
    mid = VelocityField(g, 1.25 * u1.u_r - 0.25 * u0.u_r, 1.25 * u1.u_z - 0.25 * u0.u_z)
    expect = advect_semi_lagrangian(xi, mid, 0.01)
    assert np.allclose(out.xi.values, expect.values, rtol=0.0, atol=1e-14)
    assert not np.allclose(out.xi.values, advect_semi_lagrangian(xi, u1, 0.01).values,
                           rtol=0.0, atol=1e-8)
    assert out.u_prev is u1 and out.dt_prev == 0.01


def test_step_viscous_velocity_history():
    g = build_grid(32, 64, 3.0, -3.0, 3.0)
    xi0 = gaussian_ring_xi(g, 1.0, 0.0, 0.3, 1.0)
    st = make_state(g, xi0, 1e-3)
    assert st.u_prev is None and st.dt_prev is None
    fresh = step_viscous(st, 0.02)
    assert fresh.u_prev is st.u and fresh.dt_prev == 0.02
    # a velocity history that has not changed extrapolates to itself, so the
    # step reproduces the history-free one bit for bit
    steady = step_viscous(replace(st, u_prev=st.u, dt_prev=0.01), 0.02)
    assert np.array_equal(steady.xi.values, fresh.xi.values)
    assert np.array_equal(steady.u.u_r, fresh.u.u_r)
    assert np.array_equal(steady.u.u_z, fresh.u.u_z)
    # the conservative route records the same history for a following step
    cons = step_conservative_omega(fresh, 0.02)
    assert cons.u_prev is fresh.u and cons.dt_prev == 0.02


def test_conservative_cell_sum_telescopes():
    g = build_grid(64, 128, 3.0, -3.0, 3.0)
    xi0 = gaussian_ring_xi(g, 1.0, 0.0, 0.2, 1.0)
    st = make_state(g, xi0, 0.0)
    before = float(np.sum(st.xi.values * g.r_col))
    for _ in range(5):
        st = step_conservative_omega(st, 0.01)
        after = float(np.sum(st.xi.values * g.r_col))
        # flat cell sum of omega = r xi moves only through boundary faces,
        # which carry no mass for this compactly supported ring
        assert abs(after - before) < 1e-12 * abs(before)
        before = after


def _per_axis_slopes(values, axis, axis_symmetry):
    """Van Leer slopes along one axis, the per-axis reference for _flux_difference."""
    v = values if axis == 0 else values.T
    pad_lo = -v[0] if axis_symmetry == "odd" and axis == 0 else v[0]
    ext = np.concatenate([pad_lo[None, :], v, v[-1][None, :]], axis=0)
    a = ext[1:-1] - ext[:-2]
    b = ext[2:] - ext[1:-1]
    prod = a * b
    denom = a + b
    s = np.where(prod > 0.0, 2.0 * prod / np.where(denom != 0.0, denom, 1.0), 0.0)
    return s if axis == 0 else s.T


def _per_axis_muscl_rhs(omega, u):
    """-div(u omega) with the r and z fluxes written out separately."""
    grid = u.grid
    nr, nz = grid.nr, grid.nz
    hr, hz = grid.hr, grid.hz

    sr = _per_axis_slopes(omega, 0, "odd")
    ur_face = np.zeros((nr + 1, nz))
    ur_face[1:nr] = 0.5 * (u.u_r[1:] + u.u_r[:-1])
    ur_face[nr] = u.u_r[-1]
    left = np.concatenate([-(omega[0] + 0.5 * sr[0])[None, :], omega + 0.5 * sr], axis=0)
    right = np.concatenate([omega - 0.5 * sr, (omega[-1] + 0.5 * sr[-1])[None, :]], axis=0)
    fr = np.where(ur_face >= 0.0, ur_face * left, ur_face * right)
    out = -(fr[1:] - fr[:-1]) / hr

    sz = _per_axis_slopes(omega, 1, "none")
    uz_face = np.zeros((nr, nz + 1))
    uz_face[:, 1:nz] = 0.5 * (u.u_z[:, 1:] + u.u_z[:, :-1])
    uz_face[:, 0] = u.u_z[:, 0]
    uz_face[:, nz] = u.u_z[:, -1]
    left = np.concatenate([(omega[:, 0] - 0.5 * sz[:, 0])[:, None], omega + 0.5 * sz], axis=1)
    right = np.concatenate([omega - 0.5 * sz, (omega[:, -1] + 0.5 * sz[:, -1])[:, None]], axis=1)
    fz = np.where(uz_face >= 0.0, uz_face * left, uz_face * right)
    out -= (fz[:, 1:] - fz[:, :-1]) / hz
    return out


@pytest.mark.parametrize("shape", [(12, 20), (7, 9), (4, 4)])
def test_muscl_rhs_matches_per_axis_reference(shape):
    # one flux routine serves both axes; the values (not the sign of a zero)
    # equal the per-axis form, with its odd axis ghost and zero axis velocity
    g = build_grid(*shape, 2.0, -1.5, 1.0)
    r2d, z2d = g.meshes()
    rng = np.random.default_rng(sum(shape))
    fields = [r2d * np.exp(-((r2d - 1.0) ** 2 + z2d**2))]  # rises off the axis
    for _ in range(4):
        omega = rng.standard_normal(shape)
        omega[rng.random(shape) < 0.3] = 0.0  # flat runs and zero slopes
        omega[:, : shape[1] // 3] = 0.0
        fields.append(omega)
    for omega in fields:
        u = VelocityField(g, rng.standard_normal(shape), rng.standard_normal(shape))
        assert np.array_equal(evolution._muscl_rhs(omega, u), _per_axis_muscl_rhs(omega, u))


def test_viscous_step_linf_nonexpanding_at_nu_zero():
    g = build_grid(48, 96, 3.0, -3.0, 3.0)
    xi0 = gaussian_ring_xi(g, 1.0, 0.0, 0.25, 1.0)
    st = make_state(g, xi0, 0.0)
    m0 = float(np.max(np.abs(st.xi.values)))
    for _ in range(10):
        st = step_viscous(st, 0.02)
        m = float(np.max(np.abs(st.xi.values)))
        assert m <= m0 + 1e-14
        m0 = m


def test_schemes_agree_on_smooth_data():
    # both discretizations approximate the same dynamics
    g = build_grid(64, 128, 3.0, -3.0, 3.0)
    xi0 = gaussian_ring_xi(g, 1.0, 0.0, 0.3, 1.0)
    plan_v = TimeStepPlan(dt=0.005, scheme="xi_semilagrangian")
    plan_c = TimeStepPlan(dt=0.005, scheme="omega_conservative")
    sv = make_state(g, xi0, 1e-3)
    sc = make_state(g, xi0, 1e-3)
    final_v, _ = run(sv, 0.1, plan_v)
    final_c, _ = run(sc, 0.1, plan_c)
    gap = np.max(np.abs(final_v.xi.values - final_c.xi.values))
    assert gap < 5e-3 * np.max(np.abs(xi0.values))


def test_theta_scheme_orders():
    # dt order isolated against a same-grid reference run (spatial error
    # cancels in the difference): Crank-Nicolson gains ~4x per dt halving,
    # backward Euler ~2x
    nu, sigma2, T = 0.05, 0.15, 0.4
    g = build_grid(48, 96, 4.0, -4.0, 4.0)

    def march(theta, steps):
        xi = ScalarField(g, heat_kernel_xi(g, sigma2), role="relative_vorticity")
        for _ in range(steps):
            xi = diffuse_relative_vorticity(xi, nu, T / steps, theta=theta)
        return xi.values

    ref = march(0.5, 128)
    cn = [np.max(np.abs(march(0.5, s) - ref)) for s in (4, 8)]
    be = [np.max(np.abs(march(1.0, s) - ref)) for s in (4, 8)]
    assert cn[0] / cn[1] > 3.5  # second order in dt
    assert 1.6 < be[0] / be[1] < 2.6  # first order in dt
    assert cn[1] < be[1]


def test_cfl_dt():
    g = build_grid(16, 16, 2.0, -1.0, 1.0)
    xi = ScalarField(g, np.zeros((16, 16)), role="relative_vorticity")
    u = VelocityField(g, np.full((16, 16), 0.5), np.full((16, 16), 2.0))
    st_u = FluidState(grid=g, xi=xi, nu=0.0, u=u)
    dt = cfl_dt(st_u, cfl=0.5)
    assert abs(dt - min(0.5 * g.hr / 0.5, 0.5 * g.hz / 2.0)) < 1e-15
    # rest state: capped by dt_max
    rest = FluidState(grid=g, xi=xi, nu=0.0, u=VelocityField(g, np.zeros((16, 16)), np.zeros((16, 16))))
    assert cfl_dt(rest, dt_max=0.25) == 0.25
    with pytest.raises(ValueError):
        cfl_dt(st_u, cfl=1.5)
    with pytest.raises(ValueError):
        cfl_dt(st_u, dt_max=-1.0)


def test_plan_validation():
    with pytest.raises(ValueError):
        TimeStepPlan(dt=-0.1).validated()
    with pytest.raises(ValueError):
        TimeStepPlan(scheme="spectral").validated()
    with pytest.raises(ValueError):
        TimeStepPlan(theta=0.2).validated()
    with pytest.raises(ValueError):
        TimeStepPlan(cfl=0.0).validated()
    with pytest.raises(ValueError):
        TimeStepPlan(sample_every=0).validated()
    with pytest.raises(ValueError):
        TimeStepPlan(dt_max=0.0).validated()
    # a NaN limit would turn the blow-up guard off: m > nan is always False
    for bad in ({"dt_max": float("nan")}, {"dt_max": float("inf")},
                {"blowup_limit": float("nan")}, {"blowup_limit": float("inf")}):
        with pytest.raises(ValueError, match="positive and finite"):
            TimeStepPlan(**bad).validated()
    st_plan = TimeStepPlan(dt=0.1).validated()
    assert st_plan.dt == 0.1


def test_plan_rejects_nan_dt():
    # a NaN step would otherwise reach run's loop, where min(dt, t_final - t)
    # keeps it, and the first step would fail as a numerical blow-up
    with pytest.raises(ValueError, match="dt must be positive"):
        TimeStepPlan(dt=float("nan")).validated()


def test_plan_rejects_infinite_dt():
    # an infinite step would otherwise take the run to t_final in one silent step
    g = build_grid(16, 16, 2.0, -1.0, 1.0)
    st = make_state(g, np.zeros((16, 16)), 0.0)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        run(st, 0.5, TimeStepPlan(dt=np.inf))


@pytest.mark.parametrize("t_final", [np.nan, np.inf])
def test_run_rejects_a_non_finite_t_final(t_final):
    # inf - 1e-12 * inf is NaN, so run's loop never ran and the unadvanced
    # state came back as if it had reached t_final
    g = build_grid(16, 16, 2.0, -1.0, 1.0)
    st = make_state(g, np.zeros((16, 16)), 0.0)
    for scheme in ("xi_semilagrangian", "omega_conservative"):
        with pytest.raises(ValueError, match="must be finite"):
            run(st, t_final, TimeStepPlan(dt=0.1, scheme=scheme))


def test_step_requires_dt():
    # both steppers reject a step length dt <= 0 and a weight theta outside
    # [0.5, 1], at nu = 0 too
    g = build_grid(16, 16, 2.0, -1.0, 1.0)
    st = make_state(g, np.zeros((16, 16)), 0.0)
    for stepper in (step_viscous, step_conservative_omega):
        for dt in (0.0, -0.1):
            with pytest.raises(ValueError, match="dt > 0"):
                stepper(st, dt)
        with pytest.raises(ValueError, match="theta"):
            stepper(st, 0.1, theta=0.2)


def test_run_lands_on_t_final_and_counts_steps():
    g = build_grid(32, 64, 3.0, -3.0, 3.0)
    xi0 = gaussian_ring_xi(g, 1.0, 0.0, 0.3, 1.0)
    st = make_state(g, xi0, 1e-2)
    seen = []
    final, records = run(
        st, 0.05, TimeStepPlan(dt=0.02, sample_every=2),
        sample_hook=lambda s, k: seen.append((k, s.t)) or (k, s.t),
    )
    assert final.t == pytest.approx(0.05, abs=1e-14)
    assert final.step_index == 3  # 0.02 + 0.02 + truncated 0.01
    assert seen[0] == (0, 0.0)
    assert seen[-1][0] == 3  # final state sampled even off-cadence
    assert len(records) == len(seen)


def test_run_adaptive_dt_respects_cap():
    g = build_grid(32, 64, 3.0, -3.0, 3.0)
    xi0 = gaussian_ring_xi(g, 1.0, 0.0, 0.3, 1.0)
    st = make_state(g, xi0, 0.0)
    times = []
    run(st, 0.05, TimeStepPlan(dt_max=0.01, cfl=0.9),
        sample_hook=lambda s, k: times.append(s.t))
    dts = np.diff(times)
    assert np.all(dts <= 0.01 + 1e-14)


def test_run_blowup_guard_carries_records():
    g = build_grid(32, 64, 3.0, -3.0, 3.0)
    xi0 = gaussian_ring_xi(g, 1.0, 0.0, 0.3, 1.0)
    st = make_state(g, xi0, 1e-2)
    with pytest.raises(NumericalBlowupError) as info:
        run(st, 1.0, TimeStepPlan(dt=0.02, blowup_limit=1e-9),
            sample_hook=lambda s, k: (k, s.t))
    assert info.value.records  # partial samples survive
    assert info.value.step_index is not None


def test_run_lets_programming_errors_through(monkeypatch):
    # only a non-finite field is a numerical failure; any other ValueError
    # raised inside a step propagates unchanged
    g = build_grid(16, 32, 3.0, -3.0, 3.0)
    st = make_state(g, gaussian_ring_xi(g, 1.0, 0.0, 0.3, 1.0), 1e-2)

    def broken(state, *args):
        raise ValueError("argument bug")

    monkeypatch.setattr(evolution, "step_viscous", broken)
    with pytest.raises(ValueError, match="argument bug") as info:
        run(st, 0.1, TimeStepPlan(dt=0.02))
    assert type(info.value) is ValueError


def test_run_non_finite_step_raises_blowup_with_records(monkeypatch):
    g = build_grid(16, 32, 3.0, -3.0, 3.0)
    st = make_state(g, gaussian_ring_xi(g, 1.0, 0.0, 0.3, 1.0), 1e-2)
    real_step = evolution.step_viscous

    def overflowing(state, *args):
        if state.step_index < 2:
            return real_step(state, *args)
        # the third update overflows: building its field fails the finiteness check
        return replace(state, xi=state.xi.with_values(state.xi.values * np.inf))

    monkeypatch.setattr(evolution, "step_viscous", overflowing)
    with pytest.raises(NumericalBlowupError) as info:
        run(st, 1.0, TimeStepPlan(dt=0.02), sample_hook=lambda s, k: (k, s.t))
    assert info.value.step_index == 3
    assert [k for k, _ in info.value.records] == [0, 1, 2]
    assert isinstance(info.value.__cause__, NonFiniteFieldError)


def test_step_index_advances():
    g = build_grid(32, 64, 3.0, -3.0, 3.0)
    xi0 = gaussian_ring_xi(g, 1.0, 0.0, 0.3, 1.0)
    st = make_state(g, xi0, 1e-3)
    s1 = step_viscous(st, 0.01)
    s2 = step_conservative_omega(s1, 0.01)
    assert (st.step_index, s1.step_index, s2.step_index) == (0, 1, 2)
    assert s2.t == pytest.approx(0.02)


def test_make_state_validation():
    g = build_grid(8, 8, 1.0, -1.0, 1.0)
    # a bad viscosity is rejected up front, so a run never starts and fails as a blow-up
    for nu in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="viscosity must be finite and nonnegative"):
            make_state(g, np.zeros((8, 8)), nu)
    f = ScalarField(g, np.zeros((8, 8)), role="vorticity")
    with pytest.raises(ValueError):
        make_state(g, f, 0.0)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    g = build_grid(24, 48, 2.5, -2.0, 2.0)
    rng = np.random.default_rng(11)
    st = make_state(g, rng.standard_normal((24, 48)), 3e-3, t=0.7)
    path = os.path.join(tmp_path, "state.axf1")
    write_checkpoint(st, path)
    back = read_checkpoint(path)
    assert back.t == st.t and back.nu == st.nu
    assert back.grid == g
    assert np.array_equal(back.xi.values, st.xi.values)
    # writing the same state twice produces identical bytes
    path2 = os.path.join(tmp_path, "state2.axf1")
    write_checkpoint(st, path2)
    assert Path(path).read_bytes() == Path(path2).read_bytes()


def test_checkpoint_error_cases(tmp_path):
    g = build_grid(8, 8, 1.0, -1.0, 1.0)
    st = make_state(g, np.zeros((8, 8)), 0.0)
    path = os.path.join(tmp_path, "x.axf1")
    write_checkpoint(st, path)

    blob = Path(path).read_bytes()
    bad_magic = blob.replace(b"AXF1", b"AXF9", 1)
    p1 = os.path.join(tmp_path, "bad_magic.axf1")
    Path(p1).write_bytes(bad_magic)
    with pytest.raises(ValueError):
        read_checkpoint(p1)

    p2 = os.path.join(tmp_path, "truncated.axf1")
    Path(p2).write_bytes(blob[:-16])
    with pytest.raises(ValueError):
        read_checkpoint(p2)

    p3 = os.path.join(tmp_path, "garbage.axf1")
    Path(p3).write_bytes(b"\x00\x01\x02nonsense\n" + blob)
    with pytest.raises(ValueError):
        read_checkpoint(p3)


def test_checkpoint_keeps_the_step_index(tmp_path):
    # the header carries step_index; a header without it, as files written
    # before the field existed, restores step 0 at its own t
    g = build_grid(8, 8, 1.0, -1.0, 1.0)
    st = replace(make_state(g, np.ones((8, 8)), 1e-3, t=0.3), step_index=7)
    path = tmp_path / "st.axf1"
    write_checkpoint(st, str(path))
    assert read_checkpoint(str(path)).step_index == 7
    header, payload = path.read_bytes().split(b"\n", 1)
    old = {k: v for k, v in json.loads(header).items() if k != "step_index"}
    path.write_bytes(json.dumps(old).encode() + b"\n" + payload)
    back = read_checkpoint(str(path))
    assert back.step_index == 0 and back.t == 0.3
    assert np.array_equal(back.xi.values, st.xi.values)


def test_state_keeps_its_boundary():
    # every route that re-solves the velocity uses the state's own boundary
    # treatment, so a kernel state stays a kernel state
    g = build_grid(32, 64, 3.0, -3.0, 3.0)
    st = make_state(g, gaussian_ring_xi(g, 1.0, 0.0, 0.3, 1.0), 1e-2, boundary="kernel")
    results = [
        step_viscous(st, 0.01),
        step_conservative_omega(st, 0.01),
        run(st, 0.02, TimeStepPlan(dt=0.01))[0],
        refresh_velocity(st),
    ]
    for out in results:
        assert out.boundary == "kernel"
        fresh = make_state(g, out.xi, out.nu, t=out.t, boundary="kernel")
        assert np.array_equal(out.u.u_r, fresh.u.u_r)
        assert np.array_equal(out.u.u_z, fresh.u.u_z)


def test_refresh_velocity_reproduces_velocity_bit_for_bit():
    g = build_grid(32, 64, 3.0, -3.0, 3.0)
    xi0 = gaussian_ring_xi(g, 1.0, 0.0, 0.3, 1.0)
    st = make_state(g, xi0, 0.0)
    again = refresh_velocity(st)
    assert np.array_equal(again.u.u_r, st.u.u_r)
    assert np.array_equal(again.u.u_z, st.u.u_z)


def test_factored_operators_never_go_stale():
    # one grid keeps one factored operator per diffusion, refactored when
    # theta nu dt changes; every call must equal the same call on a fresh grid
    def grid():
        return build_grid(16, 32, 3.0, -3.0, 3.0)

    g = grid()
    values = gaussian_ring_xi(g, 1.0, 0.0, 0.3, 1.0).values
    diffusions = ((diffuse_relative_vorticity, "relative_vorticity"),
                  (diffuse_vorticity, "vorticity"), (_diffuse_dual, "dual"))
    for dt, theta in ((0.02, 0.5), (0.05, 0.5), (0.02, 0.5), (0.02, 1.0), (0.05, 0.5)):
        for diffuse, role in diffusions:
            got = diffuse(ScalarField(g, values, role), 0.01, dt, theta)
            want = diffuse(ScalarField(grid(), values, role), 0.01, dt, theta)
            assert np.array_equal(got.values, want.values)

    # a truncated last step (0.07 = 3 x 0.02 + 0.01) and adaptive dt (five
    # steps of varying length for this stronger ring), on both routes, after
    # the loop above has left other factors in each slot
    for scheme in ("xi_semilagrangian", "omega_conservative"):
        for plan, t_final in ((TimeStepPlan(dt=0.02, scheme=scheme), 0.07),
                              (TimeStepPlan(scheme=scheme, cfl=0.3), 0.05)):
            got, _ = run(make_state(g, 20.0 * values, 0.01), t_final, plan)
            want, _ = run(make_state(grid(), 20.0 * values, 0.01), t_final, plan)
            assert got.step_index == want.step_index >= 3
            assert np.array_equal(got.xi.values, want.xi.values)
            assert np.array_equal(got.u.u_r, want.u.u_r)
